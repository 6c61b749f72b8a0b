"""Certificates: non-redundancy, bounds, exact rank, identifiability,
span identities, obstructions and pinning."""

import json
import random
from fractions import Fraction
from itertools import combinations
from math import comb
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from certs import certified, factor_mask, find, subset_rank
from oracles import (
    all_partitions,
    changed_basis_point_set,
    exponents_desc_lex,
    gauss_rank,
    hadamard_gram_rank,
    in_span,
    matrix_of_two_factor_tensor,
    monomial_values,
    outer_product_flat,
)
from tensorcert import certify, geometry
from tensorcert.certify import (
    ASSERTED,
    CLAIM_CACTUS_BOUND,
    CLAIM_EXACT_RANK,
    CLAIM_IDENTIFIABLE,
    CLAIM_MINIMAL_RANK,
    CLAIM_NON_REDUNDANT,
    CLAIM_OBSTRUCTION,
    CLAIM_PINNING,
    CLAIM_SPAN_IDENTITY,
    FAIL,
    PASS,
    bound_cactus_rank,
    certify_exact_rank,
    certify_identifiability,
    check_non_redundant,
    check_span_intersection_identity,
    hypothesis,
    obstruct_alt_decompositions,
    pin_projections,
)
from tensorcert.cli import instance_from_json
from tensorcert.construct import derive_seed, random_decomposition
from tensorcert.geometry import (
    MultiPoint,
    MultiShape,
    PointSet,
    assemble_tensor,
    bipartition,
)
from tensorcert.kruskal import kruskal_certificate
from tensorcert.linalg import primitive
from tensorcert.symmetric import comon_certify


def pt(*factors):
    return MultiPoint(factors)


def pset(dims, *points):
    return PointSet(MultiShape(tuple(dims)), tuple(points))


def sample(dims, r, seed, box=9):
    return random_decomposition(MultiShape(tuple(dims)), r, box=box, seed=seed)


IDENTITY_PAIR = pset((1, 1), pt((1, 0), (1, 0)), pt((0, 1), (0, 1)))


# -- non-redundancy


def test_non_redundant_identity_pair():
    cert = check_non_redundant(IDENTITY_PAIR, (1, 1))
    assert certified(cert)
    assert cert["claim"] == CLAIM_NON_REDUNDANT
    assert cert["conclusion"] == {"cardinality": 2}
    names = [h["name"] for h in cert["hypotheses"]]
    assert names.count("tensor_outside_span_of_proper_subset") == 2
    assert all(h["status"] != FAIL for h in cert["hypotheses"])


def test_non_redundant_fails_when_a_point_is_superfluous():
    # the tensor is the first point's Segre vector alone
    s = pset((1, 1), pt((1, 0), (1, 0)), pt((0, 1), (0, 1)))
    cert = check_non_redundant(s, (1, 0))
    assert not certified(cert)
    assert cert["conclusion"] is None
    failing = [h for h in cert["hypotheses"] if h["status"] == FAIL]
    assert [h["witness"] for h in failing] == [{"point_removed": 1}]


def test_non_redundant_fails_on_dependent_evaluation_vectors():
    # three points sharing the first factor span only a 2-dim slice
    s = pset(
        (1, 1),
        pt((1, 0), (1, 0)),
        pt((1, 0), (0, 1)),
        pt((1, 0), (1, 1)),
    )
    cert = check_non_redundant(s, (1, 1, 1))
    assert not certified(cert)
    first = cert["hypotheses"][0]
    assert first["name"] == "evaluation_vectors_independent"
    assert first["status"] == FAIL
    assert first["witness"] == {"rank": 2, "cardinality": 3}


def test_non_redundant_rejects_shape_mismatch():
    # one weight per point
    with pytest.raises(ValueError, match="^3 weights for 2 points$"):
        check_non_redundant(IDENTITY_PAIR, (1, 1, 1))


def oracle_non_redundancy(coords, rows):
    """The same hypotheses from the oracle: plain ranks and one span test
    per proper subset S minus p_j."""
    r = len(rows)
    rank = gauss_rank(rows)
    hyps = [
        hypothesis(
            "evaluation_vectors_independent",
            PASS if rank == r else FAIL,
            {"rank": rank, "cardinality": r},
        )
    ]
    if rank != r:
        return hyps, False
    with_t = gauss_rank(rows + [coords])
    hyps.append(
        hypothesis(
            "tensor_in_span",
            PASS if with_t == rank else FAIL,
            {"span_rank": rank, "rank_with_tensor": with_t},
        )
    )
    if with_t != rank:
        return hyps, False
    inside = [in_span(coords, rows[:j] + rows[j + 1:]) for j in range(r)]
    for j, x in enumerate(inside):
        hyps.append(
            hypothesis(
                "tensor_outside_span_of_proper_subset",
                FAIL if x else PASS,
                {"point_removed": j},
            )
        )
    return hyps, not any(inside)


def dependent_point_set(rng, seed):
    """A random point set plus two points p', p'' that share all factors
    but the last with its first point p, where p'' = p + p' in that
    factor, so Segre(p'') = Segre(p) + Segre(p') and the rows are dependent."""
    dims = tuple(rng.randint(1, 2) for _ in range(rng.randint(2, 3)))
    s, _ = sample(dims, rng.randint(1, 3), seed=derive_seed(seed, 4))
    p = s.points[0]
    c = tuple(Fraction(rng.randint(-3, 3)) for _ in p.factors[-1])
    last = tuple(x + y for x, y in zip(p.factors[-1], c))
    assume(any(c) and any(last))
    extra = (p.replace_factor(len(dims), c), p.replace_factor(len(dims), last))
    assume(len(set(s.points + extra)) == len(s) + 2)
    return PointSet(s.shape, s.points + extra)


@pytest.mark.parametrize("case", ["valid", "zeroed_weight", "dependent_row"])
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_non_redundancy_hypotheses_match_the_oracle(case, seed):
    """check_non_redundant and comon's degree-k non-redundancy, which read
    ranks off Grams and the zero pattern of the weights, against plain
    span tests on the explicit Segre and Veronese rows."""
    rng = random.Random(seed)
    if case == "dependent_row":
        s = dependent_point_set(rng, seed)
    else:
        dims = tuple(rng.randint(1, 2) for _ in range(rng.randint(2, 3)))
        s, _ = sample(dims, rng.randint(1, 5), seed=derive_seed(seed, 4))
    weights = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4)) for _ in s.points]
    if case == "zeroed_weight":
        weights[rng.randrange(len(s))] = Fraction(0)
    rows = [outer_product_flat(p.factors) for p in s.points]
    coords = [sum(w * row[i] for w, row in zip(weights, rows)) for i in range(len(rows[0]))]
    hyps, ok = oracle_non_redundancy(coords, rows)
    cert = check_non_redundant(s, weights)
    assert cert["hypotheses"] == hyps
    assert certified(cert) == ok

    # symmetric: r points of P^n at degree k, few enough to be independent
    # at degree floor(k/2) in general, which comon checks first
    n, k = rng.randint(1, 2), rng.randint(1, 5)
    r = rng.randint(1, comb(n + k // 2, n) + k % 2)
    points = [[rng.randint(-4, 4) for _ in range(n + 1)] for _ in range(r)]
    points = [p for p in points if any(p)] or [[1] + [0] * n]
    points = list({primitive(p): p for p in points}.values())
    a = PointSet(MultiShape((n,)), tuple(MultiPoint((p,)) for p in points))
    weights = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4)) for _ in a.points]
    if case == "zeroed_weight":
        weights[rng.randrange(len(a))] = Fraction(0)
    rows = [monomial_values(p, exponents_desc_lex(n, k)) for p in points]
    coords = [sum(w * row[i] for w, row in zip(weights, rows)) for i in range(len(rows[0]))]
    hyps, ok = oracle_non_redundancy(coords, rows)
    cert = comon_certify(a, weights, k)
    if cert["hypotheses"][0]["status"] == PASS:
        assert cert["hypotheses"][1:] == hyps
        assert certified(cert) == ok


# -- cactus rank lower bounds


def test_bound_identity_pair_from_both_orientations():
    report = bound_cactus_rank(IDENTITY_PAIR, (1, 1))
    assert report["best_bound"] == 2
    assert len(report["per_partition"]) == 2
    assert all(e["applicable"] and e["bound"] == 2 for e in report["per_partition"])
    cert = report["certificate"]
    assert cert["claim"] == CLAIM_CACTUS_BOUND
    assert certified(cert)
    assert cert["conclusion"]["cactus_rank_at_least"] == 2
    assert cert["conclusion"]["rank_at_least"] == 2
    assert cert["hypotheses"][0]["name"] == "evaluation_vectors_independent"
    assert all(h["status"] == PASS for h in cert["hypotheses"])


def test_bound_on_the_seeded_three_factor_sample():
    s, weights = sample((2, 3, 5), 6, seed=11)
    report = bound_cactus_rank(s, weights, 0b011)
    assert report["best_bound"] == 6
    assert report["best_partition"] == {"E": [1, 2], "F": [3]}
    assert report["per_partition"][0]["applicable"]
    full = bound_cactus_rank(s, weights)
    assert full["best_bound"] == 6
    assert len(full["per_partition"]) == 6


def test_bound_reports_why_partitions_fail():
    # shared second factor: E={1} leaves a rank-1 F side, E={2} has h1 > 0
    s = pset((1, 1), pt((1, 0), (1, 0)), pt((0, 1), (2, 0)))
    report = bound_cactus_rank(s, (1, 1))
    assert report["best_bound"] == 1
    assert report["best_partition"] is None
    reasons = {e["reason"] for e in report["per_partition"]}
    assert reasons == {
        "bound does not exceed the trivial 1",
        "h1 of the E-flattening is nonzero",
    }
    assert not certified(report["certificate"])
    assert find(report["certificate"], "e_flattening_independent")[0]["status"] == FAIL


def test_bound_rejects_partition_of_the_wrong_arity():
    # an E-bitmask of two factors lies strictly between 0 and 0b11; the
    # weights (1, 0) are redundant, and the mask is refused all the same
    for search in (bound_cactus_rank, certify_exact_rank):
        for mask in (0, 0b11, 0b100, -1):
            message = f"^partition mask {mask} leaves a side of the 2 factors empty$"
            with pytest.raises(ValueError, match=message):
                search(IDENTITY_PAIR, (1, 0), mask)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 500))
def test_two_factor_bound_matches_the_matrix_rank_oracle(seed):
    # equality needs one factor matrix of full row rank; without it the
    # bound is still sound but can undershoot (see the regression below)
    rng = random.Random(seed)
    dims = (rng.randint(1, 3), rng.randint(1, 4))
    r = rng.randint(1, max(dims) + 1)
    s, weights = sample(dims, r, seed=derive_seed(seed, 3))
    factor_ranks = [gauss_rank([p.factors[i] for p in s.points]) for i in (0, 1)]
    if max(factor_ranks) < len(s):
        return
    oracle = gauss_rank(matrix_of_two_factor_tensor(assemble_tensor(weights, s), dims))
    assert bound_cactus_rank(s, weights)["best_bound"] == oracle


def test_two_factor_bound_can_undershoot_without_an_applicable_partition():
    # both factor matrices are row-rank deficient, so no orientation
    # applies and the report falls back to the trivial bound even though
    # the set is non-redundant and the matrix rank is 2
    s = pset(
        (3, 1),
        pt((1, 0, 0, 0), (1, 0)),
        pt((0, 1, 0, 0), (0, 1)),
        pt((0, 0, 1, 0), (1, 1)),
        pt((1, 1, 1, 0), (1, 2)),
    )
    weights = (1, 1, 1, 1)
    assert certified(check_non_redundant(s, weights))
    report = bound_cactus_rank(s, weights)
    assert report["best_bound"] == 1
    assert all(not e["applicable"] for e in report["per_partition"])
    oracle = gauss_rank(matrix_of_two_factor_tensor(assemble_tensor(weights, s), (3, 1)))
    assert oracle == 2
    assert report["best_bound"] <= oracle


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 500))
def test_applicable_bounds_never_exceed_the_cardinality(seed):
    rng = random.Random(seed)
    dims = tuple(rng.randint(1, 2) for _ in range(rng.randint(2, 3)))
    r = rng.randint(1, 4)
    s, weights = sample(dims, r, seed=derive_seed(seed, 4))
    report = bound_cactus_rank(s, weights)
    for entry in report["per_partition"]:
        if entry["applicable"]:
            assert 2 <= entry["bound"] <= len(s)


# -- the bipartition search both certifiers read


def plain_bipartitions(s, partition):
    """The per-subset search: every bipartition ranked on its own."""
    k = s.shape.k
    parts = all_partitions(k) if partition is None else [bipartition(partition, k).values()]
    for e, f in parts:
        yield factor_mask(e), len(s) - subset_rank(s, e), subset_rank(s, f)


@st.composite
def search_point_sets(draw):
    """Point sets on up to 8 factors of 1-3 coordinates.  Pooled sets
    draw each factor vector from two per factor, so many subsets are
    dependent; r up to 10 makes some whole sets dependent too."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=8))
    vectors = [st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any) for n in sizes]
    if draw(st.booleans()):
        vectors = [st.sampled_from(draw(st.lists(v, min_size=2, max_size=2))) for v in vectors]
    r = draw(st.integers(1, 10))
    points = {pt(*(draw(v) for v in vectors)): None for _ in range(r)}
    weights = draw(st.lists(st.integers(-2, 2), min_size=len(points), max_size=len(points)))
    return pset(tuple(n - 1 for n in sizes), *points), weights


@settings(max_examples=80, deadline=None)
@given(search_point_sets())
def test_the_search_yields_the_ranks_of_a_fresh_point_set(case):
    s, _ = case
    fresh = PointSet(s.shape, s.points)
    k = s.shape.k
    triples = list(certify._bipartitions(s, None))
    assert [mask for mask, _, _ in triples] == [factor_mask(e) for e, _ in all_partitions(k)]
    for mask, h1_e, rank_f in triples:
        e, f = bipartition(mask, k).values()
        assert h1_e == len(fresh) - subset_rank(fresh, e), mask
        assert rank_f == subset_rank(fresh, f), mask


@pytest.mark.parametrize("k", [11, 12])
def test_the_search_past_ten_factors_matches_the_hadamard_oracle(k):
    # two vectors per factor of 1-3 coordinates, so that points share
    # factors and subsets of many sizes are dependent; the oracle ranks a
    # seeded sample of 64 bipartitions, since all of them take seconds
    rng = random.Random(k)
    pools = [
        [(rng.randint(1, 3), *(rng.randint(-3, 3) for _ in range(n - 1))) for _ in range(2)]
        for n in (rng.randint(1, 3) for _ in range(k))
    ]
    points = {pt(*(rng.choice(pool) for pool in pools)): None for _ in range(14)}
    s = pset(tuple(len(pool[0]) - 1 for pool in pools), *points)
    triples = list(certify._bipartitions(s, None))
    assert [mask for mask, _, _ in triples] == [factor_mask(e) for e, _ in all_partitions(k)]
    assert {h1_e == 0 for _, h1_e, _ in triples} == {True, False}
    for mask, h1_e, rank_f in rng.sample(triples, 64):
        e, f = bipartition(mask, k).values()
        assert h1_e == len(s) - hadamard_gram_rank(s, e), mask
        assert rank_f == hadamard_gram_rank(s, f), mask


@settings(max_examples=60, deadline=None)
@given(search_point_sets())
def test_the_search_leaves_the_bound_and_exact_rank_json_unchanged(case):
    s, weights = case

    def outputs(search):
        fresh = PointSet(s.shape, s.points)
        with mock.patch.object(certify, "_bipartitions", search):
            bound = bound_cactus_rank(fresh, weights)
            exact = certify_exact_rank(fresh, weights)
        return json.dumps([bound, exact])

    assert outputs(certify._bipartitions) == outputs(plain_bipartitions)


# -- exact rank


def test_exact_rank_identity_pair():
    weights = (1, 1)
    cert = certify_exact_rank(IDENTITY_PAIR, weights)
    assert certified(cert)
    assert cert["claim"] == CLAIM_EXACT_RANK
    assert cert["conclusion"] == {
        "rank": 2,
        "cactus_rank": 2,
        "partition": {"E": [1], "F": [2]},
    }


def test_exact_rank_seeded_sample_with_a_pinned_partition():
    s, weights = sample((2, 3, 5), 6, seed=11)
    cert = certify_exact_rank(s, weights, 0b011)
    assert certified(cert)
    assert cert["conclusion"]["rank"] == 6
    attempts = find(cert, "partition_with_both_flattenings_independent")[0]
    assert attempts["witness"]["attempts"] == [
        {"partition": {"E": [1, 2], "F": [3]}, "h1_E": 0, "h1_F": 0}
    ]


def test_exact_rank_records_failed_partitions():
    # both factor projections of rank 2 cannot certify three points
    s = pset(
        (1, 1),
        pt((1, 0), (1, 0)),
        pt((0, 1), (0, 1)),
        pt((1, 1), (1, 2)),
    )
    weights = (1, 1, 1)
    cert = certify_exact_rank(s, weights)
    assert not certified(cert)
    attempts = find(cert, "partition_with_both_flattenings_independent")[0]
    assert attempts["status"] == FAIL
    assert len(attempts["witness"]["attempts"]) == 2
    assert all(
        a["h1_E"] > 0 or a["h1_F"] > 0 for a in attempts["witness"]["attempts"]
    )


def test_exact_rank_requires_non_redundancy_first():
    s = pset((1, 1), pt((1, 0), (1, 0)), pt((0, 1), (0, 1)))
    weights = (1, 0)  # the tensor is the first point's Segre vector alone
    cert = certify_exact_rank(s, weights)
    assert not certified(cert)
    assert not find(cert, "partition_with_both_flattenings_independent")


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 500))
def test_exact_rank_certificates_are_consistent_with_the_bound(seed):
    rng = random.Random(seed)
    dims = tuple(rng.randint(1, 2) for _ in range(rng.randint(2, 3)))
    r = rng.randint(1, 3)
    s, weights = sample(dims, r, seed=derive_seed(seed, 5))
    cert = certify_exact_rank(s, weights)
    if certified(cert):
        assert bound_cactus_rank(s, weights)["best_bound"] == len(s)
        assert certified(check_non_redundant(s, weights))


# -- identifiability


def test_identifiability_rejects_a_collapsing_shared_factor_family():
    # P and Q share four of five factors, so nu(P) + nu(Q) drops to a
    # single product vector and the true rank is 2, not 3; the projection
    # hypothesis must refuse to certify minimality for this set
    a, b = (1, 0), (0, 1)
    p_last, q_last, r_last = (1, 0), (0, 1), (1, 1)
    s = pset(
        (1, 1, 1, 1, 1),
        pt(a, a, a, a, p_last),
        pt(a, a, a, a, q_last),
        pt(b, b, b, b, r_last),
    )
    weights = (1, 1, 1)
    assert certified(check_non_redundant(s, weights))
    cert = certify_identifiability(s, weights)
    assert not certified(cert)
    assert cert["claim"] == CLAIM_MINIMAL_RANK
    proj = find(cert, "factor_projections_injective_or_constant")[0]
    assert proj["status"] == FAIL
    assert proj["witness"]["violating_factors"] == [1, 2, 3, 4]
    assert proj["witness"]["projection_sizes"] == [2, 2, 2, 2, 3]
    # the collapse: nu(P) + nu(Q) is itself a product vector, so the
    # tensor has the two-point decomposition below and rank 2, which is
    # what refusing to certify minimality at cardinality 3 protects
    collapsed = pt(a, a, a, a, (1, 1))
    two_points = pset((1, 1, 1, 1, 1), collapsed, pt(b, b, b, b, r_last))
    assert assemble_tensor((1, 1), two_points) == assemble_tensor(weights, s)


def test_identifiability_certifies_rank_two_on_four_factors():
    s, weights = sample((2, 1, 1, 1), 2, seed=21)
    cert = certify_identifiability(s, weights)
    assert certified(cert)
    assert cert["claim"] == CLAIM_IDENTIFIABLE
    assert cert["conclusion"] == {"rank": 2, "minimal": True, "identifiable": True}
    card = find(cert, "cardinality_within_range")[0]
    assert card["witness"] == {
        "two_r": 4,
        "k_effective": 4,
        "minimal_when_at_most": 6,
        "identifiable_when_at_most": 5,
    }


def test_identifiability_certifies_only_minimality_for_rank_three():
    s, weights = sample((2, 1, 1, 1), 3, seed=22)
    cert = certify_identifiability(s, weights)
    assert certified(cert)
    assert cert["claim"] == CLAIM_MINIMAL_RANK
    assert cert["conclusion"] == {"rank": 3, "minimal": True, "identifiable": False}


def test_identifiability_singleton_is_always_identifiable():
    s = pset((1, 1), pt((1, 2), (3, 4)))
    weights = (5,)
    cert = certify_identifiability(s, weights)
    assert certified(cert)
    assert cert["claim"] == CLAIM_IDENTIFIABLE
    assert find(cert, "singleton_decomposition")[0]["status"] == PASS
    assert cert["conclusion"] == {"rank": 1, "minimal": True, "identifiable": True}


def test_identifiability_drops_constant_factors_soundly():
    # the third factor is constant; it contributes nothing to the count
    c = (1, 2)
    s = pset(
        (1, 1, 1),
        pt((1, 0), (1, 0), c),
        pt((0, 1), (0, 1), c),
    )
    weights = (1, 1)
    cert = certify_identifiability(s, weights)
    assert certified(cert)
    assert cert["claim"] == CLAIM_MINIMAL_RANK
    proj = find(cert, "factor_projections_injective_or_constant")[0]
    assert proj["witness"]["constant_factors"] == [3]
    assert proj["witness"]["k_effective"] == 2
    assert cert["conclusion"] == {"rank": 2, "minimal": True, "identifiable": False}


def test_identifiability_two_factors_certifies_minimality_only():
    weights = (1, 1)
    cert = certify_identifiability(IDENTITY_PAIR, weights)
    assert certified(cert)
    assert cert["claim"] == CLAIM_MINIMAL_RANK
    assert cert["conclusion"]["identifiable"] is False


def test_identifiability_gives_up_beyond_the_cardinality_range():
    # five generic points on three factors: 2r = 10 > k_eff + 2 = 5
    s, weights = sample((2, 2, 2), 5, seed=23)
    assert certified(check_non_redundant(s, weights))
    cert = certify_identifiability(s, weights)
    assert not certified(cert)
    assert cert["claim"] == CLAIM_MINIMAL_RANK
    card = find(cert, "cardinality_within_range")[0]
    assert card["status"] == FAIL


def test_identifiability_requires_non_redundancy():
    s = pset((1, 1), pt((1, 0), (1, 0)), pt((0, 1), (0, 1)))
    weights = (1, 0)  # the tensor is the first point's Segre vector alone
    cert = certify_identifiability(s, weights)
    assert not certified(cert)
    assert not find(cert, "factor_projections_injective_or_constant")


# -- span intersection identity


def test_span_identity_on_equal_sets():
    a = IDENTITY_PAIR
    cert = check_span_intersection_identity(a, a)
    assert certified(cert)
    assert cert["claim"] == CLAIM_SPAN_IDENTITY
    assert cert["conclusion"] == {"intersection_dim": 1, "rhs": 1}


def test_span_identity_on_disjoint_generic_points():
    a = pset((1, 1), pt((1, 0), (1, 0)))
    b = pset((1, 1), pt((0, 1), (0, 1)))
    cert = check_span_intersection_identity(a, b)
    assert certified(cert)
    assert cert["conclusion"] == {"intersection_dim": -1, "rhs": -1}


def test_span_identity_with_one_common_point():
    shape = (1, 1)
    p, q, r = pt((1, 0), (1, 0)), pt((0, 1), (0, 1)), pt((1, 1), (1, 2))
    a = pset(shape, p, q)
    b = pset(shape, q, r)
    cert = check_span_intersection_identity(a, b)
    assert certified(cert)
    witness = find(cert, "identity_holds")[0]["witness"]
    assert witness["common_points"] == 1
    assert witness["common_span_dim"] == 0
    assert witness["h1_union"] == 0
    assert cert["conclusion"]["intersection_dim"] == 0


def test_span_identity_sees_excess_intersection_through_h1():
    # five points overfill the eight ambient coordinates of 2x2x2 minus
    # nothing: on 2x2 the union of five points must be dependent, so the
    # spans meet even though the sets are disjoint
    a = pset((1, 1), pt((1, 0), (1, 0)), pt((0, 1), (0, 1)))
    b = pset(
        (1, 1),
        pt((1, 0), (0, 1)),
        pt((0, 1), (1, 0)),
        pt((1, 1), (1, 1)),
    )
    cert = check_span_intersection_identity(a, b)
    assert certified(cert)
    witness = find(cert, "identity_holds")[0]["witness"]
    assert witness["common_points"] == 0
    assert witness["h1_union"] == 1
    assert cert["conclusion"] == {"intersection_dim": 0, "rhs": 0}


def test_span_identity_precondition_failure_is_not_certified():
    a = pset(
        (1, 1),
        pt((1, 0), (1, 0)),
        pt((1, 0), (0, 1)),
        pt((1, 0), (1, 1)),
    )
    b = IDENTITY_PAIR
    cert = check_span_intersection_identity(a, b)
    assert not certified(cert)
    assert find(cert, "first_set_independent")[0]["status"] == FAIL
    assert not find(cert, "identity_holds")


def test_span_identity_rejects_shape_mismatch():
    a = IDENTITY_PAIR
    b = pset((1, 2), pt((1, 0), (1, 0, 0)))
    with pytest.raises(ValueError):
        check_span_intersection_identity(a, b)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 500))
def test_span_identity_holds_on_random_independent_pairs(seed):
    rng = random.Random(seed)
    dims = tuple(rng.randint(1, 2) for _ in range(rng.randint(2, 3)))
    overlap = rng.randint(0, 2)
    extra_a = rng.randint(max(1 - overlap, 0), 2)
    extra_b = rng.randint(max(1 - overlap, 0), 2)
    total = overlap + extra_a + extra_b
    if total < 1:
        return
    s, _ = random_decomposition(MultiShape(dims), total, seed=derive_seed(seed, 6))
    pts = s.points
    a_pts = pts[: overlap + extra_a]
    b_pts = pts[:overlap] + pts[overlap + extra_a :]
    if not a_pts or not b_pts:
        return
    a = PointSet(s.shape, tuple(a_pts))
    b = PointSet(s.shape, tuple(b_pts))
    cert = check_span_intersection_identity(a, b)
    hyp = find(cert, "identity_holds")
    if hyp:
        assert hyp[0]["status"] == PASS


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 5), st.integers(1, 5), st.integers(0, 5))
@example(seed=3, size_a=4, size_b=5, shared=0)
@example(seed=4, size_a=5, size_b=5, shared=2)
def test_span_identity_lhs_matches_ranks_of_explicit_segre_rows(seed, size_a, size_b, shared):
    """The left side from Gram ranks against the Grassmann formula on the
    explicit Segre rows.  On 2x2x2 the eight coordinates hold at most
    eight independent points, so disjoint sets of four and five meet."""
    shared = min(shared, size_a, size_b)
    s, _ = sample((1, 1, 1), size_a + size_b - shared, seed=seed)
    idx_a = tuple(range(size_a))
    idx_b = tuple(range(size_a - shared, size_a - shared + size_b))
    rows = [outer_product_flat(p.factors) for p in s.points]
    rank_a = gauss_rank([rows[i] for i in idx_a])
    rank_b = gauss_rank([rows[i] for i in idx_b])
    assume(rank_a == size_a and rank_b == size_b)
    a = PointSet(s.shape, tuple(s.points[i] for i in idx_a))
    b = PointSet(s.shape, tuple(s.points[i] for i in idx_b))
    cert = check_span_intersection_identity(a, b)
    (hyp,) = find(cert, "identity_holds")
    expected = rank_a + rank_b - gauss_rank([rows[i] for i in idx_a + idx_b]) - 1
    assert hyp["witness"]["lhs_intersection_dim"] == expected
    assert certified(cert)


# -- coordinate obstructions


def test_obstruct_seeded_sample_budget_one():
    s, weights = sample((2, 3, 5), 6, seed=11)
    cert = obstruct_alt_decompositions(s, weights, 1)
    assert certified(cert)
    assert cert["claim"] == CLAIM_OBSTRUCTION
    assert cert["conclusion"]["alternative_max_cardinality"] == 1
    assert cert["conclusion"]["cardinality"] == 6
    capacity = find(cert, "projection_capacity")[0]
    assert capacity["witness"] == {
        "capacity": 9,
        "cardinality": 6,
        "min_dim": 2,
        "exponent": 2,
    }
    checks = find(cert, "independent_conditions_on_all_subsets")[0]
    assert checks["witness"]["subset_size"] == 2
    assert [c["h1"] for c in checks["witness"]["checks"]] == [0, 0, 0]


def test_obstruct_seeded_sample_budget_two_fails():
    s, weights = sample((2, 3, 5), 6, seed=11)
    cert = obstruct_alt_decompositions(s, weights, 2)
    assert not certified(cert)
    capacity = find(cert, "projection_capacity")[0]
    assert capacity["status"] == FAIL
    assert capacity["witness"]["capacity"] == 3


def test_obstruct_flags_non_injective_projections():
    s = pset(
        (1, 1, 1),
        pt((1, 0), (1, 0), (1, 0)),
        pt((1, 0), (0, 1), (0, 1)),
    )
    cert = obstruct_alt_decompositions(s, (1, 1), 1)
    assert not certified(cert)
    bad = find(cert, "different_coordinates")[0]
    assert bad["status"] == FAIL
    assert bad["witness"] == {"factor": 1, "points": [0, 1]}


def test_obstruct_budget_out_of_range():
    s, weights = sample((2, 3, 5), 6, seed=11)
    with pytest.raises(ValueError):
        obstruct_alt_decompositions(s, weights, 0)
    with pytest.raises(ValueError):
        obstruct_alt_decompositions(s, weights, 3)


def test_obstruct_ranks_up_to_the_subset_cap(monkeypatch):
    s, weights = sample((2, 3, 5), 6, seed=11)
    monkeypatch.setattr(certify, "MAX_RANKED_SUBSETS", 3)
    assert certified(obstruct_alt_decompositions(s, weights, 1))
    monkeypatch.setattr(certify, "MAX_RANKED_SUBSETS", 2)
    with pytest.raises(ValueError, match="asks for 3 factor subsets of size 2, more than the 2"):
        obstruct_alt_decompositions(s, weights, 1)


@pytest.mark.parametrize("k, x", [(5, 1), (6, 2), (7, 3), (8, 5)])
def test_obstruct_asks_each_subset_by_its_own_mask(k, x, monkeypatch):
    # the masks are built as complements of the x left-out factors; each
    # must still be its printed subset's mask, in the printed order
    s, weights = random_decomposition(MultiShape((1,) * k), 3, seed=k)
    asked = []
    ranks = certify.subset_ranks
    monkeypatch.setattr(certify, "subset_ranks", lambda s, masks: asked.append(list(masks)) or ranks(s, masks))
    cert = obstruct_alt_decompositions(s, weights, x)
    (checks,) = find(cert, "independent_conditions_on_all_subsets")
    subsets = [check["subset"] for check in checks["witness"]["checks"]]
    assert subsets == [list(u) for u in combinations(range(1, k + 1), k - x)]
    assert asked[-1] == [factor_mask(u) for u in subsets]


@pytest.mark.parametrize("k, r, x, checked, eliminated", [(16, 12, 8, 12870, 495), (4, 4, 1, 4, 3)])
def test_obstruct_eliminates_only_subsets_without_an_independent_prefix(monkeypatch, k, r, x, checked, eliminated):
    # 12 generic points on 2^16: four factors give 16 >= 12 coordinates
    # and are independent, so of the C(16, 8) = 12870 subsets checked
    # only the four-factor prefixes are eliminated, the C(12, 4) = 495
    # subsets of the first 12 factors; the whole set's prefix is one.
    # 4 generic points on 2^4 (`random --shape 2x2x2x2 --r 4 --seed 1`):
    # two factors give 4 = r coordinates, so the unasked prefixes {1, 2},
    # {1, 3} and {2, 3} are eliminated, and they settle the C(4, 3) = 4
    # subsets checked, which are never eliminated themselves
    s, weights = random_decomposition(MultiShape((1,) * k), r, seed=1)
    calls = []
    pivot_rows = geometry._pivot_rows
    monkeypatch.setattr(geometry, "_pivot_rows", lambda gram, n: calls.append(gram) or pivot_rows(gram, n))
    cert = obstruct_alt_decompositions(s, weights, x)
    assert certified(cert)
    assert len(find(cert, "independent_conditions_on_all_subsets")[0]["witness"]["checks"]) == checked
    assert len(calls) == eliminated


# -- non-redundancy inside the bound and the obstruction


@st.composite
def parsed_instances(draw):
    """Instances the parser accepts, shared factors and dependent point
    sets included: each factor of a point is a new small vector or a copy
    of an earlier point's."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    points: list[list[list[str]]] = []
    for j in range(draw(st.integers(1, 6))):
        points.append([
            points[draw(st.integers(0, j - 1))][i]
            if j and draw(st.booleans())
            else [str(x) for x in draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any))]
            for i, n in enumerate(sizes)
        ])
    weights = [str(draw(st.integers(-3, 3).filter(bool))) for _ in points]
    try:
        return instance_from_json({"dims": sizes, "points": points, "weights": weights})
    except ValueError:  # proportional duplicates, or a vanishing weighted sum
        assume(False)


@settings(max_examples=150, deadline=None)
@given(parsed_instances())
def test_bound_and_obstruction_certify_as_their_own_hypotheses_say(inst):
    # h1 = 0 on any factor subset makes the whole set independent, and the
    # parser rejects zero weights, so non-redundancy never decides alone
    s, weights = inst.points, inst.weights
    report = bound_cactus_rank(s, weights)
    assert certified(report["certificate"]) == (report["best_partition"] is not None)
    certs = [report["certificate"]]
    for x in range(1, s.shape.k):
        cert = obstruct_alt_decompositions(s, weights, x)
        (checks,) = find(cert, "independent_conditions_on_all_subsets")
        expected = (
            find(cert, "different_coordinates")[0]["status"] == PASS
            and find(cert, "projection_capacity")[0]["status"] == PASS
            and all(c["h1"] == 0 for c in checks["witness"]["checks"])
        )
        assert certified(cert) == expected
        certs.append(cert)
    for cert in certs:
        assert cert["hypotheses"][0]["name"] == "evaluation_vectors_independent"
        assert all(h["status"] != ASSERTED for h in cert["hypotheses"])


def certificates(s, weights):
    """Every library certificate on (s, weights), or the message of the
    ValueError a certifier raises instead."""
    calls = [
        (check_non_redundant, (s, weights)),
        (bound_cactus_rank, (s, weights)),
        (certify_exact_rank, (s, weights)),
        (certify_identifiability, (s, weights)),
        (kruskal_certificate, (s,)),
        *((obstruct_alt_decompositions, (s, weights, x)) for x in range(1, s.shape.k)),
    ]
    out = []
    for certifier, args in calls:
        try:
            out.append(certifier(*args))
        except ValueError as exc:
            out.append(f"ValueError: {exc}")
    return out


def invertible_matrices(n):
    square = st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)
    return square.filter(lambda g: gauss_rank(g) == n)


@settings(max_examples=100, deadline=None)
@given(parsed_instances().flatmap(
    lambda inst: st.tuples(st.just(inst), st.tuples(*map(invertible_matrices, inst.points.shape.sizes)))
))
@example((
    # both points agree in their first coordinate of factor 1, until the swap
    instance_from_json({"dims": [2, 2], "points": [[["1", "0"], ["1", "2"]], [["1", "1"], ["1", "2"]]]}),
    ([[0, 1], [1, 0]], [[1, 0], [1, 1]]),
))
def test_certificates_are_invariant_under_a_change_of_basis_in_each_factor(case):
    # flattening ranks, Kruskal ranks and the equality of projective points
    # are invariants of GL(n_1 + 1) x ... x GL(n_k + 1); the weights stay,
    # since the action is linear on the tensor they sum to
    inst, matrices = case
    moved = changed_basis_point_set(inst.points, matrices)
    before, after = ([json.dumps(c) for c in certificates(s, inst.weights)] for s in (inst.points, moved))
    assert after == before


def with_points_moved(value, position):
    """``value`` with each point index j that a certificate in it names
    moved to position[j], every list of hypotheses sorted, and the pair of
    points a different_coordinates witness names (the first colliding
    pair, which depends on the order) left out."""
    if isinstance(value, list):
        return [with_points_moved(v, position) for v in value]
    if not isinstance(value, dict):
        return value
    out = {key: with_points_moved(v, position) for key, v in value.items()}
    if "point_removed" in out:
        out["point_removed"] = position[out["point_removed"]]
    if out.get("name") == "different_coordinates":
        out["witness"].pop("points", None)
    if "hypotheses" in out:
        out["hypotheses"].sort(key=json.dumps)
    return out


@settings(max_examples=100, deadline=None)
@given(parsed_instances().flatmap(lambda inst: st.tuples(
    st.just(inst),
    st.permutations(range(len(inst.points))),
    # a zero weight fails the non-redundancy hypothesis of its point alone
    st.sampled_from([None, *range(len(inst.points))]),
)))
@example((
    # the zero-weight point moves from first to last
    instance_from_json({"dims": [2, 2], "points": [[["1", "0"], ["1", "2"]], [["1", "1"], ["0", "1"]]]}),
    [1, 0],
    0,
))
def test_certificates_are_invariant_under_a_permutation_of_the_points(case):
    # every claim, status and conclusion is a property of the set; only the
    # point indices the hypotheses name move with the points
    inst, order, zero = case
    weights = [0 if j == zero else w for j, w in enumerate(inst.weights)]
    moved = PointSet(inst.points.shape, [inst.points.points[j] for j in order])
    position = {j: i for i, j in enumerate(order)}
    before = [with_points_moved(cert, position) for cert in certificates(inst.points, weights)]
    after = [with_points_moved(cert, range(len(order))) for cert in certificates(moved, [weights[j] for j in order])]
    assert after == before


def test_a_zero_weight_fails_the_bound_and_the_obstruction():
    s, weights = sample((2, 3, 5), 6, seed=11)
    weights = (0,) + weights[1:]
    report = bound_cactus_rank(s, weights)
    assert report["best_bound"] == 6
    for cert in (report["certificate"], obstruct_alt_decompositions(s, weights, 1)):
        assert not certified(cert)
        failed = [h["name"] for h in cert["hypotheses"] if h["status"] == FAIL]
        assert failed == ["tensor_outside_span_of_proper_subset"]


# -- projection pinning


def test_pin_projections_on_the_seeded_sample():
    s, weights = sample((2, 2, 5), 6, seed=31)
    families = [(1, 2), (1, 2), (3,)]
    cert = pin_projections(s, weights, families, quasi_general_asserted=True)
    assert certified(cert)
    assert cert["claim"] == CLAIM_PINNING
    assert cert["conclusion"]["usable_families"] == [1, 2]
    assert cert["conclusion"]["pinned_factors"] == [1, 2]
    assert "caveat" in cert["conclusion"]
    asserted = find(cert, "quasi-general")
    assert [h["status"] for h in asserted] == [ASSERTED, ASSERTED, ASSERTED]
    # the third family fails on r < M_F since M_{3} equals the cardinality
    conditions = find(cert, "family_projection_conditions")
    assert [h["status"] for h in conditions] == [PASS, PASS, FAIL]
    assert conditions[2]["witness"]["M_F"] == 6


def test_pin_projections_needs_the_assertion():
    s, weights = sample((2, 2, 5), 6, seed=31)
    families = [(1, 2), (1, 2), (3,)]
    cert = pin_projections(s, weights, families)
    assert not certified(cert)
    assert all(h["status"] == FAIL for h in find(cert, "quasi-general"))


def test_pin_projections_fails_when_the_cardinality_is_too_big():
    s, weights = sample((1, 1, 1), 2, seed=32)
    families = [(1,), (2,), (3,)]
    cert = pin_projections(s, weights, families, quasi_general_asserted=True)
    assert not certified(cert)
    conditions = find(cert, "family_projection_conditions")
    assert all(h["status"] == FAIL for h in conditions)
    assert conditions[0]["witness"]["M_F"] == 2


def test_pin_projections_single_point_pins_every_factor():
    s, weights = sample((1, 1, 1), 1, seed=33)
    families = [(1,), (2,), (3,)]
    cert = pin_projections(s, weights, families, quasi_general_asserted=True)
    assert certified(cert)
    assert cert["conclusion"]["usable_families"] == [1, 2, 3]
    assert cert["conclusion"]["pinned_factors"] == [1, 2, 3]


def test_pin_projections_validates_the_families():
    s, weights = sample((1, 1, 1), 2, seed=34)
    with pytest.raises(ValueError):
        pin_projections(s, weights, [(1,), (2,)], quasi_general_asserted=True)
    with pytest.raises(ValueError):
        pin_projections(s, weights, [(2,), (2,), (3,)], quasi_general_asserted=True)
    with pytest.raises(ValueError):
        pin_projections(
            s, weights, [(1, 2, 3), (2,), (3,)], quasi_general_asserted=True
        )

"""Seeded sampling, one-point augmentation and criterion surveys."""

import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import decomposition_weights, in_span, outer_product_flat, rescaled_point_set
from certs import certified
from tensorcert import construct, linalg
from tensorcert.certify import check_non_redundant
from tensorcert.cli import instance_from_json, pointset_to_json
from tensorcert.construct import (
    AugmentationError,
    _drawable_points,
    augment_decomposition,
    derive_seed,
    random_decomposition,
    survey,
)
from tensorcert.geometry import (
    MultiPoint,
    MultiShape,
    PointSet,
    assemble_tensor,
    different_coordinates_violation,
    flattening_rank,
)
from tensorcert.linalg import primitive


def canonical_set(s):
    return frozenset(p.canonical() for p in s.points)


# -- seed derivation


def test_derive_seed_is_deterministic_and_spread():
    assert derive_seed(7, 0) == derive_seed(7, 0)
    children = {derive_seed(7, i) for i in range(200)}
    assert len(children) == 200
    assert all(0 <= c < 2**64 for c in children)
    assert derive_seed(7, 0) != derive_seed(8, 0)


# -- random decompositions


def test_random_decomposition_is_deterministic():
    shape = MultiShape((2, 3, 5))
    a, wa = random_decomposition(shape, 6, seed=11)
    b, wb = random_decomposition(shape, 6, seed=11)
    assert canonical_set(a) == canonical_set(b)
    assert wa == wb


def test_random_decomposition_seeds_differ():
    shape = MultiShape((1, 1))
    a, _ = random_decomposition(shape, 3, seed=1)
    b, _ = random_decomposition(shape, 3, seed=2)
    assert canonical_set(a) != canonical_set(b)


def _assert_injective_sample(s, weights, r):
    assert len(s) == r == len({p.canonical() for p in s.points})
    assert different_coordinates_violation(s) is None
    assert len(weights) == r and all(w != 0 for w in weights)


def test_random_decomposition_properties():
    _assert_injective_sample(*random_decomposition(MultiShape((1, 2)), 4, seed=5), 4)


def test_random_decomposition_rejects_bad_cardinalities():
    with pytest.raises(ValueError):
        random_decomposition(MultiShape((1, 1)), 0, seed=1)


@pytest.mark.parametrize(
    "dims, r, seeds",
    [((1,) * 10, 12, range(30)), ((1,) * 8, 16, range(30)), ((1,) * 8, 9, [3])],
)
def test_random_decomposition_samples_where_whole_set_rejection_gave_up(dims, r, seeds):
    # a sampler that redrew whole sets gave up on every one of these seeds
    for seed in seeds:
        _assert_injective_sample(*random_decomposition(MultiShape(dims), r, seed=seed), r)


def test_random_decomposition_fills_a_factor_to_capacity_quickly():
    # P^1 holds exactly 111 points at box 9
    start = time.perf_counter()
    s, weights = random_decomposition(MultiShape((1, 1)), 111, seed=0)
    assert time.perf_counter() - start < 2
    _assert_injective_sample(s, weights, 111)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 2), min_size=1, max_size=4),
    st.integers(1, 3),
    st.integers(0, 2**32),
    st.data(),
)
def test_random_decomposition_is_injective_up_to_the_capacity(dims, box, seed, data):
    shape = MultiShape(tuple(dims))
    capacity = min(_drawable_points(size, box) for size in shape.sizes)
    r = data.draw(st.integers(1, capacity))
    s, weights = random_decomposition(shape, r, box=box, seed=seed)
    _assert_injective_sample(s, weights, r)
    again = random_decomposition(shape, r, box=box, seed=seed)
    assert [p.factors for p in again[0].points] == [p.factors for p in s.points]
    assert again[1] == weights
    with pytest.raises(RuntimeError, match=f"room for {capacity} of them"):
        random_decomposition(shape, capacity + 1, box=box, seed=seed)


def test_random_decomposition_fails_on_impossible_injectivity():
    # a zero-dimensional factor has a single projective point
    with pytest.raises(RuntimeError, match="could not sample"):
        random_decomposition(MultiShape((0, 0)), 2, seed=1)


@pytest.mark.parametrize("size", [1, 2, 3])
def test_drawable_points_count_the_primitive_vectors_a_factor_can_draw(size):
    for box in range(1, 10):
        vectors = itertools.product(range(-box, box + 1), repeat=size)
        drawn = {tuple(primitive(v)) for v in vectors if v[0]}
        assert _drawable_points(size, box) == len(drawn), box


# -- augmentation


def test_augment_a_singleton():
    shape = MultiShape((1, 1))
    a = PointSet(shape, (MultiPoint(((1, 2), (3, 1))),))
    tensor = outer_product_flat(a.points[0].factors)
    s, weights, cert = augment_decomposition(a, (1,), seed=3)
    assert len(s) == 2
    assert certified(cert)
    assert certified(check_non_redundant(s, weights))
    assert in_span(tensor, [outer_product_flat(p.factors) for p in s.points])
    assert assemble_tensor(weights, s) == tuple(tensor)


def test_augment_solves_the_new_weights_against_the_given_tensor():
    # any nonzero multiple of the weighted sum names the same tensor; the
    # parser scales the weights to it, and the new weights sum to it too
    a, weights = random_decomposition(MultiShape((1, 2)), 2, seed=4)
    tensor = tuple(-3 * x for x in assemble_tensor(weights, a))
    data = pointset_to_json(a, weights, tensor)
    inst = instance_from_json(data)
    s, new_weights, cert = augment_decomposition(inst.points, inst.weights, seed=2)
    assert certified(cert)
    assert assemble_tensor(new_weights, s) == tensor


def test_augment_the_seeded_three_factor_sample():
    shape = MultiShape((2, 3, 5))
    a, weights = random_decomposition(shape, 6, seed=11)
    s, _, cert = augment_decomposition(a, weights, seed=7)
    assert len(s) == 7
    assert certified(cert)
    # the walk only ever splits the working point, the others survive
    survivors = canonical_set(a) & canonical_set(s)
    assert len(survivors) >= len(a) - 1


def test_augment_eliminates_two_grams_and_borders_each_draw(monkeypatch):
    # random --shape 3x4x6 --r 6 --seed 1, augmented with seed 1: augment
    # factors its input's 6 x 6 Gram once, and the certificate's gram_rank
    # ranks the grown set's 7 x 7 one; no pass or draw starts an
    # elimination.  Both generators are seeded 1, so the first draw is the
    # pivot's own first factor, skipped before any bordering; the second
    # is bordered and leaves the span, and the split borders a_0's row once
    a, weights = random_decomposition(MultiShape((2, 3, 5)), 6, seed=1)
    calls, eliminated = Counter(), []

    def count(name):
        real = getattr(construct, name)
        monkeypatch.setattr(construct, name, lambda *args, **kw: calls.update([name]) or real(*args, **kw))

    def pivot_rows(tri, n, real=linalg._pivot_rows):
        eliminated.append(n)  # the order of the flat triangle
        return real(tri, n)

    for name in ("_border", "_random_factor", "PointSet"):
        count(name)
    monkeypatch.setattr(construct, "_pivot_rows", pivot_rows)
    monkeypatch.setattr(linalg, "_pivot_rows", pivot_rows)
    s, _, cert = augment_decomposition(a, weights, seed=1)
    assert certified(cert)
    assert eliminated == [6, 7]
    # one PointSet: the grown set, which the one pass returns
    assert calls == {"_random_factor": 2, "_border": 2, "PointSet": 1}


@pytest.mark.parametrize("seed", range(20))
def test_augment_replaces_the_pivot_before_it_splits(seed):
    # every perturbation of the pivot's first factor keeps its Segre row in
    # the span of the first two points, so the walk must replace the pivot
    # there and split it on the second factor
    shape = MultiShape((1, 1))
    pivot = MultiPoint(((1, 0), (1, 0)))
    a = PointSet(shape, (pivot, MultiPoint(((0, 1), (1, 0))), MultiPoint(((1, 0), (0, 1)))))
    tensor = assemble_tensor((1, 2, 3), a)
    s, new_weights, cert = augment_decomposition(a, (1, 2, 3), seed=seed)
    assert certified(cert)
    assert assemble_tensor(new_weights, s) == tensor
    new = [p for p in s.points if p not in a.points]
    assert len(new) == 2
    first = {p.canonical()[0] for p in new}
    assert len(first) == 1 and first != {pivot.canonical()[0]}


def test_augment_is_deterministic_in_the_seed():
    shape = MultiShape((1, 1))
    a, weights = random_decomposition(shape, 2, seed=9)
    s1, w1, _ = augment_decomposition(a, weights, seed=5)
    s2, w2, _ = augment_decomposition(a, weights, seed=5)
    s3, _, _ = augment_decomposition(a, weights, seed=6)
    assert w1 == w2
    assert canonical_set(s1) == canonical_set(s2)
    assert canonical_set(s1) != canonical_set(s3)


def test_augment_rejects_an_overfull_set():
    # four independent points fill the 2x2 ambient space, M = 3
    shape = MultiShape((1, 1))
    pts = (
        MultiPoint(((1, 0), (1, 0))),
        MultiPoint(((1, 0), (0, 1))),
        MultiPoint(((0, 1), (1, 0))),
        MultiPoint(((0, 1), (0, 1))),
    )
    a = PointSet(shape, pts)
    with pytest.raises(ValueError, match="ambient dimension 3"):
        augment_decomposition(a, (1, 1, 1, 1))


def test_augment_needs_a_positive_dimension_somewhere():
    shape = MultiShape((0, 0))
    a = PointSet(shape, (MultiPoint(((1,), (2,))),))
    with pytest.raises(ValueError, match="positive dimension"):
        augment_decomposition(a, (2,))


def test_augment_needs_independent_evaluation_vectors():
    shape = MultiShape((1, 1))
    pts = (
        MultiPoint(((1, 0), (1, 0))),
        MultiPoint(((1, 0), (0, 1))),
        MultiPoint(((1, 0), (1, 1))),
    )
    a = PointSet(shape, pts)
    with pytest.raises(ValueError, match="independent"):
        augment_decomposition(a, (1, 1, 1))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 300))
def test_augment_grows_by_exactly_one_and_recertifies(seed):
    shape = MultiShape((1, 1))
    r = seed % 3 + 1
    a, weights = random_decomposition(shape, r, seed=derive_seed(seed, 8))
    tensor = assemble_tensor(weights, a)
    try:
        s, new_weights, cert = augment_decomposition(a, weights, seed=derive_seed(seed, 9))
    except AugmentationError:
        return
    assert len(s) == len(a) + 1
    assert certified(cert)
    assert assemble_tensor(new_weights, s) == tensor


PIVOT_SET = PointSet(
    MultiShape((1, 1)),
    (MultiPoint(((1, 0), (1, 0))), MultiPoint(((0, 1), (1, 0))), MultiPoint(((1, 0), (0, 1)))),
)
multiples = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), multiples, st.booleans())
@example(0, Fraction(-3, 2), True)
@example(1, Fraction(2, 5), False)
def test_augment_weights_match_the_reference_solve(seed, multiple, pivot):
    """The new weights, solved in r + 1 unknowns, equal the M-wide
    reference solve, and over the explicit Segre vectors they sum to the
    tensor the file gives: fractional points and weights, a negative or
    fractional multiple, and (``pivot``) the walk's replacement branch."""
    rng = random.Random(seed)
    if pivot:
        a, weights = PIVOT_SET, (1, 2, 3)
    else:
        dims = tuple(rng.randint(1, 2) for _ in range(rng.randint(2, 3)))
        a, weights = random_decomposition(MultiShape(dims), rng.randint(1, 3), seed=seed)
    a = rescaled_point_set(a, rng)
    weights = [w * Fraction(rng.randint(1, 5), rng.randint(1, 5)) for w in weights]
    assume(flattening_rank(a) == len(a))
    rows = [outer_product_flat(p.factors) for p in a.points]
    given_tensor = [multiple * sum(w * row[j] for w, row in zip(weights, rows)) for j in range(len(rows[0]))]
    inst = instance_from_json(pointset_to_json(a, weights, given_tensor))
    assert all(type(w) is Fraction for w in inst.weights)
    try:
        s, new_weights, cert = augment_decomposition(inst.points, inst.weights, seed=seed)
    except AugmentationError:
        return
    assert certified(cert)
    assert all(type(w) is Fraction for w in new_weights)
    assert new_weights == decomposition_weights(given_tensor, s)
    grown = [outer_product_flat(p.factors) for p in s.points]
    total = [sum(w * row[j] for w, row in zip(new_weights, grown)) for j in range(len(given_tensor))]
    assert total == given_tensor


# -- surveys


def test_survey_counts_and_shape_of_the_report():
    report = survey([MultiShape((1, 1))], [1, 2], trials=3, seed=5)
    assert len(report["rows"]) == 2
    by_r = {row["r"]: row for row in report["rows"]}
    assert by_r[1]["trials"] == 3
    # singletons always certify exact rank and identifiability
    assert by_r[1]["certified_exact_rank"] == 3
    assert by_r[1]["certified_minimal_or_identifiable"] == 3
    assert by_r[1]["kruskal_applies"] == 0
    counts = (
        "certified_exact_rank",
        "certified_minimal_or_identifiable",
        "kruskal_applies",
        "flattening_without_kruskal",
    )
    for row in report["rows"]:
        for field in counts:
            assert 0 <= row[field] <= row["trials"]
        exact, ident = row["certified_exact_rank"], row["certified_minimal_or_identifiable"]
        assert row["flattening_without_kruskal"] <= exact + ident
    assert report["rows"][0]["dims"] == [2, 2]
    assert set(report["rows"][0]) == {
        "dims",
        "r",
        "trials",
        "certified_exact_rank",
        "certified_minimal_or_identifiable",
        "kruskal_applies",
        "flattening_without_kruskal",
    }


def test_survey_is_deterministic():
    shapes = [MultiShape((1, 1, 1))]
    a = survey(shapes, [2], trials=4, seed=13)
    b = survey(shapes, [2], trials=4, seed=13)
    assert a == b

"""Multiprojective geometry: embeddings, flattenings and their ranks."""

import copy
import pickle
import random
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from certs import subset_rank
from oracles import (
    all_partitions,
    decomposition_weights,
    gauss_rank,
    hadamard_gram_rank,
    outer_product_flat,
    permute_flat_coords,
    rescaled_point_set,
)
from tensorcert.certify import (
    MAX_RANKED_SUBSETS,
    bipartition_masks,
    bound_cactus_rank,
    certify_exact_rank,
    check_non_redundant,
)
from tensorcert.cli import instance_from_json, pointset_to_json
from tensorcert.construct import derive_seed, random_decomposition
from tensorcert import geometry
from tensorcert.geometry import (
    MultiPoint,
    MultiShape,
    PointSet,
    assemble_tensor,
    bipartition,
    different_coordinates_violation,
    factor_projection_sizes,
    _factor_gram,
    flattening_rank,
    segre_scale,
    subset_ranks,
    weighted_sum,
)
from tensorcert.kruskal import compare_criteria
from tensorcert.linalg import format_rational


def pt(*factors):
    return MultiPoint(factors)


def pset(dims, *points):
    return PointSet(MultiShape(tuple(dims)), tuple(points))


def segre_function(s):
    """Ranks of the prefix flattenings u = {1}, {1,2}, ..., {1..k}."""
    return tuple(subset_rank(s, range(1, i + 1)) for i in range(1, s.shape.k + 1))


# -- shapes, subsets, partitions


def test_shape_derived_quantities():
    shape = MultiShape((2, 3, 5))
    assert shape.k == 3
    assert shape.sizes == (3, 4, 6)
    assert shape.segre_length() == 72
    assert str(shape) == "3x4x6"
    assert shape.min_dim == 2


def test_shape_rejects_bad_dims():
    with pytest.raises(ValueError):
        MultiShape(())
    with pytest.raises(ValueError):
        MultiShape((1, -1))


def test_all_partitions_enumeration():
    def partitions(k):
        return [bipartition(mask, k) for mask in bipartition_masks(k)]

    parts = partitions(3)
    assert len(parts) == 6
    assert parts[0] == {"E": [1], "F": [2, 3]}
    assert {"E": [1, 2], "F": [3]} in parts
    assert partitions(2) == [{"E": [1], "F": [2]}, {"E": [2], "F": [1]}]
    for k in range(1, 9):
        assert [(tuple(p["E"]), tuple(p["F"])) for p in partitions(k)] == all_partitions(k)
    # 16 factors have 2^16 - 2 bipartitions, within the cap; 17 have too many
    assert bipartition_masks(16) == range(1, 2**16 - 1)
    assert 2**16 - 2 <= MAX_RANKED_SUBSETS < 2**17 - 2
    message = "17 factors have 2^17 - 2 bipartitions, more than the 65536 the search takes"
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        bipartition_masks(17)


# -- points and point sets


def test_point_validation_and_projective_equality():
    with pytest.raises(ValueError):
        MultiPoint(())
    with pytest.raises(ValueError):
        pt((0, 0), (1, 0))
    p = pt((2, 4), (1, 3))
    q = pt((1, 2), (2, 6))
    assert p == q
    assert hash(p) == hash(q)
    assert p != pt((1, 2), (1, 2))
    assert p.canonical() == ((1, 2), (1, 3))


def test_projective_equality_holds_under_negative_rescaling():
    p = pt((2, -4), (Fraction(1, 3), 1))
    q = pt((-1, 2), (-1, -3))
    assert p == q and hash(p) == hash(q)
    assert p.canonical() == q.canonical() == ((1, -2), (1, 3))
    assert p != pt((1, 2), (1, 3))
    with pytest.raises(ValueError, match="positions 0 and 1"):
        pset((1, 1), p, q)


signed_scales = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 400), st.lists(signed_scales, min_size=4, max_size=4))
def test_points_and_tensors_keep_equality_and_hash_under_signed_rescaling(seed, scales):
    rng = random.Random(seed)
    shape = MultiShape(tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 3))))
    s, weights = random_decomposition(shape, 2, seed=seed)
    p = s.points[0]
    q = MultiPoint(tuple(tuple(c * x for x in f) for c, f in zip(scales, p.factors)))
    assert q == p and hash(q) == hash(p)
    assert q != s.points[1]
    # a given tensor names the weighted sum up to any nonzero multiple,
    # and the parsed weights are the file's scaled to sum to it
    data = pointset_to_json(s, weights)
    scaled = tuple(scales[-1] * x for x in assemble_tensor(weights, s))
    data["tensor"] = [format_rational(x) for x in scaled]
    inst = instance_from_json(data)
    assert assemble_tensor(inst.weights, inst.points) == scaled
    assert inst.weights == tuple(scales[-1] * w for w in weights)
    # and the Segre vector is its point's scale times the primitive one
    assert outer_product_flat(q.factors) == [segre_scale(q) * x for x in outer_product_flat(q.canonical())]


def test_shapes_points_and_point_sets_are_read_only_values():
    shape = MultiShape(dims=[1, 2])
    assert shape.dims == (1, 2)
    assert shape == MultiShape((1, 2)) and hash(shape) == hash(MultiShape((1, 2)))
    assert shape != MultiShape((2, 1)) and shape != (1, 2)
    assert repr(shape) == "MultiShape(dims=(1, 2))"
    p, q = MultiPoint(factors=((1, 0), (0, 1, 0))), pt((0, 1), (1, 0, 0))
    assert p == pt((2, 0), (0, -3, 0)) and p != q
    s = PointSet(shape=shape, points=[p, q])
    same = PointSet(shape, (p, q))
    assert s.points == (p, q)
    # the memo is what has been computed for the set, not part of its value
    s.memo["asked"] = True
    assert same.memo == {}
    assert s == same and hash(s) == hash(same)
    assert s != PointSet(shape, (q, p))
    assert repr(s) == f"PointSet(shape={shape!r}, points={(p, q)!r})"
    for value in (shape, p, s):
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value
    for value, name in ((shape, "dims"), (p, "factors"), (s, "shape"), (s, "points"), (s, "memo")):
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    assert s.shape is shape and s.points == (p, q)


def test_replace_factor():
    p = pt((1, 0), (0, 1))
    q = p.replace_factor(2, (1, 1))
    assert q.factors == ((1, 0), (1, 1))
    assert p.factors == ((1, 0), (0, 1))


def test_point_set_rejects_mismatched_points():
    shape = MultiShape((1, 1))
    with pytest.raises(ValueError):
        PointSet(shape, (pt((1, 0),),))
    with pytest.raises(ValueError):
        PointSet(shape, (pt((1, 0, 0), (0, 1)),))


def test_point_set_rejects_projective_duplicates():
    with pytest.raises(ValueError, match="positions 0 and 2"):
        pset((1, 1), pt((1, 0), (1, 2)), pt((0, 1), (1, 2)), pt((2, 0), (2, 4)))


# -- Segre vectors and evaluation matrices


def segre_vector(point):
    """The Segre vector of one point, as the package assembles it."""
    return assemble_tensor((1,), PointSet(MultiShape(tuple(len(f) - 1 for f in point.factors)), (point,)))


def test_segre_vector_single_factor_is_the_vector():
    assert segre_vector(pt((1, 0))) == (1, 0)


def test_segre_vector_two_factors_last_index_fastest():
    assert segre_vector(pt((1, 2), (3, 4))) == (3, 4, 6, 8)


def test_segre_vector_three_factors():
    p = pt((1, 2), (1, 0), (0, 1))
    assert segre_vector(p) == (0, 1, 0, 0, 0, 2, 0, 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 400))
def test_segre_vector_matches_stride_oracle(seed):
    rng = random.Random(seed)
    dims = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 4)))
    point = MultiPoint(
        tuple(
            tuple(Fraction(rng.randint(-5, 5)) for _ in range(n))
            + (Fraction(rng.randint(1, 5)),)
            for n in dims
        )
    )
    assert list(segre_vector(point)) == outer_product_flat(point.factors)


@pytest.mark.parametrize("r", [1, 15, 16, 17, 30, 31, 32, 47])
def test_assemble_tensor_in_batches_is_the_plain_sum(r):
    # rows are summed 16, then 15 at a time: every batch edge gives the sum
    rng = random.Random(r)
    s, _ = random_decomposition(MultiShape((2, 1, 2)), r, seed=r)
    weights = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)) for _ in range(r)]
    rows = [outer_product_flat(p.factors) for p in s.points]
    assert list(assemble_tensor(weights, s)) == [sum(w * x for w, x in zip(weights, col)) for col in zip(*rows)]


def test_weighted_sum_keeps_a_bounded_number_of_rows_alive():
    # with unit coefficients every row costs the same, so 128 rows must
    # peak where 32 do, not at four times their memory
    def peak(r):
        s, _ = random_decomposition(MultiShape((7, 7, 7, 7)), r, seed=1)
        weights = [1 / segre_scale(p) for p in s.points]
        tracemalloc.start()
        try:
            weighted_sum(weights, s)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(128) < 1.25 * peak(32)


# -- flattening ranks and the Segre function


def test_cohomology_of_a_single_point():
    s = pset((1, 1), pt((1, 0), (1, 0)))
    assert flattening_rank(s) == 1


def test_cohomology_detects_a_shared_factor():
    s = pset((2, 1), pt((1, 0, 0), (1, 0)), pt((1, 0, 0), (0, 1)))
    assert subset_rank(s, (1,)) == 1
    assert subset_rank(s, (2,)) == 2
    assert flattening_rank(s) == 2


def test_cohomology_on_a_generic_sample():
    s, _ = random_decomposition(MultiShape((2, 3, 5)), 6, seed=11)
    assert subset_rank(s, (3,)) == 6
    assert subset_rank(s, (1, 2)) == 6
    assert flattening_rank(s) == 6


def test_segre_function_single_point_is_all_ones():
    s = pset((2, 3, 5), pt((1, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0, 0, 0)))
    assert segre_function(s) == (1, 1, 1)


def test_segre_function_shared_first_factor():
    s = pset((1, 1), pt((1, 0), (1, 0)), pt((1, 0), (0, 1)))
    assert segre_function(s) == (1, 2)


def test_segre_function_generic_sample():
    s, _ = random_decomposition(MultiShape((2, 3, 5)), 6, seed=11)
    assert segre_function(s) == (3, 6, 6)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 400))
def test_segre_function_is_nondecreasing_and_ends_at_full_rank(seed):
    rng = random.Random(seed)
    dims = tuple(rng.randint(1, 2) for _ in range(rng.randint(2, 4)))
    r = rng.randint(1, 4)
    s, _ = random_decomposition(MultiShape(dims), r, seed=derive_seed(seed, 1))
    sf = segre_function(s)
    assert all(a <= b for a, b in zip(sf, sf[1:]))
    assert all(1 <= v <= len(s) for v in sf)
    assert sf[-1] == flattening_rank(s)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 400))
def test_adding_factors_to_the_subset_never_drops_the_rank(seed):
    rng = random.Random(seed)
    dims = tuple(rng.randint(0, 2) for _ in range(3))
    points = []
    for _ in range(rng.randint(2, 4)):
        cand = MultiPoint(
            tuple(
                (Fraction(rng.randint(1, 4)),)
                + tuple(Fraction(rng.randint(-4, 4)) for _ in range(n))
                for n in dims
            )
        )
        if all(cand != p for p in points):
            points.append(cand)
    s = PointSet(MultiShape(dims), tuple(points))
    subsets = [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
    ranks = {u: subset_rank(s, u) for u in subsets}
    for u in subsets:
        for v in subsets:
            if set(u) <= set(v):
                assert ranks[u] <= ranks[v]
    assert all(rank <= len(s) for rank in ranks.values())


def test_flattening_rank_matches_gauss_oracle_on_a_sample():
    s, _ = random_decomposition(MultiShape((1, 2, 1)), 4, seed=3)
    for subset in [(1,), (2, 3), (1, 2, 3)]:
        rows = [outer_product_flat([p.factors[i - 1] for i in subset]) for p in s.points]
        assert subset_rank(s, subset) == gauss_rank(rows)


def certify_run(s, weights):
    check_non_redundant(s, weights)
    bound_cactus_rank(s, weights)
    certify_exact_rank(s, weights)


@pytest.mark.parametrize("run", [certify_run, compare_criteria], ids=["certify", "compare"])
@pytest.mark.parametrize("dims", [(1, 2, 2, 1), (2,)], ids=["four_factors", "one_factor"])
def test_certify_and_compare_leave_the_memoized_factor_grams_alone(dims, run):
    # a one-factor subset, and the full set of a one-factor shape, is
    # ranked on the memoized factor Gram itself
    s, weights = random_decomposition(MultiShape(dims), 3, seed=7)
    grams = [_factor_gram(s, i) for i in range(1, s.shape.k + 1)]
    before = copy.deepcopy(grams)
    run(s, weights)
    assert [s.memo[("gram", i)] for i in range(1, s.shape.k + 1)] == before
    assert all(s.memo[("gram", i)] is gram for i, gram in enumerate(grams, start=1))


@st.composite
def point_sets(draw):
    """Point sets with signed fractional coordinates drawn from small
    per-factor pools, so that points often share a factor."""
    dims = tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=4)))
    coord = st.fractions(-3, 3, max_denominator=3)
    vectors = [st.lists(coord, min_size=n + 1, max_size=n + 1).filter(any) for n in dims]
    pools = [draw(st.lists(v, min_size=1, max_size=6)) for v in vectors]
    r = draw(st.integers(1, 8))
    points = {pt(*(draw(st.sampled_from(pool)) for pool in pools)): None for _ in range(r)}
    return PointSet(MultiShape(dims), tuple(points))


# singletons and pairs have M_u < r = 5 and the full set M_u = 8 > r;
# the first point shares factor 1 with the second and factor 2 with the last
SHARED_FACTORS = pset(
    (1, 1, 1),
    pt((1, Fraction(-1, 2)), (2, 3), (1, 0)),
    pt((1, Fraction(-1, 2)), (0, 1), (Fraction(-1, 3), 1)),
    pt((3, 1), (1, 1), (1, 2)),
    pt((-2, Fraction(5, 3)), (1, -1), (0, 1)),
    pt((0, 1), (2, 3), (1, 1)),
)
# every subset has M_u > r = 2
WIDE = pset((3, 2), pt((1, 0, -2, 1), (0, 1, 1)), pt((Fraction(1, 2), 1, 0, 3), (2, 0, -1)))
# factor 1 has rank 2 only through its signs; the second factors are proportional
SIGNS_ONLY = pset((1, 1), pt((1, 1), (1, 2)), pt((1, -1), (-1, -2)))
# factor 1 has corank one on r = 4, its kernel supported on the first
# three points, which share their factor 2 and 3 projections (up to
# scale) but not their factor 4 ones; the last point has others
CORANK_ONE_SHARED = pset(
    (2, 1, 1, 1),
    pt((1, 0, 0), (1, 0), (1, 0), (1, 0)),
    pt((0, 1, 0), (2, 0), (-3, 0), (0, 1)),
    pt((1, 1, 0), (1, 0), (1, 0), (1, 1)),
    pt((0, 0, 1), (0, 1), (0, 1), (1, 0)),
)
# the same kernel support, and factor 2 splits it, though the last point
# shares the first two points' factor 2
CORANK_ONE_SPLIT = pset(
    (2, 1),
    pt((1, 0, 0), (1, 0)),
    pt((0, 1, 0), (1, 0)),
    pt((1, 1, 0), (0, 1)),
    pt((0, 0, 1), (1, 0)),
)

# CORANK_ONE_SHARED on 70 factors, where the walk's keys span 9 bytes:
# its factors 1-4 sit at factors 1, 10, 63 and 70, and every other
# factor is (1 : 0) for all points, so a subset has the rank of its
# factors among those four and {1} keeps its corank one through them
WIDE_AT = (0, 9, 62, 69)
CORANK_ONE_WIDE = PointSet(
    MultiShape(CORANK_ONE_SHARED.shape.dims[WIDE_AT.index(i)] if i in WIDE_AT else 1 for i in range(70)),
    [pt(*(p.factors[WIDE_AT.index(i)] if i in WIDE_AT else (1, 0) for i in range(70))) for p in CORANK_ONE_SHARED.points],
)


def wide(*factors):
    """The bitmask in CORANK_ONE_WIDE of factors of CORANK_ONE_SHARED."""
    return sum(1 << WIDE_AT[i - 1] for i in factors)


def memo_ranks(s):
    """The ranks memoized on S, by bitmask."""
    return {int.from_bytes(m, "little"): rank for m, rank in s.memo["ranks"].items()}


@settings(max_examples=60, deadline=None)
@given(point_sets(), st.randoms(use_true_random=False))
@example(SHARED_FACTORS, random.Random(0))
@example(WIDE, random.Random(1))
@example(SIGNS_ONLY, random.Random(2))
def test_flattening_rank_matches_gauss_oracle_on_every_subset(s, rng):
    k = s.shape.k
    subsets = [u for n in range(1, k + 1) for u in combinations(range(1, k + 1), n)]
    rescaled = rescaled_point_set(s, rng)
    for u in subsets:
        rank = gauss_rank([outer_product_flat([p.factors[i - 1] for i in u]) for p in s.points])
        assert subset_rank(s, u) == rank, u
        assert subset_rank(rescaled, u) == rank, u
    assert flattening_rank(s) == flattening_rank(rescaled) == rank


@st.composite
def walk_cases(draw):
    """A point set on at most six factors of 1-3 coordinates and the mask
    families asked of it, each shuffled and in a shuffled order: single
    factors, the subsets of one size k - x, both sides of every
    bipartition and the full set.  Pooled sets draw each factor vector
    from two per factor, so points share factors; up to 12 points make
    the subsets with M_u < r dependent."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=6))
    vectors = [st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any) for n in sizes]
    if draw(st.booleans()):
        vectors = [st.sampled_from(draw(st.lists(v, min_size=2, max_size=2))) for v in vectors]
    r = draw(st.integers(1, 12))
    points = {pt(*(draw(v) for v in vectors)): None for _ in range(r)}
    k, full = len(sizes), (1 << len(sizes)) - 1
    families = [[1 << i for i in range(k)], [full]]
    if k > 1:
        size = k - draw(st.integers(1, k - 1))
        families.append([sum(1 << (i - 1) for i in u) for u in combinations(range(1, k + 1), size)])
        families.append(list(range(1, full)))
    families = [draw(st.permutations(f)) for f in draw(st.permutations(families))]
    return pset(tuple(n - 1 for n in sizes), *points), families


@settings(max_examples=80, deadline=None)
@given(walk_cases())
@example((SHARED_FACTORS, [[1, 2, 4], [3, 5, 6], [7], list(range(1, 7))]))
# {1} has corank one: {1, 2}, {1, 3} and the grandchild {1, 2, 3} keep it,
# {1, 4} and the full set have rank r
@example((CORANK_ONE_SHARED, [[1, 3, 5, 7, 9, 15]]))
@example((CORANK_ONE_SPLIT, [[1, 3]]))
# past 61 factors: {1, 2, 4} is settled by the independent {1, 4} one
# factor short of it ({1, 2}, known from the first call, keeps its Gram),
# the prefixes of the first 62 factors keep factor 1's kernel support
# (factors 2-9 and 11-62 are constant, factor 10 shares it), and factor
# 70 splits it
@example(
    (
        CORANK_ONE_WIDE,
        [
            [wide(1, 4), wide(1, 2)],
            [wide(1, 2, 4), wide(1, 3), wide(1, 2, 3), (1 << 62) - 1, (1 << 70) - 1],
            [((1 << 70) - 1) ^ wide(4), (1 << 9) - 2, wide(4), wide(2, 3)],
        ],
    )
)
def test_subset_ranks_match_the_per_subset_hadamard_rank(case):
    s, families = case
    k = s.shape.k
    expected = {}

    def reference(mask):
        if mask not in expected:
            expected[mask] = hadamard_gram_rank(s, [i + 1 for i in range(k) if mask >> i & 1])
        return expected[mask]

    for masks in families:
        ranks = subset_ranks(s, masks)
        assert all(ranks[mask] == reference(mask) for mask in masks), masks
    # the prefixes the walk ranked or settled on the way are exact too
    assert all(rank == reference(mask) for mask, rank in memo_ranks(s).items())


@pytest.mark.parametrize(
    "s, ranks",
    [
        (CORANK_ONE_SHARED, {1: 3, 3: 3, 5: 3, 7: 3, 9: 4, 15: 4}),
        (CORANK_ONE_SPLIT, {1: 3, 3: 4}),
        (
            CORANK_ONE_WIDE,
            {wide(1): 3, wide(1, 3): 3, wide(1, 2, 3): 3, (1 << 62) - 1: 3, wide(1, 4): 4, (1 << 70) - 1: 4},
        ),
    ],
)
def test_a_corank_one_subset_ranks_its_children_without_an_elimination(monkeypatch, s, ranks):
    # only {1} is eliminated; its kernel support settles every subset
    # that has it as prefix, at r - 1 or at r (a fresh set: no memo)
    s = PointSet(s.shape, s.points)
    calls = []
    pivot_rows = geometry._pivot_rows
    monkeypatch.setattr(geometry, "_pivot_rows", lambda gram, n: calls.append(gram) or pivot_rows(gram, n))
    assert subset_ranks(s, ranks) == ranks
    assert len(calls) == 1


def test_subset_ranks_walk_only_the_prefixes_of_the_asked_subsets(monkeypatch):
    # the 20 subsets of 19 factors of 2^20 have C(21, 19) - 1 = 209
    # prefixes, while the subsets of at most 19 factors number 2^20 - 2
    s, _ = random_decomposition(MultiShape((1,) * 20), 6, seed=1)
    full = (1 << 20) - 1
    masks = [full ^ (1 << i) for i in range(20)]
    prefixes = {mask & ((1 << j) - 1) for mask in masks for j in range(1, 21)} - {0}
    assert len(prefixes) == 209
    products = []
    hadamard = geometry._hadamard
    monkeypatch.setattr(geometry, "_hadamard", lambda a, b: products.append(a) or hadamard(a, b))
    ranks = subset_ranks(s, masks)
    assert all(ranks[mask] == 6 for mask in masks)
    assert set(memo_ranks(s)) <= prefixes
    assert len(products) <= 209


def test_the_full_set_gram_is_its_parents_times_one_factor_gram(monkeypatch):
    # every proper prefix of 5 points on 2x2x2 has at most 4 coordinates,
    # so the walk ranks only the full set, on its parent's Gram times the
    # third factor Gram: k - 1 = 2 products, none rebuilt from the start
    s, _ = random_decomposition(MultiShape((1, 1, 1)), 5, seed=2)
    products = []
    hadamard = geometry._hadamard
    monkeypatch.setattr(geometry, "_hadamard", lambda a, b: products.append(a) or hadamard(a, b))
    rows = [outer_product_flat(p.factors) for p in s.points]
    assert flattening_rank(s) == gauss_rank(rows)
    assert len(products) == 2
    assert set(s.memo) == {("gram", 1), ("gram", 2), ("gram", 3), "ranks"}


# -- factor projections


def test_different_coordinates_violation_reports_first_collision():
    s = pset((1, 1), pt((1, 0), (1, 0)), pt((2, 0), (0, 1)))
    assert different_coordinates_violation(s) == (1, 0, 1)
    t = pset((1, 1), pt((1, 0), (1, 0)), pt((0, 1), (0, 1)))
    assert different_coordinates_violation(t) is None


def test_factor_projection_sizes_counts_projective_classes():
    s = pset(
        (1, 1, 1),
        pt((1, 0), (1, 0), (1, 1)),
        pt((2, 0), (0, 1), (1, 2)),
        pt((1, 1), (1, 1), (1, 3)),
    )
    assert factor_projection_sizes(s) == (2, 3, 3)


# -- assembling tensors and recovering weights


def test_assemble_tensor_weighted_sum():
    s = pset((1, 1), pt((1, 0), (1, 0)), pt((0, 1), (0, 1)))
    assert assemble_tensor((2, Fraction(-1, 3)), s) == (2, 0, 0, Fraction(-1, 3))
    # an integral sum comes back in ints, zero weights' zero tensor too
    assert all(type(x) is int for x in assemble_tensor((2, -3), s))
    zero = assemble_tensor((0, 0), s)
    assert zero == (0, 0, 0, 0) and all(type(x) is int for x in zero)


@pytest.mark.parametrize("weights", [(1,), (1, 2, 3)])
def test_assemble_tensor_needs_one_weight_per_point(weights):
    # zip would sum the first point's tensor alone, or ignore the third weight
    s = pset((1, 1), pt((1, 0), (1, 0)), pt((0, 1), (0, 1)))
    with pytest.raises(ValueError, match=f"^{len(weights)} weights for 2 points$"):
        assemble_tensor(weights, s)


def test_decomposition_weights_round_trip():
    s, weights = random_decomposition(MultiShape((1, 2)), 3, seed=5)
    tensor = assemble_tensor(weights, s)
    assert decomposition_weights(tensor, s) == weights
    other = pset((1, 1), pt((1, 0), (1, 0)))
    with pytest.raises(ValueError):
        decomposition_weights(tensor, other)


def test_decomposition_weights_none_when_outside_the_span():
    s = pset((1, 1), pt((1, 0), (1, 0)))
    assert decomposition_weights((0, 1, 1, 0), s) is None


# -- invariance


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 400))
def test_cohomology_is_projective_scaling_invariant(seed):
    rng = random.Random(seed)
    dims = tuple(rng.randint(1, 2) for _ in range(rng.randint(2, 3)))
    r = rng.randint(1, 4)
    s, _ = random_decomposition(MultiShape(dims), r, seed=derive_seed(seed, 2))
    before = subset_rank(s, (1,)), flattening_rank(s)
    rescaled = rescaled_point_set(s, rng)
    assert (subset_rank(rescaled, (1,)), flattening_rank(rescaled)) == before
    assert factor_projection_sizes(rescaled) == factor_projection_sizes(s)


def test_permuting_factors_permutes_the_flat_layout():
    s, weights = random_decomposition(MultiShape((1, 2, 1)), 3, seed=9)
    tensor = assemble_tensor(weights, s)
    perm = (3, 1, 2)
    from oracles import permuted_point_set

    permuted = permuted_point_set(s, perm)
    expected = permute_flat_coords(tensor, s.shape.sizes, perm)
    assert assemble_tensor(weights, permuted) == tuple(expected)

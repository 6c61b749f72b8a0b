"""Kruskal ranks against the exhaustive definition, and the baseline
comparison record."""

import random
import time
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from certs import certified
from oracles import (
    full_gram,
    gauss_rank,
    kruskal_rank_exhaustive,
    outer_product_flat,
    row_list_kruskal_rank,
)
from tensorcert import kruskal
from tensorcert.certify import check_non_redundant
from tensorcert.construct import random_decomposition
from tensorcert.geometry import MultiPoint, MultiShape, PointSet
from tensorcert.kruskal import (
    MAX_WALK_BLOCKS,
    _every_minor_nonzero,
    _kruskal_walk,
    compare_criteria,
    kruskal_certificate,
    kruskal_rank,
)
from tensorcert.linalg import gauss_jordan, integer_gram, primitive


def random_columns(rng, rows, cols, box=4):
    entries = [[Fraction(rng.randint(-box, box)) for _ in range(cols)] for _ in range(rows)]
    for j in range(cols):
        if all(entries[i][j] == 0 for i in range(rows)):
            entries[rng.randrange(rows)][j] = Fraction(1)
    return [list(col) for col in zip(*entries)]


# -- kruskal_rank


def test_kruskal_rank_identity():
    assert kruskal_rank([(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 3


def test_kruskal_rank_proportional_columns():
    assert kruskal_rank([(1, 2), (2, 4), (0, 1)]) == 1


def test_kruskal_rank_generic_wide_matrix():
    rng = random.Random(7)
    columns = random_columns(rng, 3, 6)
    assert kruskal_rank(columns) == kruskal_rank_exhaustive(columns)


def test_kruskal_rank_full_spark_short_of_rank():
    # four columns in general position in the plane: every 2 independent,
    # some 3 dependent, so kappa = 2 = rank
    assert kruskal_rank([(1, 0), (0, 1), (1, 1), (1, 2)]) == 2


def test_kruskal_rank_rejects_zero_columns():
    with pytest.raises(ValueError, match="column 1 is zero"):
        kruskal_rank([(1, 0), (0, 0)])


def test_kruskal_rank_rejects_empty_matrices():
    with pytest.raises(ValueError, match="no columns"):
        kruskal_rank([])


@pytest.mark.parametrize(
    "columns, message",
    [
        ([(1, 0, 0), (2, 0, 0, 7)], "column 1 has 4 entries, column 0 has 3"),
        ([(1,), (0, 1)], "column 1 has 2 entries, column 0 has 1"),
    ],
)
def test_kruskal_rank_rejects_columns_of_different_lengths(columns, message, monkeypatch):
    monkeypatch.setattr(kruskal, "gauss_jordan", None)
    with pytest.raises(ValueError, match=f"^{message}$"):
        kruskal_rank(columns)


def test_kruskal_rank_enforces_the_walk_budget():
    # 40 generic columns of rank 12: the walk could build one block per
    # set of at most 10 columns, sum_{j <= 10} C(40, j) of them
    rng = random.Random(3)
    wide = random_columns(rng, 12, 40, box=9)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"1221246132 Kruskal walk blocks, more than the {MAX_WALK_BLOCKS}"):
        kruskal_rank(wide)
    assert time.perf_counter() - start < 1


def test_kruskal_rank_of_independent_columns_needs_no_walk():
    # past 20 columns too: independent columns make every subset independent
    assert kruskal_rank([[int(i == j) for i in range(25)] for j in range(25)]) == 25


def test_the_walk_budget_admits_every_dependent_set_of_20_columns():
    # the largest count of 20 columns, at rank 19, is 2^20 - 211 blocks
    assert sum(comb(20, j) for j in range(19 - 1)) == 2**20 - 211 <= MAX_WALK_BLOCKS
    # such a Gram is walked: e_1..e_19 and e_1 + e_2 have Kruskal rank 2,
    # and the zero entries of e_1 + e_2 send them past the minors to the walk
    columns = [[int(i == j) for i in range(19)] for j in range(19)] + [[1, 1] + [0] * 17]
    assert kruskal_rank(columns) == 2
    # and past 20 columns as well, where a dependency stops the walk early:
    # e_1, e_2 and e_1 + e_2 of the plane z = 0, then 18 points of a conic
    columns = [(1, 0, 0), (0, 1, 0), (1, 1, 0)] + [(1, t, t * t) for t in range(2, 20)]
    assert kruskal_rank(columns) == 2 == kruskal_rank_exhaustive(columns)


@pytest.mark.parametrize(
    "sizes, r, box, budget, expected",
    [
        ((3, 3), 6, 9, 15, [4, 4]),
        ((3, 3), 6, 9, 14, "6 columns of rank 4 ask for up to 22 Kruskal walk blocks"),
        ((2, 2), 20, 1000, 21, [3, 3]),
        ((2, 2), 20, 1000, 20, "20 columns of rank 3 ask for up to 21 Kruskal walk blocks"),
    ],
)
def test_the_walk_budget_admits_exactly_its_count_at_both_checks(monkeypatch, sizes, r, box, budget, expected):
    # the points of `random --shape 4x4 --r 6 --seed 1` have C(6, 4) = 15
    # column sets of rank size per factor: at a budget of 15 their minors
    # settle kappa = 4, and at 14 the walk's 1 + 6 + 15 = 22 blocks are
    # refused instead.  Those of `random --shape 3x3 --r 20 --box 1000
    # --seed 1` have too many for the minors, and the walk's 1 + 20 blocks
    # are built at a budget of 21 and refused at 20
    s, _ = random_decomposition(MultiShape(sizes), r, box=box, seed=1)
    monkeypatch.setattr(kruskal, "MAX_WALK_BLOCKS", budget)
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=f"^{expected}, more than the {budget} that kruskal builds$"):
            kruskal_certificate(s)
    else:
        assert kruskal_certificate(s)["per_factor_kruskal_rank"] == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_kruskal_rank_matches_the_exhaustive_oracle(seed):
    rng = random.Random(seed)
    columns = random_columns(rng, rng.randint(1, 4), rng.randint(1, 6))
    assert kruskal_rank(columns) == kruskal_rank_exhaustive(columns)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_kruskal_rank_invariant_under_column_scaling_and_order(seed):
    rng = random.Random(seed)
    columns = random_columns(rng, rng.randint(1, 4), rng.randint(1, 5))
    cols = list(columns)
    rng.shuffle(cols)
    scales = [Fraction(rng.choice([1, 2, -3, 5])) for _ in cols]
    scaled = [[scale * x for x in col] for scale, col in zip(scales, cols)]
    assert kruskal_rank(scaled) == kruskal_rank(columns)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_kruskal_rank_never_exceeds_the_rank(seed):
    rng = random.Random(seed)
    columns = random_columns(rng, rng.randint(1, 4), rng.randint(1, 5))
    assert 1 <= kruskal_rank(columns) <= gauss_rank(columns)


pool_entries = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def pooled_columns(draw, max_height=4, max_pool=4, max_columns=7):
    """Nonzero columns that are sparse small integer combinations of at
    most ``max_pool`` signed, fractional pool vectors, so subsets of
    fewer columns than the rank are often dependent."""
    height = draw(st.integers(2, max_height))
    vectors = st.lists(pool_entries, min_size=height, max_size=height).filter(any)
    pool = draw(st.lists(vectors, min_size=2, max_size=max_pool))
    coefficients = st.sampled_from((0, 0, 0, 1, -1, 2, -2))
    columns = []
    for j in range(draw(st.integers(2, max_columns))):
        coeffs = draw(st.lists(coefficients, min_size=len(pool), max_size=len(pool)))
        col = [sum(c * v[i] for c, v in zip(coeffs, pool)) for i in range(height)]
        columns.append(col if any(col) else pool[j % len(pool)])
    scales = draw(
        st.lists(pool_entries.filter(bool), min_size=len(columns), max_size=len(columns))
    )
    return columns, scales


@settings(max_examples=80, deadline=None)
@given(pooled_columns())
# a repeated column: kappa 1 below rank 2
@example(([[1, 0], [0, 1], [1, 0]], [1, 1, 1]))
# three columns in a plane of R^3 with every pair independent: kappa 2 = rank
@example(([[1, 0, 1], [0, 1, 1], [1, 1, 2]], [Fraction(-1, 2), 3, Fraction(2, 3)]))
# rank 3, but the first two of four columns are proportional after a sign: kappa 1
@example(([[1, -1, 0], [-2, 2, 0], [0, 0, 1], [1, 1, 1]], [1, Fraction(1, 3), -2, 1]))
# rank 3 with three columns in a plane whose Gram has entries of both signs: kappa 2
@example(([[1, 0, 0], [1, 1, 0], [-1, 2, 0], [0, 0, 1]], [1, 1, 1, 1]))
def test_kruskal_rank_matches_the_oracle_on_pooled_columns(data):
    check_against_the_oracle(*data)


vandermonde = [[t**e for e in range(6)] for t in range(-4, 5)]


@settings(max_examples=40, deadline=None)
@given(pooled_columns(max_height=6, max_pool=6, max_columns=12))
# every 6 of the first nine columns are independent, so the walk runs down
# to depth 5 on them before it meets the only small dependent set, the
# triple of the last three columns: kappa 2 below rank 6
@example((vandermonde + [[1, 0, 2, -1, 3, 1], [0, 1, -1, 2, 1, -2], [1, 1, 1, 1, 4, -1]], [1] * 12))
# two disjoint dependent sets, of sizes 4 and then 3: the walk lowers kappa
# from the rank 5 to 3, then to 2
@example((
    [[0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1], [0, 0, 1, 1, 1],
     [1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [1, 1, 0, 0, 0]],
    [2, Fraction(-1, 3), 1, 5, -1, Fraction(3, 2), 1],
))
def test_kruskal_walk_matches_the_oracle_on_wide_pools(data):
    check_against_the_oracle(*data)


def check_against_the_oracle(columns, scales):
    oracle = kruskal_rank_exhaustive(columns)
    assert kruskal_rank(columns) == oracle
    rescaled = [[scale * x for x in col] for scale, col in zip(scales, columns)]
    assert kruskal_rank(rescaled) == oracle
    # the same columns as the first factor of a point set, ranked from its
    # canonical factor vectors; a factor Gram memoized on the set, wherever
    # one is built, is left as it was
    points = tuple(MultiPoint((col, (1, j))) for j, col in enumerate(rescaled))
    s = PointSet(MultiShape((len(columns[0]) - 1, 1)), points)
    assert kruskal_certificate(s)["per_factor_kruskal_rank"][0] == oracle
    for i in (1, 2):
        if ("gram", i) in s.memo:
            assert s.memo[("gram", i)] == integer_gram(p.canonical()[i - 1] for p in s.points)


def counted_walks(monkeypatch) -> list:
    """The calls that kruskal_rank makes to the walk, from now on."""
    calls = []
    walk = kruskal._kruskal_walk
    monkeypatch.setattr(kruskal, "_kruskal_walk", lambda *args: calls.append(args) or walk(*args))
    return calls


def reduced_block(columns) -> tuple[list, int]:
    """The columns of D B' that kruskal_rank checks, the non-pivot columns
    of the reduced matrix, and D."""
    pivots, rows = gauss_jordan(list(zip(*(primitive(col) for col in columns))))
    return [col for j, col in enumerate(zip(*rows)) if j not in pivots], rows[0][pivots[0]]


def vanishing_minors(block, rho) -> list:
    """The (size, rows, columns) of every singular square submatrix, one by one."""
    return [
        (c, rows, cols)
        for c in range(1, min(rho, len(block)) + 1)
        for cols in combinations(range(len(block)), c)
        for rows in combinations(range(rho), c)
        if gauss_rank([[block[j][i] for j in cols] for i in rows]) < c
    ]


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda rho: st.tuples(
            st.just(rho),
            st.lists(
                st.lists(st.sampled_from((-2, -1, 1, 1, 2, 3)), min_size=rho, max_size=rho),
                min_size=1,
                max_size=6,
            ),
        )
    )
)
# every 2 x 2 minor vanishes, and only the sign of the expansion makes it zero
@example((2, [[1, 1], [1, 1]]))
@example((3, [[1, 2, 3], [2, 4, 6], [1, 1, 1]]))
def test_the_minor_pass_matches_the_minors_one_by_one(data):
    rho, block = data
    assert _every_minor_nonzero(block, 1) == (not vanishing_minors(block, rho))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000))
def test_the_minor_pass_on_a_reduced_block_divides_exactly_by_d(seed):
    # the pass holds each c x c minor of D B' over D^(c - 1): a division
    # that left a remainder would show as a wrong zero or a wrong nonzero
    rng = random.Random(seed)
    height = rng.randint(2, 5)
    columns = random_columns(rng, height, rng.randint(height + 1, 9), box=rng.choice((2, 9)))
    block, d = reduced_block(columns)
    if block:
        assert _every_minor_nonzero(block, d) == (not vanishing_minors(block, len(block[0])))


# one dependent set of four columns in Q^4, each time with c of its columns
# past the pivots that the elimination picks: exactly one c x c minor of
# D B' vanishes, the pass stops there, and the walk finds kappa 3
PLANTED = {
    1: [[1, 0, 0, 1], [0, -1, 1, 0], [1, 1, 0, 0], [-5, -5, 4, -1],
        [0, 3, -5, -7], [6, 5, -3, 1], [0, 0, 1, 2], [1, -1, -3, -1]],
    2: [[2, 2, -1, 7], [0, 0, 1, 2], [1, -1, 0, 5], [-3, 0, -2, 2],
        [1, -1, 6, 5], [0, -1, 1, 0], [1, 1, 0, 0], [1, 0, 0, 1]],
    3: [[0, -1, 1, 0], [0, 0, 1, 2], [-1, -4, 0, 0], [2, 4, -1, 5],
        [1, 0, 0, 1], [-1, -1, -4, -5], [-5, -3, 0, -5], [1, 1, 0, 0]],
    4: [[1, 1, 0, 0], [-2, -2, -1, -5], [0, 0, 1, 2], [5, 1, 5, 8],
        [1, 0, 0, 1], [0, -1, 1, 0], [3, 5, -5, -3], [1, 2, -2, 4]],
}


@pytest.mark.parametrize("level", sorted(PLANTED))
def test_a_vanishing_minor_of_each_size_sends_the_columns_to_the_walk(level, monkeypatch):
    columns = PLANTED[level]
    block, d = reduced_block(columns)
    assert [c for c, _, _ in vanishing_minors(block, 4)] == [level]
    assert not _every_minor_nonzero(block, d)
    walks = counted_walks(monkeypatch)
    assert kruskal_rank(columns) == 3 == kruskal_rank_exhaustive(columns)
    assert len(walks) == 1
    check_against_the_oracle(columns, [Fraction(-1, 2), 3, 1, Fraction(5, 3), -1, 2, Fraction(1, 7), 1])


def test_rank_two_is_settled_by_the_proportional_pairs(monkeypatch):
    walks = counted_walks(monkeypatch)
    # four columns in a plane of Q^3, the last a multiple of the first
    plane = [(1, 0, 1), (0, 1, 1), (1, 1, 2), (Fraction(-1, 2), 0, Fraction(-1, 2))]
    assert kruskal_rank(plane) == 1 == kruskal_rank_exhaustive(plane)
    # and with the last moved off that line, no two are proportional
    plane[-1] = (Fraction(1, 2), 1, Fraction(3, 2))
    assert kruskal_rank(plane) == 2 == kruskal_rank_exhaustive(plane)
    # a proportional pair among columns of rank 3 gives 1 too
    assert kruskal_rank([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (0, -3, 0)]) == 1
    assert walks == []


def test_fraction_scaled_columns_are_settled_by_their_minors(monkeypatch):
    # nine points of the moment curve in Q^6, each scaled by a fraction:
    # every 6 are independent, so no minor of D B' vanishes and kappa = 6
    walks = counted_walks(monkeypatch)
    columns = [[Fraction(t**e, 2 * t - 1) for e in range(6)] for t in range(-4, 5)]
    assert all(x.denominator > 1 for col in columns[:4] for x in col)
    assert kruskal_rank(columns) == 6 == kruskal_rank_exhaustive(columns)
    assert walks == []


def test_a_minor_count_past_the_budget_falls_back_to_the_walk(monkeypatch):
    # 186 points of the conic (1, t, t^2): C(186, 3) column sets of size 3
    # are past MAX_WALK_BLOCKS, but the walk from rank 3 builds 187 blocks
    # and finds every 3 independent; with (2, 3, 5) = (1, 1, 1) + (1, 2, 4)
    # added, a dependent triple gives 2
    columns = [(1, t, t * t) for t in range(1, 187)]
    assert comb(186, 3) > MAX_WALK_BLOCKS >= 1 + 186
    walks = counted_walks(monkeypatch)
    assert kruskal_rank(columns) == 3
    assert kruskal_rank(columns + [(2, 3, 5)]) == 2
    assert len(walks) == 2
    # the points of `random --shape 3x3 --r 300 --box 1000 --seed 1`: each
    # factor walks from rank 3 over its sets of one column, in time
    s, _ = random_decomposition(MultiShape((2, 2)), 300, box=1000, seed=1)
    start = time.perf_counter()
    assert kruskal_certificate(s)["per_factor_kruskal_rank"] == [3, 3]
    assert time.perf_counter() - start < 1
    assert [rank for _, rank in walks[2:]] == [3, 3]


@st.composite
def product_columns(draw):
    """Nonzero primitive integer columns, 2-12 of them: pooled columns, so
    often dependent in small sets; or their Khatri-Rao product with
    columns of a second pool, whose Gram is the Hadamard product of the
    two Grams; or a Khatri-Rao power 0-3, whose Gram is a Hadamard power."""
    columns = [primitive(col) for col in draw(pooled_columns(max_height=5, max_pool=5, max_columns=12))[0]]
    kind = draw(st.sampled_from(["gram", "product", "power"]))
    if kind == "product":
        other = draw(pooled_columns(max_height=3, max_pool=3))[0]
        picks = draw(st.lists(st.integers(0, len(other) - 1), min_size=len(columns), max_size=len(columns)))
        columns = [primitive(outer_product_flat([col, other[i]])) for col, i in zip(columns, picks)]
    elif kind == "power":
        e = draw(st.integers(0, 3))
        columns = [primitive(outer_product_flat([col] * e)) for col in columns]
    return columns


@settings(max_examples=60, deadline=None)
@given(product_columns())
@example([[1, 0], [0, 1], [1, 1], [1, 2]])
@example([[1]] * 12)
# rank 2 in Q^4, every pair independent: the walk checks pairs at its root
@example([[1, 0, 1, 0], [0, 1, 0, 1], [1, 1, 1, 1]])
# rank 3 in Q^5 and a dependent triple; the first column's pivot row is its second
@example([[0, 1, 1, 0, 0], [1, 0, 0, 1, 0], [1, 1, 1, 1, 0], [0, 0, 1, 0, 1]])
def test_the_row_walk_keeps_the_kruskal_rank_of_the_gram_walk(columns):
    # the walk alone, from the rank, on the rows of the primitive forms of
    # pooled fractional columns, often of a rank below their height
    oracle = kruskal_rank_exhaustive(columns)
    walked = _kruskal_walk(list(zip(*columns)), gauss_rank(columns))
    assert walked == row_list_kruskal_rank(full_gram(columns)) == oracle


# -- the k-way baseline


def test_kruskal_certificate_on_the_seeded_sample():
    s, _ = random_decomposition(MultiShape((2, 3, 5)), 6, seed=11)
    report = kruskal_certificate(s)
    assert report["per_factor_kruskal_rank"] == [3, 4, 6]
    assert report["condition_lhs"] == 13
    assert report["condition_rhs"] == 14
    assert not report["applies"]


def test_kruskal_certificate_on_a_seeded_7x7x7_set_with_20_points():
    # the exhaustive subset search that the walk replaced gave (7, 7, 7)
    # for this seed, the points of `tensorcert random --shape 7x7x7 --r 20
    # --seed 1`, in about 20 s
    s, _ = random_decomposition(MultiShape((6, 6, 6)), 20, seed=1)
    start = time.perf_counter()
    report = kruskal_certificate(s)
    assert time.perf_counter() - start < 8
    assert report["per_factor_kruskal_rank"] == [7, 7, 7]


def test_kruskal_certificate_skips_the_walk_on_independent_factors():
    # 20 generic points of 20x20x20 are independent in every factor, which
    # the one elimination per factor already shows
    s, _ = random_decomposition(MultiShape((19, 19, 19)), 20, seed=1)
    start = time.perf_counter()
    report = kruskal_certificate(s)
    assert time.perf_counter() - start < 1
    assert report["per_factor_kruskal_rank"] == [20, 20, 20]
    assert report["applies"]


def test_kruskal_certificate_factor_ranks_are_capped_by_geometry():
    s, _ = random_decomposition(MultiShape((1, 2, 3)), 4, seed=13)
    report = kruskal_certificate(s)
    for kappa, n in zip(report["per_factor_kruskal_rank"], s.shape.dims):
        assert 1 <= kappa <= min(len(s), n + 1)
    oracle = list(
        kruskal_rank_exhaustive(
            [p.factors[i - 1] for p in s.points]
        )
        for i in range(1, s.shape.k + 1)
    )
    assert report["per_factor_kruskal_rank"] == oracle


def test_kruskal_certificate_applies_on_two_generic_points():
    s, _ = random_decomposition(MultiShape((1, 1, 1)), 2, seed=17)
    report = kruskal_certificate(s)
    assert report["per_factor_kruskal_rank"] == [2, 2, 2]
    assert report["condition_lhs"] == 6
    assert report["condition_rhs"] == 6
    assert report["applies"]


# -- side-by-side comparison


def test_compare_flattening_wins_on_two_factors():
    s = PointSet(
        MultiShape((1, 1)),
        (MultiPoint(((1, 0), (1, 0))), MultiPoint(((0, 1), (0, 1)))),
    )
    record = compare_criteria(s, (1, 1))
    assert certified(record["exact_rank"])
    assert record["flattening_applies"]
    # 2 + 2 < 2r + k - 1 = 5, so the baseline says nothing for matrices
    assert not record["kruskal"]["applies"]
    assert not record["kruskal_applies"]
    assert record["flattening_without_kruskal"]


def test_compare_both_apply_on_a_generic_three_factor_pair():
    s, weights = random_decomposition(MultiShape((1, 1, 1)), 2, seed=17)
    record = compare_criteria(s, weights)
    assert certified(record["exact_rank"])
    assert certified(record["identifiability"])
    assert record["kruskal"]["applies"]
    assert record["kruskal_applies"]
    assert not record["flattening_without_kruskal"]


def test_compare_redundant_set_applies_nowhere():
    # the tensor is a single product vector, so the two-point set is a
    # redundant presentation and neither criterion concludes anything
    s, _ = random_decomposition(MultiShape((1, 1, 1)), 2, seed=19)
    record = compare_criteria(s, (1, 0))
    assert not certified(record["non_redundant"])
    assert record["kruskal"]["applies"]
    assert not record["kruskal_applies"]
    assert not record["flattening_applies"]
    assert not record["flattening_without_kruskal"]
    assert not certified(check_non_redundant(s, (1, 0)))

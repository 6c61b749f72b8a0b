"""Symmetric rank certificates and generic bounds.

Explicit Veronese rows come from ``oracles.veronese_vector``, checked
here against the monomial oracle; the package itself only ever ranks
Hadamard powers of the point Gram."""

import random
from fractions import Fraction
from math import comb
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from certs import certified, find
from oracles import (
    descending_veronese_attempts,
    exponents_desc_lex,
    gauss_rank,
    monomial_values,
    veronese_vector,
)
from tensorcert import symmetric
from tensorcert.certify import FAIL, PASS
from tensorcert.geometry import MultiPoint, MultiShape, PointSet, flattening_rank
from tensorcert.linalg import _pivot_rows, primitive
from tensorcert.symmetric import (
    comon_certify,
    is_exceptional,
    symmetric_bounds,
)


def sym_points(*pts):
    """Points of P^n as a one-factor point set, n read off the first."""
    return PointSet(MultiShape((len(pts[0]) - 1,)), tuple(MultiPoint((p,)) for p in pts))


def random_sym_points(n, count, seed, box=9):
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        cand = (Fraction(rng.randint(1, box)),) + tuple(
            Fraction(rng.randint(-box, box)) for _ in range(n)
        )
        pivot = next(x for x in cand if x)
        canon = tuple(x / pivot for x in cand)
        if all(
            canon != tuple(x / next(y for y in p if y) for x in p) for p in points
        ):
            points.append(cand)
    return sym_points(*points)


# -- shapes and point sets


def test_sym_shape_counts():
    assert symmetric_bounds(2, 6)["r0"] == comb(2 + 3, 3)
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        symmetric_bounds(-1, 2)
    with pytest.raises(ValueError, match="^the degree must be positive$"):
        symmetric_bounds(1, 0)


def test_sym_point_set_validation():
    with pytest.raises(ValueError):
        PointSet(MultiShape((1,)), ())
    with pytest.raises(ValueError):
        sym_points((1, 0), (0, 0))
    with pytest.raises(ValueError, match="duplicate"):
        sym_points((1, 2), (2, 4))
    with pytest.raises(ValueError):
        sym_points((1, 0), (0, 1, 1))
    s = sym_points((1, 0), (0, 1))
    assert len(s) == 2


# -- Veronese vectors (the oracle's explicit rows)


def test_veronese_vector_binary_cubics():
    assert veronese_vector((1, 0), 3) == (1, 0, 0, 0)
    assert veronese_vector((1, 1), 3) == (1, 1, 1, 1)
    assert veronese_vector((1, 2), 3) == (1, 2, 4, 8)


def test_veronese_vector_ternary_quadrics_order():
    # graded lex on exponents: x2, xy, xz, y2, yz, z2
    assert veronese_vector((1, 2, 3), 2) == (1, 2, 3, 4, 6, 9)


def test_veronese_vector_degree_zero_and_errors():
    assert veronese_vector((5, 7), 0) == (1,)
    with pytest.raises(ValueError):
        veronese_vector((1, 2), -1)
    with pytest.raises(ValueError):
        veronese_vector((), 2)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(0, 3),
    st.integers(1, 4),
    st.integers(0, 10_000),
)
def test_veronese_vector_matches_the_monomial_oracle(n, degree, seed):
    rng = random.Random(seed)
    point = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n + 1)]
    exponents = exponents_desc_lex(n, degree)
    assert list(veronese_vector(point, degree)) == monomial_values(point, exponents)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 2), st.integers(2, 3), st.integers(0, 10_000))
def test_veronese_rank_agrees_with_the_diagonal_segre_rank(n, degree, seed):
    # the degree-k Veronese row and the Segre row of the k-fold repeated
    # point list the same monomial values, with multiplicities as the
    # only difference, so evaluation ranks agree
    pts = random_sym_points(n, 3, seed)
    shape = MultiShape((n,) * degree)
    diag = PointSet(
        shape, tuple(MultiPoint(p.factors * degree) for p in pts.points)
    )
    rows = [veronese_vector(p.factors[0], degree) for p in pts.points]
    assert gauss_rank(rows) == flattening_rank(diag)


# -- the rank agreement certificate


def test_comon_certify_ten_generic_plane_points_degree_six():
    pts = random_sym_points(2, 10, seed=41)
    cert = comon_certify(pts, [1] * 10, 6)
    assert certified(cert)
    assert cert["conclusion"] == {
        "rank": 10,
        "cactus_rank": 10,
        "symmetric_rank": 10,
        "ranks_agree": True,
        "vanishing_degree": 3,
    }
    interp = find(cert, "half_degree_interpolation")[0]
    assert interp["status"] == PASS
    assert interp["witness"]["attempts"] == [{"e": 3, "rank": 10, "h1": 0}]


def test_comon_certify_singleton():
    pts = sym_points((1, 2))
    cert = comon_certify(pts, (3,), 4)
    assert certified(cert)
    assert cert["conclusion"]["rank"] == 1
    assert cert["conclusion"]["vanishing_degree"] == 2


def test_comon_certify_collinear_points_fail_interpolation():
    # four points on the line z = 0 span only the rank-3 Vandermonde
    # column space at degree 2, and no e below the half degree can work
    pts = sym_points((1, 0, 0), (1, 1, 0), (1, 2, 0), (1, 3, 0))
    rows = [veronese_vector(p.factors[0], 2) for p in pts.points]
    assert gauss_rank(rows) == 3
    cert = comon_certify(pts, (1, 1, 1, 1), 4)
    assert not certified(cert)
    interp = find(cert, "half_degree_interpolation")[0]
    assert interp["status"] == FAIL
    assert interp["witness"] == {"attempts": [{"e": 2, "rank": 3, "h1": 1}], "chosen_e": None, "max_e": 2}


def test_a_failed_interpolation_makes_one_elimination():
    # five points on P^1 against the three binary quadrics fail at e = 2,
    # and no smaller e is ranked after that
    pts = sym_points((1, 0), (0, 1), (1, 1), (1, -1), (1, 2))
    calls = []
    with mock.patch.object(symmetric, "_pivot_rows", lambda gram, n: calls.append(gram) or _pivot_rows(gram, n)):
        cert = comon_certify(pts, [1] * 5, 4)
    assert not certified(cert)
    assert len(calls) == 1


def test_comon_certify_rejects_mismatched_coordinates():
    # one weight per point
    pts = sym_points((1, 0), (0, 1))
    with pytest.raises(ValueError, match="^1 weights for 2 points$"):
        comon_certify(pts, (1,), 4)
    with pytest.raises(ValueError, match="degree must be positive"):
        comon_certify(pts, (1, 1), 0)


def test_comon_certify_rejects_a_two_factor_set():
    two_factor = PointSet(MultiShape((1, 1)), (MultiPoint(((1, 0), (0, 1))),))
    with pytest.raises(ValueError, match="^symmetric points lie in one factor, not 2$"):
        comon_certify(two_factor, (1,), 4)


def ranked_exponents(a, weights, degree):
    """The certificate and the exponents of the point Gram comon raises."""
    exponents = []
    real = symmetric.veronese_gram

    def recording(points, e):
        exponents.append(e)
        return real(points, e)

    with mock.patch.object(symmetric, "veronese_gram", recording):
        return comon_certify(a, weights, degree), exponents


def test_two_points_at_a_huge_degree_raise_no_power():
    # distinct points impose independent conditions from degree r - 1 = 1 on
    cert, exponents = ranked_exponents(sym_points((1, 2), (3, -1)), (1, 1), 10**6)
    assert exponents == []
    assert certified(cert)
    interp = find(cert, "half_degree_interpolation")[0]
    assert interp["witness"]["attempts"] == [{"e": 500_000, "rank": 2, "h1": 0}]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2), st.integers(1, 7), st.integers(1, 12), st.integers(0, 10_000))
def test_comon_never_raises_the_point_gram_past_r_minus_2(n, count, degree, seed):
    pts = random_sym_points(n, count, seed)
    _, exponents = ranked_exponents(pts, [1] * count, degree)
    assert all(e <= count - 2 for e in exponents)


def test_comon_ranks_no_degree_k_gram_once_interpolation_passes():
    # six plane points on no conic: G^2 has full rank, and that already
    # makes the degree-4 rows independent, so G^4 is never built
    pts = sym_points((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (2, -1, 1))
    cert, exponents = ranked_exponents(pts, [1] * 6, 4)
    assert exponents == [2]
    assert certified(cert)
    assert find(cert, "evaluation_vectors_independent")[0]["witness"] == {"rank": 6, "cardinality": 6}


def test_comon_certify_detects_redundant_presentations():
    # the tensor is the sum over the first two points alone
    pts = sym_points((1, 0), (0, 1), (1, 1))
    cert = comon_certify(pts, (1, 1, 0), 4)
    assert not certified(cert)
    failing = [h for h in cert["hypotheses"] if h["status"] == FAIL]
    assert failing
    assert failing[0]["name"] == "tensor_outside_span_of_proper_subset"


coordinates = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@st.composite
def projective_point_sets(draw):
    """(degree, distinct points of P^n, a nonzero scale per point), n <= 2;
    up to eight points, so r often exceeds C(n + e, e)."""
    n = draw(st.integers(0, 2))
    degree = draw(st.integers(1, 6))
    vectors = st.lists(coordinates, min_size=n + 1, max_size=n + 1).filter(any)
    points = draw(st.lists(vectors, min_size=1, max_size=8, unique_by=primitive))
    scales = draw(st.lists(coordinates.filter(bool), min_size=len(points), max_size=len(points)))
    return degree, points, scales


@settings(max_examples=80, deadline=None)
@given(projective_point_sets())
# degree 1 only tries e = 0, where every set has rank 1
@example((1, [[1, 0], [0, 1]], [1, 1]))
@example((3, [[2]], [Fraction(-1, 2)]))
# four points on P^1 against C(1 + 2, 2) = 3 quadrics: every e fails
@example((4, [[1, 0], [0, 1], [1, 1], [1, -1]], [1, 2, -3, Fraction(1, 2)]))
# five points in the plane, the first three on a line: e = 2 passes
@example((5, [[1, 0, 0], [1, 1, 0], [1, 2, 0], [0, 0, 1], [1, 1, 1]], [1, -1, 2, 3, 1]))
# rescaled, the first point is (1/2, 1/3), whose numerators alone would
# name the second point
@example((2, [[3, 2], [1, 1]], [Fraction(1, 6), 1]))
def test_comon_attempt_ranks_match_explicit_veronese_rows(data):
    degree, points, scales = data
    e = degree // 2
    rank = gauss_rank([veronese_vector(p, e) for p in points])
    expected = [{"e": e, "rank": rank, "h1": len(points) - rank}]
    rescaled = [[scale * x for x in p] for scale, p in zip(scales, points)]
    for pts in (points, rescaled):
        cert = comon_certify(sym_points(*pts), [1] * len(pts), degree)
        interp = find(cert, "half_degree_interpolation")[0]
        assert interp["witness"]["attempts"] == expected
        full = rank == len(points)
        assert interp["status"] == (PASS if full else FAIL)
        assert interp["witness"]["chosen_e"] == (e if full else None)


@settings(max_examples=80, deadline=None)
@given(projective_point_sets())
@example((4, [[1, 0], [0, 1], [1, 1], [1, -1]], [1, 2, -3, Fraction(1, 2)]))
@example((6, [[1, 0, 0], [1, 1, 0], [1, 2, 0], [1, 3, 0], [1, 4, 0]], [1] * 5))
def test_the_descending_search_never_certifies_where_the_half_degree_fails(data):
    # independence at degree e carries over to e + 1, so when e = degree // 2
    # fails every smaller e fails too: the old descending search agrees
    degree, points, scales = data
    attempts = descending_veronese_attempts(points, degree)
    cert = comon_certify(sym_points(*points), scales, degree)
    interp = find(cert, "half_degree_interpolation")[0]
    assert interp["witness"]["attempts"] == attempts[:1]
    if interp["status"] == FAIL:
        assert all(a["h1"] > 0 for a in attempts)
    else:
        assert attempts == interp["witness"]["attempts"]


# -- bounds


def test_symmetric_bounds_frozen_values():
    assert symmetric_bounds(2, 6) == {"r0": 10, "rg": 10, "exceptional": False}
    assert symmetric_bounds(2, 8) == {"r0": 15, "rg": 15, "exceptional": False}
    assert symmetric_bounds(3, 4) == {"r0": 10, "rg": 9, "exceptional": True}
    assert symmetric_bounds(1, 5) == {"r0": 4, "rg": 3, "exceptional": False}
    assert symmetric_bounds(2, 2) == {"r0": 3, "rg": 2, "exceptional": True}


def test_exceptional_list():
    assert is_exceptional(2, 2)
    assert is_exceptional(5, 2)
    assert not is_exceptional(1, 2)
    assert is_exceptional(2, 4)
    assert is_exceptional(3, 4)
    assert is_exceptional(4, 4)
    assert is_exceptional(4, 3)
    assert not is_exceptional(2, 3)
    assert not is_exceptional(5, 4)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4), st.integers(1, 9))
def test_bounds_are_internally_consistent(n, k):
    bounds = symmetric_bounds(n, k)
    assert 1 <= bounds["r0"]
    assert bounds["rg"] >= 1
    # at odd degrees r0 is one more than the half-degree interpolation cap
    e = k // 2
    assert bounds["r0"] == comb(n + e, e) + (k % 2)


@pytest.mark.parametrize(
    "points, k",
    [(((1, 0), (0, 1), (1, 1), (1, 2)), 5), (((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)), 3)],
)
def test_r0_points_fail_the_half_degree_rank_at_odd_k(points, k):
    # comon ranks degree e = floor(k/2) only, where at most C(n + e, e) = 3
    # points are independent, so the r0 = 4 points that bounds prints for
    # P^1 at k = 5 and for P^2 at k = 3 fail with rank 3
    n, e = len(points[0]) - 1, k // 2
    assert symmetric_bounds(n, k)["r0"] == len(points) == comb(n + e, e) + 1
    cert = comon_certify(sym_points(*points), [1] * len(points), k)
    assert not certified(cert)
    assert find(cert, "half_degree_interpolation")[0]["witness"]["attempts"] == [{"e": e, "rank": 3, "h1": 1}]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(2, 6))
def test_r0_is_monotone_in_the_degree(n, k):
    assert symmetric_bounds(n, k + 2)["r0"] >= symmetric_bounds(n, k)["r0"]

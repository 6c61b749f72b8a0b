"""Exact linear algebra against a textbook Gaussian elimination oracle."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import gauss_rank
from tensorcert.linalg import (
    format_rational,
    integer_gram,
    parse_rational,
    primitive,
    rat_rank,
    row_combination,
    span_intersection_dim,
    weighted_sum,
)

rationals = st.fractions(
    min_value=-9, max_value=9, max_denominator=7
)


def small_matrices(max_rows=5, max_cols=5):
    return st.integers(1, max_cols).flatmap(
        lambda w: st.lists(
            st.lists(rationals, min_size=w, max_size=w), min_size=1, max_size=max_rows
        )
    )


# -- rational literals


def test_parse_rational_integers_and_fractions():
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("+4/6") == Fraction(2, 3)
    assert parse_rational("0") == Fraction(0)
    assert parse_rational("  12/5 ") == Fraction(12, 5)


@pytest.mark.parametrize(
    "bad", ["1.5", "a", "2 / 3", "1/-2", "--3", "", "1/0", "0/0"]
)
def test_parse_rational_rejects_malformed_literals(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_parse_rational_rejects_non_strings():
    with pytest.raises(ValueError):
        parse_rational(3)


def test_format_rational():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-7, 2)) == "-7/2"
    assert format_rational(5) == "5"
    assert format_rational(Fraction(4, 6)) == "2/3"


@given(rationals)
def test_format_parse_round_trip(x):
    assert parse_rational(format_rational(x)) == x


# -- matrices as row sequences


def test_empty_matrix_needs_explicit_columns():
    assert rat_rank([], 4) == 0
    # no rows span only the zero vector
    assert row_combination((1, 2), []) == (0, None)
    assert row_combination((0, 0), []) == (0, ())


# -- rank


def test_rank_hand_cases():
    assert rat_rank([[1, 0], [0, 1]], 2) == 2
    assert rat_rank([[1, 2], [2, 4]], 2) == 1
    assert rat_rank([[0, 0], [0, 0]], 2) == 0
    assert rat_rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]], 3) == 2


def test_rank_with_fractional_entries():
    rows = [
        [Fraction(1, 2), Fraction(1, 3)],
        [Fraction(3, 2), Fraction(5, 1)],
        [Fraction(1, 4), Fraction(1, 6)],
    ]
    assert rat_rank(rows, 2) == gauss_rank(rows) == 2


@settings(max_examples=80, deadline=None)
@given(small_matrices())
def test_rank_matches_gaussian_oracle(rows):
    assert rat_rank(rows, len(rows[0])) == gauss_rank(rows)


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_rank_is_transpose_invariant(rows):
    assert rat_rank(rows, len(rows[0])) == rat_rank(list(zip(*rows)), len(rows))


@settings(max_examples=60, deadline=None)
@given(small_matrices(), st.integers(-9, 9).filter(bool))
def test_rank_is_invariant_under_row_scaling(rows, scale):
    scaled = [[scale * Fraction(x) for x in rows[0]]] + rows[1:]
    assert rat_rank(scaled, len(rows[0])) == rat_rank(rows, len(rows[0]))


# -- span tests


def test_in_row_span_hand_cases():
    base = [[1, 0, 0], [0, 1, 0]]
    assert row_combination((2, -3, 0), base) == (2, (2, -3))
    assert row_combination((0, 0, 1), base) == (2, None)
    # dependent rows: the rank drops and the free coefficients are zero
    assert row_combination((0, 2, 0), base + base) == (2, (0, 2, 0, 0))
    with pytest.raises(ValueError):
        row_combination((1, 0), base)
    with pytest.raises(ValueError):
        row_combination((1, 0), [[1, 0], [1]])


def test_span_intersection_dim_hand_cases():
    a = [[1, 0, 0], [0, 1, 0]]
    b = [[0, 1, 0], [0, 0, 1]]
    # the intersection is the single projective point e2
    assert span_intersection_dim(a, b) == 0
    c = [[1, 0, 0, 0]]
    d = [[0, 1, 0, 0]]
    assert span_intersection_dim(c, d) == -1
    assert span_intersection_dim(a, a) == 1
    with pytest.raises(ValueError):
        span_intersection_dim(a, c)
    with pytest.raises(ValueError):
        span_intersection_dim([[1, 0], [1]], [[0, 1]])


def test_solve_row_combination_recovers_coefficients():
    base = [[1, 0, 2], [0, 1, 1]]
    target = (2, -1, 3)
    coeffs = row_combination(target, base)[1]
    assert coeffs == (2, -1)


def test_solve_row_combination_inconsistent_returns_none():
    base = [[1, 0, 0]]
    assert row_combination((0, 1, 0), base)[1] is None


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda w: st.tuples(
            st.lists(st.lists(rationals, min_size=w, max_size=w), min_size=1, max_size=4),
            st.lists(rationals, min_size=4, max_size=4),
        )
    )
)
def test_solve_row_combination_recombines_to_the_target(data):
    rows, raw_coeffs = data
    coeffs = raw_coeffs[: len(rows)]
    target = [
        sum(c * x for c, x in zip(coeffs, col))
        for col in zip(*rows)
    ]
    solved = row_combination(target, rows)[1]
    assert solved is not None
    rebuilt = [
        sum(c * x for c, x in zip(solved, col))
        for col in zip(*rows)
    ]
    assert rebuilt == target


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_rank_bounded_by_dimensions(rows):
    assert 0 <= rat_rank(rows, len(rows[0])) <= min(len(rows), len(rows[0]))


# -- weighted sums


def test_weighted_sum_of_vectors_and_its_checks():
    def double(p):
        return (p, 2 * p)

    assert weighted_sum((Fraction(1, 2), -3), (4, 1), double, 2) == (-1, -2)
    with pytest.raises(ValueError, match="^1 weights for 2 points$"):
        weighted_sum((1,), (4, 1), double, 2)
    with pytest.raises(ValueError, match="^weights must be nonzero$"):
        weighted_sum((1, 0), (4, 1), double, 2)
    with pytest.raises(ValueError, match="vanishes"):
        weighted_sum((1, -4), (4, 1), double, 2)


# -- integer Grams


def test_integer_gram_of_primitive_rows():
    # (2/3, 4/3) and (0, -6) become (1, 2) and (0, 1); the zero row stays zero
    gram = integer_gram([(Fraction(2, 3), Fraction(4, 3)), (0, -6), (0, 0)])
    assert gram == [[5, 2, 0], [2, 1, 0], [0, 0, 0]]
    assert integer_gram([]) == []


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_integer_gram_has_the_rank_of_its_rows(rows):
    gram = integer_gram(rows)
    assert all(gram[i][j] == gram[j][i] for i in range(len(rows)) for j in range(len(rows)))
    assert gauss_rank(gram) == gauss_rank(rows)


# -- primitive integer forms

nonzero_rationals = rationals.filter(bool)


@st.composite
def vector_pairs(draw):
    """Two nonzero vectors of one length; in about half the draws the
    second is a multiple of the first, by a scale of either sign."""
    width = draw(st.integers(1, 4))
    vectors = st.lists(rationals, min_size=width, max_size=width).filter(any)
    v = draw(vectors)
    if draw(st.booleans()):
        scale = draw(nonzero_rationals)
        return v, [scale * x for x in v]
    return v, draw(vectors)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5).flatmap(lambda w: st.lists(rationals, min_size=w, max_size=w)), nonzero_rationals)
@example([Fraction(-2, 3), 0, Fraction(4, 5)], Fraction(-1))
@example([0, 0, -6], Fraction(5, 2))
def test_primitive_is_a_coprime_form_unchanged_by_rescaling(vector, scale):
    form = primitive(vector)
    assert primitive([scale * x for x in vector]) == form
    assert all(type(v) is int for v in form) and len(form) == len(vector)
    if any(vector):
        assert gcd(*form) == 1
        assert next(v for v in form if v) > 0
        # the form lies on the line of the vector
        assert gauss_rank([vector, form]) == 1
    else:
        assert form == (0,) * len(vector)


@settings(max_examples=80, deadline=None)
@given(vector_pairs())
def test_primitive_forms_agree_exactly_on_proportional_vectors(pair):
    v, w = pair
    assert (primitive(v) == primitive(w)) == (gauss_rank([v, w]) == 1)

"""Exact linear algebra against a textbook Gaussian elimination oracle."""

import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from certs import find
from oracles import (
    decomposition_weights,
    full_gram,
    gauss_rank,
    parse_rational_regex,
    row_list_gram_rank,
    row_list_pivot_rows,
    triangle,
)
from tensorcert.certify import check_span_intersection_identity
from tensorcert.cli import InstanceParseError, _parse_vector
from tensorcert.geometry import MultiPoint, MultiShape, PointSet, segre_scale
from tensorcert.linalg import (
    _back_substitute,
    _border,
    _kernel_vector,
    _pivot_rows,
    format_rational,
    gauss_jordan,
    gram_rank,
    integer_gram,
    multiple,
    parse_rational,
    primitive,
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
    assert parse_rational(" 3/4 ") == Fraction(3, 4)


@pytest.mark.parametrize(
    "bad", ["1.5", "a", "2 / 3", "1/-2", "--3", "+-1", "", "1/0", "0/0", "1_0", "\u0661"]
)
def test_parse_rational_rejects_malformed_literals(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300, reason="needs the default int digit limit"
)
@pytest.mark.parametrize("literal", ["1" * 5000, "-" + "1" * 5000, "1/" + "1" * 5000])
def test_parse_rational_keeps_the_int_digit_limit(literal):
    with pytest.raises(ValueError, match=r"^Exceeds the limit \(4300 digits\).*: value has 5000 digits"):
        parse_rational(literal)


def test_parse_rational_rejects_non_strings():
    with pytest.raises(ValueError):
        parse_rational(3)


def test_plain_integer_literals_parse_to_ints():
    assert [type(parse_rational(x)) for x in ("3", "-3", "+0", " 7 ")] == [int] * 4
    assert [type(parse_rational(x)) for x in ("3/1", "-4/2", "1/3")] == [Fraction] * 3


# Literals from the characters where int() and the regex could part:
# signs and '/', '_' and whitespace that int() skips, and non-ASCII
# digits, spaces and a superscript one; plus runs at the digit limit.
LITERAL_CHARS = "0123456789+-/_ \t\n\r\x0b\x0c\u00a0\u2003\u0661\uff11\u00b9"
DIGIT_RUNS = ["1" * 4300, "1" * 4301, "1" * 5000]
literals = st.one_of(
    st.text(LITERAL_CHARS, max_size=8),
    st.builds(lambda sign, run, tail: sign + run + tail, st.sampled_from(["", "+", "-", " "]),
              st.sampled_from(DIGIT_RUNS), st.sampled_from(["", "/3", " ", "_1"])),
    st.builds(lambda run: "1/" + run, st.sampled_from(DIGIT_RUNS)),
)


def outcome(parse, *args):
    """("value", the value), or the type and message of the exception raised."""
    try:
        return "value", parse(*args)
    except (ValueError, InstanceParseError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(literals)
@example("1_0")
@example("\u0661")
@example("-")
@example("+-1")
@example(" -12/4\u2003")
def test_parse_rational_agrees_with_the_regex_reference(text):
    got = outcome(parse_rational, text)
    assert got == outcome(parse_rational_regex, text)
    if got[0] == "value":
        # only a 'p/q' literal is a Fraction
        assert type(got[1]) is (Fraction if "/" in text else int)


def reference_vector(items, where):
    if not isinstance(items, list):
        raise InstanceParseError(f"{where} must be an array of rational strings")
    try:
        return tuple(parse_rational_regex(x) for x in items)
    except ValueError as exc:
        raise InstanceParseError(f"{where}: {exc}") from None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(literals, literals.map(str.strip), st.integers(-3, 3)), max_size=5))
@example(["1,2", "3"])
@example(["1", "2,"])
@example([",", ""])
@example(["1", 2])
@example(["12", "-0", "+7"])
@example(["1" * 4301, "2"])
@example([])
def test_parse_vector_agrees_with_the_regex_reference(items):
    got = outcome(_parse_vector, items, "point 0")
    assert got == outcome(reference_vector, items, "point 0")
    if got[0] == "value":
        assert all(type(x) in (int, Fraction) for x in got[1])


def test_format_rational():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-7, 2)) == "-7/2"
    assert format_rational(5) == "5"
    assert format_rational(Fraction(4, 6)) == "2/3"
    # anything else is read as the Fraction of its value
    assert format_rational("6/4") == "3/2"
    assert format_rational(0.5) == "1/2"
    assert format_rational(True) == "1"


@given(rationals)
def test_format_parse_round_trip(x):
    assert parse_rational(format_rational(x)) == x


# -- rank, bordering and solve by the one elimination kernel
#
# gram_rank is run the way the package runs it, on the integer Gram of
# the rows (every point-set rank: the Grams are PSD, and its pivots are
# the greedy independent prefix of the rows).  A solve is run the way
# augment runs one: the kept pivot rows of a positive definite Gram,
# bordered by the right-hand side, then back substitution.  The
# strategies draw square Grams, which the oracle ranks; the kernel takes
# their flat upper triangles.


def rows_gram_rank(rows):
    return gram_rank(integer_gram(rows))


def kept_rows(gram):
    return list(_pivot_rows(triangle(gram), len(gram)))


def solve(gram, rhs):
    return _back_substitute(_border(kept_rows(gram), [*rhs, 0]))


def test_empty_matrix_has_rank_zero():
    assert rows_gram_rank([]) == 0
    assert solve([], []) == ()


@st.composite
def degenerate_integer_matrices(draw):
    """Integer rows with whole columns zeroed and integer combinations of
    the rows mixed in: the skipped-column case, where each Bareiss step
    still divides by the last pivot."""
    width = draw(st.integers(1, 6))
    zeroed = draw(st.sets(st.integers(0, width - 1), max_size=width))
    entry = st.integers(-6, 6)
    rows = [
        [0 if j in zeroed else x for j, x in enumerate(row)]
        for row in draw(st.lists(st.lists(entry, min_size=width, max_size=width), min_size=1, max_size=5))
    ]
    for _ in range(draw(st.integers(0, 3))):
        coeffs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
        combo = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(width)]
        rows.insert(draw(st.integers(0, len(rows))), combo)
    return rows


@st.composite
def psd_grams(draw):
    """The PSD Grams the package ranks: the integer Gram of a degenerate
    matrix, its Hadamard product with the Gram of another one's rows
    (picked with repeats, to as many rows), or its Hadamard power (the
    veronese_gram case, the all-ones matrix at exponent 0)."""
    gram = full_gram(draw(degenerate_integer_matrices()))
    kind = draw(st.sampled_from(["gram", "product", "power"]))
    if kind == "product":
        other = draw(degenerate_integer_matrices())
        picks = draw(st.lists(st.integers(0, len(other) - 1), min_size=len(gram), max_size=len(gram)))
        factor = full_gram([other[i] for i in picks])
        gram = [[x * y for x, y in zip(u, v)] for u, v in zip(gram, factor)]
    elif kind == "power":
        e = draw(st.integers(0, 4))
        gram = [[x**e for x in row] for row in gram]
    return gram


@settings(max_examples=300, deadline=None)
@given(psd_grams())
@example([])
@example([[0, 0, 0], [0, 1, 2], [0, 2, 4]])
@example([[1, 1, 0], [1, 1, 0], [0, 0, 0]])
def test_gram_rank_matches_the_oracle_and_leaves_its_input(gram):
    tri = triangle(gram)
    before = tri[:]
    assert gram_rank(tri) == gauss_rank(gram)
    assert tri == before


def independent_rows(rows):
    """Each row in turn that is independent of the rows kept before it."""
    kept = []
    for row in rows:
        if gauss_rank(kept + [row]) > len(kept):
            kept.append(row)
    return kept


@st.composite
def pd_grams_and_rhs(draw):
    """A positive definite Gram the way augment solves one, with an integer
    right-hand side: the Gram of the independent rows of a degenerate
    matrix, or its Hadamard product with the Gram of another one's
    nonzero rows (picked with repeats), positive definite by Schur's
    product theorem, since that factor's diagonal is positive."""
    rows = independent_rows(draw(degenerate_integer_matrices()))
    gram = full_gram(rows)
    if gram and draw(st.booleans()):
        other = [row for row in draw(degenerate_integer_matrices()) if any(row)] or rows
        picks = draw(st.lists(st.integers(0, len(other) - 1), min_size=len(gram), max_size=len(gram)))
        factor = full_gram([other[i] for i in picks])
        gram = [[x * y for x, y in zip(u, v)] for u, v in zip(gram, factor)]
    return gram, draw(st.lists(st.integers(-60, 60), min_size=len(gram), max_size=len(gram)))


def times(gram, v):
    return [sum(g * x for g, x in zip(row, v)) for row in gram]


@settings(max_examples=300, deadline=None)
@given(pd_grams_and_rhs())
@example(([[2, 1], [1, 2]], [1, 0]))
@example(([[1, 0, 0], [0, 4, 2], [0, 2, 5]], [0, 0, 7]))
def test_bordering_and_back_substitution_solve_exactly_and_leave_their_input(case):
    gram, rhs = case
    assert gauss_rank(gram) == len(gram)
    pivots, column = kept_rows(gram), [*rhs, 0]
    before = [row[:] for row in gram], [row[:] for row in pivots], column[:]
    z = _back_substitute(_border(pivots, column))
    assert (gram, pivots, column) == before
    # D z for the solution z / D, D = det H the last pivot: integers throughout
    d = pivots[-1][0] if pivots else 1
    assert d > 0
    assert all(type(x) is int for x in z)
    assert times(gram, z) == [d * b for b in rhs]


@pytest.mark.parametrize(
    "gram, kept",
    [([[1, 1], [1, 1]], [[1, 1]]), ([[0]], []), ([[4, 0, 2], [0, 0, 0], [2, 0, 1]], [[4, 0, 2]])],
)
def test_a_singular_gram_keeps_fewer_rows_than_points(gram, kept):
    assert kept_rows(gram) == kept


@settings(max_examples=200, deadline=None)
@given(psd_grams())
def test_the_kept_rows_number_n_exactly_when_the_gram_has_rank_n(gram):
    rhs = list(range(1, len(gram) + 1))
    assert (len(kept_rows(gram)) == len(gram)) == (gauss_rank(gram) == len(gram))
    if gauss_rank(gram) == len(gram):
        d = kept_rows(gram)[-1][0] if gram else 1
        assert times(gram, solve(gram, rhs)) == [d * b for b in rhs]


@st.composite
def bordered_grams(draw):
    """The Gram of the independent rows of a degenerate matrix and one
    more row, last: a free row, or an integer combination of the others,
    which leaves it in their span.  Half the time it is multiplied
    entrywise by the Gram of another matrix's nonzero rows, as
    pd_grams_and_rhs does, which keeps it PSD and its leading block
    positive definite."""
    matrix = draw(degenerate_integer_matrices())
    rows, entry = independent_rows(matrix), st.integers(-6, 6)
    if draw(st.booleans()):
        point = draw(st.lists(entry, min_size=len(matrix[0]), max_size=len(matrix[0])))
    else:
        coeffs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
        point = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(len(matrix[0]))]
    gram = full_gram([*rows, point])
    if draw(st.booleans()):
        other = [row for row in draw(degenerate_integer_matrices()) if any(row)] or [[1]]
        picks = draw(st.lists(st.integers(0, len(other) - 1), min_size=len(gram), max_size=len(gram)))
        factor = full_gram([other[i] for i in picks])
        gram = [[x * y for x, y in zip(u, v)] for u, v in zip(gram, factor)]
    return gram


@settings(max_examples=300, deadline=None)
@given(bordered_grams())
@example([[0]])
@example([[1, 1], [1, 1]])
@example([[2, 1], [1, 2]])
@example([[1, 0, 1], [0, 1, 1], [1, 1, 2]])
def test_bordering_the_kept_rows_matches_a_fresh_elimination_with_the_point_last(gram):
    n = len(gram) - 1
    pivots = kept_rows([row[:n] for row in gram[:n]])
    assert len(pivots) == n
    bordered = _border(pivots, gram[n])
    singular = gauss_rank(gram) == n
    assert (bordered[-1] == [0]) == singular
    assert kept_rows(gram) == (bordered[:-1] if singular else bordered)


# -- the flat kernel against the row-list one it replaced (oracles.row_list_*)


@st.composite
def deficient_grams(draw):
    """Square PSD integer Grams of order 0-12: of integer rows, each one
    drawn, zero (a zero diagonal entry, so a later pivot sits at p > 0) or
    a combination of the rows before it (a rank-deficient Gram); then
    maybe multiplied entrywise by another such Gram or raised entrywise
    to a power 0-3, as the flattening walk and veronese_gram do."""
    order, width = draw(st.integers(0, 12)), draw(st.integers(1, 8))
    entry = st.integers(-3, 3)

    def rows():
        drawn = []
        for _ in range(order):
            kind = draw(st.sampled_from(["drawn", "zero", "combination"]))
            if kind == "zero":
                drawn.append([0] * width)
            elif kind == "combination" and drawn:
                coeffs = draw(st.lists(entry, min_size=len(drawn), max_size=len(drawn)))
                drawn.append([sum(c * row[j] for c, row in zip(coeffs, drawn)) for j in range(width)])
            else:
                drawn.append(draw(st.lists(entry, min_size=width, max_size=width)))
        return drawn

    gram = full_gram(rows())
    kind = draw(st.sampled_from(["gram", "product", "power"]))
    if kind == "product":
        gram = [[x * y for x, y in zip(u, v)] for u, v in zip(gram, full_gram(rows()))]
    elif kind == "power":
        e = draw(st.integers(0, 3))
        gram = [[x**e for x in row] for row in gram]
    return gram


@settings(max_examples=300, deadline=None)
@given(deficient_grams())
@example([])
@example([[0, 0, 0], [0, 1, 2], [0, 2, 4]])
@example([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 2, 1], [0, 0, 1, 3]])
def test_the_flat_kernel_keeps_the_ranks_and_pivot_rows_of_the_row_list_one(gram):
    reference = list(row_list_pivot_rows([row[a:] for a, row in enumerate(gram)]))
    assert kept_rows(gram) == reference
    assert gram_rank(triangle(gram)) == row_list_gram_rank(gram) == len(reference) == gauss_rank(gram)


@settings(max_examples=300, deadline=None)
@given(deficient_grams())
@example([[0, 0], [0, 1]])
@example([[1, 1], [1, 1]])
@example([[2, 1, 2, 0], [1, 2, 1, 0], [2, 1, 2, 0], [0, 0, 0, 3]])
@example([[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 2, 1], [1, 0, 1, 5]])
def test_the_kernel_vector_from_the_pivot_rows_is_exact(gram):
    n = len(gram)
    rows = kept_rows(gram)
    if len(rows) == n:
        return
    c = _kernel_vector(rows, n)
    assert all(type(x) is int for x in c) and any(c)
    assert times(gram, c) == [0] * n
    # nonzero only on the first dependent point and the independent ones before it
    j = max(i for i, x in enumerate(c) if x)
    assert gauss_rank(gram[:j]) == j and gauss_rank(gram[: j + 1]) == j


@st.composite
def pooled_matrices(draw):
    """Integer matrices of 1-5 rows and 1-7 columns whose rows are small
    combinations of a few pool rows, so often of lower rank than either
    dimension, with zero rows and zero columns among them."""
    width = draw(st.integers(1, 7))
    entry = st.integers(-4, 4)
    pool = draw(st.lists(st.lists(entry, min_size=width, max_size=width), min_size=1, max_size=3))
    coefficients = st.lists(st.sampled_from((0, 0, 1, -1, 2, -3)), min_size=len(pool), max_size=len(pool))
    return [
        [sum(c * row[j] for c, row in zip(cs, pool)) for j in range(width)]
        for cs in draw(st.lists(coefficients, min_size=1, max_size=5))
    ]


@settings(max_examples=150, deadline=None)
@given(pooled_matrices())
@example([[0, 0, 0], [0, 0, 0]])
@example([[0, 2, 4, 1], [0, 1, 2, 3], [0, 3, 6, 4]])
@example([[7]])
def test_gauss_jordan_is_d_times_the_reduced_echelon_form(rows):
    # the reduced row echelon form is the one matrix of the row space with
    # these pivots whose pivot columns are the identity and whose rows each
    # start at their pivot; D times it has D in place of each 1
    before = [list(row) for row in rows]
    pivots, reduced = gauss_jordan(rows)
    assert rows == before
    assert len(pivots) == len(reduced) == gauss_rank(rows) == gauss_rank(rows + reduced)
    assert pivots == sorted(set(pivots))
    assert all(type(x) is int for row in reduced for x in row)
    if pivots:
        d = reduced[0][pivots[0]]
        assert d != 0
        for i, row in enumerate(reduced):
            assert [row[p] for p in pivots] == [d * (a == i) for a in range(len(pivots))]
            assert not any(row[: pivots[i]])


def test_rank_hand_cases():
    for rows, rank in (
        ([[1, 0], [0, 1]], 2),
        ([[1, 2], [2, 4]], 1),
        ([[0, 0], [0, 0]], 0),
        ([[1, 2, 3], [4, 5, 6], [7, 8, 9]], 2),
    ):
        assert rows_gram_rank(rows) == gauss_rank(rows) == rank


def test_rank_with_fractional_entries():
    rows = [
        [Fraction(1, 2), Fraction(1, 3)],
        [Fraction(3, 2), Fraction(5, 1)],
        [Fraction(1, 4), Fraction(1, 6)],
    ]
    assert rows_gram_rank(rows) == gauss_rank(rows) == 2


@settings(max_examples=80, deadline=None)
@given(small_matrices())
def test_rank_matches_gaussian_oracle(rows):
    assert rows_gram_rank(rows) == gauss_rank(rows)


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_rank_is_transpose_invariant(rows):
    transposed = list(zip(*rows))
    assert rows_gram_rank(rows) == rows_gram_rank(transposed)


@settings(max_examples=60, deadline=None)
@given(small_matrices(), st.integers(-9, 9).filter(bool))
def test_rank_is_invariant_under_row_scaling(rows, scale):
    scaled = [[scale * Fraction(x) for x in rows[0]]] + rows[1:]
    assert rows_gram_rank(scaled) == rows_gram_rank(rows)


# -- span tests
#
# Row combinations are solved by oracles.decomposition_weights, the
# reference that augment's new weights are checked against.  On a
# one-factor point set the Segre vectors are the rows themselves.


def rows_as_points(rows) -> PointSet:
    return PointSet(MultiShape((len(rows[0]) - 1,)), tuple(MultiPoint((row,)) for row in rows))


def test_in_row_span_hand_cases():
    base = rows_as_points([[1, 0, 0], [0, 1, 0]])
    assert decomposition_weights((2, -3, 0), base) == (2, -3)
    assert decomposition_weights((0, 0, 1), base) is None
    # dependent rows: the free coefficients are zero
    dependent = rows_as_points([[1, 0, 0], [0, 1, 0], [1, 1, 0]])
    assert decomposition_weights((0, 2, 0), dependent) == (0, 2, 0)
    with pytest.raises(ValueError, match="^tensor has 2 coordinates, shape wants 3$"):
        decomposition_weights((1, 0), base)


def span_intersection_dim(rows1, rows2) -> int:
    cert = check_span_intersection_identity(rows_as_points(rows1), rows_as_points(rows2))
    (hyp,) = find(cert, "identity_holds")
    return hyp["witness"]["lhs_intersection_dim"]


def test_span_intersection_dim_hand_cases():
    a = [[1, 0, 0], [0, 1, 0]]
    b = [[0, 1, 0], [0, 0, 1]]
    # the intersection is the single projective point e2
    assert span_intersection_dim(a, b) == 0
    c = [[1, 0, 0, 0]]
    d = [[0, 1, 0, 0]]
    assert span_intersection_dim(c, d) == -1
    assert span_intersection_dim(a, a) == 1
    # disjoint sets whose union is dependent: two lines of P^2 meet
    assert span_intersection_dim(a, [[0, 0, 1], [1, 1, 1]]) == 0
    with pytest.raises(ValueError):
        span_intersection_dim(a, c)
    with pytest.raises(ValueError):
        span_intersection_dim([[1, 0], [1]], [[0, 1]])


def test_solve_row_combination_recovers_coefficients():
    base = rows_as_points([[1, 0, 2], [0, 1, 1]])
    target = (2, -1, 3)
    coeffs = decomposition_weights(target, base)
    assert coeffs == (2, -1)


def test_solve_row_combination_inconsistent_returns_none():
    base = rows_as_points([[1, 0, 0]])
    assert decomposition_weights((0, 1, 0), base) is None


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda w: st.tuples(
            st.lists(
                st.lists(rationals, min_size=w, max_size=w).filter(any),
                min_size=1,
                max_size=4,
                unique_by=primitive,
            ),
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
    solved = decomposition_weights(target, rows_as_points(rows))
    assert solved is not None
    rebuilt = [
        sum(c * x for c, x in zip(solved, col))
        for col in zip(*rows)
    ]
    assert rebuilt == target


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_rank_bounded_by_dimensions(rows):
    assert 0 <= rows_gram_rank(rows) <= min(len(rows), len(rows[0]))


# -- integer Grams


def test_integer_gram_of_primitive_rows():
    # (2/3, 4/3) and (0, -6) become (1, 2) and (0, 1); the zero row stays zero
    # Gram [[5, 2, 0], [2, 1, 0], [0, 0, 0]], as its flat upper triangle
    gram = integer_gram([(Fraction(2, 3), Fraction(4, 3)), (0, -6), (0, 0)])
    assert gram == [5, 2, 0, 1, 0, 0]
    assert integer_gram([]) == []


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_integer_gram_has_the_rank_of_its_rows(rows):
    square = full_gram([primitive(row) for row in rows])
    assert integer_gram(rows) == triangle(square)
    assert gauss_rank(square) == gauss_rank(rows)


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


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5).flatmap(lambda w: st.lists(rationals, min_size=w, max_size=w).filter(any)))
@example([0, Fraction(-4, 3), Fraction(2, 5)])
def test_multiple_recovers_the_row_from_its_primitive_form(vector):
    form = primitive(vector)
    c = multiple(vector, form)
    assert [c * v for v in form] == vector


def test_multiple_of_int_rows_is_a_fraction():
    assert type(multiple((2, 4), (1, 2))) is Fraction
    assert type(multiple((-3,), (1,))) is Fraction
    point = MultiPoint(((2, 4), (-3, 0, 6)))
    assert point.factors == ((2, 4), (-3, 0, 6))
    assert type(segre_scale(point)) is Fraction and segre_scale(point) == -6


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-40, 40), min_size=1, max_size=5))
@example([0, -6, 4])
@example([0, 0])
def test_primitive_of_an_int_row_is_that_of_its_fractions(vector):
    assert primitive(vector) == primitive([Fraction(x) for x in vector])
    assert all(type(v) is int for v in primitive(vector))

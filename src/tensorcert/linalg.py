"""Exact linear algebra over the rationals.

Everything in this package that certifies anything reduces to ranks of
integer matrices, taken by Bareiss's fraction-free elimination (Math.
Comp. 22, 1968): every entry it writes is a minor of the input, so each
division is exact.  There is no floating point anywhere in the
certification path.

Numbers are ``int`` or ``Fraction``: a plain integer literal parses to
an ``int`` and stays one, and only a ``p/q`` literal or a scale between
two vectors is a ``Fraction``.  No operation on them yields a float.

``primitive`` is also the one projective normal form of the package:
two nonzero vectors name the same projective point exactly when their
primitive integer forms are equal.

Independence of a point set is asked of the integer Gram matrix of its
evaluation vectors (``integer_gram``): over Q, inside R, rank(A A^T) =
rank(A), and rows are independent exactly when their principal Gram
submatrix is nonsingular.  Such a Gram, and every Hadamard product or
power of such Grams (Segre flattenings, Veronese degrees), is positive
semidefinite, and its rank is the number of rows ``_pivot_rows``
yields, given its flat upper triangle, row after row, and its order n.
The rows after a pivot are the list's tail, laid out as the block that
a Bareiss step leaves, and the pivots, on the diagonal, are the greedy
independent prefix of the points.  A general integer matrix, such as a
Kruskal factor's, is reduced by ``gauss_jordan``, the same fraction-free
step on every row but the pivot's: its pivot columns and D times its
reduced row echelon form, for D the determinant of the pivot block.
Augment borders the pivot rows (lists) of one positive definite Gram
with one point at a time (``_border``); a solve is a bordering plus
``_back_substitute``, which stays in the integers: it returns D v for
the determinant D of the system, and the caller divides by D once.  The pivot rows of a singular
Gram also give an integer kernel vector (``_kernel_vector``): the rows
before its first dependent point, cut at that point's column, are a
bordering, and one back substitution solves it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

_RATIONAL_RE = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")
# a vector of plain integer literals, joined by commas, in one match
_INT_LIST_RE = re.compile(r"[+-]?[0-9]+(?:,[+-]?[0-9]+)*")


def parse_rational(text: str) -> int | Fraction:
    """Parse a rational literal of the form ``p`` or ``p/q``: an ``int``
    for ``p``, a ``Fraction`` for ``p/q``.

    The sign, if any, sits on the numerator.  Anything else (floats,
    whitespace inside the number, a zero denominator) is rejected.
    """
    if not isinstance(text, str):
        raise ValueError(f"rational literal must be a string, got {type(text).__name__}")
    match = _RATIONAL_RE.fullmatch(text)
    if match is None:
        raise ValueError(f"invalid rational literal {text!r} (expected 'p' or 'p/q')")
    if match[2] is None:
        return int(match[1])
    try:
        return Fraction(int(match[1]), int(match[2]))
    except ZeroDivisionError:
        raise ValueError(f"invalid rational literal {text!r} (zero denominator)") from None


def parse_rationals(items: Sequence[str]) -> tuple[int | Fraction, ...]:
    """``parse_rational`` of each literal in ``items``, with the same
    values and the same ``ValueError`` for the first bad one.

    An all-integer vector is checked in one match of its comma join (one
    comma per join means no literal holds one) and read by ``int``; any
    other vector goes literal by literal.
    """
    try:
        joined = ",".join(items)
    except TypeError:  # a literal that is not a string
        joined = ""
    if joined.count(",") == len(items) - 1 and _INT_LIST_RE.fullmatch(joined):
        try:
            return tuple(map(int, items))
        except ValueError:  # past the digit limit: the literal path names it
            pass
    return tuple(parse_rational(x) for x in items)


def format_rational(value) -> str:
    """Format a rational as ``p`` or ``p/q`` with the sign on the numerator
    (an int is its own numerator over 1; anything else that is not a
    ``Fraction`` is read as ``Fraction(value)``)."""
    if type(value) not in (int, Fraction):
        value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def primitive(row: Sequence[Fraction | int]) -> tuple[int, ...]:
    """The primitive integer vector on the line of ``row``.

    Clears denominators, divides out the content and makes the first
    nonzero entry positive, so two nonzero vectors are proportional over
    Q exactly when their primitive forms are equal.  A zero row stays zero.
    """
    try:
        ints, g = row, gcd(*row)
    except TypeError:  # gcd takes ints only: clear the denominators first
        den = lcm(*(x.denominator for x in row))
        ints = [x.numerator * (den // x.denominator) for x in row]
        g = gcd(*ints)
    if next((v for v in ints if v), 0) < 0:
        g = -g
    return tuple(v // g for v in ints) if g not in (0, 1) else tuple(ints)


def multiple(row: Sequence[Fraction | int], prim: Sequence[int]) -> Fraction:
    """The c with row = c * prim, for a nonzero row and a nonzero integer
    vector on its line, such as its primitive form."""
    i = next(i for i, v in enumerate(prim) if v)
    return Fraction(row[i], prim[i])  # an int row / prim would be a float


def integer_gram(rows: Iterable[Sequence[Fraction | int]]) -> list[int]:
    """Gram matrix of the primitive integer forms of ``rows``, as its flat
    upper triangle: row a from column a on, the rows one after another.

    Making a row primitive multiplies it by a nonzero rational, which
    scales one row and the matching column of the Gram, so neither its
    rank nor the rank of any principal submatrix changes.
    """
    ints = [primitive(row) for row in rows]
    return [sum(map(mul, a, b)) for i, a in enumerate(ints) for b in ints[i:]]


def _pivot_rows(tri: Sequence[int], n: int):
    """The pivot rows (lists, each from its pivot on), in order, of Bareiss
    with principal pivots on the flat upper triangle ``tri`` of order n.
    A PSD block's zero diagonal entry has a zero row, which drops out, and
    each step leaves a PSD block, so the pivot is the first nonzero one.
    A step is one pass over the rows after the pivot's, the list's tail,
    against the pivot row's outer product."""
    prev = 1
    while tri:
        if not tri[0]:
            tri, n = tri[n:], n - 1
        else:
            yield tri[:n]
            d, tail = tri[0], tri[1:n]
            outer = [g * h for a, g in enumerate(tail) for h in tail[a:]]
            prev, tri, n = d, [(d * x - u) // prev for x, u in zip(tri[n:], outer)], n - 1


def gauss_jordan(rows: Sequence[Sequence[int]]) -> tuple[list[int], list[list[int]]]:
    """Fraction-free Gauss-Jordan elimination of a general integer matrix,
    given as its ``rows``, which are left as they are: its pivot columns,
    in order, and the nonzero rows of D R, for R its reduced row echelon
    form and D the determinant of its pivot block (up to sign), so each
    pivot row holds D at its pivot and zeros at the other pivots.

    Each step with pivot d rewrites every other row as (d a - x b) / prev,
    Bareiss's step with the previous pivot prev: every entry it writes is
    a minor of the input, so each division is exact, and the earlier
    pivots all become d.  A column with no pivot left below is skipped."""
    rows = [list(row) for row in rows]
    pivots: list[int] = []
    prev = 1
    for col in range(len(rows[0]) if rows else 0):
        k = len(pivots)
        if (p := next((i for i in range(k, len(rows)) if rows[i][col]), None)) is None:
            continue
        rows[k], rows[p] = rows[p], rows[k]
        pivot = rows[k]
        d = pivot[col]
        for i, row in enumerate(rows):
            if i != k:
                x = row[col]
                rows[i] = [(d * a - x * b) // prev for a, b in zip(row, pivot)]
        prev = d
        pivots.append(col)
        if k + 1 == len(rows):
            break
    return pivots, rows[: len(pivots)]


def _border(pivots: Sequence[Sequence[int]], column: Sequence[int]) -> list[list[int]]:
    """The pivot rows of a positive definite Gram H bordered by one more
    point, from H's n ``pivots`` and the point's ``column``: its Gram
    entries against H's points, in order, then its own.  Each row gets the
    point's entry as a step of ``_pivot_rows`` leaves it, and its row comes
    last: [the bordered determinant], zero exactly when that is singular.
    About n^2/2 updates, every entry a minor, so every division is exact."""
    col, prev, rows = list(column), 1, []
    for k, row in enumerate(pivots):
        rows.append([*row, y := col[k]])
        col[k + 1:] = [(row[0] * x - g * y) // prev for x, g in zip(col[k + 1:], rows[-1][1:])]
        prev = row[0]
    rows.append([col[-1]])
    return rows


def _back_substitute(bordered: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """D v for the v with H v = b, from ``_border`` of a positive definite
    H's pivot rows by [b, anything]: each row but the last ends in b's
    entry, and the rows form a triangular system.  D is H's last pivot,
    det H (1 when H is empty), so D v is the integer vector of Cramer's
    rule and each of its entries divides out exactly."""
    d = bordered[-2][0] if len(bordered) > 1 else 1
    z: list[int] = []
    for row in reversed(bordered[:-1]):
        z.append((d * row[-1] - sum(map(mul, row[1:-1], reversed(z)))) // row[0])
    return tuple(reversed(z))


def _kernel_vector(rows: Sequence[Sequence[int]], n: int) -> tuple[int, ...]:
    """An integer c != 0 with G c = 0, from the pivot rows (``_pivot_rows``)
    of an order-n PSD G of rank below n.  Point i's row has n - i entries
    while no point before it has dropped out, so the first row that is
    shorter, or the end of the rows, names the first dependent point j.
    The rows before j, cut at column j, are the points before j bordered
    by j's column, and c is D (-v, 1, 0, ..., 0) for the D v of their
    back substitution: G c = 0, since G is PSD and c^T G c = 0."""
    j = next((i for i, row in enumerate(rows) if len(row) != n - i), len(rows))
    d = rows[j - 1][0] if j else 1
    z = _back_substitute([row[: j - i + 1] for i, row in enumerate(rows[:j])] + [[0]])
    return (*(-x for x in z), d, *[0] * (n - 1 - j))

"""Exact linear algebra over the rationals.

Everything in this package that certifies anything reduces to ranks of
matrices with Fraction entries.  Ranks and span coefficients both come
from one fraction-free elimination on gcd-reduced integer rows, so
results are exact and deterministic: the pivot is always the first
nonzero entry scanning columns left to right and rows top to bottom.
There is no floating point anywhere in the certification path.

Independence of a point set is asked of the integer Gram matrix of its
evaluation vectors (``integer_gram``): over Q, inside R, rank(A A^T) =
rank(A), and rows are independent exactly when their principal Gram
submatrix is nonsingular.  Segre flattenings, Kruskal column subsets and
Veronese degrees are all ranked that way, by ``_echelon``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(/[0-9]+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal of the form ``p`` or ``p/q``.

    The sign, if any, sits on the numerator.  Anything else (floats,
    whitespace inside the number, a zero denominator) is rejected.
    """
    if not isinstance(text, str):
        raise ValueError(f"rational literal must be a string, got {type(text).__name__}")
    body = text.strip()
    if not _RATIONAL_RE.match(body):
        raise ValueError(f"invalid rational literal {text!r} (expected 'p' or 'p/q')")
    try:
        return Fraction(body)
    except ZeroDivisionError:
        raise ValueError(f"invalid rational literal {text!r} (zero denominator)") from None


def format_rational(value: Fraction | int) -> str:
    """Format a rational as ``p`` or ``p/q`` with the sign on the numerator."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _fraction_row(row: Iterable) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in row)


@dataclass(frozen=True)
class RatMatrix:
    """Dense row-major matrix of Fractions."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match rows x cols")

    @classmethod
    def from_rows(cls, rows: Sequence[Iterable], cols: int | None = None) -> "RatMatrix":
        data = [_fraction_row(r) for r in rows]
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise ValueError("ragged rows")
        elif cols is None:
            raise ValueError("an empty matrix needs an explicit column count")
        else:
            width = cols
        if cols is not None and cols != width:
            raise ValueError("explicit column count disagrees with the rows")
        flat = tuple(x for r in data for x in r)
        return cls(len(data), width, flat)

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def row_list(self) -> list[tuple[Fraction, ...]]:
        return [self.row(i) for i in range(self.rows)]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def stack(self, other: "RatMatrix") -> "RatMatrix":
        if other.cols != self.cols:
            raise ValueError("stacked matrices must share a column count")
        return RatMatrix(self.rows + other.rows, self.cols, self.entries + other.entries)


def _primitive_int_row(row: Sequence[Fraction]) -> list[int]:
    """Clear denominators and divide by the content, keeping the sign."""
    den = 1
    for x in row:
        d = x.denominator
        den = den * d // gcd(den, d)
    ints = [x.numerator * (den // x.denominator) for x in row]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def integer_gram(rows: Iterable[Sequence[Fraction]]) -> list[list[int]]:
    """Gram matrix of the primitive integer forms of ``rows``.

    Making a row primitive multiplies it by a nonzero rational, which
    scales one row and the matching column of the Gram, so neither its
    rank nor the rank of any principal submatrix changes.
    """
    ints = [_primitive_int_row(row) for row in rows]
    return [[sum(x * y for x, y in zip(a, b)) for b in ints] for a in ints]


def _integer_rows(rows: Iterable[Sequence[Fraction]]) -> list[list[int]]:
    """Primitive integer rows, zero rows dropped; neither changes the row space."""
    out = []
    for row in rows:
        ints = _primitive_int_row(row)
        if any(ints):
            out.append(ints)
    return out


def _echelon(work: list[list[int]], cols: int) -> list[int]:
    """Bring integer rows to row echelon form in place; return the pivot columns.

    The single elimination kernel of the package.  A row below the pivot
    row p becomes p[col] * row - row[col] * p, divided by its content, so
    no fraction is ever formed.  Afterwards row i has its pivot in the
    i-th returned column, and every row past the rank is zero.
    """
    nrows = len(work)
    pivots: list[int] = []
    for col in range(cols):
        rank = len(pivots)
        if rank == nrows:
            break
        pivot = None
        for i in range(rank, nrows):
            if work[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        prow = work[rank]
        pv = prow[col]
        for i in range(rank + 1, nrows):
            xi = work[i][col]
            if not xi:
                continue
            merged = [pv * a - xi * b for a, b in zip(work[i], prow)]
            g = 0
            for v in merged:
                g = gcd(g, v)
            if g > 1:
                merged = [v // g for v in merged]
            work[i] = merged
        pivots.append(col)
    return pivots


def rat_rank(m: RatMatrix) -> int:
    """Exact rank of ``m`` over the rationals."""
    return len(_echelon(_integer_rows(m.row_list()), m.cols))


def span_intersection_dim(m1: RatMatrix, m2: RatMatrix) -> int:
    """Projective dimension of the intersection of the two row spans.

    Computed from the Grassmann formula: with r1, r2 the ranks and rs the
    rank of the stacked matrix, the result is r1 + r2 - rs - 1.  An empty
    intersection comes out as -1.
    """
    if m1.cols != m2.cols:
        raise ValueError("span intersection needs matrices with equal column counts")
    r1 = rat_rank(m1)
    r2 = rat_rank(m2)
    rs = rat_rank(m1.stack(m2))
    return r1 + r2 - rs - 1


def row_combination(target: Sequence, m: RatMatrix) -> tuple[int, tuple[Fraction, ...] | None]:
    """The rank of ``m`` and coefficients ``x`` with sum x_i * row_i = target.

    One elimination of the system [m^T | target], then back
    substitution over the pivot columns.  The coefficients are None when
    target lies outside the row span.  When the rows are dependent any
    one solution is returned (free coefficients are set to zero).
    """
    v = _fraction_row(target)
    if len(v) != m.cols:
        raise ValueError(f"vector of length {len(v)} against {m.cols}-column matrix")
    n = m.rows
    work = _integer_rows(m.column(j) + (v[j],) for j in range(m.cols))
    pivots = _echelon(work, n + 1)
    if pivots and pivots[-1] == n:
        return len(pivots) - 1, None
    coeffs = [Fraction(0)] * n
    for row, col in reversed(list(zip(work, pivots))):
        rest = sum((row[j] * coeffs[j] for j in range(col + 1, n)), Fraction(0))
        coeffs[col] = (row[n] - rest) / row[col]
    return len(pivots), tuple(coeffs)

"""Symmetric tensors: Veronese evaluation, rank certificates and bounds.

A degree-k symmetric tensor in n + 1 variables is a vector of
C(k + n, n) coefficients indexed by the degree-k monomials in graded
lexicographic order of exponent vectors.  The certificate here shows
that a presented symmetric decomposition of r distinct points is the
actual rank of the tensor, and that rank and symmetric rank agree for
it, by checking independence at some degree e <= k/2 together with
non-redundancy at degree k.

Independence at degree e is not read off the C(n + e, e)-wide Veronese
rows V: weighted by multinomial coefficients, their Gram is <p, q>^e, so
the Hadamard power G^e of the point Gram G is V W V^T with W positive
diagonal and has the rank of V (at e = 0 it is all ones, of rank 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, prod
from typing import NamedTuple, Sequence

from .certify import (
    CLAIM_EXACT_RANK,
    FAIL,
    PASS,
    Certificate,
    Hypothesis,
    non_redundancy_hypotheses,
)
from .linalg import _echelon, integer_gram, primitive, weighted_sum

TAG_SYMMETRIC = "symmetric-rank-agreement"


@dataclass(frozen=True)
class SymShape:
    """Projective dimension n and degree k of a symmetric tensor space."""

    n: int
    k: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if self.k < 1:
            raise ValueError("the degree must be positive")

    @property
    def num_coords(self) -> int:
        return comb(self.k + self.n, self.n)

    @property
    def half_degree(self) -> int:
        return self.k // 2


@dataclass(frozen=True)
class SymPointSet:
    """Distinct points of P^n given by nonzero coordinate vectors."""

    points: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        points = tuple(tuple(Fraction(x) for x in p) for p in self.points)
        object.__setattr__(self, "points", points)
        if not points:
            raise ValueError("a point set must be nonempty")
        width = len(points[0])
        if width < 1 or any(len(p) != width for p in points):
            raise ValueError("points must share a coordinate count")
        canon = []
        for idx, p in enumerate(points):
            if not any(p):
                raise ValueError(f"point {idx} is the zero vector")
            canon.append(primitive(p))
        for idx, c in enumerate(canon):
            if c in canon[:idx]:
                raise ValueError(f"duplicate point at position {idx}")

    @property
    def n(self) -> int:
        return len(self.points[0]) - 1

    def __len__(self) -> int:
        return len(self.points)


def veronese_vector(point: Sequence, degree: int) -> tuple[Fraction, ...]:
    """All degree-``degree`` monomials of the coordinates, graded lex order.

    Graded lex on exponent vectors means the exponent of the first
    coordinate drops last: for (x, y, z) and degree 2 the order is
    x2, xy, xz, y2, yz, z2.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    coords = tuple(Fraction(x) for x in point)
    if not coords:
        raise ValueError("empty coordinate vector")
    return tuple(
        prod((coords[i] for i in combo), start=Fraction(1))
        for combo in combinations_with_replacement(range(len(coords)), degree)
    )


def assemble_symmetric(weights: Sequence, a: SymPointSet, degree: int) -> tuple[Fraction, ...]:
    """Weighted sum of degree-``degree`` Veronese vectors of the points."""
    length = comb(degree + a.n, a.n)
    return weighted_sum(weights, a.points, lambda p: veronese_vector(p, degree), length)


def comon_certify(coords: Sequence, a: SymPointSet, degree: int) -> Certificate:
    """Certify rank = cactus rank = symmetric rank = #A for a symmetric
    tensor presented by the decomposition A.

    Searches e descending from floor(degree/2) for a degree-e Veronese
    Gram of full rank (h1 = 0), then checks non-redundancy of the
    decomposition at degree ``degree``.  On success the presented number
    of points is the rank of the tensor both as a symmetric tensor and
    as a general one, so the two ranks agree.
    """
    n = a.n
    shape = SymShape(n, degree)
    vec = tuple(Fraction(x) for x in coords)
    if len(vec) != shape.num_coords:
        raise ValueError(
            f"symmetric tensor has {len(vec)} coordinates, expected {shape.num_coords}"
        )
    if not any(vec):
        raise ValueError("the zero tensor has no projective class")
    attempts = []
    found_e: int | None = None
    gram = integer_gram(a.points)
    for e in range(shape.half_degree, -1, -1):
        rank = len(_echelon([[g**e for g in row] for row in gram], len(a)))
        attempts.append({"e": e, "rank": rank, "h1": len(a) - rank})
        if rank == len(a):
            found_e = e
            break
    hyps = [
        Hypothesis(
            "half_degree_interpolation",
            PASS if found_e is not None else FAIL,
            {"attempts": attempts, "chosen_e": found_e, "max_e": shape.half_degree},
        )
    ]
    if found_e is None:
        return Certificate(CLAIM_EXACT_RANK, TAG_SYMMETRIC, tuple(hyps), None)
    rows = [veronese_vector(p, degree) for p in a.points]
    span_hyps, ok = non_redundancy_hypotheses(vec, rows)
    hyps.extend(span_hyps)
    if not ok:
        return Certificate(CLAIM_EXACT_RANK, TAG_SYMMETRIC, tuple(hyps), None)
    r = len(a)
    conclusion = {
        "rank": r,
        "cactus_rank": r,
        "symmetric_rank": r,
        "ranks_agree": True,
        "vanishing_degree": found_e,
    }
    return Certificate(CLAIM_EXACT_RANK, TAG_SYMMETRIC, tuple(hyps), conclusion)


class SymmetricBounds(NamedTuple):
    r0: int
    rg: int
    exceptional: bool


# Classical list of defective Veronese secants: all quadrics with n >= 2,
# plus the quartic surfaces/threefolds/fourfolds and the cubic fourfold.
EXCEPTIONAL_CASES: frozenset[tuple[int, int]] = frozenset(
    {(4, 2), (4, 3), (4, 4), (3, 4)}
)


def is_exceptional(n: int, k: int) -> bool:
    return (k == 2 and n >= 2) or (k, n) in EXCEPTIONAL_CASES


def symmetric_bounds(n: int, k: int) -> SymmetricBounds:
    """The pair (r0, rg) with the defective-case flag.

    r0 is the largest cardinality certifiable through half-degree
    interpolation: C(n + e, e) for k = 2e, one more for k = 2e + 1.
    rg is ceil(C(n + k, k) / (n + 1)), the expected generic symmetric
    rank; on the exceptional list the true generic rank differs.
    """
    shape = SymShape(n, k)
    e = shape.half_degree
    r0 = comb(n + e, e) + (0 if k % 2 == 0 else 1)
    rg = -(-comb(n + k, k) // (n + 1))
    return SymmetricBounds(r0, rg, is_exceptional(n, k))

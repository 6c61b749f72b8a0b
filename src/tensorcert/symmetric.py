"""Symmetric tensors: rank certificates and bounds.

A degree-k symmetric tensor in n + 1 variables is presented as a
weighted sum of k-th powers of r distinct points of P^n, that is, of
their degree-k Veronese rows.  The certificate here shows
that a presented symmetric decomposition of r distinct points is the
actual rank of the tensor, and that rank and symmetric rank agree for
it, by checking independence at some degree e <= k/2 together with
non-redundancy at degree k.

Independence at degree e is not read off the C(n + e, e)-wide Veronese
rows V: weighted by multinomial coefficients, their Gram is <p, q>^e, so
the Hadamard power G^e of the point Gram G is V W V^T with W positive
diagonal and has the rank of V (at e = 0 it is all ones, of rank 1).

The tensor itself is never built.  Its decomposition is sum_j w_j V_j
over the degree-k rows, and when those are independent its coefficients
are unique and equal the weights, so non-redundancy at degree k is the
rank of G^k plus the zero pattern of the weights (see ``certify``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import NamedTuple, Sequence

from .certify import (
    CLAIM_EXACT_RANK,
    FAIL,
    PASS,
    Certificate,
    Hypothesis,
    non_redundancy_hypotheses,
)
from .linalg import _echelon, integer_gram, primitive

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


def veronese_gram(a: SymPointSet, degree: int) -> list[list[int]]:
    """G^degree, elementwise, for the integer Gram G of the primitive points:
    up to positive multinomial weights, the Gram of their Veronese rows."""
    return [[g**degree for g in row] for row in integer_gram(a.points)]


def comon_certify(a: SymPointSet, weights: Sequence, degree: int) -> Certificate:
    """Certify rank = cactus rank = symmetric rank = #A for the symmetric
    tensor sum_j w_j p_j^degree presented by A and ``weights``.

    Searches e descending from floor(degree/2) for a degree-e Veronese
    Gram of full rank (h1 = 0), then checks non-redundancy of the
    decomposition at degree ``degree``.  On success the presented number
    of points is the rank of the tensor both as a symmetric tensor and
    as a general one, so the two ranks agree.
    """
    shape = SymShape(a.n, degree)
    attempts = []
    found_e: int | None = None
    for e in range(shape.half_degree, -1, -1):
        rank = len(_echelon(veronese_gram(a, e), len(a)))
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
    rank = len(_echelon(veronese_gram(a, degree), len(a)))
    span_hyps, ok = non_redundancy_hypotheses(rank, len(a), weights)
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

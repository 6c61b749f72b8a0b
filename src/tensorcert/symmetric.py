"""Symmetric tensors: rank certificates and bounds.

A degree-k symmetric tensor in n + 1 variables is presented as a
weighted sum of k-th powers of r distinct points of P^n, that is, of
their degree-k Veronese rows.  P^n is the one-factor product, so the
points are a ``geometry.PointSet`` of shape (n,).  The certificate here
shows that a presented symmetric decomposition of r distinct points is
the actual rank of the tensor, and that rank and symmetric rank agree
for it, by checking independence at degree e = floor(k/2) together with
non-redundancy at degree k.

Independence at degree e is not read off the C(n + e, e)-wide Veronese
rows V: weighted by multinomial coefficients, their Gram is <p, q>^e, so
the Hadamard power G^e of the point Gram G is V W V^T with W positive
diagonal and has the rank of V (at e = 0 it is all ones, of rank 1).
G is the point set's memoized factor Gram, a flat upper triangle.

No power above r - 2 is ever taken: r distinct points impose independent
conditions in every degree e >= r - 1 (for each p_j, multiply r - 1
linear forms, each vanishing at one other point but not at p_j, by a
power of a form that does not vanish at p_j), so there the rank is r.

The tensor itself is never built.  Its decomposition is sum_j w_j V_j
over the degree-k rows, and when those are independent its coefficients
are unique and equal the weights, so non-redundancy at degree k is the
zero pattern of the weights (see ``certify``).  Independence at degree
e gives independence at every higher degree (multiply each degree-e
form that separates a point by a power of a linear form vanishing at no
point), so G^k is never ranked, and e = floor(k/2) is the only degree
worth trying: where it fails, every smaller e fails too.
"""

from __future__ import annotations

from math import comb
from typing import Sequence

from .certify import (
    CLAIM_EXACT_RANK,
    FAIL,
    PASS,
    certificate,
    hypothesis,
    non_redundancy_hypotheses,
)
from .geometry import PointSet, _factor_gram
from .linalg import gram_rank

TAG_SYMMETRIC = "symmetric-rank-agreement"


def veronese_gram(a: PointSet, degree: int) -> list[int]:
    """G^degree, elementwise, for the integer Gram G of the primitive points,
    flat: up to positive multinomial weights, the Gram of their Veronese rows."""
    return [g**degree for g in _factor_gram(a, 1)]


def veronese_rank(a: PointSet, degree: int) -> int:
    """Rank of the degree-``degree`` Veronese rows of A; r from degree r - 1 on."""
    if degree >= len(a) - 1:
        return len(a)
    return gram_rank(veronese_gram(a, degree))


def comon_certify(a: PointSet, weights: Sequence, degree: int) -> dict:
    """Certify rank = cactus rank = symmetric rank = #A for the symmetric
    tensor sum_j w_j p_j^degree presented by the points A of P^n and
    ``weights``.

    Ranks the degree-e Veronese Gram at e = floor(degree/2) only, the one
    attempt: full rank there (h1 = 0) gives full rank at degree
    ``degree`` too, and failure there means failure at every smaller e.
    Then it checks the weights for non-redundancy.  On success the
    presented number of points is the rank of the tensor both as a
    symmetric tensor and as a general one, so the two ranks agree.
    """
    if a.shape.k != 1:
        raise ValueError(f"symmetric points lie in one factor, not {a.shape.k}")
    if degree < 1:
        raise ValueError("the degree must be positive")
    e = degree // 2
    rank = veronese_rank(a, e)
    found_e = e if rank == len(a) else None
    hyps = [
        hypothesis(
            "half_degree_interpolation",
            PASS if found_e is not None else FAIL,
            {"attempts": [{"e": e, "rank": rank, "h1": len(a) - rank}], "chosen_e": found_e, "max_e": e},
        )
    ]
    if found_e is None:
        return certificate(CLAIM_EXACT_RANK, TAG_SYMMETRIC, hyps, None)
    r = len(a)
    span_hyps, ok = non_redundancy_hypotheses(r, r, weights)
    hyps.extend(span_hyps)
    conclusion = {
        "rank": r,
        "cactus_rank": r,
        "symmetric_rank": r,
        "ranks_agree": True,
        "vanishing_degree": found_e,
    }
    return certificate(CLAIM_EXACT_RANK, TAG_SYMMETRIC, hyps, conclusion if ok else None)


# Classical list of defective Veronese secants: all quadrics with n >= 2,
# plus the quartic surfaces/threefolds/fourfolds and the cubic fourfold.
EXCEPTIONAL_CASES: frozenset[tuple[int, int]] = frozenset(
    {(4, 2), (4, 3), (4, 4), (3, 4)}
)


def is_exceptional(n: int, k: int) -> bool:
    return (k == 2 and n >= 2) or (k, n) in EXCEPTIONAL_CASES


def symmetric_bounds(n: int, k: int) -> dict:
    """The pair (r0, rg) with the defective-case flag, as the JSON object
    ``bounds`` prints.

    r0 is the largest cardinality certifiable through half-degree
    interpolation: C(n + e, e) for k = 2e, one more for k = 2e + 1.
    rg is ceil(C(n + k, k) / (n + 1)), the expected generic symmetric
    rank; on the exceptional list the true generic rank differs.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 1:
        raise ValueError("the degree must be positive")
    r0 = comb(n + k // 2, n) + k % 2
    rg = -(-comb(n + k, k) // (n + 1))
    return {"r0": r0, "rg": rg, "exceptional": is_exceptional(n, k)}

"""Kruskal rank and the k-way Kruskal uniqueness baseline.

The Kruskal rank of a matrix is the largest kappa such that every
kappa-subset of columns is linearly independent, that is, every kappa x
kappa principal submatrix of the integer column Gram is nonsingular, so
``kruskal_rank`` takes that Gram (``linalg.integer_gram`` of the
columns), ranks it with ``linalg.gram_rank`` and walks its principal
minors depth first, one ``linalg._pivot_step`` per column subset: the
Bareiss step with a principal pivot that ``gram_rank`` takes too, on
flat triangles as there.  For a point set, the Kruskal rank of a factor
is taken on the memoized factor Gram that the set's flattening ranks use.
The baseline uniqueness condition for a decomposition with r points
compares the sum of the factor-matrix Kruskal ranks against 2r + k - 1.
This module also bundles the side-by-side comparison against the
flattening certificates.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb
from typing import Sequence

from .certify import bound_cactus_rank, certify_exact_rank, certify_identifiability, check_non_redundant
from .geometry import PointSet, _factor_gram
from .linalg import _at, _order, _pivot_step, gram_rank

MAX_WALK_BLOCKS = 2**20
KRUSKAL_BASELINE = "sum of factor Kruskal ranks >= 2r + k - 1"


def kruskal_rank(gram: list[int]) -> int:
    """Kruskal rank of the columns whose integer Gram matrix is ``gram``, as
    ``linalg.integer_gram``'s flat upper triangle, which is left as it is.

    A depth-first walk over independent column sets S in index order,
    Bareiss elimination with principal pivots: a node holds the flat
    upper triangle of the block det G[S + a, S + b] over the columns a <= b
    after S (Sylvester's identity), so a zero diagonal entry is a
    dependent set S + a, and a child is one ``_pivot_step`` on its
    parent's block.  kappa starts at the rank, from ``gram_rank``; a
    dependent set of size j lowers it to j - 1, and no set of size j or
    more is looked at after that.  Independent columns need no walk.
    Raises on no columns, on a zero column and, before walking, when the
    walk could build more than MAX_WALK_BLOCKS blocks.
    """
    n = _order(gram)
    if n == 0:
        raise ValueError("Kruskal rank of a matrix with no columns is undefined")
    if (j := next((j for j in range(n) if not gram[_at(n, j, j)]), None)) is not None:
        raise ValueError(f"column {j} is zero, Kruskal rank undefined")
    kappa = gram_rank(gram)
    if kappa == n:
        return n
    # one block per independent set of fewer than kappa - 1 columns, at most
    if (blocks := sum(comb(n, j) for j in range(kappa - 1))) > MAX_WALK_BLOCKS:
        raise ValueError(
            f"{n} columns of rank {kappa} ask for up to {blocks} Kruskal walk blocks, "
            f"more than the {MAX_WALK_BLOCKS} that kruskal builds"
        )

    def walk(block: list[int], n: int, prev: int, size: int) -> None:
        # block: det G[S + a, S + b] for a <= b over the n columns after S,
        # a flat triangle, row p from s to t; |S| = size and prev = det G[S]
        nonlocal kappa
        s = 0
        for p in range(n):
            if not (d := block[s]):
                kappa = size
                return
            t = s + n - p
            if size + 2 < kappa:
                walk(_pivot_step(block, n, p, prev), n - p - 1, d, size + 1)
            elif size + 2 == kappa:
                # S + p is the last node on its path: only the zero pattern of
                # its block's diagonal counts, and that needs no division
                diagonal = accumulate(range(n - p - 1, 1, -1), initial=t)
                if any(d * block[u] == y * y for u, y in zip(diagonal, block[s + 1:t])):
                    kappa = size + 1
            s = t

    walk(gram, n, 1, 0)
    return kappa


def kruskal_certificate(s: PointSet) -> dict:
    """Evaluate the k-way Kruskal condition on the factor matrices of S,
    as the JSON object ``kruskal`` prints.

    Factor matrices have one column per point, so their Kruskal ranks
    speak about subsets of the decomposition; they come from the factor
    Grams memoized on S.  Raises when a factor's walk is past MAX_WALK_BLOCKS.
    """
    k = s.shape.k
    r = len(s)
    per_factor = [kruskal_rank(_factor_gram(s, i)) for i in range(1, k + 1)]
    lhs = sum(per_factor)
    rhs = 2 * r + k - 1
    return {
        "baseline": KRUSKAL_BASELINE,
        "per_factor_kruskal_rank": per_factor,
        "cardinality": r,
        "condition_lhs": lhs,
        "condition_rhs": rhs,
        "applies": lhs >= rhs,
    }


def compare_criteria(s: PointSet, weights: Sequence) -> dict:
    """Run every criterion on one decomposition, as the JSON object
    ``compare`` prints: the flattening certificates and bound report, the Kruskal
    baseline (None where ``kruskal_certificate`` refuses) and which of
    the two sides applies."""
    try:
        kruskal = kruskal_certificate(s)
    except ValueError:  # a factor's walk is past MAX_WALK_BLOCKS
        kruskal = None
    nr = check_non_redundant(s, weights)
    bound = bound_cactus_rank(s, weights)
    exact = certify_exact_rank(s, weights)
    ident = certify_identifiability(s, weights)
    flattening = exact["conclusion"] is not None or ident["conclusion"] is not None
    # the baseline condition is a statement about an actual decomposition
    # of the tensor, so a redundant S gives it nothing to conclude about
    krusk = kruskal is not None and kruskal["applies"] and nr["conclusion"] is not None
    return {
        "non_redundant": nr,
        "cactus_bound": bound,
        "exact_rank": exact,
        "identifiability": ident,
        "kruskal": kruskal,
        "flattening_applies": flattening,
        "kruskal_applies": krusk,
        "flattening_without_kruskal": flattening and not krusk,
    }

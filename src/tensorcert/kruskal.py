"""Kruskal rank and the k-way Kruskal uniqueness baseline.

The Kruskal rank of a matrix is the largest kappa such that every
kappa-subset of columns is linearly independent.  ``kruskal_rank`` takes
the columns themselves and reduces their matrix once, by the
fraction-free Gauss-Jordan elimination ``linalg.gauss_jordan``: that
gives the rank rho and the columns of D [I | B'], whose every column
subset is independent exactly when the same subset of the input is.
Most factors are settled there.  Independent columns have kappa = r; two
proportional columns, one equal pair of primitive forms, have kappa = 1,
and without such a pair rho = 2 is kappa.  Otherwise every rho columns
of [I | B'] are independent exactly when every square submatrix of B' is
nonsingular, so a depth-first pass over the column sets of D B' checks
its minors, each one a Laplace expansion of its parent's along its last
column; if none vanishes, kappa = rho.  Only when one does, the integer
column Gram (``linalg.integer_gram``) is built and its principal minors
are walked depth first, one ``linalg._pivot_step`` per column subset:
the Bareiss step with a principal pivot that ``gram_rank`` takes too, on
flat triangles as there.  For a point set, the Kruskal rank of a factor
is taken on its canonical factor vectors.
The baseline uniqueness condition for a decomposition with r points
compares the sum of the factor-matrix Kruskal ranks against 2r + k - 1.
This module also bundles the side-by-side comparison against the
flattening certificates.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, combinations, repeat
from math import comb
from operator import floordiv, mul
from typing import Sequence

from .certify import bound_cactus_rank, certify_exact_rank, certify_identifiability, check_non_redundant
from .geometry import PointSet
from .linalg import _order, _pivot_step, gauss_jordan, integer_gram, primitive

MAX_WALK_BLOCKS = 2**20
KRUSKAL_BASELINE = "sum of factor Kruskal ranks >= 2r + k - 1"


def kruskal_rank(columns: Sequence[Sequence[Fraction | int]]) -> int:
    """Kruskal rank of ``columns``, nonzero rational vectors of one length.

    One ``gauss_jordan`` of their matrix gives the rank rho, and then, in
    this order: rho = r gives r; two columns with one primitive form give
    1, and without them rho = 2 gives 2; when there are at most
    MAX_WALK_BLOCKS column sets of size rho, every minor of the reduced
    block D B' is checked (``_every_minor_nonzero``), and all nonzero
    gives rho.  Anything else is walked on the integer Gram of the
    columns, built only then (``_kruskal_walk``).  Raises on no columns,
    on a zero column and, before walking, when the walk could build more
    than MAX_WALK_BLOCKS blocks.
    """
    cols = [primitive(col) for col in columns]
    if not cols:
        raise ValueError("Kruskal rank of a matrix with no columns is undefined")
    if (j := next((j for j, col in enumerate(cols) if not any(col)), None)) is not None:
        raise ValueError(f"column {j} is zero, Kruskal rank undefined")
    r = len(cols)
    pivots, rows = gauss_jordan(list(zip(*cols)))
    rho = len(pivots)
    if rho == r:
        return r
    # kappa >= 2 exactly when no two columns are proportional
    if len(set(cols)) < r:
        return 1
    if rho == 2:
        return 2
    if comb(r, rho) <= MAX_WALK_BLOCKS:
        d = rows[0][pivots[0]]
        settled = set(pivots)
        block = [col for j, col in enumerate(zip(*rows)) if j not in settled]
        if _every_minor_nonzero(block, d):
            return rho
    # one block per independent set of fewer than rho - 1 columns, at most
    if (blocks := sum(comb(r, j) for j in range(rho - 1))) > MAX_WALK_BLOCKS:
        raise ValueError(
            f"{r} columns of rank {rho} ask for up to {blocks} Kruskal walk blocks, "
            f"more than the {MAX_WALK_BLOCKS} that kruskal builds"
        )
    return _kruskal_walk(integer_gram(cols), rho)


def _every_minor_nonzero(block: Sequence[Sequence[int]], d: int) -> bool:
    """Whether every square submatrix of the matrix whose columns are
    ``block`` is nonsingular, for ``block`` the non-pivot columns D B' of
    a ``gauss_jordan`` and d its D, or any integer columns and d = 1.

    Depth first over the column sets J in index order: a node holds every
    |J| x |J| minor on J, one per row set R, in ``combinations`` order,
    and a child J + j expands each of its own along its last column j,
    det[R, J + j] = sum of (-1)^(t + |J|) B[i, j] det[R - i, J] over the
    rows i of R, i at place t.  Which minor of the parent R - i is, is
    looked up once per size by its row bitmask, so the pass writes no key.
    Each c x c minor of D B' is D^(c - 1) times a rho x rho minor of the
    eliminated matrix, so a node holds it divided by D^(c - 1): one exact
    division by d per minor keeps every minor the size of the input's.
    Stops at the first zero minor.
    """
    rho, width = len(block[0]), len(block)
    top = min(rho, width)
    # for each size c, each row set R of c rows in combinations order and
    # each row i of R: i, or i + rho where its sign is minus, and the place
    # of R - i among the row sets of c - 1 rows
    tables, places = [], {0: 0}
    for c in range(1, top + 1):
        signed, parents, at = [], [], {}
        for members in combinations(range(rho), c):
            mask = sum(1 << i for i in members)
            at[mask] = len(at)
            for t, i in enumerate(members):
                signed.append(i + rho * ((c - 1 - t) % 2))
                parents.append(places[mask ^ (1 << i)])
        tables.append((signed, parents))
        places = at
    # each column followed by its negation, for the signed row indices
    columns = [(*col, *(-x for x in col)) for col in block]

    def descend(minors: list[int], start: int, c: int) -> bool:
        # minors: every (c - 1)-minor on a set J that ends before start, over
        # D^(c - 2), so D itself for the empty set
        signed, parents = tables[c - 1]
        above = list(map(minors.__getitem__, parents))
        for j in range(start, width):
            terms = map(mul, map(columns[j].__getitem__, signed), above)
            child = list(map(floordiv, map(sum, zip(*[terms] * c)), repeat(d)))
            if not all(child) or (c < top and j + 1 < width and not descend(child, j + 1, c + 1)):
                return False
        return True

    return descend([d], 0, 1)


def _kruskal_walk(gram: list[int], kappa: int) -> int:
    """Kruskal rank of the nonzero columns whose integer Gram matrix is
    ``gram``, as ``linalg.integer_gram``'s flat upper triangle, which is
    left as it is, and whose rank is ``kappa``.

    A depth-first walk over independent column sets S in index order,
    Bareiss elimination with principal pivots: a node holds the flat
    upper triangle of the block det G[S + a, S + b] over the columns a <= b
    after S (Sylvester's identity), so a zero diagonal entry is a
    dependent set S + a, and a child is one ``_pivot_step`` on its
    parent's block.  kappa starts at the rank; a dependent set of size j
    lowers it to j - 1, and no set of size j or more is looked at after
    that.
    """
    n = _order(gram)

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
    speak about subsets of the decomposition; each is taken on the
    canonical factor vectors of S.  Raises when a factor's walk is past
    MAX_WALK_BLOCKS.
    """
    k = s.shape.k
    r = len(s)
    per_factor = [kruskal_rank([p.canonical()[i] for p in s.points]) for i in range(k)]
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

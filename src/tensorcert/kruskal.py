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
column; if none vanishes, kappa = rho.  Only when one does, or when
there are too many column sets of size rho to check, the rows of the
factor matrix are walked depth first over its independent column sets,
one fraction-free elimination step per set.  For a point set, the
Kruskal rank of a factor is taken on its canonical factor vectors.
The baseline uniqueness condition for a decomposition with r points
compares the sum of the factor-matrix Kruskal ranks against 2r + k - 1.
This module also bundles the side-by-side comparison against the
flattening certificates.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, repeat
from math import comb
from operator import floordiv, mul
from typing import Sequence

from .certify import bound_cactus_rank, certify_exact_rank, certify_identifiability, check_non_redundant
from .geometry import PointSet
from .linalg import gauss_jordan, primitive

MAX_WALK_BLOCKS = 2**20
KRUSKAL_BASELINE = "sum of factor Kruskal ranks >= 2r + k - 1"


def kruskal_rank(columns: Sequence[Sequence[Fraction | int]]) -> int:
    """Kruskal rank of ``columns``, nonzero rational vectors of one length.

    One ``gauss_jordan`` of their matrix gives the rank rho, and then, in
    this order: rho = r gives r; two columns with one primitive form give
    1, and without them rho = 2 gives 2; when there are at most
    MAX_WALK_BLOCKS column sets of size rho, every minor of the reduced
    block D B' is checked (``_every_minor_nonzero``), and all nonzero
    gives rho.  Anything else is walked on the rows of the columns'
    matrix (``_kruskal_walk``), from rho - 1 after a vanishing minor and
    from rho when the minors were not checked.  Raises on no columns, on
    columns of different lengths, on a zero column and, before walking,
    when the walk could build more than MAX_WALK_BLOCKS blocks.
    """
    cols = [primitive(col) for col in columns]
    if not cols:
        raise ValueError("Kruskal rank of a matrix with no columns is undefined")
    if (j := next((j for j, col in enumerate(cols) if len(col) != len(cols[0])), None)) is not None:
        raise ValueError(f"column {j} has {len(cols[j])} entries, column 0 has {len(cols[0])}")
    if (j := next((j for j, col in enumerate(cols) if not any(col)), None)) is not None:
        raise ValueError(f"column {j} is zero, Kruskal rank undefined")
    r = len(cols)
    matrix = list(zip(*cols))
    pivots, rows = gauss_jordan(matrix)
    rho = len(pivots)
    if rho == r:
        return r
    # kappa >= 2 exactly when no two columns are proportional
    if len(set(cols)) < r:
        return 1
    if rho == 2:
        return 2
    kappa = rho
    if comb(r, rho) <= MAX_WALK_BLOCKS:
        d = rows[0][pivots[0]]
        settled = set(pivots)
        block = [col for j, col in enumerate(zip(*rows)) if j not in settled]
        if _every_minor_nonzero(block, d):
            return rho
        kappa = rho - 1  # the vanishing minor is a dependent set of rho columns
    # one block per independent set of fewer than rho - 1 columns, at most
    if (blocks := sum(comb(r, j) for j in range(rho - 1))) > MAX_WALK_BLOCKS:
        raise ValueError(
            f"{r} columns of rank {rho} ask for up to {blocks} Kruskal walk blocks, "
            f"more than the {MAX_WALK_BLOCKS} that kruskal builds"
        )
    return _kruskal_walk(matrix, kappa)


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


def _kruskal_walk(rows: Sequence[Sequence[int]], kappa: int) -> int:
    """Kruskal rank of the nonzero columns of the integer matrix whose
    rows are ``rows``, left as they are, given that it is at most kappa.

    A depth-first walk over independent column sets S in index order: a
    node holds the rows that Bareiss elimination of S's columns leaves,
    over the columns after S, so a zero column a is a dependent set S + a.
    A child S + p is one fraction-free step with the first row nonzero in
    column p as pivot, divided by its parent's pivot (1 at the root), so
    every entry is a minor of the input and every division exact.  On the
    last level, columns p and a with one ``primitive`` form are the
    dependent set S + p + a.  A dependent set of size j lowers kappa to
    j - 1, and no set of size j or more is looked at after that.
    """

    def walk(rows: Sequence[Sequence[int]], prev: int, size: int) -> None:
        # rows: what eliminating S, of size columns, leaves; prev: its last pivot
        nonlocal kappa
        columns = list(zip(*rows))
        if not all(map(any, columns)):
            kappa = size
            return
        for p, col in enumerate(columns[:-1]):
            if size + 2 < kappa:
                i = next(i for i, x in enumerate(col) if x)
                d, pivot = col[i], rows[i][p + 1:]
                others = zip(rows[:i] + rows[i + 1:], col[:i] + col[i + 1:])
                child = [[(d * a - x * b) // prev for a, b in zip(row[p + 1:], pivot)] for row, x in others]
                walk(child, d, size + 1)
            else:
                if size + 2 == kappa and len(set(map(primitive, columns[p:]))) < len(columns) - p:
                    kappa = size + 1
                return

    walk(rows, 1, 0)
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

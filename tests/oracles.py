"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive and uses a different algorithm
from the code under test: rank by textbook Gaussian elimination with
Fraction division, Kruskal rank straight from its definition, monomial
orders from sorting exponent vectors, tensor layouts from explicit
stride arithmetic.  The point is to disagree with the package whenever
the package is wrong.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import prod

_RATIONAL_RE = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def parse_rational_regex(text) -> Fraction:
    """A rational literal ``p`` or ``p/q`` read by one regex fullmatch
    and always returned as a Fraction: the literal language and the
    messages that ``linalg.parse_rational`` must keep."""
    if not isinstance(text, str):
        raise ValueError(f"rational literal must be a string, got {type(text).__name__}")
    match = _RATIONAL_RE.fullmatch(text)
    if match is None:
        raise ValueError(f"invalid rational literal {text!r} (expected 'p' or 'p/q')")
    try:
        return Fraction(int(match[1]), int(match[2] or 1))
    except ZeroDivisionError:
        raise ValueError(f"invalid rational literal {text!r} (zero denominator)") from None


def gauss_rank(rows) -> int:
    """Rank by row reduction over Fraction, dividing by pivots."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m or not m[0]:
        return 0
    height, width = len(m), len(m[0])
    rank = 0
    for col in range(width):
        pivot = next((i for i in range(rank, height) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = Fraction(1) / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(height):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == height:
            break
    return rank


def hadamard_gram_rank(s, members) -> int:
    """Rank of the elementwise product of the factor Grams of the point
    set ``s`` over the 1-based factors in ``members``, each Gram taken
    over Fraction from the stored factor vectors and the product built
    from scratch for this one subset: the flattening rank of ``members``."""
    gram = [[Fraction(1)] * len(s.points) for _ in s.points]
    for i in members:
        vectors = [p.factors[i - 1] for p in s.points]
        gram = [
            [g * sum(x * y for x, y in zip(a, b)) for g, b in zip(row, vectors)]
            for row, a in zip(gram, vectors)
        ]
    return gauss_rank(gram)


def all_partitions(k: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All 2^k - 2 ordered proper bipartitions (E, F) of {1..k}, listed by
    E-bitmask (factor i is bit i - 1): the order the bipartition search
    reports them in."""
    factors = range(1, k + 1)
    sides = [e for size in range(1, k) for e in combinations(factors, size)]
    sides.sort(key=lambda e: sum(1 << (i - 1) for i in e))
    return [(e, tuple(i for i in factors if i not in e)) for e in sides]


def in_span(vector, rows) -> bool:
    base = [list(r) for r in rows]
    return gauss_rank(base + [list(vector)]) == gauss_rank(base)


def kruskal_rank_exhaustive(columns) -> int:
    """Largest kappa such that every kappa columns are independent.

    Checks every subset of every size, in increasing size, exactly as
    the definition reads.
    """
    cols = [list(c) for c in columns]
    kappa = 0
    for size in range(1, len(cols) + 1):
        if all(
            gauss_rank([cols[j] for j in combo]) == size
            for combo in combinations(range(len(cols)), size)
        ):
            kappa = size
        else:
            break
    return kappa


def matrix_of_two_factor_tensor(coords, dims):
    """Reshape flat two-factor tensor coordinates into a matrix.

    The flat layout has the second factor's index varying fastest, so
    entry (i, j) sits at position i * (n2 + 1) + j.
    """
    n1, n2 = dims
    return [
        [coords[i * (n2 + 1) + j] for j in range(n2 + 1)]
        for i in range(n1 + 1)
    ]


def outer_product_flat(vectors):
    """Flat outer product via explicit multi-index stride arithmetic."""
    sizes = [len(v) for v in vectors]
    strides = [1] * len(sizes)
    for i in range(len(sizes) - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]
    total = strides[0] * sizes[0] if sizes else 1
    out = [Fraction(0)] * total
    for multi in product(*[range(s) for s in sizes]):
        value = Fraction(1)
        for v, idx in zip(vectors, multi):
            value *= Fraction(v[idx])
        out[sum(i * s for i, s in zip(multi, strides))] = value
    return out


def decomposition_weights(tensor, s):
    """Exact weights w with tensor = sum_j w_j (outer product of the
    factors of point j), or None when the tensor lies outside the span of
    those vectors.

    Gauss-Jordan elimination over Fraction on the M x (r + 1) system
    whose columns are the explicit Segre vectors of the points of ``s``
    and the tensor.  When the vectors are dependent the free weights are
    zero.
    """
    columns = [outer_product_flat(p.factors) for p in s.points]
    if len(tensor) != len(columns[0]):
        raise ValueError(f"tensor has {len(tensor)} coordinates, shape wants {len(columns[0])}")
    n = len(columns)
    m = [list(row) + [Fraction(t)] for row, t in zip(zip(*columns), tensor)]
    pivots = []
    for col in range(n + 1):
        rank = len(pivots)
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        if col == n:
            return None
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        pivots.append(col)
    weights = [Fraction(0)] * n
    for row, col in enumerate(pivots):
        weights[col] = m[row][n]
    return tuple(weights)


def permute_flat_coords(coords, sizes, perm):
    """Flat coordinates after reordering the tensor factors.

    ``perm`` lists, for each new factor position, the old 1-based factor
    index.  Both layouts put the last factor's index fastest.
    """
    k = len(sizes)
    old_strides = [1] * k
    for i in range(k - 2, -1, -1):
        old_strides[i] = old_strides[i + 1] * sizes[i + 1]
    new_sizes = [sizes[p - 1] for p in perm]
    out = []
    for multi in product(*[range(s) for s in new_sizes]):
        old_multi = [0] * k
        for new_pos, old_factor in enumerate(perm):
            old_multi[old_factor - 1] = multi[new_pos]
        out.append(coords[sum(i * s for i, s in zip(old_multi, old_strides))])
    return out


def exponents_desc_lex(n: int, degree: int):
    """Degree-``degree`` exponent vectors in n + 1 variables, sorted
    descending lexicographically."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(tuple(prefix) + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + [e], remaining - e, slots - 1)

    rec([], degree, n + 1)
    return out


def veronese_vector(point, degree: int) -> tuple:
    """All degree-``degree`` monomials of the coordinates, graded lex order.

    Graded lex on exponent vectors means the exponent of the first
    coordinate drops last: for (x, y, z) and degree 2 the order is
    x2, xy, xz, y2, yz, z2.  The explicit Veronese row of a point; the
    package itself only ranks Gram matrices of such rows.
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


def descending_veronese_attempts(points, degree: int) -> list[dict]:
    """The interpolation attempts of the descending search ``comon`` once
    made, from ranks of explicit Veronese rows: e from degree // 2 down
    to 0, stopping at the first e where the rows are independent."""
    attempts = []
    for e in range(degree // 2, -1, -1):
        rank = gauss_rank([veronese_vector(p, e) for p in points])
        attempts.append({"e": e, "rank": rank, "h1": len(points) - rank})
        if rank == len(points):
            break
    return attempts


def monomial_values(point, exponents):
    coords = [Fraction(x) for x in point]
    out = []
    for exp in exponents:
        value = Fraction(1)
        for c, e in zip(coords, exp):
            value *= c ** e
        out.append(value)
    return out


def rescaled_point_set(s, rng, box: int = 7):
    """The same projective points with fresh nonzero scalings per factor."""
    from tensorcert import MultiPoint, PointSet

    points = []
    for p in s.points:
        factors = []
        for f in p.factors:
            scale = Fraction(0)
            while scale == 0:
                scale = Fraction(rng.randint(-box, box), rng.randint(1, box))
            factors.append(tuple(scale * x for x in f))
        points.append(MultiPoint(tuple(factors)))
    return PointSet(s.shape, tuple(points))


def permuted_point_set(s, perm):
    """The point set with factors reordered by ``perm`` (old 1-based indices)."""
    from tensorcert import MultiPoint, MultiShape, PointSet

    shape = MultiShape(tuple(s.shape.dims[p - 1] for p in perm))
    points = [
        MultiPoint(tuple(p.factors[q - 1] for q in perm)) for p in s.points
    ]
    return PointSet(shape, tuple(points))


def changed_basis_point_set(s, matrices):
    """The point set with each factor vector multiplied by the integer
    matrix of its factor, one invertible matrix per factor: the action of
    GL(n_1 + 1) x ... x GL(n_k + 1), under which every flattening rank,
    Kruskal rank and equality of projective points is invariant.  Each
    matrix is checked to have full rank by ``gauss_rank``."""
    from tensorcert import MultiPoint, PointSet

    for i, (g, size) in enumerate(zip(matrices, s.shape.sizes), start=1):
        if len(g) != size or gauss_rank(g) != size:
            raise ValueError(f"factor {i} needs an invertible {size} x {size} matrix")
    points = [
        MultiPoint(tuple(
            tuple(sum(x * y for x, y in zip(row, f)) for row in g) for g, f in zip(matrices, p.factors)
        ))
        for p in s.points
    ]
    return PointSet(s.shape, tuple(points))


def changed_basis_tensor(coords, sizes, matrices):
    """Flat tensor coordinates (last factor fastest) times the Kronecker
    product of the factor matrices, applied one factor at a time by
    explicit stride arithmetic: the tensor of the changed-basis points
    under the same weights."""
    out = list(coords)
    stride = prod(sizes)
    for g, n in zip(matrices, sizes):
        stride //= n
        out = [
            sum(g[a][b] * out[i + (b - a) * stride] for b in range(n))
            for i, a in ((i, i // stride % n) for i in range(len(out)))
        ]
    return out


# The Bareiss kernel and the Kruskal walk on Grams held as lists of rows,
# row a kept from column a on, as the package ran them before it stored
# each Gram as one flat upper triangle.  Not a different algorithm: the
# same steps in the other layout, so the flat one must give the same
# ranks, the same pivot rows and the same Kruskal ranks.


def full_gram(rows) -> list[list[int]]:
    """The square Gram matrix of integer rows."""
    return [[sum(x * y for x, y in zip(a, b)) for b in rows] for a in rows]


def triangle(gram) -> list[int]:
    """The flat upper triangle of a square matrix, the layout of every Gram
    the package ranks: row a from column a on, the rows one after another."""
    return [x for a, row in enumerate(gram) for x in row[a:]]


def row_list_pivot_step(rows, p: int, prev: int) -> list[list[int]]:
    """One Bareiss step with principal pivot p on the upper triangle
    ``rows``: the upper triangle over the columns after p."""
    d, *tail = rows[p]
    return [
        [(d * x - g * y) // prev for x, y in zip(row, tail[a:])]
        for a, (row, g) in enumerate(zip(rows[p + 1:], tail))
    ]


def row_list_pivot_rows(rows):
    """The pivot rows, in order, of Bareiss with principal pivots on the
    upper triangle ``rows`` of a PSD matrix: the first nonzero diagonal
    entry is the pivot."""
    prev = 1
    while (p := next((a for a, row in enumerate(rows) if row[0]), None)) is not None:
        yield rows[p]
        prev, rows = rows[p][0], row_list_pivot_step(rows, p, prev)


def row_list_gram_rank(gram) -> int:
    """Rank of a square PSD integer matrix by ``row_list_pivot_rows``."""
    return sum(1 for _ in row_list_pivot_rows([row[a:] for a, row in enumerate(gram)]))


def row_list_kruskal_rank(gram) -> int:
    """Kruskal rank of the nonzero columns whose square integer Gram is
    ``gram``, by the depth-first walk over independent column sets with
    one ``row_list_pivot_step`` per set, starting from the rank."""
    kappa = row_list_gram_rank(gram)
    if kappa == len(gram):
        return kappa

    def walk(block, prev, size):
        nonlocal kappa
        for p, row in enumerate(block):
            d = row[0]
            if not d:
                kappa = size
                return
            if size + 2 < kappa:
                walk(row_list_pivot_step(block, p, prev), d, size + 1)
            elif size + 2 == kappa:
                if any(d * r[0] == y * y for r, y in zip(block[p + 1:], row[1:])):
                    kappa = size + 1

    walk([row[a:] for a, row in enumerate(gram)], 1, 0)
    return kappa

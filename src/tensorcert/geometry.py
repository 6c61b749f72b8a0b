"""Multiprojective points, Segre embeddings and flattening ranks.

A shape (n_1, ..., n_k) stands for the product of projective spaces
P^{n_1} x ... x P^{n_k}.  Points carry one coordinate vector per factor,
its entries ``int`` or ``Fraction``, and the primitive integer form of each
(``linalg.primitive``), computed once; two points are the same exactly
when those forms agree, that is, when all factor vectors are pairwise
proportional.  The Segre coordinates of a point for a factor subset u
are the entries of the outer product of the selected factor vectors,
flattened row-major so the last selected factor's index varies fastest.

A factor subset u is held as its bitmask, bit i - 1 standing for factor
i.  The walk below keys it by the mask's little-endian bytes: Python
hashes an int as its value mod 2^61 - 1, so past 61 factors int masks
collide and every dict holding them slows to a scan, while bytes hash
whole.  For a finite set S, the u-flattening rank is the exact rank of
the #S x M_u evaluation matrix (``flattening_rank`` is that of the full
set).  Certificates name the two numbers it gives as

    h0 = (number of Segre coordinates for u) - rank,
    h1 = #S - rank.

h1 = 0 says the points impose independent conditions in the
u-flattening and is the workhorse hypothesis of every certificate
downstream.

That rank is taken from the #S x #S Gram matrix of the evaluation rows
instead (see ``linalg``), which is the elementwise (Hadamard) product of
the per-factor Grams A_i A_i^T over the factors i in u, because
<a (x) b, c (x) d> = <a, c><b, d> (the face-splitting identity of the
Khatri-Rao product).  The per-factor Grams are built once per point set
from the primitive factor forms, flat upper triangles all, and shared by
every subset u.

Every flattening rank comes from one walk, ``subset_ranks``, given the
bitmasks of the subsets a caller needs.  It walks them with their
prefixes, each subset's Gram, the full set's too, being its parent
prefix's Gram times one factor Gram, not a product rebuilt from the
start; of the Grams, only the factor Grams stay on the set.  No Gram is
written to: ``_hadamard`` builds a new list and ``linalg._pivot_rows``,
the Bareiss elimination that ranks every one of these PSD Grams, writes
to none of its input.  Ranks only grow with the subset, so a subset one
factor larger than a subset known to be independent has rank #S with
no elimination, and an unasked prefix is eliminated only when it has at
least #S coordinates.

A subset of corank one settles its children, too (the Khatri-Rao rank
argument of Sidiropoulos and Bro, J. Chemometrics 14 (2000), cut down to
its exact case).  Let v have rank #S - 1, with c != 0 and
sum_j c_j A_v[j] = 0 over its rows A_v[j], and let t be a factor not in
v.  Then u = v + {t} has rank #S - 1 exactly when every point j with
c_j != 0 has the same factor-t projection, and rank #S otherwise; in
the first case c is u's kernel too, so the rule goes on to u's
children.  Proof: the rows of u are A_v[j] (x) a^t_j, over the
primitive factor forms.  If the a^t_j agree on the support of c, c is a
dependency of u's rows, and rank_u >= rank_v.  Conversely, id (x) phi
maps a dependency d != 0 of u's rows to the dependency
(d_j phi(a^t_j))_j of v's rows, so d_j phi(a^t_j) = lambda(phi) c_j
for every linear form phi.  A phi nonzero on every a^t_j gives d the
support of c, so phi(d_j a^t_j / c_j) = lambda(phi) for every phi and
every j in it: the vectors d_j a^t_j / c_j are one vector, and the
a^t_j one projective point.  The elimination's pivot rows give c
(``linalg._kernel_vector``), and only its support is kept.

``segre_gram_row`` builds one row of the full set's Gram outside the
walk, for the parser's vanishing-sum check and augment's solves.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import prod
from operator import mul
from typing import Iterable, Sequence

from .linalg import _kernel_vector, _pivot_rows, integer_gram, multiple, primitive

_EXACT = (int, Fraction)


class _Value:
    """A read-only value: equality, hash, repr and pickling go by the
    attributes named in ``_fields``, in order, and assigning to any
    attribute raises AttributeError.  ``__init__`` sets its slots with
    ``object.__setattr__``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class MultiShape(_Value):
    """Tuple of projective dimensions, one per factor."""

    __slots__ = _fields = ("dims",)

    def __init__(self, dims: Iterable[int]) -> None:
        dims = tuple(int(n) for n in dims)
        object.__setattr__(self, "dims", dims)
        if not dims:
            raise ValueError("a shape needs at least one factor")
        if any(n < 0 for n in dims):
            raise ValueError("factor dimensions must be nonnegative")

    def __str__(self) -> str:
        """The sizes label every message and table prints, e.g. ``3x4x6``."""
        return "x".join(map(str, self.sizes))

    @property
    def k(self) -> int:
        return len(self.dims)

    @property
    def sizes(self) -> tuple[int, ...]:
        """Coordinate counts n_i + 1 per factor."""
        return tuple(n + 1 for n in self.dims)

    @property
    def min_dim(self) -> int:
        return min(self.dims)

    def segre_length(self) -> int:
        """Number of Segre coordinates M, the product of the sizes."""
        return prod(self.sizes)


def bipartition(mask: int, k: int) -> dict:
    """The bipartition of {1..k} whose E has E-bitmask ``mask`` (bit i - 1
    for factor i), as certificates print it."""
    factors = range(1, k + 1)
    E = [i for i in factors if mask >> (i - 1) & 1]
    return {"E": E, "F": [i for i in factors if not mask >> (i - 1) & 1]}


class MultiPoint(_Value):
    """A point of the product, one nonzero coordinate vector per factor.

    Equality is projective: points compare equal when every factor pair
    is proportional, that is, when the primitive integer forms of the
    factors (``canonical``) agree.  The stored vectors keep the caller's
    scaling, so weighted sums over them are meaningful.
    """

    __slots__ = ("factors", "_ints")
    _fields = ("factors",)

    def __init__(self, factors: Iterable[Iterable]) -> None:
        # int and Fraction entries are kept; anything else (a float, say)
        # becomes the Fraction of its exact value
        factors = tuple(tuple(x if type(x) in _EXACT else Fraction(x) for x in f) for f in factors)
        object.__setattr__(self, "factors", factors)
        if not factors:
            raise ValueError("a point needs at least one factor")
        for i, f in enumerate(factors, start=1):
            if not f or not any(f):
                raise ValueError(f"factor {i} of a point must be a nonzero vector")
        object.__setattr__(self, "_ints", tuple(primitive(f) for f in factors))

    def canonical(self) -> tuple[tuple[int, ...], ...]:
        return self._ints

    def replace_factor(self, index: int, vector: Iterable) -> "MultiPoint":
        """New point with 1-based factor ``index`` swapped out."""
        factors = list(self.factors)
        factors[index - 1] = vector
        return MultiPoint(tuple(factors))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoint):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    def __repr__(self) -> str:
        parts = ["(" + ", ".join(str(x) for x in f) + ")" for f in self.factors]
        return "MultiPoint[" + " x ".join(parts) + "]"


class PointSet(_Value):
    """Finite set of distinct points of a fixed shape, in a fixed order.

    ``memo`` holds what has been computed for this set (integer Grams by
    factor, and flattening ranks by factor subset from ``subset_ranks``),
    so repeated questions within one run are answered once and the
    memory goes with the set.  It is not part of the set's
    value: equality, hash and repr leave it out.
    """

    __slots__ = ("shape", "points", "memo")
    _fields = ("shape", "points")

    def __init__(self, shape: MultiShape, points: Iterable[MultiPoint]) -> None:
        points = tuple(points)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "memo", {})
        if not points:
            raise ValueError("a point set must be nonempty")
        sizes = self.shape.sizes
        for idx, p in enumerate(points):
            if len(p.factors) != self.shape.k:
                raise ValueError(f"point {idx} has {len(p.factors)} factors, shape has {self.shape.k}")
            for i, f in enumerate(p.factors):
                if len(f) != sizes[i]:
                    raise ValueError(
                        f"point {idx} factor {i + 1} has {len(f)} coordinates, expected {sizes[i]}"
                    )
        seen: dict = {}
        for idx, p in enumerate(points):
            key = p.canonical()
            if key in seen:
                raise ValueError(f"duplicate points at positions {seen[key]} and {idx}")
            seen[key] = idx

    def __len__(self) -> int:
        return len(self.points)


def _outer(vectors: Iterable[Sequence], scale: int) -> list:
    """``scale`` times the outer product of ``vectors``, flattened with the
    last index varying fastest.  Of the primitive factor forms of a point
    (``canonical``) it is the primitive integer vector on the line of the
    Segre vector, times ``scale``."""
    acc = [scale]
    for f in vectors:
        acc = [a * b for a in acc for b in f]
    return acc


def segre_scale(point: MultiPoint) -> Fraction:
    """The c with _outer(point.factors, 1) = c * _outer(point.canonical(), 1)."""
    return prod(multiple(f, q) for f, q in zip(point.factors, point.canonical()))


def _factor_gram(s: PointSet, index: int) -> list[int]:
    """Integer Gram matrix A_i A_i^T of the primitive factor-``index``
    vectors of S, a flat triangle memoized on S; callers must not modify it."""
    key = ("gram", index)
    if key not in s.memo:
        s.memo[key] = integer_gram(p.canonical()[index - 1] for p in s.points)
    return s.memo[key]


def _hadamard(a: list[int], b: list[int]) -> list[int]:
    """Elementwise product of two flat triangles of one order, as a new one."""
    return list(map(mul, a, b))


def segre_gram_row(p: MultiPoint, points: Iterable[MultiPoint]) -> list[int]:
    """p's row of the integer Gram of primitive Segre rows: prod_i <p_i, q_i>
    over the primitive factor forms for each q in ``points``, built on each
    call from no factor Gram and no Segre coordinate."""
    return [prod(sum(map(mul, a, b)) for a, b in zip(p.canonical(), q.canonical())) for q in points]


def flattening_rank(s: PointSet) -> int:
    """Rank of the Segre rows of S, from ``subset_ranks``."""
    full = (1 << s.shape.k) - 1
    return subset_ranks(s, (full,))[full]


def subset_ranks(s: PointSet, masks: Iterable[int]) -> dict[int, int]:
    """The flattening ranks of S for the nonempty factor subsets in
    ``masks``, by bitmask (bit i - 1 for factor i).  Every rank the walk
    learns is memoized on S, keyed by the mask's little-endian bytes.

    The walk takes each asked subset with its prefixes, a prefix being
    the subset without its top factors, and stops at a prefix known to
    be independent (rank #S).  It goes by size.  For u inside u',
    rank_u <= rank_u': rows independent on u stay independent on u' (on
    the Gram side, the Schur product theorem).  So a subset one factor
    short of which is known to be independent has rank #S with no
    elimination.  A subset whose parent (the subset without its top
    factor t, one size earlier) has corank one and a kernel support C
    has rank #S - 1 when the points of C share their factor-t
    projection, and #S otherwise (the rule in the module docstring); it
    keeps C in the first case.  Any other subset's Gram, the full set's
    too, is its parent's times one factor Gram.  It is eliminated when
    asked, or when M_u >= #S, so that it may settle what contains it;
    below #S an unasked prefix is dependent anyway.  An elimination that
    finds corank one keeps the support of the kernel vector of its
    pivot rows in place of the Gram.  Only the Grams and supports of the
    dependent subsets of the last size are kept, as parents, and they go
    with the walk; only the ranks stay on S.
    """
    ranks = s.memo.setdefault("ranks", {})
    k, r, sizes = s.shape.k, len(s), s.shape.sizes
    length = (k + 7) // 8

    def key(mask: int) -> bytes:
        return mask.to_bytes(length, "little")

    # the walk, each subset's key to its parent's, and its keys by size, from 1
    asked, walk, layers = {key(mask): mask for mask in masks}, {}, [[] for _ in range(k)]
    for m, mask in asked.items():
        if m in ranks:
            continue
        while mask and m not in walk and ranks.get(m) != r:
            layers[mask.bit_count() - 1].append(m)
            mask ^= 1 << (mask.bit_length() - 1)
            walk[m] = parent = key(mask)
            m = parent
    bits = [1 << i for i in range(k)]
    canon = [p.canonical() for p in s.points]
    # (Gram, kernel support, M_u) by dependent subset of the last size: the
    # Gram is None for the empty set and for a subset with a kernel support
    grams = {key(0): (None, None, 1)}
    for layer in layers:
        parents, grams = grams, {}
        for m in layer:
            # a subset with an independent parent is independent, one
            # with a kernel support on its parent follows the rule, and
            # any other is independent when a subset one factor short
            # is, all of them walked first
            parent = walk[m]
            if m not in ranks and ranks.get(parent) == r:
                ranks[m] = r
                continue
            gram, support, m_u = parents[parent]
            mask = int.from_bytes(m, "little")
            top = mask.bit_length() - 1
            m_u *= sizes[top]
            if support:
                ranks[m] = r - 1 if len({canon[j][top] for j in support}) == 1 else r
            elif m not in ranks and r in [ranks.get(key(mask ^ b)) for b in bits if mask & b]:
                ranks[m] = r
                continue
            else:
                gram = _factor_gram(s, top + 1) if gram is None else _hadamard(gram, _factor_gram(s, top + 1))
                if m not in ranks and (m in asked or m_u >= r):
                    rows = list(_pivot_rows(gram, r))
                    ranks[m] = len(rows)
                    if len(rows) == r - 1:
                        support = [j for j, c in enumerate(_kernel_vector(rows, r)) if c]
                        gram = None
            if ranks.get(m, 0) < r:
                grams[m] = gram, support, m_u
    return {mask: ranks[m] for m, mask in asked.items()}


def different_coordinates_violation(s: PointSet) -> tuple[int, int, int] | None:
    """First (factor, point a, point b) with proportional projections, if any."""
    canon = [p.canonical() for p in s.points]
    for i in range(s.shape.k):
        seen: dict = {}
        for idx, c in enumerate(canon):
            if c[i] in seen:
                return (i + 1, seen[c[i]], idx)
            seen[c[i]] = idx
    return None


def factor_projection_sizes(s: PointSet) -> tuple[int, ...]:
    """Number of distinct projective values each factor projection takes."""
    canon = [p.canonical() for p in s.points]
    return tuple(len({c[i] for c in canon}) for i in range(s.shape.k))


def weighted_sum(weights: Sequence, s: PointSet) -> tuple[Fraction, tuple[int, ...]]:
    """(c, T) with sum_j w_j S_j = c * T for the Segre vectors S_j of S.

    With S_j = c_j P_j for the primitive Segre row P_j of p_j, the sum is
    sum_j (w_j c_j) P_j.  T sums the P_j with the primitive integer form
    of those coefficients, each folded into its row's first factor, so
    the M coordinates are built and summed in integers in one pass, and c
    is the one rational between the two.  Raises unless #weights = #S.
    """
    if len(weights) != len(s):
        raise ValueError(f"{len(weights)} weights for {len(s)} points")
    coeffs = [w * segre_scale(p) for w, p in zip(weights, s.points)]
    u = primitive(coeffs)
    rows = (_outer(p.canonical(), x) for x, p in zip(u, s.points))
    # at most 16 rows of M entries alive at once: the first 16, then 15
    # more at a time next to their running sum
    total = tuple(map(sum, zip(*islice(rows, 16))))
    for row in rows:
        total = tuple(map(sum, zip(total, row, *islice(rows, 14))))
    return (multiple(coeffs, u) if any(u) else Fraction(0)), total


def assemble_tensor(weights: Sequence, s: PointSet) -> tuple[int | Fraction, ...]:
    """Coordinates of the weighted sum of the Segre vectors of S, ``int``s
    when the sum is integral (as from integer points and weights) and
    ``Fraction``s otherwise.

    M = prod(sizes) long; only ``random`` and ``augment`` need it, since
    their output carries the tensor.  Certificates work from the points
    and weights alone.
    """
    c, total = weighted_sum(weights, s)
    if c.denominator == 1:
        return tuple(map(c.numerator.__mul__, total))
    return tuple(c * x for x in total)

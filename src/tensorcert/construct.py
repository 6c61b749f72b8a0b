"""Random decompositions, cardinality augmentation and criterion surveys.

Everything here is deterministic given the seed: sampling goes through
random.Random seeded explicitly, and per-trial seeds are derived with a
fixed integer mix so results do not depend on evaluation order.

A random decomposition draws its points one factor vector at a time and
draws a factor again, alone, while its projective point is already
taken in that factor, so no factor repeats a point and nothing is
rejected as a whole.  A capacity check before any draw makes sure every
factor's box holds r projective points, which is what bounds the loop.

Augmentation factors the Gram of its input once, and each draw borders
that factorization with one point; only the certificate ranks anew.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from . import DEFAULT_BOX, AugmentationError
from .certify import bipartition_masks, check_non_redundant
from .geometry import MultiPoint, MultiShape, PointSet, segre_gram_row, segre_scale
from .kruskal import compare_criteria
from .linalg import _back_substitute, _border, _pivot_rows, primitive

_AUGMENT_PASSES = 32
_FACTOR_DRAWS = 24
# survey draws every coordinate of every point it samples
MAX_POINT_COORDINATES = 2**20
# and builds k factor Grams a trial: counted as k r^2, kept as triangles
MAX_GRAM_ENTRIES = 2**23


def derive_seed(seed: int, index: int) -> int:
    """Stable 64-bit child seed for trial ``index`` (splitmix-style)."""
    x = (seed + 0x9E3779B97F4A7C15 * (index + 1)) % 2**64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) % 2**64
    return (x ^ (x >> 31)) % 2**64


def _nonzero_int(rng: random.Random, box: int) -> int:
    while True:
        v = rng.randint(-box, box)
        if v:
            return v


def _random_factor(rng: random.Random, size: int, box: int) -> tuple[int, ...]:
    # first coordinate kept nonzero, which also normalizes the vector away from zero
    coords = [_nonzero_int(rng, box)]
    coords.extend(rng.randint(-box, box) for _ in range(size - 1))
    return tuple(coords)


def _drawable_points(size: int, box: int) -> int:
    """How many projective points ``_random_factor`` can draw.

    Up to sign, box b holds g(b) = b (2b + 1)^(size - 1) vectors with a
    nonzero first entry, each d times a primitive one of box b // d for
    its gcd d.  So the primitive count is P(b) = g(b) - sum_{d >= 2}
    P(b // d), summed over the runs of d with one quotient.  P^0 holds
    one point at any box, counted without the sum.
    """
    if size == 1:
        return 1
    memo: dict[int, int] = {}

    def count(b: int) -> int:
        if b not in memo:
            total, d = b * (2 * b + 1) ** (size - 1), 2
            while d <= b:
                q = b // d
                total -= (b // q - d + 1) * count(q)
                d = b // q + 1
            memo[b] = total
        return memo[b]

    return count(box)


def random_decomposition(
    shape: MultiShape, r: int, *, box: int = DEFAULT_BOX, seed: int = 0
) -> tuple[PointSet, tuple[Fraction, ...]]:
    """Sample r points with injective factor projections, plus nonzero
    integer weights.  Deterministic for a given seed.  A factor vector
    whose projective point its factor already holds is drawn again,
    alone; the capacity check, run before any draw, bounds that loop."""
    if r < 1:
        raise ValueError("need at least one point")
    if box < 1:
        raise ValueError(f"box must be at least 1, got {box}")
    for i, size in enumerate(shape.sizes, start=1):
        # the vectors with first entry 1 alone are (2 box + 1)^(size - 1) points;
        # 3^e > r once e reaches r's bit length, so the exponent is capped there
        if (2 * box + 1) ** min(size - 1, r.bit_length()) > r:
            continue
        if r > (n := _drawable_points(size, box)):
            raise RuntimeError(
                f"could not sample {r} points with injective projections on shape {shape}: "
                f"at box {box}, factor {i} has room for {n} of them"
            )
    rng = random.Random(seed)
    taken: list[set[tuple[int, ...]]] = [set() for _ in shape.sizes]
    points = []
    for _ in range(r):
        factors = []
        for size, seen in zip(shape.sizes, taken):
            f = _random_factor(rng, size, box)
            while (q := primitive(f)) in seen:
                f = _random_factor(rng, size, box)
            seen.add(q)
            factors.append(f)
        points.append(MultiPoint(tuple(factors)))
    weights = tuple(Fraction(_nonzero_int(rng, box)) for _ in range(r))
    return PointSet(shape, tuple(points)), weights


def _try_augment(
    a: PointSet, pivots: list[list[int]], rng: random.Random, box: int
) -> tuple[PointSet, tuple[Fraction, ...]] | None:
    """One pass of the augmentation construction: the grown set S' and the
    y with Segre(a_0) = sum_i y_i Segre(S'_i), or None when sampling fails.

    ``pivots`` are the pivot rows of the Gram H of the primitive Segre
    rows of (a_1, .., a_{r-1}, P), the working point P = a_0 last.  Walks
    the factors with positive dimension, perturbing P in each one alone.
    The other points never change, so a draw borders H with the perturbed
    point C.  C leaves the span exactly when its last pivot, the bordered
    determinant, is nonzero; then P splits into C and a point D on the
    line of the perturbation.  Otherwise C takes P's place exactly when
    its entry in P's row, over P's pivot its coefficient on P, is
    nonzero: the rows drop P's row and column, and C is bordered onto them.

    The split takes one draw of t.  C differs from P, so b is not
    proportional to P_i and c = P_i - t b is nonzero and not proportional
    to b: D differs from C.  And Segre(P) = Segre(D) + t Segre(C), so D
    among the other points would put C in the span it has just left, and
    y_P Segre(P) goes to C and D as t y_P and y_P.  H bordered by a_0 has
    a_0's coefficients xi on primitive rows: y_j = scale(a_0) xi_j / scale(p_j).
    """
    shape = a.shape
    pivot, others = a.points[0], list(a.points[1:])
    eligible = [i for i in range(1, shape.k + 1) if shape.dims[i - 1] > 0]
    for i in eligible:
        for _ in range(_FACTOR_DRAWS):
            b = _random_factor(rng, shape.sizes[i - 1], box)
            candidate = pivot.replace_factor(i, b)
            if candidate == pivot or candidate in others:
                continue
            bordered = _border(pivots, h := segre_gram_row(candidate, [*others, pivot, candidate]))
            if bordered[-1][0]:
                t = Fraction(_nonzero_int(rng, box))
                c = tuple(pc - t * bc for pc, bc in zip(pivot.factors[i - 1], b))
                split = pivot.replace_factor(i, c)
                xi = _back_substitute(_border(pivots, segre_gram_row(a.points[0], [*others, pivot, a.points[0]])))
                y = [segre_scale(a.points[0]) * v / segre_scale(p) for v, p in zip(xi, [*others, pivot])]
                return PointSet(shape, (*others, candidate, split)), (*y[:-1], t * y[-1], y[-1])
            if bordered[-2][-1]:
                pivots = _border([row[:-1] for row in pivots[:-1]], [*h[:-2], h[-1]])
                pivot = candidate
                break
        else:
            return None
    return None


def augment_decomposition(
    a: PointSet,
    weights: Sequence,
    *,
    seed: int = 0,
    box: int = DEFAULT_BOX,
) -> tuple[PointSet, tuple[Fraction, ...], dict]:
    """Extend a non-redundant decomposition by one point.

    Requires #A <= M, independent Segre vectors and a factor of positive
    dimension: A's Gram, factored once with a_0 last, must keep r pivot
    rows, which every pass borders.  Returns the new points, their weights
    and their check_non_redundant certificate; AugmentationError when
    _AUGMENT_PASSES passes fail.  The new weights (w_1, .., w_{r-1}, 0, 0)
    + w_0 y, for S' = (a_1, .., a_{r-1}, C, D) and a_0 = y . S' from
    ``_try_augment``, sum to the same tensor.  The certificate ranks S'
    itself by design, to check the printed decomposition, not the construction.
    """
    shape = a.shape
    if box < 1:
        raise ValueError(f"box must be at least 1, got {box}")
    if all(n == 0 for n in shape.dims):
        raise ValueError("augmentation needs a factor of positive dimension")
    if len(a) >= (m := shape.segre_length()):
        raise ValueError(f"cannot augment {len(a)} points in ambient dimension {m - 1}")
    order = [*a.points[1:], a.points[0]]
    gram = [h for j, p in enumerate(order) for h in segre_gram_row(p, order[j:])]
    pivots = list(_pivot_rows(gram, len(order)))
    if len(pivots) != len(a):
        raise ValueError("the Segre vectors of the input points must be independent")
    rng = random.Random(seed)
    for _ in range(_AUGMENT_PASSES):
        if (grown := _try_augment(a, pivots, rng, box)) is None:
            continue
        s, y = grown
        new_weights = tuple(w + weights[0] * c for w, c in zip((*weights[1:], 0, 0), y))
        cert = check_non_redundant(s, new_weights)
        if cert["conclusion"] is not None:
            return s, new_weights, cert
    raise AugmentationError(f"augmentation failed after {_AUGMENT_PASSES} attempts")


def survey(
    shapes: Sequence[MultiShape],
    r_values: Sequence[int],
    trials: int,
    *,
    seed: int = 0,
    box: int = DEFAULT_BOX,
) -> dict:
    """Tally which criteria fire on random decompositions per shape and r,
    as the JSON object ``survey`` prints."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    # a range's largest entry is at one of its ends, so it is never expanded
    ends = (r_values[0], r_values[-1]) if isinstance(r_values, range) and r_values else r_values
    top = max(ends, default=0)
    for shape in shapes:
        if (m := sum(shape.sizes)) > MAX_POINT_COORDINATES:
            cap = f"more than the {MAX_POINT_COORDINATES} survey samples"
            raise ValueError(f"shape {shape} has {m} coordinates per point, {cap}")
        if (m := shape.k * top * top) > MAX_GRAM_ENTRIES:
            cap = f"more than the {MAX_GRAM_ENTRIES} survey builds"
            raise ValueError(f"{top} points of shape {shape} have {m} factor Gram entries, {cap}")
        bipartition_masks(shape.k)  # every trial searches the bipartitions
    rows = []
    counter = 0
    for shape in shapes:
        for r in r_values:
            exact = ident = krusk = advantage = 0
            for _ in range(trials):
                child = derive_seed(seed, counter)
                counter += 1
                s, weights = random_decomposition(shape, r, box=box, seed=child)
                record = compare_criteria(s, weights)
                exact += record["exact_rank"]["conclusion"] is not None
                ident += record["identifiability"]["conclusion"] is not None
                krusk += record["kruskal_applies"]
                advantage += record["flattening_without_kruskal"]
            rows.append(
                {
                    # sizes, as in instance files and the text column
                    "dims": list(shape.sizes),
                    "r": r,
                    "trials": trials,
                    "certified_exact_rank": exact,
                    "certified_minimal_or_identifiable": ident,
                    "kruskal_applies": krusk,
                    "flattening_without_kruskal": advantage,
                }
            )
    return {"rows": rows}

"""Seeded instance files for the benchmark workloads.

Every instance is written in the form ``tensorcert random`` emits: dims,
points, weights and the full ``tensor`` array, all as rational strings.
Points have small integer coordinates with a nonzero first entry, are
pairwise distinct as projective points, and carry nonzero weights, so
the presented decomposition sums exactly to the tensor.  The sampler is
independent of ``tensorcert.construct``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import prod

BOX = 9


def _factor(rng: random.Random, size: int) -> list[int]:
    vec = [rng.randint(-BOX, BOX) for _ in range(size)]
    while vec[0] == 0:
        vec[0] = rng.randint(-BOX, BOX)
    return vec


def _projective_class(vec: list[int]) -> tuple[Fraction, ...]:
    lead = next(x for x in vec if x)
    return tuple(Fraction(x, lead) for x in vec)


def _outer(vectors: list[list[int]]) -> list[int]:
    acc = [1]
    for vec in vectors:
        acc = [a * b for a in acc for b in vec]
    return acc


def _weights(rng: random.Random, r: int) -> list[int]:
    return [rng.choice((-1, 1)) * rng.randint(1, BOX) for _ in range(r)]


def segre_instance(sizes: tuple[int, ...], r: int, rng: random.Random) -> dict:
    """r distinct random points of the product of P^(n-1), n in sizes."""
    seen: set = set()
    points: list[list[list[int]]] = []
    while len(points) < r:
        point = [_factor(rng, n) for n in sizes]
        key = tuple(_projective_class(f) for f in point)
        if key not in seen:
            seen.add(key)
            points.append(point)
    rows = [_outer(p) for p in points]
    while True:
        weights = _weights(rng, r)
        tensor = [sum(w * row[j] for w, row in zip(weights, rows)) for j in range(prod(sizes))]
        if any(tensor):
            break
    return {
        "dims": list(sizes),
        "points": [[[str(x) for x in f] for f in p] for p in points],
        "weights": [str(w) for w in weights],
        "tensor": [str(x) for x in tensor],
    }


def symmetric_instance(n: int, degree: int, r: int, rng: random.Random) -> dict:
    """r distinct random points of P^n with weights, as a degree-``degree`` stanza."""
    seen: set = set()
    points: list[list[int]] = []
    while len(points) < r:
        point = [rng.randint(-BOX, BOX) for _ in range(n + 1)]
        if not any(point):
            continue
        key = _projective_class(point)
        if key not in seen:
            seen.add(key)
            points.append(point)
    monomials = list(combinations_with_replacement(range(n + 1), degree))
    rows = [[prod(p[i] for i in m) for m in monomials] for p in points]
    while True:
        weights = _weights(rng, r)
        if any(sum(w * row[j] for w, row in zip(weights, rows)) for j in range(len(monomials))):
            break
    return {
        "symmetric": {
            "n": n,
            "k": degree,
            "points": [[str(x) for x in p] for p in points],
            "weights": [str(w) for w in weights],
        }
    }

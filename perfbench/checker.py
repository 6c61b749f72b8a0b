"""Independent check of one command's output.

Every rank is recomputed with the naive reference code in
``tests/oracles.py``, never with tensorcert itself.  The checker
verifies what the output claims rather than how it was searched, so a
change that inspects fewer partitions or reorders a search still passes
as long as every reported value and every conclusion is right.

Non-redundancy needs one oracle rank: the benchmark's instances are
built as a sum of the points' Segre (or Veronese) vectors with nonzero
weights, so the tensor lies in their span, and once the vectors are
independent it leaves the span of every proper subset.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, lcm, prod

from oracles import exponents_desc_lex, gauss_rank, kruskal_rank_exhaustive, monomial_values


class CheckFailure(Exception):
    """The output of an op disagrees with the oracle."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _expect_fields(obj, expected: dict, where: str) -> None:
    _expect(isinstance(obj, dict), f"{where}: expected an object, got {obj!r}")
    for key, value in expected.items():
        _expect(obj.get(key) == value, f"{where}: {key} is {obj.get(key)!r}, oracle says {value!r}")


def _hypothesis(hyps: list, index: int, name: str, passed: bool, witness: dict) -> None:
    _expect(index < len(hyps), f"hypothesis {name} is missing")
    hyp = hyps[index]
    _expect(hyp.get("name") == name, f"hypothesis {index} is {hyp.get('name')!r}, expected {name!r}")
    status = "PASS" if passed else "FAIL"
    _expect(hyp.get("status") == status, f"{name}: status {hyp.get('status')!r}, oracle says {status}")
    _expect_fields(hyp.get("witness"), witness, name)


def _side(part: dict) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return tuple(part["E"]), tuple(part["F"])


def bipartitions(k: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every ordered proper bipartition (E, F) of 1..k."""
    out = []
    for mask in range(1, (1 << k) - 1):
        e = tuple(i + 1 for i in range(k) if mask >> i & 1)
        f = tuple(i + 1 for i in range(k) if not mask >> i & 1)
        out.append((e, f))
    return out


class SegrePoints:
    """The instance's points, with oracle flattening ranks memoized for one op.

    A flattening's rank is taken from its Gram matrix: over the rationals
    rank(A A^T) = rank(A), and the inner product of two Segre vectors is
    the product of the inner products of their factors, so the Gram
    matrix of any factor subset is an elementwise product of r x r
    factor Gram matrices, whatever the flattening's width.
    """

    def __init__(self, instance: dict):
        self.k = len(instance["dims"])
        self.points = [[[Fraction(x) for x in f] for f in p] for p in instance["points"]]
        self.r = len(self.points)
        # rescaling a factor vector to integers changes no rank
        ints = [[[int(x * lcm(*(y.denominator for y in f))) for x in f] for f in p] for p in self.points]
        self._grams = [
            [[sum(x * y for x, y in zip(p[i], q[i])) for q in ints] for p in ints] for i in range(self.k)
        ]
        self._ranks: dict = {}
        self._independent: list[tuple[set, tuple]] = []

    def rank(self, members: tuple[int, ...] | None = None, indices: tuple[int, ...] | None = None) -> int:
        members = members or tuple(range(1, self.k + 1))
        indices = tuple(range(self.r)) if indices is None else indices
        key = (members, indices)
        if key in self._ranks:
            return self._ranks[key]
        # Rows a_j independent on a factor subset stay independent on a larger
        # one: pairing sum c_j a_j (x) b_j = 0 with a y that has b_j . y != 0
        # for every j gives sum c_j (b_j . y) a_j = 0, so every c_j = 0.
        if any(i == indices and m <= set(members) for m, i in self._independent):
            rank = len(indices)
        else:
            gram = [[prod(self._grams[i - 1][a][b] for i in members) for b in indices] for a in indices]
            rank = gauss_rank(gram) if gram else 0
            if rank == len(indices):
                self._independent.append((set(members), indices))
        self._ranks[key] = rank
        return rank

    def h1(self, members: tuple[int, ...]) -> int:
        return self.r - self.rank(members)

    def projection_sizes(self) -> list[int]:
        out = []
        for i in range(self.k):
            classes = set()
            for p in self.points:
                lead = next(x for x in p[i] if x)
                classes.add(tuple(x / lead for x in p[i]))
            out.append(len(classes))
        return out


def span_hypotheses(hyps: list, rank: int, r: int) -> tuple[bool, int]:
    """Check the shared non-redundancy hypotheses; return (certified, count)."""
    independent = rank == r
    _hypothesis(hyps, 0, "evaluation_vectors_independent", independent, {"rank": rank, "cardinality": r})
    if not independent:
        return False, 1
    _hypothesis(hyps, 1, "tensor_in_span", True, {"span_rank": r, "rank_with_tensor": r})
    for j in range(r):
        _hypothesis(hyps, 2 + j, "tensor_outside_span_of_proper_subset", True, {"point_removed": j})
    return True, 2 + r


def _conclusion(cert: dict, expected: dict | None, claim: str, what: str) -> None:
    _expect(cert.get("claim") == claim, f"{what}: claim {cert.get('claim')!r}, expected {claim!r}")
    if expected is None:
        _expect(cert.get("conclusion") is None, f"{what}: concluded {cert.get('conclusion')!r} without proof")
    else:
        _expect_fields(cert.get("conclusion"), expected, f"{what} conclusion")


def check_non_redundant(cert: dict, pts: SegrePoints) -> bool:
    ok, count = span_hypotheses(cert["hypotheses"], pts.rank(), pts.r)
    _expect(len(cert["hypotheses"]) == count, "non-redundancy: extra hypotheses")
    _conclusion(cert, {"cardinality": pts.r} if ok else None, "NonRedundant", "non-redundancy")
    return ok


def check_bound(report: dict, pts: SegrePoints) -> None:
    def bound_of(e, f):
        # M_F - h0_F equals the rank of the F-flattening
        return pts.rank(f) if pts.h1(e) == 0 else None

    for e, _ in sorted(bipartitions(pts.k), key=lambda part: len(part[0])):
        pts.h1(e)  # every proper subset, smallest first, so larger ones can reuse independence
    seen = set()
    for entry in report["per_partition"]:
        e, f = _side(entry["partition"])
        _expect((e, f) not in seen, f"partition {e}/{f} listed twice")
        seen.add((e, f))
        bound = bound_of(e, f)
        applicable = bound is not None and bound > 1
        _expect_fields(entry, {"applicable": applicable, "bound": bound}, f"partition {e}/{f}")
    bounds = [(bound_of(e, f), (e, f)) for e, f in bipartitions(pts.k)]
    best = max((b for b, _ in bounds if b is not None and b > 1), default=None)
    _expect(report["best_bound"] == (best or 1), f"best bound {report['best_bound']}, oracle says {best or 1}")
    cert = report["certificate"]
    if best is None:
        _expect(report["best_partition"] is None, "best partition given without an applicable one")
        _conclusion(cert, None, "CactusRankLowerBound", "cactus bound")
        return
    e, f = _side(report["best_partition"])
    _expect(bound_of(e, f) == best, f"best partition {e}/{f} does not attain {best}")
    _conclusion(
        cert,
        {"cactus_rank_at_least": best, "rank_at_least": best, "partition": {"E": list(e), "F": list(f)}},
        "CactusRankLowerBound",
        "cactus bound",
    )


def check_exact_rank(cert: dict, pts: SegrePoints) -> bool:
    hyps = cert["hypotheses"]
    ok, count = span_hypotheses(hyps, pts.rank(), pts.r)
    if not ok:
        _expect(len(hyps) == count, "exact rank: hypotheses after a failed non-redundancy")
        _conclusion(cert, None, "ExactRank", "exact rank")
        return False
    _expect(len(hyps) == count + 1, "exact rank: expected one partition hypothesis")
    attempts = hyps[count].get("witness", {}).get("attempts", [])
    seen = set()
    for attempt in attempts:
        e, f = _side(attempt["partition"])
        _expect((e, f) not in seen, f"exact rank tried {e}/{f} twice")
        seen.add((e, f))
        _expect_fields(attempt, {"h1_E": pts.h1(e), "h1_F": pts.h1(f)}, f"attempt {e}/{f}")
    found = attempts and attempts[-1]["h1_E"] == 0 and attempts[-1]["h1_F"] == 0
    if not found:
        exists = any(pts.h1(e) == 0 and pts.h1(f) == 0 for e, f in bipartitions(pts.k))
        _expect(not exists, "exact rank gave up although a partition has both h1 = 0")
    _hypothesis(hyps, count, "partition_with_both_flattenings_independent", bool(found), {})
    expected = (
        {"rank": pts.r, "cactus_rank": pts.r, "partition": attempts[-1]["partition"]} if found else None
    )
    _conclusion(cert, expected, "ExactRank", "exact rank")
    return bool(found)


def check_identifiability(cert: dict, pts: SegrePoints) -> bool:
    hyps = cert["hypotheses"]
    r = pts.r
    ok, count = span_hypotheses(hyps, pts.rank(), r)
    if not ok:
        _conclusion(cert, None, "MinimalRank", "identifiability")
        return False
    if r == 1:
        _hypothesis(hyps, count, "singleton_decomposition", True, {"cardinality": 1})
        _conclusion(cert, {"rank": 1, "minimal": True, "identifiable": True}, "Identifiable", "identifiability")
        return True
    sizes = pts.projection_sizes()
    mixed = [i for i, c in enumerate(sizes, start=1) if 1 < c < r]
    k_eff = sum(1 for c in sizes if c > 1)
    _hypothesis(
        hyps,
        count,
        "factor_projections_injective_or_constant",
        not mixed,
        {"projection_sizes": sizes, "violating_factors": mixed, "k_effective": k_eff},
    )
    if mixed:
        _conclusion(cert, None, "MinimalRank", "identifiability")
        return False
    minimal = 2 * r <= k_eff + 2
    identifiable = 2 * r <= k_eff + 1
    _hypothesis(hyps, count + 1, "cardinality_within_range", minimal, {"two_r": 2 * r, "k_effective": k_eff})
    if not minimal:
        _conclusion(cert, None, "MinimalRank", "identifiability")
        return False
    claim = "Identifiable" if identifiable else "MinimalRank"
    _conclusion(cert, {"rank": r, "minimal": True, "identifiable": identifiable}, claim, "identifiability")
    return True


def check_kruskal(report: dict, pts: SegrePoints) -> bool:
    ranks = report["per_factor_kruskal_rank"]
    _expect(len(ranks) == pts.k, "one Kruskal rank per factor expected")
    for i, kappa in enumerate(ranks):
        oracle = kruskal_rank_exhaustive([p[i] for p in pts.points])
        _expect(kappa == oracle, f"factor {i + 1} Kruskal rank {kappa}, oracle says {oracle}")
    lhs, rhs = sum(ranks), 2 * pts.r + pts.k - 1
    expected = {"cardinality": pts.r, "condition_lhs": lhs, "condition_rhs": rhs, "applies": lhs >= rhs}
    _expect_fields(report, expected, "kruskal")
    return lhs >= rhs


def check_compare(out: dict, pts: SegrePoints) -> bool:
    nr = check_non_redundant(out["non_redundant"], pts)
    check_bound(out["cactus_bound"], pts)
    exact = check_exact_rank(out["exact_rank"], pts)
    ident = check_identifiability(out["identifiability"], pts)
    kruskal = check_kruskal(out["kruskal"], pts)
    flattening = exact or ident
    _expect_fields(
        out,
        {
            "flattening_applies": flattening,
            "kruskal_applies": kruskal and nr,
            "flattening_without_kruskal": flattening and not (kruskal and nr),
        },
        "compare",
    )
    return flattening or (kruskal and nr)


def check_span(cert: dict, pts: SegrePoints, a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    hyps = cert["hypotheses"]
    rank_a, rank_b = pts.rank(indices=a), pts.rank(indices=b)
    h1_a, h1_b = len(a) - rank_a, len(b) - rank_b
    _hypothesis(hyps, 0, "first_set_independent", h1_a == 0, {"cardinality": len(a), "h1": h1_a})
    _hypothesis(hyps, 1, "second_set_independent", h1_b == 0, {"cardinality": len(b), "h1": h1_b})
    if h1_a or h1_b:
        _conclusion(cert, None, "SpanIntersectionIdentity", "span check")
        return False
    lhs = rank_a + rank_b - pts.rank(indices=a + b) - 1
    common = tuple(j for j in a if j in b)  # the generator's points are pairwise distinct
    common_dim = pts.rank(indices=common) - 1 if common else -1
    union = a + tuple(j for j in b if j not in a)
    h1_union = len(union) - pts.rank(indices=union)
    rhs = common_dim + h1_union
    _hypothesis(
        hyps,
        2,
        "identity_holds",
        lhs == rhs,
        {"lhs_intersection_dim": lhs, "common_points": len(common), "common_span_dim": common_dim,
         "h1_union": h1_union, "rhs": rhs},
    )
    _conclusion(cert, {"intersection_dim": lhs, "rhs": rhs} if lhs == rhs else None,
                "SpanIntersectionIdentity", "span check")
    return lhs == rhs


def check_comon(out: dict, instance: dict) -> bool:
    sym = instance["symmetric"]
    n, degree = sym["n"], sym["k"]
    points = [[Fraction(x) for x in p] for p in sym["points"]]
    r = len(points)

    def rank_at(e: int) -> int:
        exps = exponents_desc_lex(n, e)
        return gauss_rank([monomial_values(p, exps) for p in points])

    cert = out["certificate"]
    hyps = cert["hypotheses"]
    witness = hyps[0].get("witness", {})
    for attempt in witness.get("attempts", []):
        rank = rank_at(attempt["e"])
        _expect_fields(attempt, {"rank": rank, "h1": r - rank}, f"interpolation at e={attempt['e']}")
    chosen = witness.get("chosen_e")
    if chosen is None:
        _expect(all(rank_at(e) < r for e in range(degree // 2 + 1)), "interpolation gave up too early")
    else:
        _expect(0 <= chosen <= degree // 2 and rank_at(chosen) == r, f"e={chosen} is not independent")
    _hypothesis(hyps, 0, "half_degree_interpolation", chosen is not None, {"max_e": degree // 2})
    ok = chosen is not None
    if ok:
        ok, _ = span_hypotheses(hyps[1:], rank_at(degree), r)
    expected = None
    if ok:
        expected = {"rank": r, "cactus_rank": r, "symmetric_rank": r, "ranks_agree": True,
                    "vanishing_degree": chosen}
    _conclusion(cert, expected, "ExactRank", "comon")
    e = degree // 2
    exceptional = (degree == 2 and n >= 2) or (degree, n) in {(4, 2), (4, 3), (4, 4), (3, 4)}
    bounds = {"r0": comb(n + e, e) + degree % 2, "rg": -(-comb(n + degree, degree) // (n + 1)),
              "exceptional": exceptional}
    _expect_fields(out["bounds"], bounds, "symmetric bounds")
    return ok


def _index_flag(extra: tuple[str, ...], flag: str) -> tuple[int, ...]:
    return tuple(int(x) for x in extra[extra.index(flag) + 1].split(","))


def check_op(command: str, extra: tuple[str, ...], instance: dict, code, stdout: str, stderr: str) -> dict:
    """Raise CheckFailure unless the op's exit code and JSON output are right.

    Returns the parsed output.
    """
    _expect(not stderr.strip(), f"unexpected stderr: {stderr.strip().splitlines()[-1] if stderr.strip() else ''}")
    _expect(code in (0, 1), f"unexpected exit code {code}")
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailure(f"output is not JSON: {exc}") from None
    try:
        if command == "comon":
            certified = check_comon(out, instance)
        else:
            pts = SegrePoints(instance)
            if command == "certify":
                check_non_redundant(out["non_redundant"], pts)
                check_bound(out["cactus_bound"], pts)
                certified = check_exact_rank(out["exact_rank"], pts)
            elif command == "compare":
                certified = check_compare(out, pts)
            elif command == "identifiability":
                certified = check_identifiability(out, pts)
            elif command == "span-check":
                certified = check_span(out, pts, _index_flag(extra, "--a"), _index_flag(extra, "--b"))
            else:
                raise CheckFailure(f"no checker for {command!r}")
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        raise CheckFailure(f"malformed {command} output: {exc!r}") from None
    _expect(code == (0 if certified else 1), f"exit code {code} disagrees with the certificate")
    return out


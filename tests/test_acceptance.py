"""End-to-end acceptance checks, one test and one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines.  Every test draws seeded random instances, so reruns are exact
replays.
"""

import random
import time
from fractions import Fraction

from certs import certified
from oracles import (
    decomposition_weights,
    gauss_rank,
    kruskal_rank_exhaustive,
    matrix_of_two_factor_tensor,
    permuted_point_set,
    rescaled_point_set,
)
from tensorcert.certify import (
    CLAIM_IDENTIFIABLE,
    CLAIM_MINIMAL_RANK,
    PASS,
    bound_cactus_rank,
    certify_exact_rank,
    certify_identifiability,
    check_non_redundant,
    check_span_intersection_identity,
)
from tensorcert.construct import (
    augment_decomposition,
    derive_seed,
    random_decomposition,
)
from tensorcert.geometry import (
    MultiPoint,
    MultiShape,
    PointSet,
    assemble_tensor,
)
from tensorcert.kruskal import kruskal_certificate, kruskal_rank
from tensorcert.symmetric import (
    comon_certify,
    symmetric_bounds,
)


def report(name, ok, detail):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def random_sym_points(n, count, seed, box=9):
    rng = random.Random(seed)
    points = []
    seen = set()
    while len(points) < count:
        vec = tuple(Fraction(rng.randint(-box, box)) for _ in range(n + 1))
        if all(x == 0 for x in vec):
            continue
        first = next(x for x in vec if x != 0)
        canon = tuple(x / first for x in vec)
        if canon in seen:
            continue
        seen.add(canon)
        points.append(vec)
    return PointSet(MultiShape((n,)), tuple(MultiPoint((p,)) for p in points))


def test_criterion_1_three_by_four_by_six_exact_rank():
    start = time.perf_counter()
    shape = MultiShape((2, 3, 5))
    partition = 0b011  # E = {1, 2}, F = {3}
    exact_six = kruskal_na = 0
    for t in range(100):
        s, weights = random_decomposition(shape, 6, box=9, seed=derive_seed(101, t))
        cert = certify_exact_rank(s, weights, partition)
        if certified(cert) and cert["conclusion"]["rank"] == 6:
            exact_six += 1
        rep = kruskal_certificate(s)
        if not rep["applies"] and rep["condition_lhs"] < rep["condition_rhs"] == 14:
            kruskal_na += 1
    elapsed = time.perf_counter() - start
    ok = exact_six >= 99 and kruskal_na == 100 and elapsed < 10.0
    report(
        "3x4x6 exact rank 6 with Kruskal silent",
        ok,
        f"exact {exact_six}/100, kruskal n/a {kruskal_na}/100, {elapsed:.2f}s",
    )


def test_criterion_2_two_factor_matrix_oracle():
    start = time.perf_counter()
    rng = random.Random(202)
    bound_match = non_redundant = iff_ok = 0
    for t in range(200):
        n1 = rng.randint(1, 4)
        n2 = rng.randint(1, 6)
        # the bound is tight only when one factor matrix has full row
        # rank, so r is capped by the larger side and rank-deficient
        # draws are resampled like any other degenerate sample
        r = rng.randint(1, min(5, max(n1, n2) + 1))
        shape = MultiShape((n1, n2))
        bump = 0
        while True:
            s, weights = random_decomposition(
                shape, r, box=9, seed=derive_seed(202, t * 1000 + bump)
            )
            if all(
                gauss_rank([p.factors[i] for p in s.points]) == min(r, d + 1)
                for i, d in enumerate(shape.dims)
            ):
                break
            bump += 1
        tensor = assemble_tensor(weights, s)
        oracle = gauss_rank(matrix_of_two_factor_tensor(tensor, shape.dims))
        if certified(check_non_redundant(s, weights)):
            non_redundant += 1
            if bound_cactus_rank(s, weights)["best_bound"] == oracle:
                bound_match += 1
        if certified(certify_exact_rank(s, weights)) == (r == oracle):
            iff_ok += 1
    elapsed = time.perf_counter() - start
    ok = (
        non_redundant == 200
        and bound_match == non_redundant
        and iff_ok == 200
        and elapsed < 10.0
    )
    report(
        "two-factor bound equals matrix rank",
        ok,
        f"bound match {bound_match}/{non_redundant} non-redundant, "
        f"iff {iff_ok}/200, {elapsed:.2f}s",
    )


def test_criterion_3_symmetric_rank_ten_in_the_plane():
    start = time.perf_counter()
    rank_ten = 0
    for t in range(100):
        points = random_sym_points(2, 10, derive_seed(303, t))
        weights = tuple(Fraction(1) for _ in range(10))
        cert = comon_certify(points, weights, 6)
        if certified(cert) and cert["conclusion"]["symmetric_rank"] == 10:
            rank_ten += 1
    bounds_ok = (
        symmetric_bounds(2, 6) == {"r0": 10, "rg": 10, "exceptional": False}
        and symmetric_bounds(2, 8) == {"r0": 15, "rg": 15, "exceptional": False}
        and symmetric_bounds(3, 4) == {"r0": 10, "rg": 9, "exceptional": True}
    )
    elapsed = time.perf_counter() - start
    ok = rank_ten == 100 and bounds_ok and elapsed < 10.0
    report(
        "plane sextics of rank 10 with frozen bound table",
        ok,
        f"certified {rank_ten}/100, bounds {'ok' if bounds_ok else 'WRONG'}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_4_kruskal_rank_against_the_definition():
    start = time.perf_counter()
    rng = random.Random(404)
    agree = 0
    for t in range(100):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 8)
        entries = [
            [Fraction(rng.randint(-9, 9)) for _ in range(cols)] for _ in range(rows)
        ]
        for j in range(cols):
            if all(entries[i][j] == 0 for i in range(rows)):
                entries[rng.randrange(rows)][j] = Fraction(1)
        columns = [[entries[i][j] for i in range(rows)] for j in range(cols)]
        if kruskal_rank(columns) == kruskal_rank_exhaustive(columns):
            agree += 1
    elapsed = time.perf_counter() - start
    ok = agree == 100 and elapsed < 30.0
    report(
        "Kruskal rank matches the exhaustive definition",
        ok,
        f"agree {agree}/100, {elapsed:.2f}s",
    )


def test_criterion_5_span_intersection_identity():
    start = time.perf_counter()
    met = passed = 0
    for dims, size in (((1, 1), 2), ((1, 1, 1), 3), ((2, 2), 3)):
        shape = MultiShape(dims)
        for t in range(100):
            overlap = t % 3
            union = 2 * size - overlap
            s, _ = random_decomposition(shape, union, box=9, seed=derive_seed(505, t))
            set_a = PointSet(shape, s.points[:size])
            set_b = PointSet(shape, s.points[size - overlap:])
            cert = check_span_intersection_identity(set_a, set_b)
            preconditions = [
                h
                for h in cert["hypotheses"]
                if h["name"] in ("first_set_independent", "second_set_independent")
            ]
            if all(h["status"] == PASS for h in preconditions):
                met += 1
                passed += certified(cert)
    elapsed = time.perf_counter() - start
    ok = passed == met and met >= 250
    report(
        "span intersection identity on overlapping subsets",
        ok,
        f"passed {passed}/{met} pairs meeting preconditions of 300, {elapsed:.2f}s",
    )


def test_criterion_6_augmentation_grows_and_recertifies():
    start = time.perf_counter()
    combos = [((1, 1), r) for r in (1, 2, 3)] + [((2, 3, 5), r) for r in (1, 2, 3, 4)]
    grown = distinct = 0
    for t in range(100):
        dims, r = combos[t % len(combos)]
        shape = MultiShape(dims)
        s, weights = random_decomposition(shape, r, box=9, seed=derive_seed(606, t))
        first, w_a, cert_a = augment_decomposition(s, weights, seed=derive_seed(616, t))
        second, w_b, cert_b = augment_decomposition(s, weights, seed=derive_seed(626, t))
        if (
            len(first) == r + 1 == len(second)
            and certified(cert_a)
            and certified(cert_b)
            and certified(check_non_redundant(first, w_a))
            and certified(check_non_redundant(second, w_b))
        ):
            grown += 1
        if frozenset(first.points) != frozenset(second.points):
            distinct += 1
    elapsed = time.perf_counter() - start
    ok = grown == 100 and distinct >= 95
    report(
        "augmentation adds one point and stays non-redundant",
        ok,
        f"grown {grown}/100, distinct across seeds {distinct}/100, {elapsed:.2f}s",
    )


def test_criterion_7_order_four_identifiability_split():
    start = time.perf_counter()
    shape = MultiShape((2, 1, 1, 1))
    identifiable = minimal_only = 0
    for t in range(100):
        s, weights = random_decomposition(shape, 2, box=9, seed=derive_seed(707, t))
        cert = certify_identifiability(s, weights)
        if certified(cert) and cert["claim"] == CLAIM_IDENTIFIABLE:
            identifiable += 1
        s, weights = random_decomposition(shape, 3, box=9, seed=derive_seed(717, t))
        cert = certify_identifiability(s, weights)
        if (
            certified(cert)
            and cert["claim"] == CLAIM_MINIMAL_RANK
            and cert["conclusion"]["identifiable"] is False
        ):
            minimal_only += 1
    elapsed = time.perf_counter() - start
    ok = identifiable == 100 and minimal_only == 100
    report(
        "3x2x2x2 rank 2 identifiable, rank 3 minimal only",
        ok,
        f"identifiable {identifiable}/100, minimal-only {minimal_only}/100, "
        f"{elapsed:.2f}s",
    )


def snapshot(s, weights):
    return {
        "nr": check_non_redundant(s, weights),
        "bound": bound_cactus_rank(s, weights),
        "exact": certify_exact_rank(s, weights),
        "ident": certify_identifiability(s, weights),
        "kruskal": kruskal_certificate(s),
    }


def permutation_consistent(base, other, perm):
    relabel = lambda f: perm.index(f) + 1
    ok = base["nr"] == other["nr"]
    ok &= other["kruskal"]["per_factor_kruskal_rank"] == [
        base["kruskal"]["per_factor_kruskal_rank"][p - 1] for p in perm
    ]
    table = {
        (tuple(e["partition"]["E"]), tuple(e["partition"]["F"])): (
            e["applicable"],
            e["bound"],
            e["reason"],
        )
        for e in other["bound"]["per_partition"]
    }
    for e in base["bound"]["per_partition"]:
        key = (
            tuple(sorted(relabel(f) for f in e["partition"]["E"])),
            tuple(sorted(relabel(f) for f in e["partition"]["F"])),
        )
        ok &= table[key] == (e["applicable"], e["bound"], e["reason"])
    ok &= other["bound"]["best_bound"] == base["bound"]["best_bound"]
    ok &= (other["exact"]["conclusion"] is None) == (base["exact"]["conclusion"] is None)
    if base["exact"]["conclusion"]:
        ok &= other["exact"]["conclusion"]["rank"] == base["exact"]["conclusion"]["rank"]
    ok &= other["ident"]["claim"] == base["ident"]["claim"]
    ok &= other["ident"]["conclusion"] == base["ident"]["conclusion"]
    name = "factor_projections_injective_or_constant"
    base_rows = [h for h in base["ident"]["hypotheses"] if h["name"] == name]
    other_rows = [h for h in other["ident"]["hypotheses"] if h["name"] == name]
    if base_rows:
        sizes = base_rows[0]["witness"]["projection_sizes"]
        ok &= other_rows[0]["witness"]["projection_sizes"] == [
            sizes[p - 1] for p in perm
        ]
    return ok


def test_criterion_8_certificates_are_projective_invariants():
    pool = [((1, 2), 2), ((1, 2), 3), ((2, 2), 3), ((1, 1, 1), 2), ((1, 1, 1), 3)]
    start = time.perf_counter()
    rescale_ok = perm_ok = 0
    for t in range(50):
        dims, r = pool[t % len(pool)]
        shape = MultiShape(dims)
        s, weights = random_decomposition(shape, r, box=9, seed=derive_seed(808, t))
        tensor = assemble_tensor(weights, s)
        base = snapshot(s, weights)

        # the same tensor, up to a factor, over rescaled representatives;
        # its weights there come from an explicit solve
        rng = random.Random(derive_seed(818, t))
        rescaled = rescaled_point_set(s, rng)
        factor = Fraction(rng.randint(1, 7))
        rescaled_weights = decomposition_weights([factor * c for c in tensor], rescaled)
        if snapshot(rescaled, rescaled_weights) == base:
            rescale_ok += 1

        perm = (2, 1) if shape.k == 2 else (3, 1, 2)
        permuted = permuted_point_set(s, perm)
        if permutation_consistent(base, snapshot(permuted, weights), perm):
            perm_ok += 1
    elapsed = time.perf_counter() - start
    ok = rescale_ok == 50 and perm_ok == 50
    report(
        "certificates invariant under rescaling and factor permutation",
        ok,
        f"rescale {rescale_ok}/50, permutation {perm_ok}/50, {elapsed:.2f}s",
    )

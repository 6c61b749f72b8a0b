"""tensorcert benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` and outputs are checked against ``tests/oracles.py``.  One
client sends one op at a time (a closed loop); an op is one CLI command
on one freshly generated instance.  After each op, outside its timed
region, the output is checked; a fixed integer-elimination loop times
the host just before and just after the op.  End-to-end timings are scaled by that loop to a reference
host speed, so that drift of the host's speed cancels while a change in
the program does not.  Ops are sent until ``--seconds`` of wall time have
passed and at least MIN_OPS ops, in whole rounds of the workload's op
mix, have run.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` every other op runs with layer spans and probes, and the
last line reports the per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import combinations
from math import gcd
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import instances  # noqa: E402
from perfbench.tracing import Tracer, self_times  # noqa: E402

WORK = ROOT / ".perfbench_work"
REQUIRED = (ROOT / "src" / "tensorcert" / "cli.py", ROOT / "tests" / "oracles.py")
SETUP_REPS = 15
MIN_OPS = 15
# calibrate() takes about this long on a 2-vCPU Intel Xeon VM at 2.1 GHz
# in its fast periods; scaled timings read as if on such a host
CALIB_REF_S = 0.020
HARD_LIMIT_S = 150.0
COLD_TIMEOUT_S = 60.0
# what the ``tensorcert`` console script runs
MAIN_SNIPPET = "import sys; from tensorcert.cli import main; sys.argv[0] = 'tensorcert'; main()"
READY_SNIPPET = (
    "import time; t0 = time.perf_counter(); import tensorcert.cli; "
    "print(t0, time.perf_counter(), flush=True)"
)


@dataclass(frozen=True)
class OpKind:
    command: str
    make: Callable[[random.Random], dict]
    extra: tuple[str, ...] = ()


def _segre(sizes: tuple[int, ...], r: int) -> Callable[[random.Random], dict]:
    return lambda rng: instances.segre_instance(sizes, r, rng)


WORKLOADS: dict[str, list[OpKind]] = {
    "cli_cold": [
        OpKind("certify", _segre((3, 4, 6), 6)),
        OpKind("compare", _segre((3, 4, 6), 6)),
        OpKind("identifiability", _segre((2, 2, 2, 2, 2), 3)),
        OpKind("comon", lambda rng: instances.symmetric_instance(2, 6, 10, rng)),
        OpKind("span-check", _segre((3, 4, 6), 6), ("--a", "0,1,2,3", "--b", "2,3,4,5")),
    ],
    "wide_certify": [
        OpKind("certify", _segre((6, 6, 6), 16)),
        OpKind("certify", _segre((4, 4, 4, 4), 14)),
    ],
    "many_factors": [OpKind("certify", _segre((2,) * 8, 9))],
    "compare_kruskal": [OpKind("compare", _segre((5, 5, 5), 11))],
}
COLD_WORKLOAD = "cli_cold"

END_TO_END_UNITS = {
    "ops_per_s_ref": "1/s",
    "latency_p50_ref_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "latency_tail.percentile": "%",
    "latency_tail.samples": "count",
    "cli.startup_ms": "ms",
    "cli.import_ms": "ms",
    "cli.parse_ms": "ms",
    "cli.serialize_ms": "ms",
    "cli.other_ms": "ms",
    "certify.non_redundant_ms": "ms",
    "geometry.segre_matrix_ms": "ms",
    "linalg.full_rank_ms": "ms",
    "certify.non_redundant_per_full_rank": "ratio",
    "certify.bound_ms": "ms",
    "certify.exact_rank_ms": "ms",
    "geometry.flattenings_ms": "ms",
    "linalg.flattening_ranks_ms": "ms",
    "certify.partitions_inspected": "count",
    "certify.exact_rank_attempts": "count",
    "kruskal.certificate_ms": "ms",
    "certify.identifiability_ms": "ms",
    "symmetric.comon_ms": "ms",
    "linalg.cells_ranked": "count",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    "host.calib_ms": "ms",
    "error_rate": "ratio",
}
# span name -> per-layer metric (mean self time per op that made the call)
SPAN_METRICS = {
    "cli.parse": "cli.parse_ms",
    "cli.serialize": "cli.serialize_ms",
    "op": "cli.other_ms",
    "certify.non_redundant": "certify.non_redundant_ms",
    "certify.bound": "certify.bound_ms",
    "certify.exact_rank": "certify.exact_rank_ms",
    "certify.identifiability": "certify.identifiability_ms",
    "kruskal.certificate": "kruskal.certificate_ms",
    "symmetric.comon": "symmetric.comon_ms",
}
PROBED_COMMANDS = {"certify", "compare"}


@dataclass
class OpResult:
    seconds: float
    code: int | None
    stdout: str
    stderr: str


def calibrate() -> float:
    """Seconds for a fixed pure-Python integer elimination; measures the host only.

    The collector is off meanwhile, so the size of the program's heap
    does not change the reading."""
    gc.disable()
    start = time.perf_counter()
    for shift in range(120):
        n = 12
        rows = [[(i * 7 + j * 13 + i * j * 3 + shift) % 17 - 8 for j in range(n)] for i in range(n)]
        for c in range(n):
            pivot = next((i for i in range(c, n) if rows[i][c]), None)
            if pivot is None:
                continue
            rows[c], rows[pivot] = rows[pivot], rows[c]
            for i in range(c + 1, n):
                x = rows[i][c]
                if x:
                    row = [rows[c][c] * a - x * b for a, b in zip(rows[i], rows[c])]
                    g = 0
                    for v in row:
                        g = gcd(g, v)
                    rows[i] = [v // g for v in row] if g > 1 else row
    seconds = time.perf_counter() - start
    gc.enable()
    return seconds


def host_scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two calibrations into
    the time it would take on the reference host."""
    return CALIB_REF_S / ((before + after) / 2)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(env: dict) -> tuple[float, float, float]:
    """(ready, startup, import) seconds of a fresh interpreter importing tensorcert.cli."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", READY_SNIPPET], stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True
    )
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.communicate(timeout=COLD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line.strip():
        raise RuntimeError("a fresh interpreter could not import tensorcert.cli")
    first, imported = (float(x) for x in line.split())
    return ready - start, first - start, imported - first


def sample_setup(env: dict, calib: list[float]) -> tuple[float, float, float, float]:
    """``measure_setup`` plus the host scale from calibrations either side."""
    before = calibrate()
    ready, startup, imported = measure_setup(env)
    calib += [before, calibrate()]
    return ready, startup, imported, host_scale(*calib[-2:])


def timed(fn: Callable[[], OpResult], tracer: Tracer | None) -> OpResult:
    if tracer is None:
        start = time.perf_counter()
        result = fn()
        result.seconds = time.perf_counter() - start
        return result
    with tracer.layers():
        with tracer.span("op") as span:
            result = fn()
    result.seconds = span["end"] - span["start"]
    return result


def run_in_process(cli, argv: list[str], tracer: Tracer | None) -> OpResult:
    def call() -> OpResult:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.run(argv)
            except Exception:  # a traceback is a failed op, reported by the checker
                traceback.print_exc()
                code = None
        return OpResult(0.0, code, out.getvalue(), err.getvalue())

    return timed(call, tracer)


def run_cold(argv: list[str], env: dict, tracer: Tracer | None) -> OpResult:
    spans_file = WORK / "cold_spans.json"
    if tracer is None:
        cmd = [sys.executable, "-c", MAIN_SNIPPET, *argv]
    else:
        spans_file.unlink(missing_ok=True)
        cmd = [sys.executable, str(ROOT / "perfbench" / "cold_op.py"), str(spans_file), *argv]
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT, text=True
    )
    try:
        out, err = proc.communicate(timeout=COLD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += f"\ntimed out after {COLD_TIMEOUT_S} s"
    end = time.perf_counter()
    if tracer is not None:
        op = tracer.add("op", start, end)
        if spans_file.is_file():
            child = json.loads(spans_file.read_text(encoding="utf-8"))
            tracer.add("cli.startup", start, child["first"], op)
            grafted: dict = {}
            for span in child["spans"]:
                parent = grafted.get(span["parent"], op)
                grafted[span["id"]] = tracer.add(span["name"], span["start"], span["end"], parent)
            tracer.add("cli.exit", child["last"], end, op)
    return OpResult(end - start, proc.returncode, out, err)


def probe(instance: dict) -> dict[str, float]:
    """Rebuild and rank, after the op, the matrices a certify op ranks.

    Uses only the uncached ``segre_matrix`` and ``rat_rank``, so nothing
    the program memoizes is touched.  Times are in milliseconds.  A
    version of the program without these functions gets no probe.
    """
    try:
        from tensorcert.cli import instance_from_json
        from tensorcert.geometry import segre_matrix
        from tensorcert.linalg import rat_rank
    except ImportError:
        return {}

    s = instance_from_json(instance).points
    k = s.shape.k
    out = dict.fromkeys(("geometry.flattenings_ms", "linalg.flattening_ranks_ms"), 0.0)
    t0 = time.perf_counter()
    full = segre_matrix(s)
    t1 = time.perf_counter()
    rat_rank(full)
    out["geometry.segre_matrix_ms"] = (t1 - t0) * 1000
    out["linalg.full_rank_ms"] = (time.perf_counter() - t1) * 1000
    cells = full.rows * full.cols
    for size in range(1, k):
        for members in combinations(range(1, k + 1), size):
            t0 = time.perf_counter()
            flat = segre_matrix(s, members)
            t1 = time.perf_counter()
            rat_rank(flat)
            out["geometry.flattenings_ms"] += (t1 - t0) * 1000
            out["linalg.flattening_ranks_ms"] += (time.perf_counter() - t1) * 1000
            cells += flat.rows * flat.cols
    out["linalg.cells_ranked"] = cells
    return out


def search_counts(command: str, out: dict) -> dict[str, float]:
    """Partitions inspected by the bound and attempts of the exact-rank search."""
    if command not in PROBED_COMMANDS:
        return {}
    exact = out["exact_rank"]["hypotheses"][-1].get("witness", {})
    return {
        "certify.partitions_inspected": len(out["cactus_bound"]["per_partition"]),
        "certify.exact_rank_attempts": len(exact.get("attempts", [])),
    }


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with ten samples beyond
    it, or the maximum when there are no more than ten samples."""
    ordered = sorted(values)
    n = len(ordered)
    index = n - 11 if n > 10 else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _metrics(values: dict[str, float], units: dict[str, str]) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def peak_rss_mb(cold: bool) -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cold else resource.RUSAGE_SELF)
    return usage.ru_maxrss / 1024


def end_to_end(records: list[dict], setup: list, rss_mb: float) -> dict:
    return {
        "ops_per_s_ref": sum(rec["ok"] for rec in records) / sum(rec["scaled"] for rec in records),
        "latency_p50_ref_ms": statistics.median(rec["scaled"] for rec in records) * 1000,
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(s[0] * s[3] for s in setup),
    }


def per_layer(records: list[dict], tracer: Tracer, failed: int, setup: list, calib: list) -> dict:
    selfs = self_times(tracer.spans)
    traced = [rec for rec in records if rec["traced"]]
    plain = [rec for rec in records if not rec["traced"]]
    per_metric: dict[str, list[float]] = {name: [] for name in PER_LAYER_UNITS}
    covered = total = 0.0
    for rec in traced:
        spans = selfs[rec["span"]]
        for span_name, metric in SPAN_METRICS.items():
            if span_name in spans:
                per_metric[metric].append(spans[span_name] * 1000)
        for name, value in {**rec.get("probe", {}), **rec.get("counts", {})}.items():
            per_metric[name].append(value)
        total += rec["seconds"]
        covered += rec["seconds"] - spans.get("op", 0.0) - spans.get("trace.setup", 0.0)
    values = {name: _mean(v) for name, v in per_metric.items()}
    full_rank = values["linalg.full_rank_ms"]
    values["certify.non_redundant_per_full_rank"] = (
        values["certify.non_redundant_ms"] / full_rank if full_rank else 0.0
    )
    values["cli.startup_ms"] = statistics.median(s[1] for s in setup) * 1000
    values["cli.import_ms"] = statistics.median(s[2] for s in setup) * 1000
    values["trace.coverage"] = covered / total if total else 0.0
    plain_mean = _mean([rec["scaled"] for rec in plain])
    values["trace.overhead"] = _mean([rec["scaled"] for rec in traced]) / plain_mean if plain_mean else 0.0
    values["latency_p50_ms"] = statistics.median(rec["seconds"] for rec in plain) * 1000
    values["host.calib_ms"] = statistics.median(calib) * 1000
    values["error_rate"] = failed / len(records)
    tail_value, percentile, n = tail([rec["seconds"] for rec in records])
    values["latency_tail_ms"] = tail_value * 1000
    values["latency_tail.percentile"] = percentile
    values["latency_tail.samples"] = n
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: run from a tensorcert checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from perfbench.checker import CheckFailure, check_op

    WORK.mkdir(exist_ok=True)
    env = child_env()
    calib: list[float] = []
    # set-up is sampled through the run, so one slow stretch of the host
    # does not decide its median
    setup = [sample_setup(env, calib)]
    import tensorcert.cli as cli

    kinds = WORKLOADS[args.workload]
    cold = args.workload == COLD_WORKLOAD
    tracer = Tracer() if args.trace else None
    period = len(kinds) * (2 if args.trace else 1)
    instance_file = WORK / "instance.json"
    records: list[dict] = []
    errors: list[str] = []
    rss_mb = None
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed > HARD_LIMIT_S or (
            len(records) >= MIN_OPS and len(records) % period == 0 and elapsed >= args.seconds
        ):
            break
        i = len(records)
        kind = kinds[i % len(kinds)]
        traced = bool(args.trace) and (i // len(kinds)) % 2 == 1
        instance = kind.make(random.Random(f"{args.workload}:{args.seed}:{i}"))
        instance_file.write_text(json.dumps(instance), encoding="utf-8")
        op_argv = [kind.command, "--input", str(instance_file), "--format", "json", *kind.extra]
        op_tracer = tracer if traced else None
        before = calibrate()
        if cold:
            result = run_cold(op_argv, env, op_tracer)
        else:
            result = run_in_process(cli, op_argv, op_tracer)
        calib += [before, calibrate()]
        try:
            out = check_op(kind.command, kind.extra, instance, result.code, result.stdout, result.stderr)
        except CheckFailure as exc:
            errors.append(f"op {i} ({kind.command}): {exc}")
            out = None
        rec = {
            "op": i,
            "command": kind.command,
            "seconds": result.seconds,
            "scaled": result.seconds * host_scale(*calib[-2:]),
            "traced": traced,
            "ok": out is not None,
        }
        if traced:
            rec["span"] = tracer.spans[-1]["op"]
            if out is not None:
                rec["counts"] = search_counts(kind.command, out)
                if kind.command in PROBED_COMMANDS:
                    rec["probe"] = probe(instance)
        records.append(rec)
        if len(records) == MIN_OPS:
            # the caches grow with every op, so read memory at a fixed op
            # count, not at a count that depends on the host's speed
            rss_mb = peak_rss_mb(cold)
        if len(setup) < SETUP_REPS and time.perf_counter() - start >= len(setup) * args.seconds / SETUP_REPS:
            setup.append(sample_setup(env, calib))
    while len(setup) < SETUP_REPS:
        setup.append(sample_setup(env, calib))
    instance_file.unlink(missing_ok=True)
    (WORK / "cold_spans.json").unlink(missing_ok=True)

    failed = len(errors)
    for line in errors[:5]:
        print(f"FAILED {line}")
    if tracer is not None:
        trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"ops": records, "spans": tracer.spans}), encoding="utf-8")
        values = per_layer(records, tracer, failed, setup, calib)
        metrics = _metrics(values, PER_LAYER_UNITS)
    else:
        values = end_to_end(records, setup, rss_mb if rss_mb is not None else peak_rss_mb(cold))
        metrics = _metrics(values, END_TO_END_UNITS)
    print(f"{args.workload} seed {args.seed}: {len(records)} ops, {failed} failed")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

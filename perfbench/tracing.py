"""Spans recorded from outside tensorcert.

The tracer wraps the public functions one module calls in another (for
example ``tensorcert.cli.check_non_redundant``) for the length of one
op, records a span around each call and restores the originals
afterwards.  Calls a module makes to its own functions are not wrapped,
with the exceptions listed in LAYER_CALLS.  A name that a later version
of the program no longer has is skipped, so its time shows up as
``cli.other`` and a lower ``trace.coverage`` instead of an error.

Spans live in memory; ``Tracer.spans`` is written out when the run ends.
Times come from ``time.perf_counter``, which on Linux reads
CLOCK_MONOTONIC and so agrees across processes.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute path, span name): where the program calls into a layer
LAYER_CALLS = (
    ("tensorcert.cli", "instance_from_json", "cli.parse"),
    ("tensorcert.cli", "certificate_to_json", "cli.serialize"),
    ("tensorcert.cli", "comparison_to_json", "cli.serialize"),
    ("tensorcert.cli", "format_certificate_text", "cli.serialize"),
    ("tensorcert.cli", "format_bound_report_text", "cli.serialize"),
    ("tensorcert.cli", "format_kruskal_text", "cli.serialize"),
    ("tensorcert.cli", "format_comparison_text", "cli.serialize"),
    ("tensorcert.certify", "BoundReport.as_json", "cli.serialize"),
    ("tensorcert.kruskal", "KruskalReport.as_json", "cli.serialize"),
    ("json", "dumps", "cli.serialize"),
    ("tensorcert.cli", "check_non_redundant", "certify.non_redundant"),
    ("tensorcert.cli", "bound_cactus_rank", "certify.bound"),
    ("tensorcert.cli", "certify_exact_rank", "certify.exact_rank"),
    ("tensorcert.cli", "certify_identifiability", "certify.identifiability"),
    ("tensorcert.cli", "check_span_intersection_identity", "certify.span_identity"),
    ("tensorcert.cli", "compare_criteria", "kruskal.compare"),
    ("tensorcert.cli", "kruskal_certificate", "kruskal.certificate"),
    ("tensorcert.cli", "comon_certify", "symmetric.comon"),
    ("tensorcert.cli", "symmetric_bounds", "symmetric.bounds"),
    ("tensorcert.kruskal", "check_non_redundant", "certify.non_redundant"),
    ("tensorcert.kruskal", "bound_cactus_rank", "certify.bound"),
    ("tensorcert.kruskal", "certify_exact_rank", "certify.exact_rank"),
    ("tensorcert.kruskal", "certify_identifiability", "certify.identifiability"),
    ("tensorcert.kruskal", "kruskal_certificate", "kruskal.certificate"),
)


def _resolve(module: str, path: str):
    """(owner, attribute) for a dotted path in an importable module, or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    if owner is None or not callable(vars(owner).get(name)):
        return None
    return owner, name


class Tracer:
    """Spans of the form {op, id, parent, name, start, end}, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def add(self, name: str, start: float, end: float, parent: dict | None = None) -> dict:
        """Record a span under ``parent``, by default the innermost open span."""
        parent = parent if parent is not None else (self._stack[-1] if self._stack else None)
        span = {
            "op": parent["op"] if parent else len(self.spans),
            "id": len(self.spans),
            "parent": parent["id"] if parent else None,
            "name": name,
            "start": start,
            "end": end,
        }
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str):
        span = self.add(name, time.perf_counter(), 0.0)
        self._stack.append(span)
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def layers(self):
        """Wrap every call in LAYER_CALLS that exists, restoring on exit."""
        saved = []
        for module, path, name in LAYER_CALLS:
            target = _resolve(module, path)
            if target is None:
                continue
            owner, attr = target
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        try:
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans: list[dict]) -> dict[int, dict[str, float]]:
    """Per op, the seconds each span name spent outside its child spans."""
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        out[span["op"]][span["name"]] += span["end"] - span["start"] - child_time[span["id"]]
    return out

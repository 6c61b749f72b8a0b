"""Command line interface.

Subcommands, in the order of the ``SUBCOMMANDS`` table (name -> help,
handler, flags): certify, identifiability, kruskal, compare, augment,
obstruct, pin, comon, span-check, survey, random.  ``run`` builds only
the subparser that its first argument names; any other first argument,
or none, builds all eleven, the parser that prints the top-level help
and the invalid-choice error.  No parser takes an abbreviated flag.

Each subcommand returns its result as sections (JSON key, text title,
value, text formatter), and ``render`` turns them into the one requested
format.  A value, certificates included, is the JSON object it prints.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple, Sequence

from . import DEFAULT_BOX, AugmentationError
from .certify import (
    ASSERTED,
    CONCLUSION_TEXT,
    FAIL,
    bipartition_masks,
    bound_cactus_rank,
    certify_exact_rank,
    certify_identifiability,
    check_non_redundant,
    check_span_intersection_identity,
    obstruct_alt_decompositions,
    pin_projections,
)
from .geometry import (
    MultiPoint,
    MultiShape,
    PointSet,
    assemble_tensor,
    segre_gram_row,
    segre_scale,
    weighted_sum,
)
from .kruskal import MAX_WALK_BLOCKS, compare_criteria, kruskal_certificate
from .linalg import format_rational, multiple, parse_rationals, primitive
from .symmetric import comon_certify, symmetric_bounds

ENV_SEED = "TENSORCERT_SEED"

EXIT_CERTIFIED = 0
EXIT_NOT_CERTIFIED = 1
EXIT_INVALID = 2
EXIT_PARSE = 3

# random and augment print all M coordinates of the tensor they build
MAX_PRINTED_COORDINATES = 2**20


# ---------------------------------------------------------------------------
# instance files


class InstanceParseError(Exception):
    """Structural problem with an instance file (exit code 3)."""


class SymmetricInstance(NamedTuple):
    degree: int
    points: PointSet
    weights: tuple[Fraction, ...]


class Instance(NamedTuple):
    """A parsed instance file.  A tensor the file gives with its points has
    been checked to be a nonzero multiple of the weighted sum of the
    points, and the weights scaled by that multiple, so the decomposition
    sums to it; it is kept as ``tensor``, None when the file gives none."""

    points: PointSet | None
    weights: tuple[Fraction, ...] | None
    symmetric: SymmetricInstance | None
    tensor: tuple[int | Fraction, ...] | None


def _parse_vector(items, where: str) -> tuple[int | Fraction, ...]:
    if not isinstance(items, list):
        raise InstanceParseError(f"{where} must be an array of rational strings")
    try:
        return parse_rationals(items)
    except ValueError as exc:
        raise InstanceParseError(f"{where}: {exc}") from None


def load_instance(path: str, search: bool = False) -> Instance:
    """The parsed instance file at ``path``; ``search`` as in ``instance_from_json``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise InstanceParseError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # a decode error, or an int past the digit limit
        raise InstanceParseError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InstanceParseError("instance file must be a JSON object")
    return instance_from_json(data, search)


def _check_sum(weights: Sequence[Fraction], s: PointSet, degree: int) -> None:
    """Reject a vanishing sum_j w_j p_j^degree over the Segre rows p_j of
    S's points: degree 1 for the Segre stanza, k for the symmetric one.

    With p_j = c_j P_j for the primitive P_j, the sum is sum_j u_j
    P_j^degree, u_j = w_j c_j^degree up to one common factor.  Its squared
    length is u^T H u for H = G^degree, elementwise, and G the Gram of the
    P_j, read row by row from ``segre_gram_row``.  At degree d, G^d = V W
    V^T for the Veronese rows V and a positive diagonal W of multinomial
    weights, so H is PSD, the sum vanishes exactly when H u = 0, and the
    rows are read only up to the first nonzero entry of H u.
    """
    u = primitive([w * segre_scale(p) ** degree for w, p in zip(weights, s.points)])
    rows = ([g**degree for g in segre_gram_row(p, s.points)] for p in s.points)
    if not any(sum(h * x for h, x in zip(row, u)) for row in rows):
        raise ValueError("the weighted sum of the decomposition vanishes")


def _read_decomposition(stanza: dict, shape: MultiShape | None, name: str) -> tuple[PointSet, tuple]:
    """The points of a stanza, every literal parsed, in index order, before
    any point is built, and its weights, all ones by default.  ``name`` is
    "" for the Segre stanza, whose points have ``shape``, or "symmetric "
    for the symmetric stanza (``shape`` None), whose points are vectors of
    P^n, read as one-factor points once the first has n + 1 coordinates."""
    raw = stanza["points"]
    if not isinstance(raw, list) or not raw:
        raise InstanceParseError(f"{name}points must be a nonempty array")
    vectors = []
    for idx, entry in enumerate(([p] for p in raw) if shape is None else raw):
        if not isinstance(entry, list):
            raise InstanceParseError(f"point {idx} must be an array of coordinate arrays")
        vectors.append(tuple(_parse_vector(f, f"{name}point {idx}") for f in entry))
    if shape is None:
        if (m := len(vectors[0][0])) != (n := stanza["n"]) + 1:
            raise ValueError(f"symmetric points have {m} coordinates, n={n} wants {n + 1}")
        shape = MultiShape((n,))
    points = PointSet(shape, map(MultiPoint, vectors))
    if "weights" not in stanza:
        return points, (Fraction(1),) * len(points)
    return points, tuple(map(Fraction, _parse_vector(stanza["weights"], f"{name}weights")))


def instance_from_json(data: dict, search: bool = False) -> Instance:
    """Parse and check an instance file's JSON object.

    Both stanzas are read and their values checked, Segre then symmetric,
    before any sum.  Then, with ``search`` (a command that searches the
    bipartitions of the factors), a Segre stanza past the search's cap is
    refused, so the Gram rows and M-wide sum that only check it are never
    built; then the Segre sum is checked, and last the symmetric one.
    """
    shape = points = weights = tensor = symmetric = None
    if "dims" in data:
        dims = data["dims"]
        # bool is a subclass of int, so JSON true/false would pass isinstance
        if not isinstance(dims, list) or not dims or not all(type(d) is int for d in dims):
            raise InstanceParseError("dims must be a nonempty array of integers")
        if any(d < 1 for d in dims):
            raise ValueError("every entry of dims must be at least 1")
        shape = MultiShape(tuple(d - 1 for d in dims))
    if "points" in data:
        if shape is None:
            raise InstanceParseError("points given without dims")
        points, weights = _read_decomposition(data, shape, "")
        if len(weights) != len(points):
            raise ValueError(f"{len(weights)} weights for {len(points)} points")
    if "tensor" in data:
        if shape is None:
            raise InstanceParseError("tensor given without dims")
        tensor = _parse_vector(data["tensor"], "tensor")
        if len(tensor) != (m := shape.segre_length()):
            raise ValueError(f"tensor has {len(tensor)} coordinates, shape wants {m}")
        if not any(tensor):
            raise ValueError("the zero tensor has no projective class")
    if points is None:
        tensor = None  # checked, but without points it stands for nothing
    elif not all(weights):
        raise ValueError("weights must be nonzero")
    if "symmetric" in data:
        sym = data["symmetric"]
        if not isinstance(sym, dict):
            raise InstanceParseError("symmetric stanza must be an object")
        for key in ("n", "k", "points"):
            if key not in sym:
                raise InstanceParseError(f"symmetric stanza is missing {key!r}")
        if type(sym["n"]) is not int or type(sym["k"]) is not int:
            raise InstanceParseError("symmetric n and k must be integers")
        if sym["k"] < 1:
            raise ValueError("symmetric k must be at least 1")
        symmetric = SymmetricInstance(sym["k"], *_read_decomposition(sym, None, "symmetric "))
        if len(symmetric.weights) != len(symmetric.points):
            raise ValueError("symmetric weights and points disagree in length")
        if not all(symmetric.weights):
            raise ValueError("symmetric weights must be nonzero")
    if points is not None:
        if search:
            bipartition_masks(shape.k)
        if tensor is None:
            _check_sum(weights, points, 1)
        else:
            # total is sum_j u_j P_j with _check_sum's u, so it settles H u = 0
            c, total = weighted_sum(weights, points)
            if not any(total):
                raise ValueError("the weighted sum of the decomposition vanishes")
            if primitive(tensor) != primitive(total):
                raise ValueError("tensor disagrees with the weighted sum of the points")
            scale = multiple(tensor, total) / c
            weights = tuple(scale * w for w in weights)
    # distinct points have independent Veronese rows from degree r - 1
    # on, and independent rows with nonzero weights cannot sum to zero
    if symmetric is not None and symmetric.degree < len(symmetric.points) - 1:
        _check_sum(symmetric.weights, symmetric.points, symmetric.degree)
    return Instance(points, weights, symmetric, tensor)


def _need_points(inst: Instance) -> tuple[PointSet, tuple[Fraction, ...]]:
    if inst.points is None:
        raise ValueError("this subcommand needs dims and points in the instance file")
    return inst.points, inst.weights


def _check_printable(shape: MultiShape) -> None:
    if (m := shape.segre_length()) > MAX_PRINTED_COORDINATES:
        cap = f"more than the {MAX_PRINTED_COORDINATES} this command prints"
        raise ValueError(f"shape {shape} has {m} tensor coordinates, {cap}")


def _digit_limit() -> int:
    """The most digits str() prints of an int, the interpreter's limit (0: none)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _printed_instance(
    output: str, s: PointSet, weights: Sequence[Fraction], tensor: Sequence[Fraction]
) -> dict:
    """``pointset_to_json``, refusing in one line a number that str() refuses."""
    try:
        return pointset_to_json(s, weights, tensor)
    except ValueError:  # an int past the interpreter's digit limit
        cap = f"the {_digit_limit()}-digit limit on printed integers"
        raise ValueError(f"{output} has a number past {cap}") from None


def pointset_to_json(
    s: PointSet,
    weights: Sequence[Fraction] | None = None,
    tensor: Sequence[Fraction] | None = None,
) -> dict:
    out: dict = {
        "dims": list(s.shape.sizes),
        "points": [
            [[format_rational(x) for x in f] for f in p.factors] for p in s.points
        ],
    }
    if weights is not None:
        out["weights"] = [format_rational(w) for w in weights]
    if tensor is not None:
        out["tensor"] = [format_rational(x) for x in tensor]
    return out


# ---------------------------------------------------------------------------
# output: the text form of each kind of section value

# (JSON key, text title, value, text formatter); a section without a key
# merges into the top-level JSON object, one without a title prints
# without a header
Section = tuple[str | None, str | None, object, Callable[[object], str]]


def _conclusion_line(cert: dict) -> str:
    if cert["conclusion"] is None:
        failed = ", ".join(h["name"] for h in cert["hypotheses"] if h["status"] == FAIL) or "none listed"
        return f"conclusion: NOT CERTIFIED (unsatisfied hypotheses: {failed})"
    text = CONCLUSION_TEXT[cert["claim"]].format(**cert["conclusion"])
    return f"conclusion: {text} [{cert['theorem_ref']}]"


def format_certificate_text(cert: dict) -> str:
    lines = [f"claim: {cert['claim']}"]
    for h in cert["hypotheses"]:
        suffix = " (not verified)" if h["status"] == ASSERTED else ""
        witness = f" {json.dumps(h['witness'], sort_keys=True)}" if h["witness"] else ""
        lines.append(f"hypothesis: {h['name']}: {h['status']}{suffix}{witness}")
    lines.append(_conclusion_line(cert))
    return "\n".join(lines)


def _partition_label(part: dict) -> str:
    return "{" + ",".join(map(str, part["E"])) + "}/{" + ",".join(map(str, part["F"])) + "}"


def format_bound_report_text(report: dict) -> str:
    lines = []
    for entry in report["per_partition"]:
        label, bound = _partition_label(entry["partition"]), entry["bound"]
        if entry["applicable"]:
            lines.append(f"partition {label}: applicable, bound {bound}")
        else:
            extra = f", bound {bound}" if bound is not None else ""
            lines.append(f"partition {label}: not applicable ({entry['reason']}{extra})")
    if report["best_partition"] is not None:
        label = _partition_label(report["best_partition"])
        lines.append(f"best bound: {report['best_bound']} via {label}")
    else:
        lines.append(f"best bound: {report['best_bound']} (trivial, no applicable partition)")
    lines.append(format_certificate_text(report["certificate"]))
    return "\n".join(lines)


def format_kruskal_text(report: dict | None) -> str:
    if report is None:
        return f"Kruskal baseline not computed (a factor's walk passes {MAX_WALK_BLOCKS} blocks)"
    ranks = ", ".join(map(str, report["per_factor_kruskal_rank"]))
    lines = [
        f"factor Kruskal ranks: {ranks}",
        f"condition: {report['condition_lhs']} >= {report['condition_rhs']} "
        f"({'holds' if report['applies'] else 'fails'})",
    ]
    if report["applies"]:
        lines.append(
            f"conclusion: the decomposition of {report['cardinality']} points is unique "
            "(Kruskal baseline)"
        )
    else:
        lines.append("conclusion: Kruskal baseline not applicable")
    return "\n".join(lines)


def format_compare_flags_text(flags: dict) -> str:
    return (
        "flattening criteria apply: %s; Kruskal applies: %s; flattening without Kruskal: %s"
        % tuple("yes" if flag else "no" for flag in flags.values())
    )


def format_survey_text(report: dict) -> str:
    lines = [
        f"{'shape':>12} {'r':>3} {'trials':>6} {'exact':>6} {'ident':>6} "
        f"{'kruskal':>7} {'advantage':>9}"
    ]
    for row in report["rows"]:
        shape = MultiShape(tuple(d - 1 for d in row["dims"]))
        lines.append(
            f"{str(shape):>12} {row['r']:>3} {row['trials']:>6} {row['certified_exact_rank']:>6} "
            f"{row['certified_minimal_or_identifiable']:>6} {row['kruskal_applies']:>7} "
            f"{row['flattening_without_kruskal']:>9}"
        )
    return "\n".join(lines)


def format_symmetric_bounds_text(bounds: dict) -> str:
    exceptional = str(bounds["exceptional"]).lower()
    return f"bounds: r0={bounds['r0']} rg={bounds['rg']} exceptional={exceptional}"


# the JSON text of a leaf, by its exact type; a subclass takes the long way
_JSON_LEAVES: dict = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_text(value: object, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` of an acyclic value, byte for byte,
    from C-encoded leaves.

    ``json.dumps`` runs its pure-Python encoder whenever it indents; here
    strings go through the C ``encode_basestring_ascii`` and ints through
    ``int.__repr__`` (with its ValueError past the digit limit), and
    only what is left (floats, subclasses of str or int, dicts with
    non-string keys, objects json refuses) goes to ``json.dumps``.
    ``newline`` is the line break and indent of the level ``value`` sits at.
    """
    leaves = _JSON_LEAVES
    if type(value) in leaves:
        return leaves[type(value)](value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [leaves[type(v)](v) if type(v) in leaves else _json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        try:
            items = [
                encode_basestring_ascii(k)
                + ": "
                + (leaves[type(v)](v) if type(v) in leaves else _json_text(v, inner))
                for k, v in value.items()
            ]
        except TypeError:  # a key that is not a string, or a value json refuses
            pass
        else:
            return "{" + inner + ("," + inner).join(items) + newline + "}"
    # a JSON text holds no raw line break, so every one is an indent
    return json.dumps(value, indent=2).replace("\n", newline)


def render(sections: Sequence[Section], fmt: str) -> str:
    """Build only the requested format of the sections."""
    if fmt == "json":
        out: dict = {}
        for key, _, value, _ in sections:
            out.update(value if key is None else {key: value})
        return _json_text(out)
    lines = []
    for _, title, value, text in sections:
        if title is not None:
            lines.append(f"== {title} ==")
        lines.append(text(value))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# flag parsing helpers


def _ints(text: str, error: str) -> list[int]:
    """The comma-separated integers in ``text``, blank entries skipped;
    ``error`` when an entry is not an integer."""
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ValueError(error) from None


def parse_partition_flag(text: str, k: int) -> int:
    """The E-bitmask (bit i - 1 for factor i) of a bipartition ``1,2/3``."""
    parts = text.split("/")
    if len(parts) != 2:
        raise ValueError(f"partition {text!r} must look like '1,2/3'")
    error = f"partition {text!r} has non-integer entries"
    e, f = (tuple(sorted(_ints(side, error))) for side in parts)
    named = e + f
    if (bad := next((i for i in named if not 1 <= i <= k), None)) is not None:
        raise ValueError(f"partition {text!r} names factor {bad}, not one of the {k} factors")
    if (twice := min((i for i, n in Counter(named).items() if n > 1), default=None)) is not None:
        raise ValueError(f"partition {text!r} names factor {twice} twice")
    if len(named) != k:
        raise ValueError(f"partition {text!r} does not cover the {k} factors")
    if not e or not f:
        raise ValueError(f"partition {text!r} leaves a side empty")
    return sum(1 << (i - 1) for i in e)


def parse_families_flag(text: str, k: int) -> list[tuple[int, ...]]:
    groups = text.split(":")
    if len(groups) != k:
        raise ValueError(f"--families needs {k} colon-separated groups, got {len(groups)}")
    return [tuple(sorted(_ints(g, f"family {g!r} has non-integer entries"))) for g in groups]


def parse_index_list(text: str, size: int, what: str) -> list[int]:
    indices = _ints(text, f"{what} {text!r} has non-integer entries")
    if not indices:
        raise ValueError(f"{what} must select at least one point")
    for i in indices:
        if i < 0 or i >= size:
            raise ValueError(f"{what} index {i} out of range for {size} points")
    if len(set(indices)) != len(indices):
        raise ValueError(f"{what} has repeated indices")
    return indices


def parse_shapes_flag(text: str) -> list[MultiShape]:
    shapes = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            dims = [int(x) for x in chunk.split("x")]
        except ValueError:
            raise ValueError(f"shape {chunk!r} must look like '3x4x6'") from None
        if any(d < 1 for d in dims):
            raise ValueError(f"shape {chunk!r} has entries below 1")
        shapes.append(MultiShape(tuple(d - 1 for d in dims)))
    if not shapes:
        raise ValueError("--shapes selected nothing")
    return shapes


def parse_r_flag(text: str) -> Sequence[int]:
    """The cardinalities ``--r`` selects.  A ``lo-hi`` range stays a
    ``range`` and is checked by its ends, so its length costs no memory."""
    text = text.strip()
    try:
        if "-" in text[1:]:
            lo, hi = (int(x) for x in text.split("-", 1))
            selected: Sequence[int] = range(lo, hi + 1)
            least = lo
        else:
            selected = [int(x) for x in text.split(",") if x.strip()]
            least = min(selected, default=0)
    except ValueError:
        raise ValueError(f"--r {text!r} must look like '6', '2-4' or '1,3'") from None
    if isinstance(selected, range) and not selected:
        raise ValueError(f"--r {text!r} is an empty range")
    if least < 1:
        raise ValueError(f"--r {text!r} must select positive cardinalities")
    return selected


def resolve_seed(args: argparse.Namespace) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get(ENV_SEED)
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{ENV_SEED}={env!r} is not an integer") from None
    return 0


# ---------------------------------------------------------------------------
# subcommands


def _exit_code(certified: bool) -> int:
    return EXIT_CERTIFIED if certified else EXIT_NOT_CERTIFIED


def _certificate_only(cert: dict) -> tuple[list[Section], int]:
    return [(None, None, cert, format_certificate_text)], _exit_code(cert["conclusion"] is not None)


def cmd_certify(args: argparse.Namespace) -> tuple[list[Section], int]:
    # a search past its cap is refused before any Gram is built
    points, weights = _need_points(load_instance(args.input, search=args.partition is None))
    partition = None
    if args.partition is not None:
        partition = parse_partition_flag(args.partition, points.shape.k)
    nr = check_non_redundant(points, weights)
    report = bound_cactus_rank(points, weights, partition)
    exact = certify_exact_rank(points, weights, partition)
    sections = [
        ("non_redundant", "non-redundancy", nr, format_certificate_text),
        ("cactus_bound", "cactus rank lower bound", report, format_bound_report_text),
        ("exact_rank", "exact rank", exact, format_certificate_text),
    ]
    return sections, _exit_code(exact["conclusion"] is not None)


def cmd_identifiability(args: argparse.Namespace) -> tuple[list[Section], int]:
    return _certificate_only(certify_identifiability(*_need_points(load_instance(args.input))))


def cmd_kruskal(args: argparse.Namespace) -> tuple[list[Section], int]:
    points, _ = _need_points(load_instance(args.input))
    report = kruskal_certificate(points)
    return [(None, None, report, format_kruskal_text)], _exit_code(report["applies"])


def cmd_compare(args: argparse.Namespace) -> tuple[list[Section], int]:
    # a search past its cap is refused before any Gram is built
    points, weights = _need_points(load_instance(args.input, search=True))
    out = compare_criteria(points, weights)
    flags = ("flattening_applies", "kruskal_applies", "flattening_without_kruskal")
    sections = [
        ("non_redundant", "non-redundancy", out["non_redundant"], format_certificate_text),
        ("cactus_bound", "cactus rank lower bound", out["cactus_bound"], format_bound_report_text),
        ("exact_rank", "exact rank", out["exact_rank"], format_certificate_text),
        ("identifiability", "identifiability", out["identifiability"], format_certificate_text),
        ("kruskal", "kruskal baseline", out["kruskal"], format_kruskal_text),
        (None, None, {key: out[key] for key in flags}, format_compare_flags_text),
    ]
    return sections, _exit_code(out["flattening_applies"] or out["kruskal_applies"])


def cmd_augment(args: argparse.Namespace) -> tuple[list[Section], int]:
    from .construct import augment_decomposition

    inst = load_instance(args.input)
    points, weights = _need_points(inst)
    _check_printable(points.shape)
    seed = resolve_seed(args)
    bigger, new_weights, cert = augment_decomposition(points, weights, seed=seed, box=args.box)
    # the parsed weights sum to the tensor the file gives, if it gives one
    tensor = assemble_tensor(weights, points) if inst.tensor is None else inst.tensor
    decomposition = _printed_instance("the decomposition augment prints", bigger, new_weights, tensor)
    sections = [
        ("decomposition", None, decomposition, _json_text),
        ("certificate", None, cert, format_certificate_text),
    ]
    return sections, EXIT_CERTIFIED


def cmd_obstruct(args: argparse.Namespace) -> tuple[list[Section], int]:
    return _certificate_only(obstruct_alt_decompositions(*_need_points(load_instance(args.input)), args.x))


def cmd_pin(args: argparse.Namespace) -> tuple[list[Section], int]:
    points, weights = _need_points(load_instance(args.input))
    families = parse_families_flag(args.families, points.shape.k)
    return _certificate_only(
        pin_projections(points, weights, families, quasi_general_asserted=args.assert_quasi_general)
    )


def cmd_comon(args: argparse.Namespace) -> tuple[list[Section], int]:
    inst = load_instance(args.input)
    if inst.symmetric is None:
        raise ValueError("this subcommand needs a symmetric stanza in the instance file")
    sym = inst.symmetric
    cert = comon_certify(sym.points, sym.weights, sym.degree)
    n, k, limit = sym.points.shape.dims[0], sym.degree, _digit_limit()
    # rg >= C(n + k, n) / (n + 1) >= ((n + k) // n)^n / (n + 1) >= 2^low, so a
    # low past the limit refuses before comb builds rg in full
    low = n and n * (((n + k) // n).bit_length() - 1) - (n + 1).bit_length()
    bounds = None if limit and low >= (10**limit).bit_length() else symmetric_bounds(n, k)
    if bounds is None or limit and max(bounds["r0"], bounds["rg"]) >= 10**limit:
        raise ValueError(
            f"symmetric k has {len(str(k))} digits, "
            f"and its bounds pass the {limit}-digit limit on printed integers"
        )
    sections = [
        ("certificate", None, cert, format_certificate_text),
        ("bounds", None, bounds, format_symmetric_bounds_text),
    ]
    return sections, _exit_code(cert["conclusion"] is not None)


def cmd_span_check(args: argparse.Namespace) -> tuple[list[Section], int]:
    points, _ = _need_points(load_instance(args.input))
    idx_a = parse_index_list(args.a, len(points), "--a")
    idx_b = parse_index_list(args.b, len(points), "--b")
    set_a = PointSet(points.shape, tuple(points.points[i] for i in idx_a))
    set_b = PointSet(points.shape, tuple(points.points[i] for i in idx_b))
    return _certificate_only(check_span_intersection_identity(set_a, set_b))


def cmd_survey(args: argparse.Namespace) -> tuple[list[Section], int]:
    from .construct import survey

    shapes = parse_shapes_flag(args.shapes)
    r_values = parse_r_flag(args.r)
    seed = resolve_seed(args)
    report = survey(shapes, r_values, args.trials, seed=seed, box=args.box)
    return [(None, None, report, format_survey_text)], EXIT_CERTIFIED


def cmd_random(args: argparse.Namespace) -> tuple[list[Section], int]:
    from .construct import random_decomposition

    shapes = parse_shapes_flag(args.shape)
    if len(shapes) != 1:
        raise ValueError("--shape must name exactly one shape")
    shape = shapes[0]
    seed = resolve_seed(args)
    if args.r < 1:
        raise ValueError(f"--r must be at least 1, got {args.r}")
    _check_printable(shape)
    # the points print too: r of them, sum(sizes) coordinates each
    if (m := args.r * sum(shape.sizes)) > MAX_PRINTED_COORDINATES:
        cap = f"more than the {MAX_PRINTED_COORDINATES} this command prints"
        raise ValueError(f"{args.r} points of shape {shape} have {m} coordinates, {cap}")
    s, weights = random_decomposition(shape, args.r, box=args.box, seed=seed)
    instance = _printed_instance("the instance random prints", s, weights, assemble_tensor(weights, s))
    return [(None, None, instance, _json_text)], EXIT_CERTIFIED


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # keep errors one-line and machine readable
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


_INPUT = ("--input", {"required": True, "help": "instance JSON file"})
_FORMAT = ("--format", {"choices": ("json", "text"), "default": "text"})
_SEED = ("--seed", {"type": int, "default": None})
_BOX = ("--box", {"type": int, "default": DEFAULT_BOX})

# name -> (help, handler, flags), in help order; each flag is the
# (name, keywords) of one add_argument call
SUBCOMMANDS: dict = {
    "certify": ("non-redundancy, cactus bound and exact rank", cmd_certify, (
        _INPUT, _FORMAT, ("--partition", {"help": "bipartition of the factors, e.g. 1,2/3"}))),
    "identifiability": ("minimality and uniqueness certificate", cmd_identifiability, (_INPUT, _FORMAT)),
    "kruskal": ("k-way Kruskal baseline", cmd_kruskal, (_INPUT, _FORMAT)),
    "compare": ("flattening criteria next to the Kruskal baseline", cmd_compare, (_INPUT, _FORMAT)),
    "augment": ("extend the decomposition by one point", cmd_augment, (_INPUT, _FORMAT, _SEED, _BOX)),
    "obstruct": ("rule out small alternatives with injective projections", cmd_obstruct, (
        _INPUT, _FORMAT,
        ("--x", {"type": int, "required": True, "help": "cardinality budget for alternatives"}))),
    "pin": ("pin factor projections of small alternatives", cmd_pin, (
        _INPUT, _FORMAT,
        ("--families", {"required": True, "help": "one factor subset per factor, colon separated, e.g. 1,2:1,2:3"}),
        ("--assert-quasi-general", {
            "action": "store_true",
            "help": "assert quasi-generality of the family projections (never verified)",
        }))),
    "comon": ("symmetric rank agreement certificate", cmd_comon, (_INPUT, _FORMAT)),
    "span-check": ("span intersection identity on two subsets", cmd_span_check, (
        _INPUT, _FORMAT,
        ("--a", {"required": True, "help": "comma separated 0-based point indices"}),
        ("--b", {"required": True, "help": "comma separated 0-based point indices"}))),
    "survey": ("criterion tallies over random decompositions", cmd_survey, (
        _FORMAT,
        ("--shapes", {"required": True, "help": "comma separated sizes, e.g. 3x4x6,2x2"}),
        ("--r", {"required": True, "help": "cardinalities, e.g. 6 or 2-4 or 1,3"}),
        ("--trials", {"type": int, "default": 20}), _SEED, _BOX)),
    # the instance file it writes is JSON, so random takes no --format and
    # run prints it as JSON
    "random": ("sample a seeded random instance file", cmd_random, (
        ("--shape", {"required": True, "help": "sizes, e.g. 3x4x6"}),
        ("--r", {"type": int, "required": True}), _SEED, _BOX)),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with the one subparser ``command`` names, or all of them."""
    parser = _Parser(
        prog="tensorcert",
        description="""\
Exact rank certificates for tensor decompositions.

Input is a JSON instance file; rationals are strings "p" or "p/q" with
the sign on the numerator.  The default seed comes from the
TENSORCERT_SEED environment variable when set.

exit codes: 0 certified, 1 not certified, 2 invalid input, 3 parse error""",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False,
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS if command is None else (command,):
        help_text, handler, flags = SUBCOMMANDS[name]
        sub = subs.add_parser(name, help=help_text, allow_abbrev=False)
        for flag, keywords in flags:
            sub.add_argument(flag, **keywords)
        sub.set_defaults(handler=handler)
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # argparse hands every token after a subcommand's name to that
    # subparser alone, so the others need not exist
    parser = build_parser(argv[0] if argv and argv[0] in SUBCOMMANDS else None)
    try:
        args = parser.parse_args(argv)
        # argparse reads --flag=-- as an empty list, and no flag here takes a list
        for dest in (d for d, v in vars(args).items() if isinstance(v, list)):
            parser.error(f"argument --{dest}: expected one argument")
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    try:
        sections, code = args.handler(args)
    except InstanceParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except AugmentationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CERTIFIED
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        print(render(sections, getattr(args, "format", "json")))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away; send what is left to devnull so that the
        # flush at interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

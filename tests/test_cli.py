"""Command line interface: instance files, serialization, exit codes."""

import argparse
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tensorcert import certify, cli, construct, geometry, kruskal, linalg, symmetric
from tensorcert.certify import (
    bound_cactus_rank,
    certificate,
    certify_exact_rank,
    certify_identifiability,
    check_non_redundant,
    check_span_intersection_identity,
    obstruct_alt_decompositions,
    pin_projections,
)
from tensorcert.cli import (
    EXIT_CERTIFIED,
    EXIT_INVALID,
    EXIT_NOT_CERTIFIED,
    EXIT_PARSE,
    InstanceParseError,
    format_certificate_text,
    instance_from_json,
    load_instance,
    parse_families_flag,
    parse_index_list,
    parse_partition_flag,
    parse_r_flag,
    parse_shapes_flag,
    pointset_to_json,
    run,
)
from tensorcert.construct import random_decomposition
from tensorcert.geometry import (
    MultiShape,
    PointSet,
    assemble_tensor,
)
from tensorcert.kruskal import MAX_WALK_BLOCKS, compare_criteria
from tensorcert.linalg import format_rational
from tensorcert.symmetric import symmetric_bounds
from oracles import changed_basis_point_set, changed_basis_tensor, gauss_rank
from test_golden import DATA as GOLDEN
from test_golden import transcript


def write_instance(tmp_path, data, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def seeded_instance(dims, r, seed, box=9):
    sizes = tuple(d + 1 for d in dims)
    s, weights = random_decomposition(MultiShape(dims), r, box=box, seed=seed)
    data = pointset_to_json(s, weights)
    assert data["dims"] == list(sizes)
    return data, s, weights


@pytest.fixture()
def three_factor_file(tmp_path):
    data, _, _ = seeded_instance((2, 3, 5), 6, seed=11)
    return write_instance(tmp_path, data)


# -- instance parsing


def test_load_instance_round_trips_points_and_weights(tmp_path):
    data, s, weights = seeded_instance((1, 2), 3, seed=5)
    inst = load_instance(write_instance(tmp_path, data))
    assert inst.points.shape == s.shape
    assert inst.points == s
    # no tensor is given, so the weights are the file's: they stand for it
    assert inst.weights == weights
    assert inst.symmetric is None


def test_instance_accepts_a_consistent_explicit_tensor():
    data, s, weights = seeded_instance((1, 1), 2, seed=3)
    tensor = assemble_tensor(weights, s)
    # any nonzero rescaling of the coordinates names the same tensor, and
    # the weights are scaled to sum to it exactly
    data["tensor"] = [format_rational(-3 * x) for x in tensor]
    inst = instance_from_json(data)
    assert assemble_tensor(inst.weights, inst.points) == tuple(-3 * x for x in tensor)
    assert inst.weights == tuple(-3 * w for w in weights)


def test_instance_rejects_a_contradictory_tensor():
    data, s, weights = seeded_instance((1, 1), 2, seed=3)
    coords = list(assemble_tensor(weights, s))
    coords[0] += 1
    data["tensor"] = [format_rational(x) for x in coords]
    with pytest.raises(ValueError, match="disagrees"):
        instance_from_json(data)


def test_instance_defaults_weights_to_one():
    data, s, _ = seeded_instance((1, 1), 2, seed=3)
    del data["weights"]
    inst = instance_from_json(data)
    assert inst.weights == (Fraction(1), Fraction(1))


def test_instance_structural_errors_are_parse_errors():
    with pytest.raises(InstanceParseError):
        instance_from_json({"dims": "nope"})
    with pytest.raises(InstanceParseError):
        instance_from_json({"dims": []})
    with pytest.raises(InstanceParseError):
        instance_from_json({"points": [[["1", "0"]]]})
    with pytest.raises(InstanceParseError):
        instance_from_json({"dims": [2, 2], "points": [[["1", "x"]]]})
    with pytest.raises(InstanceParseError):
        instance_from_json({"dims": [2], "tensor": [1, 0]})
    with pytest.raises(InstanceParseError):
        instance_from_json({"symmetric": {"n": 1, "k": 2}})
    # JSON booleans are not integers, although Python's bool subclasses int
    with pytest.raises(InstanceParseError):
        instance_from_json({"dims": [True, 2]})
    with pytest.raises(InstanceParseError):
        instance_from_json({"symmetric": {"n": True, "k": 2, "points": [["1", "0"]]}})
    with pytest.raises(InstanceParseError):
        instance_from_json({"symmetric": {"n": 1, "k": True, "points": [["1", "0"]]}})


def test_instance_semantic_errors_are_value_errors():
    with pytest.raises(ValueError):
        instance_from_json({"dims": [0, 2]})
    with pytest.raises(ValueError):
        instance_from_json(
            {"dims": [2, 2], "points": [[["1", "0"], ["1", "0"]]], "weights": ["1", "2"]}
        )


@pytest.mark.parametrize("k", [0, -1, -5])
@pytest.mark.parametrize("command", ["comon", "certify"])
def test_symmetric_degree_below_one_is_rejected_at_parse_time(tmp_path, capsys, command, k):
    path = write_instance(tmp_path, {"symmetric": {"n": 1, "k": k, "points": [["1", "2"]]}})
    assert run([command, "--input", path]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: symmetric k must be at least 1\n"


def test_symmetric_stanza_parsing():
    inst = instance_from_json(
        {
            "symmetric": {
                "n": 1,
                "k": 4,
                "points": [["1", "0"], ["0", "1"]],
                "weights": ["2", "3"],
            }
        }
    )
    sym = inst.symmetric
    assert sym.points.shape.dims == (1,) and sym.degree == 4
    assert len(sym.points) == 2
    assert sym.weights == (2, 3)
    assert inst.points is None


def test_given_tensor_validation_and_projective_equality():
    # one point, whose Segre vector is (1, 2, 0, 0)
    base = {"dims": [2, 2], "points": [[["1", "0"], ["1", "2"]]]}
    with pytest.raises(ValueError, match="^tensor has 3 coordinates, shape wants 4$"):
        instance_from_json(dict(base, tensor=["1", "2", "0"]))
    with pytest.raises(ValueError, match="^the zero tensor has no projective class$"):
        instance_from_json(dict(base, tensor=["0"] * 4))
    # a tensor given without points is checked the same way
    with pytest.raises(ValueError, match="^tensor has 3 coordinates, shape wants 4$"):
        instance_from_json({"dims": [2, 2], "tensor": ["1", "2", "0"]})
    with pytest.raises(InstanceParseError, match="^tensor given without dims$"):
        instance_from_json({"tensor": ["1"]})
    for given, weight in ((["3", "6", "0", "0"], 3), (["-1/2", "-1", "0", "0"], Fraction(-1, 2))):
        inst = instance_from_json(dict(base, tensor=given))
        assert assemble_tensor(inst.weights, inst.points) == tuple(Fraction(x) for x in given)
        assert inst.weights == (weight,)
    for given in (["1", "2", "0", "1"], ["2", "1", "0", "0"]):
        with pytest.raises(ValueError, match="^tensor disagrees with the weighted sum of the points$"):
            instance_from_json(dict(base, tensor=given))


def test_instance_weight_checks_run_in_input_order():
    # the third point's Segre vector is the sum of the first two's
    points = [[["1", "0"], ["1", "0"]], [["1", "0"], ["0", "1"]], [["1", "0"], ["1", "1"]]]
    seg = {"dims": [2, 2], "points": points}
    e11 = ["1", "0", "0", "0"]
    cases = [
        # one weight per point, checked before the tensor is read
        (dict(seg, weights=["1", "1"], tensor=[1]), ValueError, "^2 weights for 3 points$"),
        (dict(seg, weights=["1", "0", "1"], tensor=[1]), InstanceParseError, "^tensor: "),
        (dict(seg, weights=["1", "0", "1"], tensor=["1"]), ValueError, "^tensor has 1 coordinates"),
        (dict(seg, weights=["1", "0", "1"], tensor=["0"] * 4), ValueError, "^the zero tensor"),
        # then the weights themselves, then the tensor against their sum
        (dict(seg, weights=["1", "0", "1"], tensor=e11), ValueError, "^weights must be nonzero$"),
        (dict(seg, weights=["1", "1", "-1"], tensor=e11), ValueError, "vanishes$"),
        (dict(seg, weights=["2", "2", "-2"]), ValueError, "vanishes$"),
        (dict(seg, weights=["1", "1", "1"], tensor=e11), ValueError, "^tensor disagrees"),
    ]
    sym = {"n": 1, "k": 1, "points": [["1", "0"], ["0", "1"], ["1", "1"]]}
    cases += [
        ({"symmetric": dict(sym, weights=["1"])}, ValueError, "^symmetric weights and points disagree in length$"),
        ({"symmetric": dict(sym, weights=["1", "0", "1"])}, ValueError, "^symmetric weights must be nonzero$"),
        ({"symmetric": dict(sym, weights=["1", "1", "-1"])}, ValueError, "vanishes$"),
        # rescaled points: p^k scales by c^k, so -1/2 * (2, 2) cancels (1, 0) + (0, 1) at k = 1
        ({"symmetric": dict(sym, points=[["1", "0"], ["0", "1"], ["2", "2"]], weights=["1", "1", "-1/2"])}, ValueError, "vanishes$"),
        ({"symmetric": dict(sym, k=2, points=[["1", "0"], ["0", "1"], ["2", "2"]], weights=["1", "1", "-1/2"])}, None, None),
    ]
    for data, error, message in cases:
        if error is None:
            instance_from_json(data)
            continue
        with pytest.raises(error, match=message):
            instance_from_json(data)


BAD_LITERAL = "invalid rational literal 'x' (expected 'p' or 'p/q')"


@pytest.mark.parametrize(
    "command, data, message",
    [
        # point 0 has a zero factor, but point 1's literal is read first
        ("certify", {"dims": [2, 2], "points": [[["0", "0"], ["1", "0"]], [["1", "x"], ["1", "1"]]]},
         f"point 1: {BAD_LITERAL}"),
        ("comon", {"symmetric": {"n": 1, "k": 2, "points": [["0", "0"], ["1", "x"]]}},
         f"symmetric point 1: {BAD_LITERAL}"),
        ("certify", {"dims": [2], "points": [[["0", "0"]], "x"]}, "point 1 must be an array of coordinate arrays"),
        ("comon", {"symmetric": {"n": 1, "k": 2, "points": [["0", "0"], "x"]}},
         "symmetric point 1 must be an array of rational strings"),
    ],
)
def test_a_stanza_parses_every_literal_before_it_builds_a_point(command, data, message, tmp_path, capsys):
    assert run([command, "--input", write_instance(tmp_path, data)]) == EXIT_PARSE
    assert capsys.readouterr() == ("", f"error: {message}\n")


# the third point's Segre vector is the sum of the first two's
DEPENDENT_POINTS = [[["1", "0"], ["1", "0"]], [["1", "0"], ["0", "1"]], [["1", "0"], ["1", "1"]]]


@pytest.mark.parametrize(
    "segre, segre_error",
    [
        ({"weights": ["1", "1", "-1"]}, "the weighted sum of the decomposition vanishes"),
        ({"weights": ["1", "1", "-1"], "tensor": ["1", "0", "0", "0"]}, "the weighted sum of the decomposition vanishes"),
        ({"tensor": ["1", "0", "0", "0"]}, "tensor disagrees with the weighted sum of the points"),
    ],
)
@pytest.mark.parametrize(
    "sym, code, message",
    [
        ({"n": 1, "k": 1, "points": "x"}, EXIT_PARSE, "symmetric points must be a nonempty array"),
        ({"n": 1, "k": 1, "points": [["1", "0"], ["0", "0"]]}, EXIT_INVALID, "factor 1 of a point must be a nonzero vector"),
        ({"n": 1, "k": 1, "points": [["1", "0"], ["0", "1"]], "weights": ["1", "0"]}, EXIT_INVALID,
         "symmetric weights must be nonzero"),
    ],
)
def test_a_symmetric_stanza_error_comes_before_the_segre_sums(segre, segre_error, sym, code, message, tmp_path, capsys):
    # every stanza is read and checked before any sum
    data = {"dims": [2, 2], "points": DEPENDENT_POINTS, **segre}
    with pytest.raises(ValueError, match=f"^{segre_error}$"):
        instance_from_json(data)
    assert run(["certify", "--input", write_instance(tmp_path, dict(data, symmetric=sym))]) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_load_instance_missing_file_and_bad_json(tmp_path):
    with pytest.raises(InstanceParseError):
        load_instance(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InstanceParseError):
        load_instance(str(bad))
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    with pytest.raises(InstanceParseError):
        load_instance(str(array))


# -- certificate serialization


SYMMETRIC_POINTS = tuple(geometry.MultiPoint((p,)) for p in ((1, 0, 0), (0, 1, 0), (1, 1, 1)))
CERTIFIERS = {
    "non_redundant": check_non_redundant,
    "redundant": lambda s, w: check_non_redundant(s, (0,) + w[1:]),
    "bound": bound_cactus_rank,
    "exact_rank": certify_exact_rank,
    "identifiability": certify_identifiability,
    "obstruct": lambda s, w: obstruct_alt_decompositions(s, w, 1),
    "pin": lambda s, w: pin_projections(s, w, [(1, 2), (2, 3), (1, 3)], quasi_general_asserted=True),
    "span_check": lambda s, w: check_span_intersection_identity(
        geometry.PointSet(s.shape, s.points[:3]), geometry.PointSet(s.shape, s.points[2:])
    ),
    "comon": lambda s, w: symmetric.comon_certify(
        geometry.PointSet(MultiShape((2,)), SYMMETRIC_POINTS), (1, -2, Fraction(1, 2)), 4
    ),
    "compare": compare_criteria,
}


@pytest.mark.parametrize("name", CERTIFIERS)
def test_certificate_json_round_trip(name):
    # a certificate is plain JSON: no tuple, Fraction or object leaks into it
    data, s, weights = seeded_instance((2, 3, 5), 6, seed=11)
    out = CERTIFIERS[name](s, weights)
    assert json.loads(json.dumps(out)) == out


json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.text()
    | st.text(st.characters(max_codepoint=0x7F))
    | st.floats()
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    | st.dictionaries(st.one_of(st.integers(), st.booleans(), st.none(), st.text()), inner, max_size=3),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
@example({"a": [], "b": {}, "c": (), "é\n\"\\": ["\U0001f600", -1, True, None]})
def test_json_text_is_json_dumps_with_indent(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


def test_json_text_refuses_an_int_past_the_digit_limit_as_json_dumps_does():
    limit = sys.get_int_max_str_digits()
    for value in (10**limit, {"tensor": ["1", -(10**limit)]}):
        with pytest.raises(ValueError) as expected:
            json.dumps(value, indent=2)
        with pytest.raises(ValueError) as got:
            cli._json_text(value)
        assert str(got.value) == str(expected.value)


def test_format_certificate_text_lines():
    data, s, weights = seeded_instance((1, 1), 2, seed=3)
    cert = check_non_redundant(s, weights)
    text = format_certificate_text(cert)
    assert text.splitlines()[0] == "claim: NonRedundant"
    assert "conclusion: non-redundant decomposition of cardinality 2" in text


CONCLUSION_LINES = {
    "NonRedundant": (
        {"cardinality": 2},
        "conclusion: non-redundant decomposition of cardinality 2 [t]",
    ),
    "CactusRankLowerBound": (
        {"cactus_rank_at_least": 5, "rank_at_least": 5, "partition": {"E": [1], "F": [2]}},
        "conclusion: cactus rank >= 5, hence rank >= 5 [t]",
    ),
    "ExactRank": (
        {"rank": 6, "cactus_rank": 6, "partition": {"E": [1], "F": [2, 3]}},
        "conclusion: rank = cactus rank = 6 [t]",
    ),
    "MinimalRank": (
        {"rank": 3, "minimal": True, "identifiable": False},
        "conclusion: rank = 3, the decomposition is minimal [t]",
    ),
    "Identifiable": (
        {"rank": 2, "minimal": True, "identifiable": True},
        "conclusion: rank = 2, the decomposition is minimal and unique [t]",
    ),
    "DifferentCoordinatesObstruction": (
        {"cardinality": 4, "alternative_max_cardinality": 2, "statement": "s"},
        "conclusion: alternative decompositions with at most 2 points cannot have "
        "injective projections [t]",
    ),
    "ProjectionPinning": (
        {"cardinality": 3, "usable_families": [1, 3], "pinned_factors": [1, 2, 3]},
        "conclusion: projections on factors [1, 2, 3] are pinned for alternatives with "
        "at most 3 points [t]",
    ),
    "SpanIntersectionIdentity": (
        {"intersection_dim": 1, "rhs": 1},
        "conclusion: span intersection dimension 1 matches the cohomology side 1 [t]",
    ),
}


def test_every_claim_has_its_conclusion_line():
    claims = {v for k, v in vars(certify).items() if k.startswith("CLAIM_")}
    assert claims == set(CONCLUSION_LINES)
    for claim, (conclusion, line) in CONCLUSION_LINES.items():
        cert = certificate(claim, "t", [], conclusion)
        assert format_certificate_text(cert).splitlines()[-1] == line


# -- flag parsing


def test_parse_partition_flag():
    # the E-bitmask, bit i - 1 for factor i
    assert parse_partition_flag("1,2/3", 3) == 0b011
    assert parse_partition_flag("3/1,2", 3) == 0b100
    with pytest.raises(ValueError):
        parse_partition_flag("1,2", 3)
    with pytest.raises(ValueError):
        parse_partition_flag("1/2", 3)
    with pytest.raises(ValueError):
        parse_partition_flag("1,a/3", 3)


@pytest.mark.parametrize("text", ["1,2,3/", "/1,2,3"])
def test_a_partition_with_an_empty_side_is_refused_by_the_flag_parser(text, three_factor_file, capsys):
    message = f"partition {text!r} leaves a side empty"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_partition_flag(text, 3)
    assert run(["certify", "--input", three_factor_file, "--partition", text]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_parse_shapes_and_r_flags():
    shapes = parse_shapes_flag("3x4x6,2x2")
    assert [s.dims for s in shapes] == [(2, 3, 5), (1, 1)]
    with pytest.raises(ValueError):
        parse_shapes_flag("3x0")
    with pytest.raises(ValueError):
        parse_shapes_flag(",")
    assert parse_r_flag("6") == [6]
    assert list(parse_r_flag("2-4")) == [2, 3, 4]
    assert parse_r_flag("1,3") == [1, 3]
    with pytest.raises(ValueError):
        parse_r_flag("0")


# -- subcommands and exit codes


def test_certify_subcommand_text(three_factor_file, capsys):
    code = run(
        ["certify", "--input", three_factor_file, "--partition", "1,2/3"]
    )
    out = capsys.readouterr().out
    assert code == EXIT_CERTIFIED
    assert "rank = cactus rank = 6" in out
    assert "partition {1,2}/{3}: applicable, bound 6" in out
    assert "best bound: 6 via {1,2}/{3}" in out


def test_certify_subcommand_json(three_factor_file, capsys):
    code = run(["certify", "--input", three_factor_file, "--format", "json"])
    assert code == EXIT_CERTIFIED
    payload = json.loads(capsys.readouterr().out)
    assert payload["exact_rank"]["conclusion"]["rank"] == 6
    assert payload["non_redundant"]["claim"] == "NonRedundant"
    assert payload["cactus_bound"]["best_bound"] == 6


@pytest.mark.parametrize("dims, r, seed", [((2, 3, 5), 6, 11), ((1, 2, 2), 7, 4), ((1, 1, 1, 1), 5, 2)])
def test_certify_prints_the_same_after_a_change_of_basis(dims, r, seed, tmp_path, capsys):
    # an invertible integer matrix acts on each factor of every point, and
    # their Kronecker product on the given tensor
    data, s, weights = seeded_instance(dims, r, seed)
    rng = random.Random(seed)
    matrices = []
    for n in s.shape.sizes:
        g = [[0]]
        while gauss_rank(g) < n:
            g = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        matrices.append(g)
    moved = pointset_to_json(changed_basis_point_set(s, matrices), weights)
    tensor = assemble_tensor(weights, s)
    data["tensor"] = [format_rational(x) for x in tensor]
    moved["tensor"] = [format_rational(x) for x in changed_basis_tensor(tensor, s.shape.sizes, matrices)]
    runs = []
    for name, instance in (("given.json", data), ("moved.json", moved)):
        code = run(["certify", "--input", write_instance(tmp_path, instance, name), "--format", "json"])
        runs.append((code, capsys.readouterr()))
    assert runs[0] == runs[1]


def test_certify_inconsistent_tensor_is_invalid(tmp_path, capsys):
    data = {
        "dims": [2, 2],
        "points": [[["1", "0"], ["1", "0"]], [["0", "1"], ["0", "1"]]],
        "tensor": ["1", "0", "0", "0"],
        "weights": ["1", "1"],
    }
    code = run(["certify", "--input", write_instance(tmp_path, data)])
    assert code == EXIT_INVALID
    assert "disagrees" in capsys.readouterr().err


def test_certify_not_certified_exit(tmp_path, capsys):
    # three points sharing the first factor: evaluation vectors dependent
    data = {
        "dims": [3, 2],
        "points": [
            [["1", "1", "1"], ["1", "0"]],
            [["1", "1", "1"], ["0", "1"]],
            [["1", "1", "1"], ["1", "1"]],
        ],
    }
    code = run(["certify", "--input", write_instance(tmp_path, data)])
    out = capsys.readouterr().out
    assert code == EXIT_NOT_CERTIFIED
    assert "NOT CERTIFIED" in out


def test_certify_bad_partition_is_invalid(three_factor_file, capsys):
    code = run(["certify", "--input", three_factor_file, "--partition", "1/2"])
    assert code == EXIT_INVALID
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("1,1/2,3", "partition '1,1/2,3' names factor 1 twice"),
        ("1,2/2,3", "partition '1,2/2,3' names factor 2 twice"),
        ("0/1,2,3", "partition '0/1,2,3' names factor 0, not one of the 3 factors"),
        ("1,2/3,4", "partition '1,2/3,4' names factor 4, not one of the 3 factors"),
    ],
)
def test_certify_partition_names_each_of_the_k_factors_once(three_factor_file, capsys, text, message):
    code = run(["certify", "--input", three_factor_file, "--partition", text])
    assert code == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "dims, r, ranked",
    [((1,) * 8, 9, 93), ((2,) * 10, 12, 175), ((2, 3, 5), 6, 4), ((1, 1, 1, 7), 7, 8)],
)
def test_certify_ranks_only_subsets_without_an_independent_subset(
    tmp_path, monkeypatch, capsys, dims, r, ranked
):
    # generic points: on 2^8 r=9 every subset of at most 3 factors is
    # eliminated (2^3 = r - 1), and so is the whole set's prefix of 4,
    # first, for non-redundancy: 8 + 28 + 56 + 1; each 3-factor subset has
    # corank one, so its kernel support settles the other 69 subsets of 4
    # factors.  On 3^10 r=12 every subset of at most 3 factors is
    # eliminated (3^2 < 12 <= 3^3), and none has corank one.  On 3x4x6 r=6
    # and 2x2x2x8 r=7 the last factor alone is independent, and a subset
    # that holds it has a dependent parent, its prefix without the last
    # factor: only an independent subset one factor short settles it, so
    # 4 and 8 subsets are eliminated (6 and 14 without that lookup)
    data, _, _ = seeded_instance(dims, r, seed=1)
    calls = []
    pivot_rows = geometry._pivot_rows
    monkeypatch.setattr(geometry, "_pivot_rows", lambda gram, n: calls.append(gram) or pivot_rows(gram, n))
    code = run(["certify", "--input", write_instance(tmp_path, data), "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_CERTIFIED
    assert len(out["cactus_bound"]["per_partition"]) == 2 ** len(dims) - 2
    # one elimination per ranked subset: the whole set contains an
    # independent prefix, so its rank takes none
    assert len(calls) == ranked


def test_compare_walks_only_the_factor_whose_minor_vanishes(tmp_path, monkeypatch, capsys):
    # generic points on 5x5x5 r=11: each factor's 11 columns have rank 5 and
    # Kruskal rank 5, which the minors of its reduced matrix settle, so no
    # factor walks
    data, s, weights = seeded_instance((4, 4, 4), 11, seed=1)
    calls = []
    walk = kruskal._kruskal_walk
    monkeypatch.setattr(kruskal, "_kruskal_walk", lambda *args: calls.append(args) or walk(*args))
    code = run(["compare", "--input", write_instance(tmp_path, data), "--format", "json"])
    assert code == EXIT_NOT_CERTIFIED
    assert json.loads(capsys.readouterr().out)["kruskal"]["per_factor_kruskal_rank"] == [5, 5, 5]
    assert len(calls) == 0
    # with point 5's first factor the sum of the first four, that factor has
    # a dependent set of 5 columns, so a minor vanishes and it walks, on the
    # rows of its factor matrix, from kappa = 4; the other two factors
    # still walk none
    points = list(s.points)
    points[4] = points[4].replace_factor(1, [sum(p.factors[0][i] for p in points[:4]) for i in range(5)])
    pooled = PointSet(s.shape, tuple(points))
    path = write_instance(tmp_path, pointset_to_json(pooled, weights), "pooled.json")
    code = run(["compare", "--input", path, "--format", "json"])
    assert code in (EXIT_CERTIFIED, EXIT_NOT_CERTIFIED)
    assert json.loads(capsys.readouterr().out)["kruskal"]["per_factor_kruskal_rank"] == [4, 5, 5]
    assert calls == [(list(zip(*(p.canonical()[0] for p in pooled.points))), 4)]


def test_certify_empty_partition_is_invalid(three_factor_file, capsys):
    # an empty value is a partition that does not parse, not a missing flag
    assert run(["certify", "--input", three_factor_file, "--partition="]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: partition '' must look like '1,2/3'\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["survey", "--shapes=--", "--r", "1", "--trials", "0"],
        ["random", "--shape", "2x2", "--r=--"],
        ["random", "--shape", "2x2", "--r", "1", "--seed=--"],
    ],
)
def test_a_flag_given_as_double_dash_exits_2(argv, capsys):
    # argparse hands --flag=-- over as an empty list instead of a string
    assert run(argv) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    flag = next(a for a in argv if a.endswith("=--")).removesuffix("=--")
    assert captured.err == f"error: argument {flag}: expected one argument\n"


def test_missing_file_is_a_parse_error(tmp_path, capsys):
    code = run(["certify", "--input", str(tmp_path / "none.json")])
    assert code == EXIT_PARSE
    assert "error:" in capsys.readouterr().err


def test_bad_json_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{]")
    code = run(["certify", "--input", str(path)])
    assert code == EXIT_PARSE
    capsys.readouterr()


@pytest.mark.parametrize(
    "content, reason",
    [
        (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0"),
        (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
        (b'{"dims": ' + b"1" * 5000 + b"}", "Exceeds the limit (4300 digits)"),
    ],
    ids=["not_utf8", "nested_past_the_decoder_limit", "number_past_the_int_digit_limit"],
)
def test_unreadable_json_is_a_parse_error(tmp_path, capsys, content, reason):
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    assert run(["certify", "--input", str(path)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} is not valid JSON: {reason}")
    assert err.count("\n") == 1


def test_random_refuses_a_tensor_too_wide_to_print(capsys):
    start = time.perf_counter()
    assert run(["random", "--shape", "1000x1000x1000", "--r", "2"]) == EXIT_INVALID
    assert time.perf_counter() - start < 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: shape 1000x1000x1000 has 1000000000 tensor coordinates,"
        f" more than the {cli.MAX_PRINTED_COORDINATES} this command prints\n"
    )


def test_random_refuses_more_point_coordinates_than_it_prints(capsys, monkeypatch):
    # 10^6 tensor coordinates pass the shape check, but 10^9 points of
    # 2000 coordinates each do not, and nothing is drawn
    monkeypatch.setattr(construct, "random_decomposition", None)
    start = time.perf_counter()
    assert run(["random", "--shape", "1000x1000", "--r", "1000000000"]) == EXIT_INVALID
    assert time.perf_counter() - start < 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: 1000000000 points of shape 1000x1000 have 2000000000000 coordinates,"
        f" more than the {cli.MAX_PRINTED_COORDINATES} this command prints\n"
    )


def test_random_point_coordinate_cap_is_inclusive(capsys):
    # 2x2 points have 4 coordinates: 2^18 of them reach the cap exactly and
    # go on to the box check, which P^1 at box 9 fails; one more does not
    at_cap = cli.MAX_PRINTED_COORDINATES // 4
    assert run(["random", "--shape", "2x2", "--r", str(at_cap)]) == EXIT_INVALID
    assert "could not sample" in capsys.readouterr().err
    assert run(["random", "--shape", "2x2", "--r", str(at_cap + 1)]) == EXIT_INVALID
    assert capsys.readouterr().err == (
        f"error: {at_cap + 1} points of shape 2x2 have {4 * at_cap + 4} coordinates,"
        f" more than the {cli.MAX_PRINTED_COORDINATES} this command prints\n"
    )


def test_survey_refuses_a_point_too_wide_to_sample(capsys, monkeypatch):
    # the first shape is fine, but nothing is sampled before the second is refused
    monkeypatch.setattr(construct, "random_decomposition", None)
    start = time.perf_counter()
    assert run(["survey", "--shapes", "2x2,99999999999x2", "--r", "1", "--trials", "1"]) == EXIT_INVALID
    assert time.perf_counter() - start < 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: shape 99999999999x2 has 100000000001 coordinates per point,"
        f" more than the {construct.MAX_POINT_COORDINATES} survey samples\n"
    )


@pytest.mark.parametrize(
    "r, top",
    [("20000", 20000), ("1-100000000000", 100000000000), ("5,2049,2", 2049)],
    ids=["one", "range", "list"],
)
def test_survey_refuses_factor_grams_past_its_entry_cap(r, top, capsys, monkeypatch):
    # each trial builds k factor Grams of r x r entries; the largest r is
    # read off a range's ends, and nothing is drawn
    monkeypatch.setattr(construct, "random_decomposition", None)
    start = time.perf_counter()
    argv = ["survey", "--shapes", "2x2", "--r", r, "--box", "1000", "--trials", "1"]
    assert run(argv) == EXIT_INVALID
    assert time.perf_counter() - start < 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {top} points of shape 2x2 have {2 * top * top} factor Gram entries,"
        f" more than the {construct.MAX_GRAM_ENTRIES} survey builds\n"
    )


SEVENTEEN_FACTORS_REFUSED = (
    "error: 17 factors have 2^17 - 2 bipartitions, more than the 65536 the search takes\n"
)


def test_survey_refuses_more_than_16_factors_before_any_draw(capsys, monkeypatch):
    # the first shape is fine, but no trial of it runs before the second is refused
    def draw(*args, **kwargs):
        raise AssertionError("drew a decomposition")

    monkeypatch.setattr(construct, "random_decomposition", draw)
    argv = ["survey", "--shapes", "6x6x6," + "x".join(["2"] * 17), "--r", "22", "--trials", "50"]
    start = time.perf_counter()
    assert run(argv) == EXIT_INVALID
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == SEVENTEEN_FACTORS_REFUSED


@pytest.mark.parametrize("r", [2, 400])
@pytest.mark.parametrize("command", ["certify", "compare"])
def test_certify_and_compare_refuse_more_than_16_factors_before_any_rank(
    command, r, tmp_path, capsys, monkeypatch
):
    # every flattening rank is a _pivot_rows call in geometry, every Kruskal
    # rank starts with a gauss_jordan call in kruskal and may go on to its
    # walk, and every Gram is built from integer_gram's factor Grams: the
    # parser's vanishing-sum check builds none of them
    def refuse(*args):
        raise AssertionError("built or ranked a Gram")

    for module, name in [
        (geometry, "_pivot_rows"),
        (kruskal, "gauss_jordan"),
        (kruskal, "_kruskal_walk"),
        (geometry, "integer_gram"),
        (geometry, "segre_gram_row"),
        (cli, "segre_gram_row"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    points = [[["1", str(j)]] + [["1", "0"]] * 16 for j in range(r)]
    path = write_instance(tmp_path, {"dims": [2] * 17, "points": points})
    start = time.perf_counter()
    assert run([command, "--input", path]) == EXIT_INVALID
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == SEVENTEEN_FACTORS_REFUSED


@pytest.mark.parametrize("command", ["certify", "compare"])
def test_a_17_factor_file_that_does_not_parse_is_a_parse_error_first(command, tmp_path, capsys):
    # the search's refusal waits for the whole file: a bad symmetric stanza still exits 3
    points = [[["1", "0"]] * 17, [["0", "1"]] * 17]
    path = write_instance(tmp_path, {"dims": [2] * 17, "points": points, "symmetric": []})
    assert run([command, "--input", path]) == EXIT_PARSE
    assert capsys.readouterr().err == "error: symmetric stanza must be an object\n"


@pytest.mark.parametrize(
    "command, err",
    [("certify", SEVENTEEN_FACTORS_REFUSED), ("comon", "error: the weighted sum of the decomposition vanishes\n")],
)
def test_the_search_refusal_comes_before_the_symmetric_sum(command, err, tmp_path, capsys):
    # the symmetric weighted sum vanishes, but certify refuses the search first
    sym = {"n": 1, "k": 1, "points": [["1", "0"], ["0", "1"], ["1", "1"]], "weights": ["1", "1", "-1"]}
    points = [[["1", "0"]] * 17, [["0", "1"]] * 17]
    path = write_instance(tmp_path, {"dims": [2] * 17, "points": points, "symmetric": sym})
    assert run([command, "--input", path]) == EXIT_INVALID
    assert capsys.readouterr() == ("", err)


def test_survey_factor_gram_entry_cap_is_inclusive(capsys, monkeypatch):
    # 2 factor Grams of 2048 x 2048 reach the cap exactly and go on to the
    # first draw, so 2000 points of 2x2 are surveyed
    def draw(shape, r, **_):
        raise ValueError(f"drew {r}")

    monkeypatch.setattr(construct, "random_decomposition", draw)
    assert 2 * 2048**2 == construct.MAX_GRAM_ENTRIES
    assert run(["survey", "--shapes", "2x2", "--r", "2048", "--trials", "1"]) == EXIT_INVALID
    assert capsys.readouterr().err == "error: drew 2048\n"


def test_augment_refuses_a_tensor_too_wide_to_print(tmp_path, capsys, monkeypatch):
    # 2^21 coordinates, one more factor than the cap allows; augmenting is never reached
    monkeypatch.setattr(construct, "augment_decomposition", None)
    path = write_instance(tmp_path, {"dims": [2] * 21, "points": [[["1", "0"]] * 21], "weights": ["1"]})
    assert run(["augment", "--input", path]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: shape {'x'.join(['2'] * 21)} has 2097152 tensor coordinates,"
        f" more than the {cli.MAX_PRINTED_COORDINATES} this command prints\n"
    )


def test_unknown_subcommand_is_invalid(capsys):
    assert run(["frobnicate"]) == EXIT_INVALID
    assert run([]) == EXIT_INVALID
    assert run(["certify"]) == EXIT_INVALID
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["survey", "--shapes", "2x2", "--r", "1", "--tri", "2"], "unrecognized arguments: --tri 2"),
        (["certify", "--input", "FILE", "--form", "json"], "unrecognized arguments: --form json"),
        (["kruskal", "--in", "x"], "the following arguments are required: --input"),
    ],
)
def test_an_abbreviated_flag_is_not_read_as_the_full_one(argv, message, three_factor_file, capsys):
    assert run([three_factor_file if a == "FILE" else a for a in argv]) == EXIT_INVALID
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_the_top_level_help_is_written_for_users(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(["--help"]) == EXIT_CERTIFIED
    out = capsys.readouterr().out
    assert "\nexit codes: 0 certified, 1 not certified, 2 invalid input, 3 parse error\n" in out
    assert "TENSORCERT_SEED" in out
    assert "SUBCOMMANDS" not in out and "render" not in out


def _with_every_subparser(monkeypatch, run_one):
    """What ``run_one()`` gives when ``run`` builds all eleven subparsers."""
    full = cli.build_parser
    with monkeypatch.context() as patch:
        patch.setattr(cli, "build_parser", lambda command=None: full())
        return run_one()


HELP_AND_ERROR_ARGVS = [
    [],
    ["--help"],
    ["-h", "certify"],
    *([name, "--help"] for name in cli.SUBCOMMANDS),
    ["bogus"],
    ["cert"],
    ["--format", "json", "certify"],
    ["pin", "--input", "x"],
    ["certify", "--input", "x", "--bogus"],
    ["kruskal", "--in", "x"],
    ["certify", "--input=--"],
]


@pytest.mark.parametrize("argv", HELP_AND_ERROR_ARGVS, ids=" ".join)
def test_the_one_subparser_parses_as_all_eleven_do(argv, tmp_path, monkeypatch):
    # run builds only the subparser argv[0] names; exit code, stdout and
    # stderr must be those of the parser that holds every subcommand
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)  # no file named x
    got = transcript(None, argv, tmp_path)
    assert got == _with_every_subparser(monkeypatch, lambda: transcript(None, argv, tmp_path))


def test_every_golden_run_parses_as_with_all_eleven_subparsers(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for entry in GOLDEN["runs"]:
        instance = GOLDEN["instances"].get(entry.get("instance"))
        got = transcript(instance, entry["argv"], tmp_path)
        full = _with_every_subparser(monkeypatch, lambda: transcript(instance, entry["argv"], tmp_path))
        assert (entry["argv"], got) == (entry["argv"], full)


def test_a_named_subcommand_builds_its_subparser_alone(three_factor_file, capsys, monkeypatch):
    built = []
    add_parser = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(
        argparse._SubParsersAction,
        "add_parser",
        lambda self, name, **options: built.append(name) or add_parser(self, name, **options),
    )
    assert run(["certify", "--input", three_factor_file]) == EXIT_CERTIFIED
    assert built == ["certify"]
    # without argv, run reads sys.argv
    monkeypatch.setattr(sys, "argv", ["tensorcert", "kruskal", "--input", three_factor_file])
    assert run() == EXIT_NOT_CERTIFIED
    assert built == ["certify", "kruskal"]
    built.clear()
    assert run(["--help"]) == EXIT_CERTIFIED
    assert built == list(cli.SUBCOMMANDS) and len(built) == 11
    capsys.readouterr()


def test_identifiability_subcommand(tmp_path, capsys):
    data, _, _ = seeded_instance((2, 1, 1, 1), 2, seed=21)
    code = run(["identifiability", "--input", write_instance(tmp_path, data)])
    out = capsys.readouterr().out
    assert code == EXIT_CERTIFIED
    assert "claim: Identifiable" in out
    assert "minimal and unique" in out


def test_identifiability_not_certified_exit(tmp_path, capsys):
    data, _, _ = seeded_instance((2, 2, 2), 5, seed=23)
    code = run(["identifiability", "--input", write_instance(tmp_path, data)])
    capsys.readouterr()
    assert code == EXIT_NOT_CERTIFIED


def test_kruskal_subcommand(three_factor_file, capsys):
    code = run(["kruskal", "--input", three_factor_file])
    out = capsys.readouterr().out
    assert code == EXIT_NOT_CERTIFIED
    assert "condition: 13 >= 14 (fails)" in out
    assert "not applicable" in out


def test_kruskal_applies_exit_zero(tmp_path, capsys):
    data, _, _ = seeded_instance((1, 1, 1), 2, seed=17)
    code = run(["kruskal", "--input", write_instance(tmp_path, data)])
    out = capsys.readouterr().out
    assert code == EXIT_CERTIFIED
    assert "condition: 6 >= 6 (holds)" in out


def test_compare_subcommand(three_factor_file, capsys):
    code = run(["compare", "--input", three_factor_file, "--format", "json"])
    assert code == EXIT_CERTIFIED
    payload = json.loads(capsys.readouterr().out)
    assert payload["flattening_applies"] is True
    assert payload["kruskal_applies"] is False
    assert payload["flattening_without_kruskal"] is True


def test_compare_text_flags_line(three_factor_file, capsys):
    code = run(["compare", "--input", three_factor_file])
    out = capsys.readouterr().out
    assert code == EXIT_CERTIFIED
    assert (
        "flattening criteria apply: yes; Kruskal applies: no; "
        "flattening without Kruskal: yes" in out
    )


def test_compare_past_the_kruskal_walk_budget_skips_only_the_baseline(tmp_path, capsys):
    # 40 points of 12x12x12 ask each factor's Kruskal walk for more blocks
    # than its budget, the flattening criteria do not walk, so compare
    # reports the baseline as not computed
    r = 40
    data, _, _ = seeded_instance((11, 11, 11), r, seed=29)
    path = write_instance(tmp_path, data)
    code = run(["compare", "--input", path, "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code in (EXIT_CERTIFIED, EXIT_NOT_CERTIFIED)
    assert payload["kruskal"] is None
    assert payload["kruskal_applies"] is False
    assert payload["non_redundant"]["conclusion"] == {"cardinality": r}
    assert run(["compare", "--input", path]) == code
    out = capsys.readouterr().out
    assert "== kruskal baseline ==\nKruskal baseline not computed (" in out
    assert "Kruskal applies: no;" in out
    # the kruskal subcommand itself refuses, before any walk
    start = time.perf_counter()
    assert run(["kruskal", "--input", path]) == EXIT_INVALID
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err == (
        f"error: {r} columns of rank 12 ask for up to 1221246132 Kruskal walk blocks, "
        f"more than the {MAX_WALK_BLOCKS} that kruskal builds\n"
    )


def test_kruskal_settles_by_minors_what_the_walk_budget_refuses(tmp_path, capsys, monkeypatch):
    # 22 points of 20x20x20 would ask each factor's walk for 4192510 blocks,
    # past the budget, but the C(22, 20) = 231 column sets of size 20 are
    # few: every minor of each reduced factor matrix is nonzero, so every
    # factor has Kruskal rank 20, with no walk, and 60 >= 2 * 22 + 2 holds
    data, _, _ = seeded_instance((19, 19, 19), 22, seed=1)
    path = write_instance(tmp_path, data)
    assert sum(comb(22, j) for j in range(20 - 1)) == 4192510 > MAX_WALK_BLOCKS
    monkeypatch.setattr(kruskal, "_kruskal_walk", None)
    start = time.perf_counter()
    assert run(["kruskal", "--input", path, "--format", "json"]) == EXIT_CERTIFIED
    assert time.perf_counter() - start < 5
    report = json.loads(capsys.readouterr().out)
    assert report["per_factor_kruskal_rank"] == [20, 20, 20]
    assert (report["condition_lhs"], report["condition_rhs"], report["applies"]) == (60, 46, True)
    assert run(["compare", "--input", path, "--format", "json"]) in (EXIT_CERTIFIED, EXIT_NOT_CERTIFIED)
    assert json.loads(capsys.readouterr().out)["kruskal"]["per_factor_kruskal_rank"] == [20, 20, 20]


def test_kruskal_walks_more_than_20_points_within_its_budget(tmp_path, capsys):
    # 21 points of 3x3x3 need at most 1 + 21 blocks per factor walk; in
    # each factor of this sample three of them are collinear, as the
    # exhaustive definition also finds
    data, _, _ = seeded_instance((2, 2, 2), 21, seed=1)
    path = write_instance(tmp_path, data)
    assert run(["kruskal", "--input", path, "--format", "json"]) == EXIT_NOT_CERTIFIED
    assert json.loads(capsys.readouterr().out)["per_factor_kruskal_rank"] == [2, 2, 2]
    assert run(["compare", "--input", path, "--format", "json"]) in (EXIT_CERTIFIED, EXIT_NOT_CERTIFIED)
    assert json.loads(capsys.readouterr().out)["kruskal"]["per_factor_kruskal_rank"] == [2, 2, 2]


def test_augment_subcommand(three_factor_file, capsys):
    code = run(
        ["augment", "--input", three_factor_file, "--seed", "7", "--format", "json"]
    )
    assert code == EXIT_CERTIFIED
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["decomposition"]["points"]) == 7
    assert payload["certificate"]["claim"] == "NonRedundant"
    assert payload["certificate"]["conclusion"] == {"cardinality": 7}
    # the emitted decomposition must reload as a valid instance
    inst = instance_from_json(payload["decomposition"])
    assert len(inst.points) == 7


def test_augment_out_of_passes_exits_1(three_factor_file, capsys, monkeypatch):
    monkeypatch.setattr(construct, "_try_augment", lambda a, pivots, rng, box: None)
    code = run(["augment", "--input", three_factor_file, "--seed", "7"])
    assert code == EXIT_NOT_CERTIFIED
    assert capsys.readouterr() == ("", "error: augmentation failed after 32 attempts\n")


def test_augment_respects_the_seed_env_var(three_factor_file, capsys, monkeypatch):
    monkeypatch.setenv("TENSORCERT_SEED", "7")
    code = run(["augment", "--input", three_factor_file, "--format", "json"])
    assert code == EXIT_CERTIFIED
    from_env = json.loads(capsys.readouterr().out)
    code = run(
        ["augment", "--input", three_factor_file, "--seed", "7", "--format", "json"]
    )
    assert code == EXIT_CERTIFIED
    from_flag = json.loads(capsys.readouterr().out)
    assert from_env == from_flag


def test_bad_seed_env_var_is_invalid(three_factor_file, capsys, monkeypatch):
    monkeypatch.setenv("TENSORCERT_SEED", "up")
    code = run(["augment", "--input", three_factor_file])
    assert code == EXIT_INVALID
    assert "TENSORCERT_SEED" in capsys.readouterr().err


def test_obstruct_subcommand_exit_codes(three_factor_file, capsys):
    assert run(["obstruct", "--input", three_factor_file, "--x", "1"]) == EXIT_CERTIFIED
    capsys.readouterr()
    assert (
        run(["obstruct", "--input", three_factor_file, "--x", "2"])
        == EXIT_NOT_CERTIFIED
    )
    capsys.readouterr()
    assert run(["obstruct", "--input", three_factor_file, "--x", "0"]) == EXIT_INVALID
    capsys.readouterr()
    assert run(["obstruct", "--input", three_factor_file, "--x", "3"]) == EXIT_INVALID
    capsys.readouterr()


def test_obstruct_past_the_subset_cap_exits_2_before_ranking(tmp_path, capsys):
    # C(24, 12) = 2,704,156 subsets would take minutes to rank
    data = {"dims": [2] * 24, "points": [[["1", "0"]] * 24, [["0", "1"]] * 24]}
    start = time.perf_counter()
    assert run(["obstruct", "--input", write_instance(tmp_path, data), "--x", "12"]) == EXIT_INVALID
    assert time.perf_counter() - start < 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: x=12 with k=24 asks for 2704156 factor subsets of size 12, "
        "more than the 65536 that obstruct ranks\n"
    )


def test_pin_subcommand(tmp_path, capsys):
    data, _, _ = seeded_instance((2, 2, 5), 6, seed=31)
    path = write_instance(tmp_path, data)
    code = run(
        [
            "pin",
            "--input",
            path,
            "--families",
            "1,2:1,2:3",
            "--assert-quasi-general",
        ]
    )
    out = capsys.readouterr().out
    assert code == EXIT_CERTIFIED
    assert "quasi-general: ASSERTED (not verified)" in out
    assert "pinned" in out
    code = run(["pin", "--input", path, "--families", "1,2:1,2:3"])
    capsys.readouterr()
    assert code == EXIT_NOT_CERTIFIED
    code = run(["pin", "--input", path, "--families", "1,2:1,2"])
    assert code == EXIT_INVALID
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "families, message",
    [
        (":2:3", "factor subset must be nonempty"),
        ("1,1:2:3", "factor subset (1, 1) has repeated indices"),
        ("4:2:3", "factor subset (4,) out of range for k=3"),
    ],
)
def test_pin_refuses_a_bad_family_with_one_line(families, message, three_factor_file, capsys):
    assert run(["pin", "--input", three_factor_file, "--families", families]) == EXIT_INVALID
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_walks_over_many_factors_finish_in_time(tmp_path, capsys):
    # 2 points on (P^1)^300: obstruct --x 1 walks about 45,000 factor
    # subsets, and pin asks for 600; every subset asks its parent first.
    # On (P^1)^1000 the walk holds 499,500 subsets, whose bitmasks would
    # share 1,891 int hashes: keyed by their bytes, they take seconds, not minutes
    for k, bound in [(300, 1.5), (1000, 4)]:
        points = [[["1", "0"]] * k, [["0", "1"]] + [["1", str(j + 1)] for j in range(k - 1)]]
        path = write_instance(tmp_path, {"dims": [2] * k, "points": points})
        families = ":".join(map(str, range(1, k + 1)))
        for argv, code in [(["obstruct", "--x", "1"], EXIT_CERTIFIED), (["pin", "--families", families], EXIT_NOT_CERTIFIED)]:
            start = time.perf_counter()
            assert run([argv[0], "--input", path, *argv[1:]]) == code
            assert time.perf_counter() - start < bound, (k, argv[0])
            assert capsys.readouterr().err == ""


def test_comon_subcommand(tmp_path, capsys):
    rng_points = [
        ["1", "0", "0"],
        ["0", "1", "0"],
        ["0", "0", "1"],
        ["1", "1", "0"],
        ["1", "0", "1"],
        ["0", "1", "1"],
        ["1", "1", "1"],
        ["1", "2", "3"],
        ["1", "-1", "2"],
        ["2", "1", "-1"],
    ]
    data = {"symmetric": {"n": 2, "k": 6, "points": rng_points}}
    path = write_instance(tmp_path, data)
    code = run(["comon", "--input", path])
    out = capsys.readouterr().out
    assert code == EXIT_CERTIFIED
    assert "rank = cactus rank = 10" in out
    assert "bounds: r0=10 rg=10 exceptional=false" in out


def test_comon_at_a_huge_degree_never_raises_a_power(tmp_path, capsys):
    # two distinct points are independent in every degree >= 1, so neither
    # the parser nor comon needs <p, q>^k
    data = {"symmetric": {"n": 1, "k": 10**9, "points": [["1", "2"], ["3", "-1"]]}}
    path = write_instance(tmp_path, data)
    start = time.perf_counter()
    code = run(["comon", "--input", path, "--format", "json"])
    assert time.perf_counter() - start < 2
    assert code == EXIT_CERTIFIED
    out = json.loads(capsys.readouterr().out)
    assert out["certificate"]["conclusion"]["vanishing_degree"] == 5 * 10**8


def comon_run(tmp_path, k, fmt):
    data = {"symmetric": {"n": 2, "k": k, "points": [["1", "0", "0"], ["0", "1", "0"]]}}
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(["comon", "--input", write_instance(tmp_path, data), "--format", fmt])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_comon_bounds_past_the_printed_digit_limit_exit_2_with_one_line(tmp_path, fmt):
    # at n = 2 the bound rg is about k^2 / 6: 4300 digits at k = 10^2150,
    # more than Python prints at k = 10^2200
    code, out, err = comon_run(tmp_path, 10**2150, fmt)
    assert code == EXIT_CERTIFIED and err == ""
    assert len(out) > 8600
    code, out, err = comon_run(tmp_path, 10**2200, fmt)
    assert code == EXIT_INVALID
    assert out == ""
    assert err == (
        "error: symmetric k has 2201 digits, "
        f"and its bounds pass the {sys.get_int_max_str_digits()}-digit limit on printed integers\n"
    )


def test_comon_refuses_a_long_bound_before_computing_it(tmp_path, capsys):
    # on P^300 at k = 10^3000, rg has about 3 * 10^6 bits; a lower bound on
    # its bit length refuses it without the binomials
    points = [[str(int(i == j)) for i in range(301)] for j in range(2)]
    path = write_instance(tmp_path, {"symmetric": {"n": 300, "k": 10**3000, "points": points}})
    start = time.perf_counter()
    assert run(["comon", "--input", path]) == EXIT_INVALID
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err == (
        "error: symmetric k has 3001 digits, "
        f"and its bounds pass the {sys.get_int_max_str_digits()}-digit limit on printed integers\n"
    )


def test_comon_refuses_no_degree_whose_bounds_print(tmp_path):
    # the largest k whose rg still prints, by bisection, and the next one
    limit = sys.get_int_max_str_digits()
    cap, lo, hi = 10**limit, 1, 10 ** (limit // 2 + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        bounds = symmetric_bounds(2, mid)
        lo, hi = (mid, hi) if max(bounds["r0"], bounds["rg"]) < cap else (lo, mid)
    code, out, _ = comon_run(tmp_path, lo, "json")
    assert code == EXIT_CERTIFIED
    assert len(str(json.loads(out)["bounds"]["rg"])) == limit
    assert comon_run(tmp_path, hi, "json")[0] == EXIT_INVALID


def test_parse_and_comon_build_the_point_gram_once(tmp_path, capsys, monkeypatch):
    # six plane points at degree 4: the parser's vanishing test reads rows
    # of the point Gram from segre_gram_row and builds no Gram, and comon's
    # rank at e = 2 builds the point Gram once and takes its power
    built = []
    real = linalg.integer_gram

    def counting_gram(rows):
        built.append(1)
        return real(rows)

    for module in (geometry, symmetric, cli):
        monkeypatch.setattr(module, "integer_gram", counting_gram, raising=False)
    points = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"], ["1", "1", "1"], ["1", "2", "3"], ["2", "-1", "1"]]
    path = write_instance(tmp_path, {"symmetric": {"n": 2, "k": 4, "points": points}})
    assert run(["comon", "--input", path]) == EXIT_CERTIFIED
    assert len(built) == 1


def test_the_symmetric_sum_check_reads_gram_rows_up_to_a_nonzero_entry(monkeypatch):
    rows = []
    real = geometry.segre_gram_row
    monkeypatch.setattr(cli, "segre_gram_row", lambda p, q: rows.append(p) or real(p, q))
    # six plane points at degree 4: the first entry of H u is nonzero, so
    # row 0 is the only row read
    points = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"], ["1", "1", "1"], ["1", "2", "3"], ["2", "-1", "1"]]
    instance_from_json({"symmetric": {"n": 2, "k": 4, "points": points}})
    assert len(rows) == 1
    # 2x^2 + 2y^2 - (x + y)^2 - (x - y)^2 = 0 at k = 2 < r - 1 = 3: every
    # one of the 4 rows is read before the sum is refused
    rows.clear()
    points = [["1", "0"], ["0", "1"], ["1", "1"], ["1", "-1"]]
    stanza = {"n": 1, "k": 2, "points": points, "weights": ["2", "2", "-1", "-1"]}
    with pytest.raises(ValueError, match="^the weighted sum of the decomposition vanishes$"):
        instance_from_json({"symmetric": stanza})
    assert len(rows) == 4


def test_certify_calls_segre_gram_row_from_the_parser_only(tmp_path, capsys, monkeypatch):
    # the parser's vanishing test on a file with no tensor reads Gram rows
    # up to the first nonzero entry of H u, here row 0; the walk builds the
    # full set's Gram from its parent's instead.  Five points on 2x2x4
    # exceed the 4 coordinates of the prefix {1, 2}, so the walk needs the
    # full set's own Gram to rank it
    data, _, _ = seeded_instance((1, 1, 3), 5, seed=3)
    calls = []
    real = geometry.segre_gram_row
    monkeypatch.setattr(cli, "segre_gram_row", lambda p, q: calls.append("parser") or real(p, q))
    monkeypatch.setattr(geometry, "segre_gram_row", lambda p, q: calls.append("walk") or real(p, q))
    # no bipartition has both flattenings independent
    assert run(["certify", "--input", write_instance(tmp_path, data)]) == EXIT_NOT_CERTIFIED
    assert "non-redundant decomposition of cardinality 5" in capsys.readouterr().out
    assert calls == ["parser"]


def test_a_given_tensor_settles_the_vanishing_sum_without_a_gram(monkeypatch):
    # the weighted sum that checks the tensor is the sum the Gram test asks
    # about, so no Gram is built while parsing
    def refuse(*args):
        raise AssertionError("built a Gram")

    monkeypatch.setattr(cli, "segre_gram_row", refuse)
    monkeypatch.setattr(cli, "_check_sum", refuse)
    points = [[["1", "0"], ["1", "0"]], [["1", "0"], ["0", "1"]], [["1", "0"], ["1", "1"]]]
    data = {"dims": [2, 2], "points": points, "weights": ["1", "1", "-1"], "tensor": ["1", "0", "0", "0"]}
    with pytest.raises(ValueError, match="^the weighted sum of the decomposition vanishes$"):
        instance_from_json(data)
    inst = instance_from_json(dict(data, weights=["1", "1", "1"], tensor=["4", "4", "0", "0"]))
    assert inst.weights == (2, 2, 2)


@pytest.mark.parametrize("shape, r", [("3x4x6", 6), ("2x2x4", 5), ("2x2x2x2x2", 3)])
@pytest.mark.parametrize("command", ["certify", "compare"])
def test_a_file_prints_the_same_with_or_without_its_tensor(command, shape, r, tmp_path, capsys):
    # without a tensor the parser checks the sum with a Gram, with one on
    # the weighted sum; on 2x2x4 r=5 the full set also needs its own Gram
    assert run(["random", "--shape", shape, "--r", str(r), "--seed", "1"]) == EXIT_CERTIFIED
    data = json.loads(capsys.readouterr().out)
    assert "tensor" in data
    outputs = []
    for name, instance in [("with.json", data), ("without.json", {k: v for k, v in data.items() if k != "tensor"})]:
        assert run([command, "--input", write_instance(tmp_path, instance, name), "--format", "json"]) in (
            EXIT_CERTIFIED,
            EXIT_NOT_CERTIFIED,
        )
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_comon_needs_a_symmetric_stanza(three_factor_file, capsys):
    code = run(["comon", "--input", three_factor_file])
    assert code == EXIT_INVALID
    assert "symmetric stanza" in capsys.readouterr().err


def test_span_check_subcommand(tmp_path, capsys):
    data, _, _ = seeded_instance((1, 1), 3, seed=7)
    path = write_instance(tmp_path, data)
    code = run(["span-check", "--input", path, "--a", "0,1", "--b", "1,2"])
    out = capsys.readouterr().out
    assert code == EXIT_CERTIFIED
    assert "claim: SpanIntersectionIdentity" in out
    code = run(["span-check", "--input", path, "--a", "0,9", "--b", "1"])
    assert code == EXIT_INVALID
    capsys.readouterr()
    code = run(["span-check", "--input", path, "--a", "0,0", "--b", "1"])
    assert code == EXIT_INVALID
    capsys.readouterr()


def test_survey_subcommand(capsys):
    code = run(
        [
            "survey",
            "--shapes",
            "2x2",
            "--r",
            "1-2",
            "--trials",
            "2",
            "--seed",
            "3",
            "--format",
            "json",
        ]
    )
    assert code == EXIT_CERTIFIED
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["rows"]) == 2
    assert payload["rows"][0]["trials"] == 2
    code = run(["survey", "--shapes", "2x2", "--r", "1", "--trials", "1"])
    out = capsys.readouterr().out
    assert code == EXIT_CERTIFIED
    assert "shape" in out and "advantage" in out


def test_survey_on_21_points_counts_no_kruskal_wins(capsys):
    # the baseline is computed past 20 points, and fails its condition there
    argv = ["survey", "--shapes", "3x3x3", "--r", "21", "--trials", "1", "--format", "json"]
    code = run(argv)
    captured = capsys.readouterr()
    assert code == EXIT_CERTIFIED, captured.err
    (row,) = json.loads(captured.out)["rows"]
    assert row["r"] == 21 and row["trials"] == 1
    assert row["kruskal_applies"] == 0


@pytest.mark.parametrize("value", ["a", "1-x", "1-", "3-1,5"])
def test_survey_r_flag_errors_name_the_flag_and_the_value(value, capsys):
    code = run(["survey", "--shapes", "2x2", "--r", value, "--trials", "1"])
    err = capsys.readouterr().err
    assert code == EXIT_INVALID
    assert err == f"error: --r {value!r} must look like '6', '2-4' or '1,3'\n"


def test_r_flag_range_is_checked_without_being_built():
    tracemalloc.start()
    try:
        values = parse_r_flag("1-2000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert len(values) == 2_000_000 and values[0] == 1 and values[-1] == 2_000_000


@pytest.mark.parametrize(
    "argv, message",
    [
        (["survey", "--shapes", "2x2", "--r", "3-1", "--trials", "1"], "--r '3-1' is an empty range"),
        (["random", "--shape", "2x2", "--r", "0"], "--r must be at least 1, got 0"),
        (["random", "--shape", "2x2", "--r", "-3"], "--r must be at least 1, got -3"),
    ],
    ids=["survey-empty-range", "random-zero", "random-negative"],
)
def test_r_flag_errors_name_the_flag_and_the_value(argv, message, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == EXIT_INVALID
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("trials", ["-3", "0"])
def test_survey_rejects_fewer_than_one_trial_before_the_box(trials, capsys):
    code = run(["survey", "--shapes", "2x2", "--r", "1", "--trials", trials, "--box", "0"])
    captured = capsys.readouterr()
    assert code == EXIT_INVALID
    assert captured.out == ""
    assert captured.err == f"error: trials must be at least 1, got {trials}\n"


def test_only_the_requested_format_is_built(three_factor_file, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("built a format that was not requested")

    def dumps_without_indent(obj, **kwargs):
        # the text form prints witnesses with json.dumps, but no JSON document
        if "indent" in kwargs:
            raise AssertionError("built a JSON document in text mode")
        return dumps(obj, **kwargs)

    def certify(fmt):
        return run(["certify", "--input", three_factor_file, "--format", fmt]), capsys.readouterr()

    dumps = cli.json.dumps
    expected = {fmt: certify(fmt) for fmt in ("json", "text")}
    for fmt, target, unused, stub in (
        ("json", cli, "format_certificate_text", refuse),
        ("text", cli.json, "dumps", dumps_without_indent),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(target, unused, stub)
            assert certify(fmt) == expected[fmt]


def test_random_subcommand_emits_a_loadable_instance(capsys):
    code = run(["random", "--shape", "2x3", "--r", "2", "--seed", "5"])
    assert code == EXIT_CERTIFIED
    payload = json.loads(capsys.readouterr().out)
    inst = instance_from_json(payload)
    assert inst.points.shape == MultiShape((1, 2))
    assert len(inst.points) == 2
    code = run(["random", "--shape", "2x3,2x2", "--r", "2"])
    assert code == EXIT_INVALID
    capsys.readouterr()


# sha256 of the stdout of random and then augment --seed 7 --format json
# on it, pinned when every coordinate was still a Fraction
PINNED_STDOUTS = {
    "x".join(["3"] * 8): (
        10,
        "485dfaabe33f23f1d4d07ae984ee5b21ef313d230ad6d555aaea7fb4ff722e8e",
        "42d375393e95172119f6fa648ba672c4ada2d40b0d26c94d18d5df83b50aabaa",
    ),
    "x".join(["3"] * 10): (
        12,
        "9ef850f63df88b20402f36801873c3a6bfedc423ed554a5e559c6f71a6afe674",
        "24abcff0c9d56e83f3e85ae62ea4adfa99d5ff1af1677803d2370f0f9c7b50f8",
    ),
    # 60 points, so augment's Bareiss entries grow large
    "x".join(["7"] * 3): (
        60,
        "c4a4dac6d3da94c9404ec83b0163804db19ed74ff2d2bd185bb89641a739cb00",
        "ed7c5df6ef022844c4b12e8263947b91e0203c12c6f3f064275ededdb825a7b1",
    ),
}


@pytest.mark.parametrize("shape", sorted(PINNED_STDOUTS))
def test_random_and_augment_print_pinned_bytes(shape, tmp_path, capsys):
    r, random_sha, augment_sha = PINNED_STDOUTS[shape]
    assert run(["random", "--shape", shape, "--r", str(r), "--seed", "1"]) == EXIT_CERTIFIED
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == random_sha
    path = tmp_path / "instance.json"
    path.write_text(out)
    assert run(["augment", "--input", str(path), "--seed", "7", "--format", "json"]) == EXIT_CERTIFIED
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == augment_sha


def test_augment_prints_the_tensor_the_file_gives(tmp_path, capsys, monkeypatch):
    # the parser has checked the file's tensor against the weighted sum and
    # scaled the weights to it, so augment prints it without a second sum
    assert run(["random", "--shape", "3x3x3", "--r", "4", "--seed", "1"]) == EXIT_CERTIFIED
    out = capsys.readouterr().out
    path = tmp_path / "instance.json"
    path.write_text(out)

    def assemble_tensor(weights, s):
        raise AssertionError("built the weighted sum again")

    monkeypatch.setattr(cli, "assemble_tensor", assemble_tensor)
    assert run(["augment", "--input", str(path), "--seed", "7", "--format", "json"]) == EXIT_CERTIFIED
    assert json.loads(capsys.readouterr().out)["decomposition"]["tensor"] == json.loads(out)["tensor"]


@pytest.mark.parametrize(
    "argv",
    [["random", "--shape", "1x3"], ["survey", "--shapes", "1x3", "--trials", "1"]],
    ids=["random", "survey"],
)
def test_a_one_coordinate_factor_holds_one_point_at_any_box(argv, capsys):
    # P^0 has one point, counted at once however large the box
    box = str(10**18)
    start = time.perf_counter()
    assert run([*argv, "--r", "1", "--box", box]) == EXIT_CERTIFIED
    assert time.perf_counter() - start < 1
    capsys.readouterr()
    start = time.perf_counter()
    assert run([*argv, "--r", "2", "--box", box]) == EXIT_INVALID
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: could not sample 2 points with injective projections on shape 1x3: "
        f"at box {box}, factor 1 has room for 1 of them\n"
    )


@pytest.mark.parametrize(
    "argv",
    [["random", "--shape", "2x2", "--r", "112"], ["survey", "--shapes", "2x2", "--r", "112", "--trials", "1"]],
    ids=["random", "survey"],
)
def test_more_points_than_the_box_holds_exit_2_before_any_draw(argv, capsys):
    # P^1 holds 111 projective points with coordinates in [-9, 9]
    start = time.perf_counter()
    assert run(argv) == EXIT_INVALID
    assert time.perf_counter() - start < 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: could not sample 112 points with injective projections on shape 2x2: "
        "at box 9, factor 1 has room for 111 of them\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["random", "--shape", "2x2", "--r", "1"],
        ["survey", "--shapes", "2x2", "--r", "1", "--trials", "1"],
        ["augment"],
    ],
    ids=["random", "survey", "augment"],
)
def test_box_below_one_is_invalid(argv, three_factor_file, capsys):
    # a box of 0 leaves no nonzero coordinate to draw, so sampling would loop
    if argv == ["augment"]:
        argv = ["augment", "--input", three_factor_file]
    assert run([*argv, "--box", "0"]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "box must be at least 1" in err


def module_env():
    paths = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def run_module_help(module):
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", module, "--help"],
        capture_output=True,
        env=module_env(),
        text=True,
        timeout=60,
    )


def test_running_the_cli_module_raises_no_runpy_warning():
    proc = run_module_help("tensorcert.cli")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: tensorcert")


def test_running_the_package_as_a_module_prints_the_cli_help():
    proc = run_module_help("tensorcert")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: tensorcert")


# the names the package root exports, by the module that defines or
# re-exports each
ROOT_EXPORTS = {
    "certify": (
        "ASSERTED", "CLAIM_CACTUS_BOUND", "CLAIM_EXACT_RANK", "CLAIM_IDENTIFIABLE",
        "CLAIM_MINIMAL_RANK", "CLAIM_NON_REDUNDANT", "CLAIM_OBSTRUCTION", "CLAIM_PINNING",
        "CLAIM_SPAN_IDENTITY", "FAIL", "PASS", "bound_cactus_rank", "certify_exact_rank",
        "certify_identifiability", "check_non_redundant", "check_span_intersection_identity",
        "obstruct_alt_decompositions", "pin_projections",
    ),
    "construct": (
        "AugmentationError", "DEFAULT_BOX", "augment_decomposition", "derive_seed",
        "random_decomposition", "survey",
    ),
    "geometry": (
        "MultiPoint", "MultiShape", "PointSet", "assemble_tensor", "factor_projection_sizes",
        "flattening_rank",
    ),
    "kruskal": ("compare_criteria", "kruskal_certificate", "kruskal_rank"),
    "linalg": ("format_rational", "parse_rational"),
    "symmetric": ("comon_certify", "is_exceptional", "symmetric_bounds"),
}


@pytest.mark.parametrize("module", sorted(ROOT_EXPORTS))
def test_the_package_root_resolves_each_export_to_its_module_object(module):
    import importlib

    import tensorcert

    home = importlib.import_module(f"tensorcert.{module}")
    assert getattr(tensorcert, module) is home
    for name in ROOT_EXPORTS[module]:
        assert getattr(tensorcert, name) is getattr(home, name), name
    assert tensorcert.__version__ == "0.1.0"
    with pytest.raises(AttributeError):
        tensorcert.no_such_name


# a fresh interpreter reports which heavy modules it has loaded after
# importing the CLI, after an in-process certify run and after an augment
STARTUP_PROBE = """
import io, json, sys
from contextlib import redirect_stdout
heavy = ("dataclasses", "inspect", "tensorcert.construct")
stages = {}
import tensorcert.cli
stages["import"] = [m for m in heavy if m in sys.modules]
for stage, argv in (("certify", ["certify"]), ("augment", ["augment", "--seed", "7"])):
    with redirect_stdout(io.StringIO()):
        code = tensorcert.cli.run([*argv, "--input", sys.argv[1], "--format", "json"])
    stages[stage] = [code] + [m for m in heavy if m in sys.modules]
print(json.dumps(stages))
"""


def test_the_cli_loads_neither_dataclasses_nor_construct_until_a_command_needs_it(tmp_path):
    data, _, _ = seeded_instance((2, 3, 5), 6, seed=11)
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, write_instance(tmp_path, data)],
        capture_output=True,
        env=module_env(),
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    stages = json.loads(proc.stdout)
    assert stages["import"] == []
    assert stages["certify"] == [EXIT_CERTIFIED]
    assert stages["augment"] == [EXIT_CERTIFIED, "tensorcert.construct"]


def test_a_closed_stdout_keeps_the_exit_code_and_prints_no_traceback():
    # 2^16 coordinates print as about 750 kB, far more than a pipe holds,
    # so closing the pipe after one line leaves the writer with EPIPE
    argv = [sys.executable, "-m", "tensorcert", "random", "--shape", "x".join(["2"] * 16), "--r", "1"]
    env = module_env()
    whole = subprocess.run(argv, capture_output=True, env=env, timeout=60)
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == whole.returncode == EXIT_CERTIFIED
    assert err == b""


def test_readme_library_use_block_prints_its_commented_lines():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with redirect_stdout(out):
        exec(block, {})
    printed = out.getvalue().splitlines()
    expected = [line.split("# ")[-1] for line in block.splitlines() if line.startswith("print(")]
    assert expected == ["True", "2", "{'rank': 2, ...}"]
    assert printed[:2] == expected[:2] and len(printed) == 3
    assert printed[2].startswith("{'rank': 2, ")


def test_subcommands_requiring_points_reject_symmetric_instances(tmp_path, capsys):
    data = {"symmetric": {"n": 1, "k": 2, "points": [["1", "0"]]}}
    path = write_instance(tmp_path, data)
    for argv in (
        ["certify", "--input", path],
        ["kruskal", "--input", path],
        ["span-check", "--input", path, "--a", "0", "--b", "0"],
    ):
        assert run(argv) == EXIT_INVALID
        capsys.readouterr()


# -- flag fuzzing
#
# Each flag value goes to one subcommand, with the other flags fixed and
# valid; survey runs with --trials 0, so no value ever starts a survey.

FUZZED_FLAGS = {
    "--partition": (["certify"], lambda text: parse_partition_flag(text, 3)),
    "--families": (["pin"], lambda text: parse_families_flag(text, 3)),
    "--a": (["span-check", "--b", "0"], lambda text: parse_index_list(text, 3, "--a")),
    "--b": (["span-check", "--a", "0"], lambda text: parse_index_list(text, 3, "--b")),
    "--shapes": (["survey", "--r", "1", "--trials", "0"], parse_shapes_flag),
    "--r": (["survey", "--shapes", "2x2", "--trials", "0"], parse_r_flag),
}


@pytest.fixture(scope="module")
def small_instance_file(tmp_path_factory):
    data, _, _ = seeded_instance((1, 1, 1), 3, seed=5)
    return write_instance(tmp_path_factory.mktemp("fuzz"), data)


def _parses(parse, text) -> bool:
    try:
        parse(text)
    except ValueError:
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(FUZZED_FLAGS)),
    st.one_of(st.text(max_size=30), st.text("0123456789-,/:x ", max_size=20)),
)
@example("--r", "1-2000000")
@example("--r", "3-1")
@example("--shapes", "2x\n2")
@example("--families", "1,2:2,3:3,1:")
@example("--partition", "1,2/3/")
@example("--partition", "")
@example("--shapes", "--")
@example("--a", "")
def test_flag_values_that_do_not_parse_exit_2_with_one_error_line(small_instance_file, flag, text):
    (command, *fixed), parse = FUZZED_FLAGS[flag]
    argv = [command, *fixed, f"{flag}={text}"]
    if command != "survey":
        argv += ["--input", small_instance_file]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    assert time.perf_counter() - start < 2
    if not _parses(parse, text):
        assert code == EXIT_INVALID
    if code == EXIT_INVALID:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
    else:
        assert code in (EXIT_CERTIFIED, EXIT_NOT_CERTIFIED)
        assert err.getvalue() == ""


def test_random_names_a_number_past_the_printed_digit_limit(capsys):
    # coordinates below 10^4000 multiply into tensor coordinates that str()
    # refuses to print
    box = str(10**4000)
    assert run(["random", "--shape", "2x2", "--r", "1", "--box", box]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the instance random prints has a number past the "
        f"{sys.get_int_max_str_digits()}-digit limit on printed integers\n"
    )


def test_augment_names_a_number_past_the_printed_digit_limit(tmp_path, capsys):
    # factors starting with 10^2000 print, and certify, but their tensor
    # coordinates of 6000 digits do not
    big = str(10**2000)
    data = {
        "dims": [2, 2, 2],
        "points": [[[big, "1"], [big, "3"], [big, "1"]], [["1", "2"], ["2", "1"], ["1", "5"]]],
    }
    path = write_instance(tmp_path, data)
    assert run(["certify", "--input", path]) == EXIT_CERTIFIED
    capsys.readouterr()
    assert run(["augment", "--input", path]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the decomposition augment prints has a number past the "
        f"{sys.get_int_max_str_digits()}-digit limit on printed integers\n"
    )

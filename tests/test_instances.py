"""Instance files: the parse-time checks of a presented decomposition
against explicit sums, and malformed inputs fuzzed through ``cli.run``."""

import copy
import io
import json
import math
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import exponents_desc_lex, gauss_rank, monomial_values, outer_product_flat
from tensorcert.certify import check_non_redundant
from tensorcert.cli import instance_from_json, run
from tensorcert.geometry import assemble_tensor, segre_scale, weighted_sum

# Pairwise non-proportional vectors per factor size, and linear relations
# among them as (pool indices, integer coefficients): points that agree
# in every factor but one, where they run through a relation, have
# Segre vectors with the same relation, e1 (x) a + e2 (x) a - (e1 + e2) (x) a = 0.
POOLS = {
    1: [(1,)],
    2: [(1, 0), (0, 1), (1, 1), (1, -1)],
    3: [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 1, 1)],
}
RELATIONS = {
    2: [((0, 1, 2), (1, 1, -1)), ((2, 3, 0), (1, 1, -2))],
    3: [((0, 1, 2), (1, 1, -1)), ((2, 3, 4), (1, 1, -1))],
}
scales = st.sampled_from([Fraction(p, q) for p in (-3, -2, -1, 1, 2, 3) for q in (1, 2, 3)])
small = st.sampled_from((-2, -1, 1, 2))


@st.composite
def pooled_decompositions(draw):
    """(dims, points, weights, given tensor or None, the explicit weighted sum).

    The decomposition is one or two groups, each a single point or three
    points running through a relation, whose coefficients are sometimes
    nudged off it; coinciding points are merged.  Each point rescales its
    pool vectors by nonzero fractions and its weight undoes that, so the
    sum cancels exactly when the integer combination of pool rows does.
    """
    sizes = draw(st.lists(st.sampled_from((2, 2, 3, 1)), min_size=1, max_size=3))
    movable = [i for i, n in enumerate(sizes) if n > 1]
    terms: dict = {}
    for _ in range(draw(st.integers(1, 2))):
        base = draw(st.tuples(*(st.integers(0, len(POOLS[n]) - 1) for n in sizes)))
        if movable and draw(st.booleans()):
            i = draw(st.sampled_from(movable))
            picks, coeffs = draw(st.sampled_from(RELATIONS[sizes[i]]))
            m = draw(small)
            coeffs = [m * c for c in coeffs]
            if draw(st.booleans()):
                coeffs[draw(st.integers(0, 2))] += draw(st.sampled_from((-1, 1))) * abs(m)
            group = [(base[:i] + (j,) + base[i + 1:], c) for j, c in zip(picks, coeffs)]
        else:
            group = [(base, draw(small))]
        for pick, c in group:
            terms[pick] = terms.get(pick, 0) + c
    terms = {pick: c for pick, c in terms.items() if c}
    assume(terms)
    factors, weights = [], []
    for pick, c in terms.items():
        point = []
        weight = Fraction(c)
        for n, i in zip(sizes, pick):
            scale = draw(scales)
            point.append([scale * x for x in POOLS[n][i]])
            weight /= scale
        factors.append(point)
        weights.append(weight)
    rows = [outer_product_flat(p) for p in factors]
    total = [sum(w * row[j] for w, row in zip(weights, rows)) for j in range(len(rows[0]))]
    kind = draw(st.sampled_from(("none", "multiple", "perturbed")))
    given = None
    if kind == "multiple":
        given = [draw(scales) * x for x in total]
    elif kind == "perturbed":
        given = list(total)
        given[draw(st.integers(0, len(given) - 1))] += draw(scales)
    return sizes, factors, weights, given, total


def as_instance(sizes, factors, weights, given):
    data = {
        "dims": sizes,
        "points": [[[str(x) for x in f] for f in p] for p in factors],
        "weights": [str(w) for w in weights],
    }
    if given is not None:
        data["tensor"] = [str(x) for x in given]
    return data


@settings(max_examples=300, deadline=None)
@given(pooled_decompositions())
# (1,0)(x)(1,0) + (1,0)(x)(0,1) - (1,0)(x)(1,1), with rescaled factors
@example(([2, 2], [[[1, 0], [2, 0]], [[-1, 0], [0, 1]], [[3, 0], [1, 1]]], [Fraction(1, 2), -1, Fraction(-1, 3)], None, [0] * 4))
# (1,0)(x)(1,0) - (1,1)(x)(1,0) = -e2(x)e1: row 0 of H u is 0, row 1 is not
@example(([2, 2], [[[1, 0], [1, 0]], [[1, 1], [1, 0]]], [1, -1], None, [0, 0, -1, 0]))
# a single point of P^0 x P^1 and a given negative multiple of it
@example(([1, 2], [[[2], [1, -1]]], [Fraction(1, 2)], [-3, 3], [1, -1]))
def test_parse_checks_agree_with_the_explicit_weighted_sum(case):
    """Without a tensor, parsing fails exactly when the explicit Fraction
    sum vanishes; with one, it succeeds exactly when the tensor is a
    nonzero multiple of that sum."""
    sizes, factors, weights, given, total = case
    data = as_instance(sizes, factors, weights, given)
    if given is None:
        accept = any(total)
    else:
        accept = any(total) and any(given) and gauss_rank([total, given]) == 1
    try:
        inst = instance_from_json(data)
    except ValueError as exc:
        assert not accept
        # a vanishing sum is named before the tensor is compared with it
        if not any(total) and (given is None or any(given)):
            assert str(exc) == "the weighted sum of the decomposition vanishes"
        return
    assert accept
    # the parsed weights sum to the tensor the file gives, or to the file's sum
    assert assemble_tensor(inst.weights, inst.points) == tuple(total if given is None else given)
    scale = 1 if given is None else inst.weights[0] / weights[0]
    assert inst.weights == tuple(scale * w for w in weights)


@st.composite
def integer_instances(draw):
    """An instance file whose coordinates are plain integer literals, its
    weights integers or 'p/q', with or without its tensor (as integers,
    the weighted sum times the weights' common denominator), and with or
    without a symmetric stanza of integer points."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    coords = st.integers(-4, 4)
    factor = lambda n: st.lists(coords, min_size=n, max_size=n).filter(any)
    points = draw(st.lists(st.tuples(*(factor(n) for n in sizes)), min_size=1, max_size=3))
    weight = st.one_of(
        st.integers(-5, 5).filter(bool).map(str),
        st.tuples(st.integers(-5, 5).filter(bool), st.integers(2, 4)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
    )
    weights = draw(st.lists(weight, min_size=len(points), max_size=len(points)))
    data = as_instance(sizes, points, weights, None)
    if draw(st.booleans()):
        rows = [outer_product_flat(p) for p in points]
        values = [Fraction(w) for w in weights]
        den = math.lcm(*(w.denominator for w in values))
        data["tensor"] = [str(int(den * sum(w * row[j] for w, row in zip(values, rows)))) for j in range(len(rows[0]))]
    if draw(st.booleans()):
        sym_points = draw(st.lists(factor(3), min_size=1, max_size=3))
        sym_weights = draw(st.lists(weight, min_size=len(sym_points), max_size=len(sym_points)))
        data["symmetric"] = {"n": 2, "k": 2, "points": [list(map(str, p)) for p in sym_points], "weights": sym_weights}
    return data


def leaves(value):
    """Every number inside nested tuples, lists and dicts (keys too)."""
    if isinstance(value, dict):
        value = [*value.keys(), *value.values()]
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from leaves(item)
    else:
        yield value


@settings(max_examples=150, deadline=None)
@given(integer_instances())
@example({"dims": [2], "points": [[["3", "-6"]]], "weights": ["1/2"], "tensor": ["3", "-6"]})
def test_integer_instances_parse_to_ints_and_fractions_only(data):
    """Integer coordinates stay ints, weights are Fractions, and nothing
    the parser or a certifier keeps is a float."""
    try:
        inst = instance_from_json(data)
    except ValueError:  # coinciding points, or a vanishing sum
        assume(False)
    check_non_redundant(inst.points, inst.weights)  # fills the point set's memo
    found = [inst.weights, weighted_sum(inst.weights, inst.points), inst.points.memo]
    for s in [inst.points] + ([inst.symmetric.points] if inst.symmetric else []):
        assert all(type(x) is int for p in s.points for f in p.factors for x in f)
        found += [[p.canonical() for p in s.points], [segre_scale(p) for p in s.points]]
    assert all(type(w) is Fraction for w in inst.weights)
    if inst.symmetric:
        assert all(type(w) is Fraction for w in inst.symmetric.weights)
        found.append(inst.symmetric.points.memo)
    assert all(type(x) in (int, Fraction) for x in leaves(found) if type(x) is not str)


@st.composite
def binary_forms(draw):
    """(k, points of P^1, weights, the explicit degree-k weighted sum).

    With m = k + 2 points (1, t_i), the weights 1 / prod_{j != i} (t_i - t_j)
    are a divided difference, which vanishes on every polynomial of degree
    at most k, so the degree-k sum cancels; they are sometimes nudged,
    sometimes fewer points are kept.  Each point is rescaled by s_i and
    its weight divided by s_i^k, which keeps the sum.
    """
    k = draw(st.integers(1, 4))
    ts = draw(st.lists(st.integers(-4, 4), min_size=k + 2, max_size=k + 2, unique=True))
    if draw(st.booleans()):
        ts = ts[: draw(st.integers(1, k + 1))]
    m = draw(small)
    points, weights = [], []
    for i, t in enumerate(ts):
        w = Fraction(m)
        for j, u in enumerate(ts):
            if j != i:
                w /= t - u
        s = draw(scales)
        points.append([s, s * t])
        weights.append(w / s**k)
    if draw(st.sampled_from((False, False, True))):
        weights[draw(st.integers(0, len(ts) - 1))] *= 2
    exponents = exponents_desc_lex(1, k)
    rows = [monomial_values(p, exponents) for p in points]
    total = [sum(w * row[j] for w, row in zip(weights, rows)) for j in range(len(rows[0]))]
    return k, points, weights, total


@settings(max_examples=200, deadline=None)
@given(binary_forms())
def test_symmetric_parse_checks_agree_with_the_explicit_weighted_sum(case):
    k, points, weights, total = case
    stanza = {
        "n": 1,
        "k": k,
        "points": [[str(x) for x in p] for p in points],
        "weights": [str(w) for w in weights],
    }
    try:
        inst = instance_from_json({"symmetric": stanza})
    except ValueError as exc:
        assert str(exc) == "the weighted sum of the decomposition vanishes"
        assert not any(total)
        return
    assert any(total)
    assert inst.symmetric.weights == tuple(weights)


# -- fuzzed malformed instances

SEGRE = {
    "dims": [2, 3],
    "points": [[["1", "2"], ["0", "1", "-1"]], [["3", "-1"], ["1", "1", "2"]]],
    "weights": ["2", "-1/3"],
    "tensor": ["-1", "1", "-4", "1/3", "13/3", "-10/3"],
}
SYMMETRIC = {"symmetric": {"n": 1, "k": 3, "points": [["1", "2"], ["3", "-1"]], "weights": ["1", "-2"]}}
# every value below is the wrong type wherever it lands, except 7 for an integer field
WRONG_TYPES = [None, True, 2.5, 7, "x", {}, [], [[]], {"a": 1}, [1.5]]


@st.composite
def malformed_instances(draw):
    """One malformed instance, from a menu of breakages of the valid ones."""
    data = copy.deepcopy(draw(st.sampled_from((SEGRE, SYMMETRIC))))
    wrong = draw(st.sampled_from(WRONG_TYPES))
    if "symmetric" in data:
        sym = data["symmetric"]
        kind = draw(st.sampled_from(("drop", "type", "k", "n", "ragged", "zero", "duplicate", "weights", "stanza")))
        if kind == "drop":
            del sym[draw(st.sampled_from(("n", "k", "points")))]
        elif kind == "type":
            key = draw(st.sampled_from(("n", "k", "points", "weights")))
            if key in ("n", "k"):
                sym[key] = wrong if type(wrong) is not int else 2.5
            else:
                sym[key] = wrong if wrong != [] else [["1", "x"]]
        elif kind == "k":
            sym["k"] = draw(st.sampled_from((0, -1, -5, True, "3", 3.0)))
        elif kind == "n":
            sym["n"] = draw(st.sampled_from((0, 2, -1, False)))
        elif kind == "ragged":
            sym["points"][1].append("1")
        elif kind == "zero":
            sym["points"][0] = ["0", "0"]
        elif kind == "duplicate":
            sym["points"][1] = ["-2", "-4"]
        elif kind == "weights":
            sym["weights"] = draw(st.sampled_from((["1"], ["1", "0"], ["0", "0"], ["1", "2", "3"], "1", [1, 2])))
        else:
            data["symmetric"] = wrong if wrong != {} else []
        return data
    kind = draw(
        st.sampled_from(("drop", "dims", "type", "ragged", "factors", "zero", "duplicate", "weights", "tensor", "top"))
    )
    if kind == "drop":
        del data["dims"]
    elif kind == "dims":
        data["dims"] = draw(st.sampled_from((wrong, [2.0, 3], [True, 3], [0, 3], [-1, 3], ["2", "3"], [2, 3, 2], [3, 2])))
    elif kind == "type":
        key = draw(st.sampled_from(("points", "weights", "tensor")))
        data[key] = wrong if wrong != [] else [[]]
    elif kind == "ragged":
        data["points"][1][draw(st.integers(0, 1))].append("1")
    elif kind == "factors":
        data["points"][0] = draw(st.sampled_from(([["1", "2"]], [["1", "2"], ["1", "1", "1"], ["1"]], ["1", "2"], [wrong, ["1", "1", "1"]])))
    elif kind == "zero":
        data["points"][1][draw(st.integers(0, 1))] = ["0"] * (2 + draw(st.integers(0, 1)))
    elif kind == "duplicate":
        data["points"][1] = [["-2", "-4"], ["0", "1/2", "-1/2"]]
    elif kind == "weights":
        data["weights"] = draw(st.sampled_from((["1"], ["1", "0"], ["0", "0"], ["1", "2", "3"], [], [2, 1])))
    elif kind == "tensor":
        data["tensor"] = draw(
            st.sampled_from((["1"] * 5, ["1"] * 7, ["0"] * 6, ["-1", "1", "-4", "1/3", "13/3", "0"], "1", [1] * 6))
        )
    else:
        data = draw(st.sampled_from(([], "instance", 3, None)))
    return data


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "instance.json"


@settings(max_examples=300, deadline=None)
@given(malformed_instances(), st.sampled_from(("certify", "identifiability", "kruskal", "compare", "comon")))
def test_malformed_instances_exit_2_or_3_with_one_error_line(fuzz_file, data, command):
    fuzz_file.write_text(json.dumps(data), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = run([command, "--input", str(fuzz_file)])
    assert time.perf_counter() - start < 2.0
    assert code in (2, 3)
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in err.getvalue()

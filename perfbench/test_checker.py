"""The benchmark's checker accepts real output and flags corrupted output."""

import copy
import io
import json
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT / "tests"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench.checker import CheckFailure, check_op  # noqa: E402
from perfbench.instances import segre_instance, symmetric_instance  # noqa: E402
from tensorcert.cli import run  # noqa: E402

SPAN_FLAGS = ("--a", "0,1,2,3", "--b", "2,3,4,5")


def _run(tmp_path, command, instance, extra=()):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance), encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out):
        code = run([command, "--input", str(path), "--format", "json", *extra])
    return code, json.loads(out.getvalue())


def _segre(sizes, r, seed=0):
    return segre_instance(sizes, r, random.Random(seed))


@pytest.mark.parametrize(
    "command, instance, extra",
    [
        ("certify", _segre((3, 4, 6), 6), ()),
        ("certify", _segre((2, 2, 2, 2), 5), ()),
        ("compare", _segre((3, 4, 6), 6), ()),
        ("identifiability", _segre((2, 2, 2, 2, 2), 3), ()),
        ("comon", symmetric_instance(2, 6, 10, random.Random(0)), ()),
        ("span-check", _segre((3, 4, 6), 6), SPAN_FLAGS),
    ],
)
def test_checker_accepts_real_output(tmp_path, command, instance, extra):
    code, out = _run(tmp_path, command, instance, extra)
    check_op(command, extra, instance, code, json.dumps(out), "")


def _bump_rank(out):
    out["non_redundant"]["hypotheses"][0]["witness"]["rank"] -= 1


def _bump_h1(out):
    out["exact_rank"]["hypotheses"][-1]["witness"]["attempts"][0]["h1_E"] += 1


def _bump_best_bound(out):
    out["cactus_bound"]["best_bound"] += 1


def _drop_conclusion(out):
    out["exact_rank"]["conclusion"] = None


CORRUPTIONS = {
    "witnessed rank": _bump_rank,
    "h1 value": _bump_h1,
    "best bound": _bump_best_bound,
    "conclusion": _drop_conclusion,
}


@pytest.mark.parametrize("corrupt", list(CORRUPTIONS.values()), ids=list(CORRUPTIONS))
def test_checker_flags_a_corrupted_certificate(tmp_path, corrupt):
    instance = _segre((3, 4, 6), 6)
    code, out = _run(tmp_path, "certify", instance)
    bad = copy.deepcopy(out)
    corrupt(bad)
    with pytest.raises(CheckFailure):
        check_op("certify", (), instance, code, json.dumps(bad), "")


def test_checker_flags_a_wrong_kruskal_rank(tmp_path):
    instance = _segre((3, 4, 6), 6)
    code, out = _run(tmp_path, "compare", instance)
    out["kruskal"]["per_factor_kruskal_rank"][0] -= 1
    with pytest.raises(CheckFailure):
        check_op("compare", (), instance, code, json.dumps(out), "")


def test_checker_flags_exit_code_and_traceback(tmp_path):
    instance = _segre((3, 4, 6), 6)
    code, out = _run(tmp_path, "certify", instance)
    with pytest.raises(CheckFailure):
        check_op("certify", (), instance, 1 - code, json.dumps(out), "")
    with pytest.raises(CheckFailure):
        check_op("certify", (), instance, code, json.dumps(out), "Traceback (most recent call last):")

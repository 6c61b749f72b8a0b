"""Byte-for-byte CLI transcripts on small fixed instances.

``golden_cli.json`` holds the instances inline and, for each run, the
argument list with the input path left as ``INSTANCE``, plus the exit
code, stdout and stderr it produced.  A run of a subcommand that reads
no instance (``survey``, ``random``) names none.  A JSON stdout is stored as the
object it prints, and the test prints that object back the way the CLI
does before comparing bytes, so key order and layout still count.  The
runs cover every subcommand, in text and JSON, on valid decompositions
and on malformed inputs.  After an intended change
of output, rewrite the expected values with ``PYTHONPATH=src python
tests/test_golden.py --record`` and review the diff.
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from tensorcert.cli import run

GOLDEN = Path(__file__).with_name("golden_cli.json")
DATA = json.loads(GOLDEN.read_text(encoding="utf-8"))


def transcript(instance: dict | None, argv: list[str], workdir: Path) -> dict:
    path = workdir / "instance.json"
    if instance is not None:
        path.write_text(json.dumps(instance), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run([str(path) if a == "INSTANCE" else a for a in argv])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _stored(stdout: str):
    try:
        obj = json.loads(stdout)
    except ValueError:
        return stdout
    return obj if _printed(obj) == stdout else stdout


def _printed(stored) -> str:
    return stored if isinstance(stored, str) else json.dumps(stored, indent=2) + "\n"


def _instance(entry: dict) -> dict | None:
    return DATA["instances"][entry["instance"]] if "instance" in entry else None


def _run_id(entry: dict) -> str:
    return entry.get("instance", "no-input") + ":" + " ".join(a for a in entry["argv"] if a not in ("--input", "INSTANCE"))


@pytest.mark.parametrize("entry", DATA["runs"], ids=[_run_id(e) for e in DATA["runs"]])
def test_cli_transcript_matches_the_recording(entry, tmp_path):
    got = transcript(_instance(entry), entry["argv"], tmp_path)
    expected = dict(entry, stdout=_printed(entry["stdout"]))
    assert got == {key: expected[key] for key in ("exit", "stdout", "stderr")}


def record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for entry in DATA["runs"]:
            got = transcript(_instance(entry), entry["argv"], Path(tmp))
            entry.update(got, stdout=_stored(got["stdout"]))
    runs = ",\n".join(json.dumps(entry, separators=(",", ":")) for entry in DATA["runs"])
    instances = json.dumps(DATA["instances"], separators=(",", ":"))
    GOLDEN.write_text(f'{{"instances":{instances},\n"runs":[\n{runs}]}}\n', encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    record()

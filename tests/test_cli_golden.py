"""Byte-exact CLI output on fixed documents over Q[T], F_7[T] and F_9[T].

``data/cli_golden.json`` holds one case per line: the subcommand, the
input document, the exit code and the exact standard output of
``cli.main``.  The expected bytes were captured from the dict-based
polynomial representation, so any change to how k[T] is stored must
leave them untouched.  The cases cover ``factor`` (a C_T(u, v) loop and a
dense conjugated 3x3 matrix), ``lift`` (a loop and an H_T(u) path),
``verify-loop`` and ``verify-identity`` (H(u)H(v) = C(u, v)H(uv) holds,
H(u)H(v) = H(v)H(u) is refuted).
"""

import json
import pathlib

import pytest

from chevloops.cli import main

CASES = json.loads(
    (pathlib.Path(__file__).parent / "data" / "cli_golden.json").read_text(
        encoding="utf-8"))


def test_golden_cases_cover_every_command_and_ring():
    assert {(c["command"], c["ring"]) for c in CASES} == {
        (cmd, ring) for cmd in ("factor", "lift", "verify-loop",
                                "verify-identity")
        for ring in ("Q", "F7", "F9")}
    assert {json.loads(c["stdout"]).get("equal") for c in CASES
            if c["command"] == "verify-identity"} == {True, False}


@pytest.mark.parametrize(
    "case", CASES,
    ids=[f"{c['command']}-{c['ring']}-{k}" for k, c in enumerate(CASES)])
def test_cli_output_bytes(case, tmp_path, capsys):
    src = tmp_path / "in.json"
    src.write_text(json.dumps(case["input"]), encoding="utf-8")
    code = main([case["command"], "--in", str(src)])
    assert capsys.readouterr().out == case["stdout"]
    assert code == case["exit"]

"""Acceptance suite: every criterion at its stated tolerance (exact), with
one printed pass/fail line per criterion."""

import json
import pathlib

import pytest

from chevloops import acceptance
from chevloops.acceptance import CRITERIA, DEFAULT_SEED

# every criterion's details at DEFAULT_SEED with the timing fields
# removed: a refactor must leave them unchanged
PINNED = json.loads(
    (pathlib.Path(__file__).parent / "data" / "acceptance_1729.json")
    .read_text(encoding="utf-8"))


def _untimed(details):
    """``details`` as JSON reads it back, without its ``seconds`` keys."""
    def strip(x):
        if isinstance(x, dict):
            return {k: strip(v) for k, v in x.items() if k != "seconds"}
        if isinstance(x, (list, tuple)):
            return [strip(v) for v in x]
        return x
    return json.loads(json.dumps(strip(details)))


def _report(rec):
    status = "PASS" if rec["passed"] else "FAIL"
    line = (f"ACCEPTANCE {rec['criterion']}: {status} "
            f"[{rec['seconds']:.2f}s / budget {rec['budget_seconds']:.0f}s] "
            f"{rec['name']}")
    print(line)
    return line


@pytest.mark.parametrize("index", range(1, len(CRITERIA) + 1),
                         ids=[f"criterion_{k}" for k in
                              range(1, len(CRITERIA) + 1)])
def test_acceptance_criterion(index, capsys):
    rec = CRITERIA[index - 1](DEFAULT_SEED)
    rec["criterion"] = index
    with capsys.disabled():
        _report(rec)
    assert rec["passed"], rec["details"]
    assert _untimed(rec["details"]) == PINNED[f"criterion_{index}"]


def test_criterion_8_enforces_its_total_budget(monkeypatch):
    # a clock that advances 59 s per reading keeps every group under its
    # 60 s limit while the 14 groups together overrun the 840 s budget
    ticks = iter(range(0, 10 ** 6, 59))
    monkeypatch.setattr(acceptance, "_clock", lambda: next(ticks))
    rec = CRITERIA[7](DEFAULT_SEED)
    assert all(g["seconds"] < 60.0 for g in rec["details"].values())
    assert rec["seconds"] > rec["budget_seconds"]
    assert rec["passed"] is False

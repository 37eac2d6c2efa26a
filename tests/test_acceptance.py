"""Acceptance suite: every criterion at its stated tolerance (exact), with
one printed pass/fail line per criterion."""

import pytest

from chevloops import acceptance
from chevloops.acceptance import CRITERIA, DEFAULT_SEED


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


def test_criterion_8_enforces_its_total_budget(monkeypatch):
    # a clock that advances 59 s per reading keeps every group under its
    # 60 s limit while the 14 groups together overrun the 840 s budget
    ticks = iter(range(0, 10 ** 6, 59))
    monkeypatch.setattr(acceptance, "_clock", lambda: next(ticks))
    rec = CRITERIA[7](DEFAULT_SEED)
    assert all(g["seconds"] < 60.0 for g in rec["details"].values())
    assert rec["seconds"] > rec["budget_seconds"]
    assert rec["passed"] is False

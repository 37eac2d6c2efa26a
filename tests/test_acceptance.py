"""Acceptance suite: every criterion at its stated tolerance (exact), with
one printed pass/fail line per criterion."""

import json
import pathlib

import pytest

from chevloops import SimplexPoly, SteinbergWord, identity_path, x_loop
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


@pytest.fixture(scope="module")
def report():
    """``run_all(DEFAULT_SEED)``, run once for the whole module: the record
    the ``reproduce`` command prints."""
    return acceptance.run_all(DEFAULT_SEED)


@pytest.mark.parametrize("index", range(1, len(CRITERIA) + 1),
                         ids=[f"criterion_{k}" for k in
                              range(1, len(CRITERIA) + 1)])
def test_acceptance_criterion(index, report, capsys):
    rec = report["criteria"][index - 1]
    assert rec["criterion"] == index
    with capsys.disabled():
        _report(rec)
    assert rec["passed"], rec["details"]
    assert _untimed(rec["details"]) == PINNED[f"criterion_{index}"]


def test_run_all_reports_every_criterion_in_order(report):
    assert report["seed"] == DEFAULT_SEED
    assert [r["criterion"] for r in report["criteria"]] == \
        list(range(1, len(CRITERIA) + 1))
    assert report["all_passed"] is True


def test_criterion_8_enforces_its_total_budget(monkeypatch):
    # a clock that advances 59 s per reading keeps every group under its
    # 60 s limit while the 14 groups together overrun the 840 s budget
    ticks = iter(range(0, 10 ** 6, 59))
    monkeypatch.setattr(acceptance, "_clock", lambda: next(ticks))
    rec = CRITERIA[7](DEFAULT_SEED)
    assert all(g["seconds"] < 60.0 for g in rec["details"].values())
    assert rec["seconds"] > rec["budget_seconds"]
    assert rec["passed"] is False


# Faults injected through names that ``acceptance`` imports.  Each entry
# gives the criterion, its faults, and the violations they must count as
# a function of the record's details, so that every failure branch has to
# count its own; None means at least one, for a fault that breaks exactly
# one check.
_real = {name: getattr(acceptance, name) for name in (
    "face", "degeneracy", "factor_elementary", "path_to_steinberg",
    "symbol_word", "tame_symbol")}


def _doubled(x):
    return SimplexPoly(x.field, x.level, 2 * x.poly)


def _doubling_its_own_images(name):
    """``name`` with the image of an image doubled at index 0: d0 d_j
    (or s0 s_j) goes wrong, and nothing that starts from a degeneracy
    (or a face) does."""
    made = {}

    def fault(i, x):
        y = _real[name](i, x)
        if i == 0 and made.get(id(x)) is x:
            y = _doubled(y)
        made[id(y)] = y
        return y
    return fault


def _skewed_tame_symbol(a, b, p):
    """Antisymmetric, but not bilinear."""
    t = _real["tame_symbol"](a, b, p)
    if p == 2 or a == b:
        return t
    return t * (2 if a > b else pow(2, -1, p)) % p


class _InvertingWord(SteinbergWord):
    def project(self):
        return super().project().inverse()


_FAULTS = {
    "1-closed-form": (1, {"sl2_closed_form": lambda u, v, field: x_loop(
        (1, 2), 1, 2, field)}, lambda d: d["pairs_checked"]),
    # no c-loop is a loop, and every h-path is one, ending at the identity
    "2": (2, {
        "c_loop": lambda root, a, b, n, field: x_loop(root, a, n, field),
        "h_loop": lambda root, a, n, field: identity_path(field, n)},
        lambda d: d["c_loops"] + 2 * d["h_paths"]),
    # every factorization is one factor off, every path that is no loop
    # lifts to the empty word, and no loop's word is in K2
    "4": (4, {
        "factor_elementary": lambda m: (
            _real["factor_elementary"](m) + [((1, 2), m.ring.one)]),
        "path_to_steinberg": lambda path: (
            _real["path_to_steinberg"](path) if path.is_loop()
            else SteinbergWord.identity(path.ring, path.n)),
        "in_k2": lambda w: False},
        lambda d: 2 * d["cases"]),
    "5-face-identity": (5, {"face": _doubling_its_own_images("face")}, None),
    "5-degeneracy-identity": (5, {
        "degeneracy": _doubling_its_own_images("degeneracy")}, None),
    "5-face-of-degeneracy": (5, {"face": lambda i, x: _doubled(
        _real["face"](i, x))}, None),
    "6-bilinear": (6, {"tame_symbol": _skewed_tame_symbol}, None),
    # still bilinear in a, but tau(a, bp) tau(b, ap) = tau(ab, p)
    "6-antisymmetric": (6, {"tame_symbol": lambda a, b, p: _real[
        "tame_symbol"](a, b * p, p)}, None),
    # c(1, v) becomes c(2, 3): a kernel word, but not the empty one
    "9-trivial-symbol": (9, {
        "symbol_word": lambda root, u, v, n, ring: _real["symbol_word"](
            root, *((u, v) if u != ring.one else (2, 3)), n, ring)}, None),
    "9-k2": (9, {"in_k2": lambda w: False}, None),
    "9-project": (9, {"SteinbergWord": _InvertingWord}, None),
}


@pytest.mark.parametrize("fault", list(_FAULTS))
def test_every_criterion_counts_its_violations(fault, monkeypatch):
    index, patches, expected = _FAULTS[fault]
    for name, value in patches.items():
        monkeypatch.setattr(acceptance, name, value)
    rec = CRITERIA[index - 1](DEFAULT_SEED)
    details = rec["details"]
    counted = (len(details["mismatches"]) if index == 1
               else details["violations"])
    assert rec["passed"] is False
    if expected is None:
        assert counted, details
    else:
        assert counted == expected(details), details

"""verify-identity checks its last factor's determinant only when the
products differ or cannot be compared (det is multiplicative, so it is
implied when they agree).  Every document must still give the stdout and
exit code of the eager reference: each factor loaded with the check, in
document order, before ``verify_path_identity`` compares the products.
"""

import collections
import json
import random

import pytest

from chevloops import (GF, GroupMatrix, PolyRing, QQ, product_of_elementaries,
                       serialize)
from chevloops.cli import main

RINGS = (QQ, GF(7), PolyRing(QQ, ("T",)))
DET = {"error": "determinant is not 1"}


def _unit(ring, n, rng):
    """A random determinant-1 matrix, with entries a + bT over Q[T]."""
    poly = isinstance(ring, PolyRing)
    letters = []
    for _ in range(2 * n):
        param = ring(rng.randint(-3, 3))
        if poly:
            param = param + rng.randint(0, 2) * ring.gen("T")
        letters.append((tuple(rng.sample(range(1, n + 1), 2)), param))
    return product_of_elementaries(ring, n, letters)


def _det2(m):
    """``m`` with its first row doubled: determinant 2."""
    rows = [list(r) for r in m.rows]
    rows[0] = [m.ring(2) * x for x in rows[0]]
    return GroupMatrix(m.ring, rows, _checked=True)


def _malformed(m, no_ring):
    doc = serialize.matrix_to_json(m)
    if no_ring:
        del doc["ring"]                      # KeyError: exit 1
    else:
        doc["entries"] = doc["entries"][1:]  # grid mismatch: exit 2
    return doc


def _document(rng):
    """Mostly holding identities (lhs against its product, or against
    nothing when that product is 1), then up to two perturbations: a
    factor with det 2, both sides' first factors with det 2 (the products
    still agree), or a factor of another size or ring; last, sometimes, a
    malformed factor."""
    ring, n = rng.choice(RINGS), rng.choice((2, 3))
    lhs = [_unit(ring, n, rng) for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.6:
        rhs = [GroupMatrix.identity(ring, n)]
        for m in lhs:
            rhs[0] = rhs[0] * m
        if rhs[0].is_identity() and rng.random() < 0.5:
            rhs = []
    else:
        rhs = [_unit(ring, n, rng) for _ in range(rng.randint(0, 2))]
    for _ in range(rng.choice((0, 1, 1, 2))):
        side = rng.choice([s for s in (lhs, rhs) if s] or [lhs])
        kind = rng.choice(("det2", "det2", "pair", "size", "ring"))
        if kind == "pair" and lhs and rhs:
            lhs[0], rhs[0] = _det2(lhs[0]), _det2(rhs[0])
        elif side and kind == "det2":
            k = rng.randrange(len(side))
            side[k] = _det2(side[k])
        elif kind == "size":
            side.append(_unit(ring, 5 - n, rng))
        elif kind == "ring":
            side.append(_unit(rng.choice([r for r in RINGS if r != ring]),
                              n, rng))
    side = rng.choice([s for s in (lhs, rhs) if s] or [lhs])
    if side and rng.random() < 0.15:
        k = rng.randrange(len(side))
        side[k] = _malformed(side[k], rng.random() < 0.5)
    as_doc = (lambda m: m if isinstance(m, dict)
              else serialize.matrix_to_json(m))
    return {"lhs": [as_doc(m) for m in lhs], "rhs": [as_doc(m) for m in rhs]}


def _verify(tmp_path, capsys, doc):
    f = tmp_path / "cmp.json"
    f.write_text(json.dumps(doc))
    code = main(["verify-identity", "--in", str(f)])
    return code, capsys.readouterr().out


def _eager(monkeypatch, tmp_path, capsys, doc):
    """The reference: every factor is det-checked on load."""
    checked = serialize.matrix_from_json
    with monkeypatch.context() as m:
        m.setattr(serialize, "matrix_from_json", lambda d, **_: checked(d))
        return _verify(tmp_path, capsys, doc)


def _outcome(code, out):
    doc = json.loads(out)
    if code == 0:
        return "equal" if doc["equal"] else "refuted"
    if doc == DET:
        return "det"
    return "mismatch" if "share one ring" in doc["error"] else "malformed"


def test_deferred_check_matches_the_eager_reference(monkeypatch, tmp_path,
                                                    capsys):
    rng = random.Random("verify-identity deferral")
    seen = collections.Counter()
    for _ in range(300):
        doc = _document(rng)
        got = _verify(tmp_path, capsys, doc)
        assert got == _eager(monkeypatch, tmp_path, capsys, doc), doc
        seen[_outcome(*got)] += 1
    # every outcome is drawn often enough to be tested
    assert min(seen[k] for k in ("equal", "refuted", "det", "mismatch",
                                 "malformed")) >= 10, seen


def _m(n=2, ring=QQ, seed=0):
    return _unit(ring, n, random.Random(seed))


@pytest.mark.parametrize("case", ["refuted", "size", "lone", "malformed"])
def test_a_last_factor_with_det_2_is_refused(monkeypatch, tmp_path, capsys,
                                             case):
    j = serialize.matrix_to_json
    a, b, c = _m(seed=1), _m(seed=2), _m(n=3, seed=3)
    doc = {
        # the products differ: the deferred check must still run
        "refuted": {"lhs": [j(a)], "rhs": [j(_det2(b))]},
        # the comparison raises: the deferred check runs first
        "size": {"lhs": [j(c)], "rhs": [j(_det2(a))]},
        # the only factor against the empty product
        "lone": {"lhs": [j(_det2(a))], "rhs": []},
        # a det-2 first factor is refused before a malformed second one
        "malformed": {"lhs": [j(_det2(a)), _malformed(b, no_ring=True)],
                      "rhs": []},
    }[case]
    code, out = _verify(tmp_path, capsys, doc)
    assert (code, json.loads(out)) == (2, DET)
    assert (code, out) == _eager(monkeypatch, tmp_path, capsys, doc)

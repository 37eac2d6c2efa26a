"""CLI: JSON in, JSON out, deterministic bytes, exit-code contract."""

import io
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import chevloops
import chevloops.cli as cli
from chevloops import PolyRing, QQ, product_of_elementaries, serialize
from chevloops.cli import main

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "cli_golden.json").read_text(
        encoding="utf-8"))
# k2m-field stdout and exit code for q = 2..16, captured from the
# presentation with every bilinearity row (2(q-1)^3 of them)
K2M_FIELD = json.loads(
    (pathlib.Path(__file__).parent / "data" / "k2m_field.json").read_text(
        encoding="utf-8"))


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_symbol_loop_emits_a_loop(capsys):
    code, doc = _run(capsys, ["symbol-loop", "--group", "sl2", "--root",
                              "1,2", "--u", "2", "--v", "3", "--ring", "Q"])
    assert code == 0
    assert doc["schema"] == serialize.SCHEMA_PATH
    path = serialize.path_from_json(doc)
    assert path.is_loop()


def test_symbol_loop_over_finite_field(capsys):
    code, doc = _run(capsys, ["symbol-loop", "--group", "sl3", "--root",
                              "2,3", "--u", "3", "--v", "5", "--ring",
                              "Fq:7^1"])
    assert code == 0
    assert serialize.path_from_json(doc).is_loop()


def test_symbol_loop_with_coefficient_vector_scalars(capsys):
    # u = 1 + x and v = x in F_4, written as little-endian coefficients
    code, doc = _run(capsys, ["symbol-loop", "--group", "sl2", "--root",
                              "1,2", "--u", "1,1", "--v", "0,1", "--ring",
                              "Fq:2^2"])
    assert code == 0
    assert serialize.path_from_json(doc).is_loop()


def test_verify_loop_roundtrip(tmp_path, capsys):
    code, doc = _run(capsys, ["symbol-loop", "--group", "sl2", "--root",
                              "1,2", "--u", "2", "--v", "3", "--ring", "Q"])
    f = tmp_path / "loop.json"
    f.write_text(json.dumps(doc))
    code, report = _run(capsys, ["verify-loop", "--in", str(f)])
    assert code == 0
    assert report["is_path"] is True
    assert report["is_loop"] is True
    at1 = serialize.matrix_from_json(report["endpoints"]["at1"])
    assert at1.is_identity()


def test_factor_and_lift(tmp_path, capsys):
    code, doc = _run(capsys, ["symbol-loop", "--group", "sl2", "--root",
                              "1,2", "--u", "2", "--v", "3", "--ring", "Q"])
    f = tmp_path / "loop.json"
    f.write_text(json.dumps(doc))

    code, factored = _run(capsys, ["factor", "--in", str(f)])
    assert code == 0
    assert factored["count"] == len(factored["factors"]) > 0

    code, lifted = _run(capsys, ["lift", "--in", str(f)])
    assert code == 0
    assert lifted["is_k2"] is True
    assert lifted["schema"] == serialize.SCHEMA_WORD
    assert lifted["note"].startswith("rank-1")

    g = tmp_path / "word.json"
    g.write_text(json.dumps(lifted))
    code, checked = _run(capsys, ["k2-check", "--in", str(g)])
    assert code == 0
    assert checked["projection_is_identity"] is True


def test_verify_identity(tmp_path, capsys):
    _, loop = _run(capsys, ["symbol-loop", "--group", "sl2", "--root",
                            "1,2", "--u", "2", "--v", "3", "--ring", "Q"])
    ident = dict(loop)
    ident["entries"] = [[[[[0], "1"]], []], [[], [[[0], "1"]]]]
    f = tmp_path / "cmp.json"
    f.write_text(json.dumps({"lhs": [loop], "rhs": [ident]}))
    code, doc = _run(capsys, ["verify-identity", "--in", str(f)])
    assert code == 0
    assert doc["equal"] is False
    assert doc["first_difference"] is not None


def test_verify_identity_10x10_over_q_t_is_fast(tmp_path, capsys):
    # x_L and x_U with every letter a + bT, against their dense product;
    # loading re-checks the determinant of all three matrices
    ring = PolyRing(QQ, ("T",))
    t = ring.gen("T")
    rng = random.Random("dense-10x10")

    def letters(lower):
        return [((i, j), Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                 + rng.randint(1, 9) * t)
                for i in range(1, 11) for j in range(1, 11)
                if (i > j if lower else i < j)]

    xl = product_of_elementaries(ring, 10, letters(True))
    xu = product_of_elementaries(ring, 10, letters(False))
    f = tmp_path / "lu.json"
    f.write_text(json.dumps({
        "lhs": [serialize.matrix_to_json(xl), serialize.matrix_to_json(xu)],
        "rhs": [serialize.matrix_to_json(xl * xu)]}))
    t0 = time.perf_counter()
    code, doc = _run(capsys, ["verify-identity", "--in", str(f)])
    assert time.perf_counter() - t0 < 2.0
    assert code == 0 and doc["equal"] is True


@pytest.mark.parametrize("exponent", [2_000_000, 10 ** 12])
def test_path_documents_over_the_term_limit_are_exit_2(tmp_path, capsys,
                                                       exponent):
    # one entry T^exponent would be stored as a dense coefficient tuple
    path = {"schema": serialize.SCHEMA_PATH, "n": 2, "ring": "poly:Q:T",
            "entries": [[[[[0], "1"]], [[[exponent], "1"]]],
                        [[], [[[0], "1"]]]]}
    f = tmp_path / "path.json"
    f.write_text(json.dumps(path))
    t0 = time.perf_counter()
    code, out = _run(capsys, ["verify-loop", "--in", str(f)])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert "MAX_SIMPLEX_TERMS" in out["error"]


@pytest.mark.parametrize("degrees", [[10 ** 7], [10 ** 12], [2500, 2500]])
def test_word_documents_over_the_term_limit_are_exit_2(tmp_path, capsys,
                                                       degrees):
    # each parameter T^deg would be stored as a dense coefficient tuple;
    # the letters of one document count together
    word = {"schema": serialize.SCHEMA_WORD, "n": 3, "ring": "poly:Q:T",
            "letters": [[1, 2, [[[deg], "1"]], 1] for deg in degrees]}
    f = tmp_path / "word.json"
    f.write_text(json.dumps(word))
    t0 = time.perf_counter()
    code, out = _run(capsys, ["k2-check", "--in", str(f)])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert "MAX_SIMPLEX_TERMS" in out["error"]


def test_tame_value(capsys):
    code, doc = _run(capsys, ["tame", "--a", "2", "--b", "3", "--p", "3"])
    assert code == 0
    assert doc == {"value": "2"}


def test_tame_at_a_19_digit_prime_is_fast(capsys):
    p = "1000000000000000003"
    t0 = time.perf_counter()
    code, doc = _run(capsys, ["tame", "--a", "2", "--b", p, "--p", p])
    assert time.perf_counter() - t0 < 1.0
    assert (code, doc) == (0, {"value": "2"})


def test_tame_beyond_the_primality_limit_is_exit_2(capsys):
    t0 = time.perf_counter()
    code, doc = _run(capsys, ["tame", "--a", "2", "--b", "3", "--p",
                              "3317044064679887385961981"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert "MAX_PRIME_TEST" in doc["error"]


def test_symbol_loop_over_a_19_digit_prime_field_is_fast(capsys):
    t0 = time.perf_counter()
    code, doc = _run(capsys, ["symbol-loop", "--group", "sl2", "--root",
                              "1,2", "--u", "2", "--v", "3", "--ring",
                              "Fq:1000000000000000003^1"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    assert serialize.path_from_json(doc).is_loop()
    # a flag value that names no usable field is malformed input
    code, doc = _run(capsys, ["symbol-loop", "--group", "sl2", "--root",
                              "1,2", "--u", "2", "--v", "3", "--ring",
                              "Fq:3317044064679887385961981^1"])
    assert code == 1
    assert "MAX_PRIME_TEST" in doc["error"]


def test_k2m_field_q2(capsys):
    code, doc = _run(capsys, ["k2m-field", "--q", "2"])
    assert code == 0
    assert doc["invariant_factors"] == []
    assert doc["free_rank"] == 0


@pytest.mark.parametrize("q", range(2, 17))
def test_k2m_field_bytes_are_pinned(q, capsys):
    code = main(["k2m-field", "--q", str(q)])
    assert capsys.readouterr().out == K2M_FIELD[str(q)]["stdout"]
    assert code == K2M_FIELD[str(q)]["exit"]


def test_schur_subcommand(tmp_path, capsys):
    f3 = "Fq:3^1"
    a = {"schema": serialize.SCHEMA_MATRIX, "n": 3, "ring": f3,
         "entries": [[[2], [0], [0]], [[0], [2], [0]], [[0], [0], [1]]]}
    b = {"schema": serialize.SCHEMA_MATRIX, "n": 3, "ring": f3,
         "entries": [[[1], [0], [0]], [[0], [2], [0]], [[0], [0], [2]]]}
    f = tmp_path / "gens.json"
    f.write_text(json.dumps({"gens": [a, b]}))
    code, doc = _run(capsys, ["schur", "--gens", str(f)])
    assert code == 0
    assert doc["order"] == 4
    assert doc["invariant_factors"] == [2]
    assert "timing" in doc
    # a bare list of generators is read like {"gens": [...]}
    f.write_text(json.dumps([a, b]))
    code, bare = _run(capsys, ["schur", "--gens", str(f)])
    assert code == 0
    assert {**bare, "timing": 0} == {**doc, "timing": 0}
    # any other top-level shape is malformed input
    for shape in ({"generators": [a, b]}, 17, "gens"):
        f.write_text(json.dumps(shape))
        code, out = _run(capsys, ["schur", "--gens", str(f)])
        assert code == 1
        assert "expected a {'gens': [...]} document" in out["error"]


def test_schur_output_deterministic_apart_from_timing(tmp_path, capsys):
    f7 = "Fq:7^1"
    g = {"schema": serialize.SCHEMA_MATRIX, "n": 2, "ring": f7,
         "entries": [[[3], [0]], [[0], [5]]]}   # diag(3, 1/3), order 6
    f = tmp_path / "gens.json"
    f.write_text(json.dumps({"gens": [g]}))
    _, first = _run(capsys, ["schur", "--gens", str(f)])
    _, second = _run(capsys, ["schur", "--gens", str(f)])
    first.pop("timing")
    second.pop("timing")
    assert first == second == {"order": 6, "invariant_factors": [],
                               "free_rank": 0}


def _schur_doc(tmp_path, ring, mats):
    f = tmp_path / "gens.json"
    f.write_text(json.dumps({"gens": [
        {"schema": serialize.SCHEMA_MATRIX, "n": len(m), "ring": ring,
         "entries": [[[x] for x in row] for row in m]} for m in mats]}))
    return ["schur", "--gens", str(f)]


def test_schur_answers_order_40_from_its_sylow_subgroups(tmp_path, capsys):
    # diag(6, 1/6) over F_41 has order 40 = 8 * 5: both Sylow subgroups
    # are cyclic, so H_2 = 0
    argv = _schur_doc(tmp_path, "Fq:41^1", [[[6, 0], [0, 7]]])
    t0 = time.perf_counter()
    code, doc = _run(capsys, argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    assert (doc["order"], doc["invariant_factors"]) == (40, [])


def test_schur_sylow_past_the_bar_complex_limit_is_exit_2(tmp_path, capsys):
    # 28 has order 32 mod 97: C32 is its own Sylow subgroup, and d3 would
    # have 31^3 columns
    z = 28
    argv = _schur_doc(tmp_path, "Fq:97^1", [[[z, 0], [0, pow(z, -1, 97)]]])
    t0 = time.perf_counter()
    code, doc = _run(capsys, argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert "MAX_BAR_COLUMNS" in doc["error"]


def test_schur_of_sl3_f2_is_exit_2(tmp_path, capsys):
    # its Sylow 2-subgroup is D_8, non-abelian with H_2 = Z/2
    mats = []
    for i, j in ((0, 1), (1, 2), (2, 0)):
        m = [[int(r == s) for s in range(3)] for r in range(3)]
        m[i][j] = 1
        mats.append(m)
    code, doc = _run(capsys, _schur_doc(tmp_path, "Fq:2^1", mats))
    assert code == 2
    assert "stable elements" in doc["error"]


def test_simplicial_face_poly(tmp_path, capsys):
    doc = {"schema": serialize.SCHEMA_SIMPLEX_POLY, "level": 1,
           "field": "Q", "poly": [[[1], "1"]]}
    f = tmp_path / "sp.json"
    f.write_text(json.dumps(doc))
    code, faced = _run(capsys, ["simplicial-face", "--i", "0", "--in", str(f)])
    assert code == 0
    assert faced["level"] == 0
    assert faced["poly"] == [[[], "1"]]


def test_verify_homotopy(tmp_path, capsys):
    sigma = {"schema": serialize.SCHEMA_SIMPLEX_MATRIX, "level": 2, "n": 2,
             "field": "Q",
             "entries": [[[[[0, 0], "1"]], [[[1, 1], "1"]]],
                         [[], [[[0, 0], "1"]]]]}
    ring = "poly:Q:T"
    ident = {"schema": serialize.SCHEMA_PATH, "n": 2, "ring": ring,
             "entries": [[[[[0], "1"]], []], [[], [[[0], "1"]]]]}
    loop = {"schema": serialize.SCHEMA_PATH, "n": 2, "ring": ring,
            "entries": [[[[[0], "1"]], [[[1], "1"], [[2], "-1"]]],
                        [[], [[[0], "1"]]]]}
    fs = tmp_path / "sigma.json"
    fl = tmp_path / "from.json"
    ft = tmp_path / "to.json"
    fs.write_text(json.dumps(sigma))
    fl.write_text(json.dumps(ident))
    ft.write_text(json.dumps(loop))
    code, doc = _run(capsys, ["verify-homotopy", "--sigma", str(fs),
                              "--from", str(fl), "--to", str(ft)])
    assert code == 0
    assert doc["certified"] is True
    assert doc["faces"]["d1"]["entries"][0][1] == []


def _timed(tmp_path, capsys, argv, doc=None, text=None):
    """Run ``argv`` plus ``--in`` of a document written as JSON or raw text;
    returns the exit code, the output document and the seconds taken."""
    if doc is not None or text is not None:
        f = tmp_path / "doc.json"
        f.write_text(text if text is not None else json.dumps(doc))
        argv = argv + ["--in", str(f)]
    t0 = time.perf_counter()
    code, out = _run(capsys, argv)
    return code, out, time.perf_counter() - t0


def _timed_face(tmp_path, capsys, doc, i=0):
    return _timed(tmp_path, capsys, ["simplicial-face", "--i", str(i)], doc)


@pytest.mark.parametrize("level, poly, limit", [
    (20000, [], "MAX_SIMPLEX_LEVEL"),
    (-1, [], "MAX_SIMPLEX_LEVEL"),
    (4, [[[120, 0, 0, 0], "1"]], "MAX_SIMPLEX_TERMS"),
    (1, [[[10 ** 12], "1"]], "MAX_SIMPLEX_TERMS"),
])
def test_simplex_documents_over_a_limit_are_exit_2(tmp_path, capsys, level,
                                                   poly, limit):
    doc = {"schema": serialize.SCHEMA_SIMPLEX_POLY, "level": level,
           "field": "Q", "poly": poly}
    code, out, seconds = _timed_face(tmp_path, capsys, doc)
    assert code == 2
    assert limit in out["error"]
    assert seconds < 1.0


def test_simplex_matrix_over_the_term_limit_is_exit_2(tmp_path, capsys):
    # four entries of degree 60 at level 2: 4 * C(62, 2) terms
    big = [[[60, 0], "1"]]
    sigma = {"schema": serialize.SCHEMA_SIMPLEX_MATRIX, "level": 2, "n": 2,
             "field": "Q", "entries": [[big, big], [big, big]]}
    f = tmp_path / "sigma.json"
    f.write_text(json.dumps(sigma))
    t0 = time.perf_counter()
    code, out = _run(capsys, ["simplicial-face", "--i", "0", "--in", str(f)])
    assert code == 2
    assert "MAX_SIMPLEX_TERMS" in out["error"]
    assert time.perf_counter() - t0 < 1.0


def test_simplex_level_must_be_an_integer(tmp_path, capsys):
    for level in (True, 1.0, "1"):
        doc = {"schema": serialize.SCHEMA_SIMPLEX_POLY, "level": level,
               "field": "Q", "poly": []}
        code, out, _ = _timed_face(tmp_path, capsys, doc)
        assert code == 2
        assert "integer" in out["error"]


def test_simplex_documents_at_the_limits_are_accepted(tmp_path, capsys):
    top = serialize.MAX_SIMPLEX_LEVEL
    doc = {"schema": serialize.SCHEMA_SIMPLEX_POLY, "level": top,
           "field": "Q", "poly": [[[1] + [0] * (top - 1), "1"]]}
    code, out, _ = _timed_face(tmp_path, capsys, doc, i=top)
    assert code == 0 and out["level"] == top - 1
    # C(deg + 1, 1) = MAX_SIMPLEX_TERMS at level 1; d_0 sums coefficients
    deg = serialize.MAX_SIMPLEX_TERMS - 1
    doc = {"schema": serialize.SCHEMA_SIMPLEX_POLY, "level": 1,
           "field": "Q", "poly": [[[deg], "2"], [[0], "-1"]]}
    code, out, _ = _timed_face(tmp_path, capsys, doc)
    assert code == 0 and out["poly"] == [[[], "1"]]


def test_malformed_json_is_exit_1(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    code, doc = _run(capsys, ["verify-loop", "--in", str(f)])
    assert code == 1
    assert "error" in doc


def test_bad_flags_are_exit_1(capsys):
    code, doc = _run(capsys, ["symbol-loop", "--group", "gl2", "--root",
                              "1,2", "--u", "2", "--v", "3", "--ring", "Q"])
    assert code == 1
    assert "error" in doc
    code, doc = _run(capsys, ["tame", "--a", "2", "--b", "3"])
    assert code == 1


def test_group_size_is_capped(capsys):
    def argv(n):
        return ["symbol-loop", "--group", f"sl{n}", "--root", f"1,{n}",
                "--u", "2", "--v", "3", "--ring", "Q"]
    t0 = time.perf_counter()
    assert main(argv(cli.MAX_MATRIX_SIZE)) == 0
    assert time.perf_counter() - t0 < 1.0
    capsys.readouterr()
    code, doc = _run(capsys, argv(cli.MAX_MATRIX_SIZE + 1))
    assert code == 2
    assert "MAX_MATRIX_SIZE" in doc["error"]


def test_domain_errors_are_exit_2(tmp_path, capsys):
    bad = {"schema": serialize.SCHEMA_MATRIX, "n": 2, "ring": "Q",
           "entries": [["2", "0"], ["0", "2"]]}   # det 4
    f = tmp_path / "m.json"
    f.write_text(json.dumps(bad))
    code, doc = _run(capsys, ["factor", "--in", str(f)])
    assert code == 2
    assert "determinant" in doc["error"]

    code, doc = _run(capsys, ["tame", "--a", "0", "--b", "3", "--p", "5"])
    assert code == 2
    code, doc = _run(capsys, ["k2m-field", "--q", "32"])
    assert code == 2


def test_output_bytes_are_deterministic(capsys):
    argv = ["symbol-loop", "--group", "sl3", "--root", "1,3", "--u", "2/7",
            "--v=-3/5", "--ring", "Q"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_reproduce_wiring(monkeypatch, capsys):
    # the full suite runs in test_acceptance; here only the CLI contract
    def fake_run_all(seed):
        return {"seed": seed, "criteria": [{"criterion": 1, "passed": True,
                                            "name": "stub", "seconds": 0.0}],
                "all_passed": True}
    monkeypatch.setattr(cli, "run_all", fake_run_all)
    code, doc = _run(capsys, ["reproduce", "--seed", "7"])
    assert code == 0
    assert doc["seed"] == 7 and doc["all_passed"] is True


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

def test_main_builds_one_parser_per_process(monkeypatch, capsys):
    made = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    cli.build_parser()
    tree = len(made)        # the top-level parser and one per subcommand
    made.clear()
    cli._parser.cache_clear()
    for _ in range(25):
        assert main(["tame", "--a", "2", "--b", "3", "--p", "3"]) == 0
        assert main(["tame", "--a", "2"]) == 1
        assert main(["k2m-field", "--q", "32"]) == 2
    capsys.readouterr()
    assert made.count("chevloops") == 1 and len(made) == tree


def test_importing_the_cli_builds_no_parser():
    code = ("import argparse\n"
            "made = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    made.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import chevloops.cli\n"
            "print(len(made))\n")
    src = str(pathlib.Path(chevloops.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "0"


@pytest.mark.parametrize("command", ["factor", "simplicial-face",
                                     "verify-homotopy"])
def test_errors_leave_the_shared_parser_clean(tmp_path, capsys, command):
    assert main(["symbol-loop", "--group", "sl2", "--bogus", "1"]) == 1
    assert main(["no-such-command", "--in", "x.json"]) == 1
    assert main(["k2m-field", "--q", "32"]) == 2
    capsys.readouterr()
    case = next(c for c in GOLDEN if c["command"] == command)
    argv = [command, *case.get("flags", [])]
    inputs = case.get("inputs") or {"--in": case["input"]}
    for k, (flag, doc) in enumerate(inputs.items()):
        src = tmp_path / f"in{k}.json"
        src.write_text(json.dumps(doc), encoding="utf-8")
        argv += [flag, str(src)]
    assert main(argv) == case["exit"]
    assert capsys.readouterr().out == case["stdout"]


# ---------------------------------------------------------------------------
# named limits on documents and flags
# ---------------------------------------------------------------------------

_HUGE_DOCS = {
    "factor": {"schema": serialize.SCHEMA_MATRIX, "ring": "Q"},
    "verify-loop": {"schema": serialize.SCHEMA_PATH, "ring": "poly:Q:T"},
    "simplicial-face": {"schema": serialize.SCHEMA_SIMPLEX_MATRIX,
                        "level": 1, "field": "Q"},
    "k2-check": {"schema": serialize.SCHEMA_WORD, "ring": "Q",
                 "letters": []},
}


@pytest.mark.parametrize("n", [serialize.MAX_DOCUMENT_SIZE + 1, 10 ** 9])
@pytest.mark.parametrize("command", sorted(_HUGE_DOCS))
def test_documents_over_the_size_limit_are_exit_2(tmp_path, capsys, command,
                                                  n):
    # the entries are never read: the size is refused first
    doc = dict(_HUGE_DOCS[command], n=n, entries="unread")
    argv = [command] + (["--i", "0"] if command == "simplicial-face" else [])
    code, out, seconds = _timed(tmp_path, capsys, argv, doc)
    assert code == 2
    assert "MAX_DOCUMENT_SIZE" in out["error"]
    assert seconds < 1.0


def test_document_size_must_be_an_integer(tmp_path, capsys):
    for n in (True, 2.0, "2", -1):
        doc = {"schema": serialize.SCHEMA_MATRIX, "n": n, "ring": "Q",
               "entries": [["1", "0"], ["0", "1"]]}
        code, out, _ = _timed(tmp_path, capsys, ["factor"], doc)
        assert code == 2
        assert "matrix size" in out["error"]


def _dense_q(n, rng):
    """x_U x_L over Q with one-digit letters: every pivot of the
    determinant check is a non-unit, so the elimination divides."""
    def letters(lower):
        return [((i, j), Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                for i in range(1, n + 1) for j in range(1, n + 1)
                if (i > j if lower else i < j)]
    return (product_of_elementaries(QQ, n, letters(False))
            * product_of_elementaries(QQ, n, letters(True)))


def test_the_densest_admitted_identity_answers_in_under_a_second(tmp_path,
                                                                capsys):
    # two factors of the largest size spend the whole work budget
    n = serialize.MAX_DOCUMENT_SIZE
    assert 2 * n ** 3 == serialize.MAX_DOCUMENT_WORK
    a = serialize.matrix_to_json(_dense_q(n, random.Random("densest")))
    code, out, seconds = _timed(tmp_path, capsys, ["verify-identity"],
                                {"lhs": [a], "rhs": [a]})
    assert (code, out["equal"]) == (0, True)
    assert seconds < 1.0


def test_the_densest_admitted_refutation_answers_in_under_a_second(tmp_path,
                                                                  capsys):
    # the products differ, so both determinants are checked
    n = serialize.MAX_DOCUMENT_SIZE
    a, b = (serialize.matrix_to_json(_dense_q(n, random.Random(seed)))
            for seed in ("densest", "refuted"))
    code, out, seconds = _timed(tmp_path, capsys, ["verify-identity"],
                                {"lhs": [a], "rhs": [b]})
    assert (code, out["equal"]) == (0, False)
    assert seconds < 1.0


def _q_doc(rows):
    return {"schema": serialize.SCHEMA_MATRIX, "n": len(rows), "ring": "Q",
            "entries": [[str(x) for x in row] for row in rows]}


def test_the_densest_admitted_entries_answer_in_under_a_second(tmp_path,
                                                             capsys):
    # each row over one 32-digit denominator with 32-digit numerators: the
    # slowest shape found at the digit limit
    n, rng = serialize.MAX_DOCUMENT_SIZE, random.Random("digits")
    half = serialize.MAX_ENTRY_DIGITS // 2
    rows = []
    for _ in range(n):
        den = rng.randrange(10 ** (half - 1), 10 ** half)
        rows.append([Fraction(rng.randrange(10 ** half), den)
                     for _ in range(n)])
    code, out, seconds = _timed(tmp_path, capsys, ["factor"], _q_doc(rows))
    assert (code, out) == (2, {"error": "determinant is not 1"})
    assert seconds < 1.0


@pytest.mark.parametrize("entry", [
    "1" * 1000, "1/" + "3" * 65, "1e64", "-1e-64"])
def test_q_entries_over_the_digit_limit_are_exit_2(tmp_path, capsys, entry):
    # a dense 28x28 document of 1000-digit integers took 32 s to refuse
    n = serialize.MAX_DOCUMENT_SIZE
    rows = [[entry] * n for _ in range(n)]
    code, out, seconds = _timed(tmp_path, capsys, ["factor"], _q_doc(rows))
    assert code == 2
    assert "MAX_ENTRY_DIGITS" in out["error"]
    assert seconds < 1.0


def test_q_entries_are_counted_over_their_row_denominator(tmp_path, capsys):
    # the unipotent row (1, 1/p_1, ..., 1/p_27): no entry has more than four
    # digits, but the row's common denominator is the product of the p_i
    primes = [p for p in range(11, 1000) if chevloops.rings.is_prime(p)]
    limit = 10 ** serialize.MAX_ENTRY_DIGITS
    for ps, code in ((primes[:27], 0), (primes[-27:], 2)):
        assert (math.prod(ps) >= limit) == (code == 2)
        rows = [[int(r == s) for s in range(28)] for r in range(28)]
        rows[0] = [1] + [Fraction(1, p) for p in ps]
        got, out, _ = _timed(tmp_path, capsys, ["factor"], _q_doc(rows))
        assert got == code
        assert ("MAX_ENTRY_DIGITS" in out.get("error", "")) == (code == 2)


def _word(ring, params):
    return {"schema": serialize.SCHEMA_WORD, "n": 3, "ring": ring,
            "letters": [[1 + k % 3, 1 + (k + 1) % 3, p, 1]
                        for k, p in enumerate(params)]}


def test_word_letters_over_the_digit_limit_are_exit_2(tmp_path, capsys):
    # 800 letters with 30-digit numerators and denominators took 11-12.6 s
    # to multiply out; over Q[T] every coefficient counts, and a letter
    # past the 4300 digits str() prints is refused like any other
    rng = random.Random("word digits")
    limit = serialize.MAX_WORD_DIGITS
    long = [f"{rng.randrange(10 ** 29, 10 ** 30)}/"
            f"{rng.randrange(10 ** 29, 10 ** 30)}" for _ in range(800)]
    for doc in (_word("Q", long), _word("Q", ["1e4300"]),
                _word("poly:Q:T", [[[[0], "1"],
                                    [[1], "1/" + "1" * (limit - 2)]]])):
        code, out, seconds = _timed(tmp_path, capsys, ["k2-check"], doc)
        assert code == 2
        assert "MAX_WORD_DIGITS" in out["error"]
        assert seconds < 1.0
    # exactly MAX_WORD_DIGITS digits in all is admitted
    for doc in (_word("Q", ["1/" + "7" * (limit - 1)]),
                _word("poly:Q:T", [[[[0], "1"],
                                    [[1], "1/" + "1" * (limit - 3)]]])):
        code, out, _ = _timed(tmp_path, capsys, ["k2-check"], doc)
        assert (code, out["reduced_length"]) == (0, 1)


def test_verify_identity_work_is_capped(tmp_path, capsys):
    n = serialize.MAX_DOCUMENT_SIZE
    big = {"schema": serialize.SCHEMA_MATRIX, "n": n, "ring": "Q",
           "entries": "unread"}
    code, out, seconds = _timed(tmp_path, capsys, ["verify-identity"],
                                {"lhs": [big, big], "rhs": [big]})
    assert code == 2
    assert "MAX_DOCUMENT_WORK" in out["error"]
    assert seconds < 1.0


def test_schur_generator_work_is_capped(tmp_path, capsys):
    # the enumeration multiplies each generator up to 29 times
    gen = {"schema": serialize.SCHEMA_MATRIX, "n": 13, "ring": "Q",
           "entries": "unread"}
    f = tmp_path / "gens.json"
    f.write_text(json.dumps({"gens": [gen]}))
    code, out = _run(capsys, ["schur", "--gens", str(f)])
    assert code == 2
    assert "MAX_DOCUMENT_WORK" in out["error"]


def test_verify_homotopy_work_is_capped(tmp_path, capsys):
    # every document is walked about five times by the witness check
    paths = []
    for k in range(3):
        doc = {"schema": serialize.SCHEMA_SIMPLEX_MATRIX, "level": 2 - k // 2,
               "n": 15, "field": "Q", "entries": "unread"}
        paths.append(tmp_path / f"doc{k}.json")
        paths[-1].write_text(json.dumps(doc))
    code, out = _run(capsys, ["verify-homotopy", "--sigma", str(paths[0]),
                              "--from", str(paths[1]), "--to", str(paths[2])])
    assert code == 2
    assert "MAX_DOCUMENT_WORK" in out["error"]


def test_rational_exponents_are_capped(tmp_path, capsys):
    flags = ["symbol-loop", "--group", "sl2", "--root", "1,2", "--v", "3",
             "--ring", "Q"]
    for argv in (flags + ["--u", "1e99999"],
                 ["tame", "--a", "1e-9999999", "--b", "3", "--p", "5"]):
        code, out, seconds = _timed(tmp_path, capsys, argv)
        assert code == 1
        assert "MAX_RATIONAL_EXPONENT" in out["error"]
        assert seconds < 1.0
    doc = {"schema": serialize.SCHEMA_MATRIX, "n": 1, "ring": "Q",
           "entries": [["1e999999"]]}
    code, out, seconds = _timed(tmp_path, capsys, ["factor"], doc)
    assert code == 2
    assert "MAX_RATIONAL_EXPONENT" in out["error"]
    assert seconds < 1.0
    # exponents within the limit still read as exact rationals
    for a in ("2e3", "2000"):
        code, out, _ = _timed(tmp_path, capsys,
                              ["tame", "--a", a, "--b", "3", "--p", "5"])
        assert (code, out) == (0, {"value": "3"})


def test_huge_field_descriptors_are_refused_before_p_to_the_e(tmp_path,
                                                              capsys):
    flags = ["symbol-loop", "--group", "sl2", "--root", "1,2", "--u", "2",
             "--v", "3", "--ring"]
    for ring in ("Fq:2^1000000000", "Fq:" + "7" * 4000 + "^1"):
        code, out, seconds = _timed(tmp_path, capsys, flags + [ring])
        assert code == 1
        assert "MAX_PRIME_TEST" in out["error"]
        assert seconds < 1.0
    doc = {"schema": serialize.SCHEMA_MATRIX, "n": 1,
           "ring": "Fq:3^100000000", "entries": [[[1]]]}
    code, out, seconds = _timed(tmp_path, capsys, ["factor"], doc)
    assert code == 2
    assert "MAX_PRIME_TEST" in out["error"]
    assert seconds < 1.0


def test_deep_nesting_is_refused_quickly(tmp_path, capsys):
    code, out, _ = _timed(tmp_path, capsys, ["verify-loop"],
                          text="[" * 100000 + "]" * 100000)
    assert (code, out) == (1, {"error": "invalid JSON: nested too deeply"})
    doc = {"schema": serialize.SCHEMA_PATH, "n": 1, "entries": [[[]]],
           "ring": "poly:" * 20000 + "Q:T"}
    code, out, seconds = _timed(tmp_path, capsys, ["verify-loop"], doc)
    assert code == 2
    assert "nested polynomial rings" in out["error"]
    assert seconds < 1.0


@pytest.mark.parametrize("coeff", [float("inf"), float("nan"), 3.0, True])
def test_finite_field_coefficients_must_be_integers(tmp_path, capsys, coeff):
    # found by the fuzz harness: int(inf) raised OverflowError out of main
    doc = {"schema": serialize.SCHEMA_MATRIX, "n": 1, "ring": "Fq:7^1",
           "entries": [[[coeff]]]}
    code, out, _ = _timed(tmp_path, capsys, ["factor"], doc)
    assert code == 2
    assert "bad finite-field encoding" in out["error"]


def _poly_matrix(ring, entry):
    return {"schema": serialize.SCHEMA_MATRIX, "n": 1, "ring": ring,
            "entries": [[entry]]}


@pytest.mark.parametrize("command, doc, error", [
    ("factor", _poly_matrix("poly:Q:T", "1"), "bad polynomial encoding '1'"),
    ("verify-loop", _poly_matrix("poly:Fq:7^1:T", [[[0], [1]], 3]),
     "bad polynomial term 3"),
    ("simplicial-face", {"schema": serialize.SCHEMA_SIMPLEX_POLY,
                         "level": 2, "field": "Q", "poly": [[[0, 1]]]},
     "bad polynomial term [[0, 1]]"),
    ("factor", _poly_matrix("poly:Q:T", [[[-1], "1"]]),
     "bad exponent vector [-1]"),
    ("factor", _poly_matrix("poly:Q:X1,X2", [[[0], "1"]]),
     "bad exponent vector [0]"),
    ("factor", _poly_matrix("Q", 1.5), "bad rational encoding 1.5"),
    ("k2-check", _word("poly:Q:T", [[[[1], [2]]]]),
     "bad rational encoding [2]"),
    ("factor", {"schema": serialize.SCHEMA_MATRIX, "n": 2, "ring": "Q",
                "entries": [["1", "0"], ["0"]]},
     "entry grid does not match declared size"),
    ("k2-check", {"schema": serialize.SCHEMA_WORD, "n": 3, "ring": "Q",
                  "letters": [[1, 2, "1", 1], [1, 2]]},
     "bad word letter [1, 2]"),
    # JSON true/false are not the integers 1/0
    ("factor", _poly_matrix("Fq:7^1", True), "bad finite-field encoding True"),
    ("factor", _poly_matrix("poly:Fq:7^1:T", [[[0], True]]),
     "bad finite-field encoding True"),
    ("factor", _poly_matrix("poly:Q:T", [[[True], "1"]]),
     "bad exponent vector [True]"),
    ("factor", _poly_matrix("poly:Q:X1,X2", [[[True, False], "1"]]),
     "bad exponent vector [True, False]"),
])
def test_decoder_errors_name_the_bad_node_with_exit_2(tmp_path, capsys,
                                                      command, doc, error):
    argv = [command] + (["--i", "0"] if command == "simplicial-face" else [])
    code, out, _ = _timed(tmp_path, capsys, argv, doc)
    assert (code, out) == (2, {"error": error})


def _symbol_loop(group="sl2", root="1,2", ring="Q"):
    return ["symbol-loop", "--group", group, "--root", root, "--u", "2",
            "--v", "3", "--ring", ring]


@pytest.mark.parametrize("argv, stdin, code, error", [
    (["factor", "--in", "{tmp}/missing.json"], None, 1, "cannot read input"),
    (["factor", "--in", "-"],
     json.dumps({"schema": serialize.SCHEMA_MATRIX, "n": 1, "ring": "Q",
                 "entries": [["2"]]}), 2, "determinant is not 1"),
    (_symbol_loop(root="1,x"), None, 1,
     "root must be 'i,j' with integers, got '1,x'"),
    (_symbol_loop(group="slx"), None, 1,
     "group must be sl<n>, got 'slx'"),
    (_symbol_loop(group="sl1"), None, 1,
     "group size must be at least 2"),
    (_symbol_loop(ring="poly:Q:T"), None, 1,
     "'poly:Q:T' is not a field descriptor"),
    (["simplicial-face", "--i", "0", "--in", "-"],
     json.dumps({"schema": serialize.SCHEMA_MATRIX, "n": 1, "ring": "Q",
                 "entries": [["1"]]}), 1,
     f"expected a simplex document, got schema {serialize.SCHEMA_MATRIX!r}"),
], ids=["unreadable-file", "stdin", "root-text", "group-text", "group-size",
        "ring-not-a-field", "face-of-a-matrix"])
def test_input_errors_name_the_problem(tmp_path, monkeypatch, capsys, argv,
                                       stdin, code, error):
    argv = [a.format(tmp=tmp_path) for a in argv]
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    got, out = _run(capsys, argv)
    assert got == code
    assert out["error"].startswith(error)

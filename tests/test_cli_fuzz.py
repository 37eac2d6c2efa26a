"""Fuzz harness: ``cli.main`` on mutated documents and adversarial flags.

Every call runs in this process, through the one parser ``main`` keeps,
on either a ``data/cli_golden.json`` case or a ``k2-check`` case on a
word document (``WORD_CASES``) with one to three nodes of its
input documents replaced (huge, negative, boolean and float numbers,
deep nesting, unknown schemas, bad ring descriptors and rationals,
rationals past the entry digit limit, or
a list of up to 30 copies of the node itself), a flag-driven
subcommand with adversarial flag values, ``k2-check`` on a long word
over Q with many-digit letters, or a path or word over Q[T] whose one
polynomial has 4999 coefficients of 63-digit denominators.  Each call must
exit 0, 1 or 2, print exactly one JSON document, let no exception
escape and answer in under a second.  After every call a fixed golden
case must still print its pinned bytes, so nothing leaks between calls
through the shared parser.
"""

import contextlib
import io
import json
import pathlib
import random
import time

import pytest

from chevloops import QQ, symbol_word
from chevloops.cli import main
from chevloops.serialize import (MAX_DOCUMENT_SIZE, MAX_SIMPLEX_TERMS,
                                 MAX_WORD_DIGITS, SCHEMA_PATH, SCHEMA_WORD,
                                 word_to_json)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

CASES = json.loads(
    (pathlib.Path(__file__).parent / "data" / "cli_golden.json").read_text(
        encoding="utf-8"))
WORD_CASES = [{"command": "k2-check", "input": doc} for doc in (
    word_to_json(symbol_word((1, 2), 2, 3, 3, QQ)),
    {"schema": SCHEMA_WORD, "n": 3, "ring": "Fq:7^1",
     "letters": [[1, 2, [3], 1]]},
    {"schema": SCHEMA_WORD, "n": 3, "ring": "poly:Q:T",
     "letters": [[2, 1, [[[2], "1"], [[0], "-1/2"]], -1]]},
)]
FUZZ = settings(max_examples=120, deadline=None, derandomize=True,
                database=None)
SECONDS = 1.0

NUMBERS = st.one_of(
    st.sampled_from([0, 1, -1, 2, 29, 10 ** 6, 10 ** 9, -10 ** 9, 2 ** 63,
                     10 ** 100, -10 ** 100]),
    st.integers(-50, 50), st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True))
STRINGS = st.one_of(
    st.sampled_from([
        "", "Q", "Fq:7^1", "Fq:9", "Fq:2^2", "Fq:4^1", "Fq:2^1000000000",
        "Fq:-3^1", "Fq:0^0", "Fq:2^-1", "Fq:" + "7" * 400 + "^1",
        "poly:Q:T", "poly:Fq:7^1:X1,X2", "poly:Q:", "poly:poly:Q:T:S",
        "poly:" * 500 + "Q:T", "chevloops/matrix/v1", "chevloops/path/v1",
        "chevloops/word/v1", "chevloops/simplex-poly/v1",
        "chevloops/simplex-matrix/v1", "chevloops/unknown/v9",
        "1e999999", "1e-999999", "1/0", "nan", "inf", "-0", "3/-4",
        "2/7", "1_000", " 5 ", "9" * 5000, "1/" + "3" * 65]),
    st.text(max_size=6))


def _nested(depth: int):
    doc: list = []
    for _ in range(depth):
        doc = [doc]
    return doc


VALUES = st.one_of(
    NUMBERS, STRINGS, st.none(),
    st.sampled_from([[], {}, [[]], {"schema": "chevloops/unknown/v9"}]),
    st.integers(1, 400).map(_nested),
    st.lists(NUMBERS, max_size=4))


def _paths(node, prefix=()):
    """Every position in a JSON tree, as a tuple of keys and indices."""
    yield prefix
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(node, list):
        for k, v in enumerate(node):
            yield from _paths(v, prefix + (k,))


def _get(node, path):
    for key in path:
        node = node[key]
    return node


def _replace(node, path, value):
    if not path:
        return value
    node = node.copy()
    node[path[0]] = _replace(node[path[0]], path[1:], value)
    return node


def _inputs(case) -> dict:
    return dict(case.get("inputs") or {"--in": case["input"]})


@st.composite
def _mutated_case(draw):
    case = draw(st.sampled_from(CASES + WORD_CASES))
    inputs = _inputs(case)
    for _ in range(draw(st.integers(1, 3))):
        flag = draw(st.sampled_from(sorted(inputs)))
        path = draw(st.sampled_from(list(_paths(inputs[flag]))))
        repeated = [_get(inputs[flag], path)] * draw(st.integers(2, 30))
        value = draw(st.one_of(VALUES, st.just(repeated)))
        inputs[flag] = _replace(inputs[flag], path, value)
    flags = list(case.get("flags", []))
    if flags and draw(st.booleans()):
        flags[-1] = draw(STRINGS | NUMBERS.map(str))
    return [case["command"], *flags], inputs


FLAG_VALUES = st.one_of(STRINGS, NUMBERS.map(str),
                        st.sampled_from(["sl2", "sl3", "sl256", "sl257",
                                         "sl10000000000", "sl-3", "sl",
                                         "gl2", "1,2", "2,1", "1,1", "0,2",
                                         "1,99999", "1,2,3", "a,b"]))
_SCHUR_GEN = {"schema": "chevloops/matrix/v1", "n": 2, "ring": "Fq:7^1",
              "entries": [[[3], [0]], [[0], [5]]]}
_FLAG_COMMANDS = {
    "symbol-loop": ["--group", "--root", "--u", "--v", "--ring"],
    "tame": ["--a", "--b", "--p"],
    "k2m-field": ["--q"],
    "schur": ["--bound"],
    "simplicial-face": ["--i"],
}
_DEFAULTS = {"--group": "sl2", "--root": "1,2", "--u": "2", "--v": "3",
             "--ring": "Q", "--a": "2", "--b": "3", "--p": "5", "--q": "4",
             "--bound": "200", "--i": "0"}


@st.composite
def _flag_call(draw):
    command = draw(st.sampled_from(sorted(_FLAG_COMMANDS)))
    argv = [command]
    for flag in _FLAG_COMMANDS[command]:
        value = (draw(FLAG_VALUES) if draw(st.booleans())
                 else _DEFAULTS[flag])
        argv.append(f"{flag}={value}")       # a value, never an option
    inputs = {}
    if command == "schur":
        inputs["--gens"] = {"gens": [_SCHUR_GEN]}
    if command == "simplicial-face":
        inputs["--in"] = next(c["input"] for c in CASES
                              if c["command"] == "simplicial-face")
    return argv, inputs


def _call(tmp_path, argv, inputs):
    """Exit code, standard output and seconds of one in-process call."""
    argv = list(argv)
    for k, (flag, doc) in enumerate(inputs.items()):
        src = tmp_path / f"in{k}.json"
        src.write_text(json.dumps(doc), encoding="utf-8")
        argv += [flag, str(src)]
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    seconds = time.perf_counter() - t0
    assert err.getvalue() == "", err.getvalue()
    return code, out.getvalue(), seconds


_PINNED = next(c for c in CASES if c["command"] == "simplicial-face")


def _check(tmp_path, argv, inputs):
    code, out, seconds = _call(tmp_path, argv, inputs)
    assert code in (0, 1, 2), (argv, out)
    doc = json.loads(out)            # exactly one document: no extra data
    assert isinstance(doc, dict)
    assert code == 0 or set(doc) == {"error"}, (argv, doc)
    assert seconds < SECONDS, (argv, seconds, out[:200])
    # the shared parser still gives the pinned bytes of a golden case
    code, out, _ = _call(tmp_path, [_PINNED["command"], *_PINNED["flags"]],
                         _inputs(_PINNED))
    assert (code, out) == (_PINNED["exit"], _PINNED["stdout"])


@FUZZ
@given(call=_mutated_case())
def test_mutated_golden_documents(tmp_path_factory, call):
    _check(tmp_path_factory.mktemp("fuzz"), *call)


@FUZZ
@given(call=_flag_call())
def test_adversarial_flags(tmp_path_factory, call):
    _check(tmp_path_factory.mktemp("fuzz"), *call)


@st.composite
def _long_q_word(draw):
    """A word over Q at n = 3 or 28 whose letters have numerators and
    denominators of one to 64 digits: either the most letters
    ``MAX_WORD_DIGITS`` admits at that size, or up to 900.  At 800 letters
    of 30 digits each, multiplying out took 11-12.6 s at n = 3."""
    n = draw(st.sampled_from([3, 28]))
    digits = draw(st.integers(1, 64))
    count = draw(st.one_of(st.just(MAX_WORD_DIGITS // (2 * digits)),
                           st.integers(1, 900)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def scalar():
        return "/".join(str(rng.randrange(10 ** (digits - 1), 10 ** digits))
                        for _ in range(2))
    return {"schema": SCHEMA_WORD, "n": n, "ring": "Q",
            "letters": [[*rng.sample(range(1, n + 1), 2), scalar(),
                         rng.choice([1, -1])] for _ in range(count)]}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(doc=_long_q_word())
def test_long_q_words_answer_or_name_the_digit_limit(tmp_path_factory, doc):
    code, out, seconds = _call(tmp_path_factory.mktemp("fuzz"), ["k2-check"],
                               {"--in": doc})
    result = json.loads(out)
    assert code in (0, 2), result
    if code == 2:
        assert "MAX_WORD_DIGITS" in result["error"], result
    assert seconds < SECONDS, (len(doc["letters"]), seconds)


def test_deeply_nested_document_text(tmp_path):
    src = tmp_path / "deep.json"
    src.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    for command in ("verify-loop", "factor", "k2-check"):
        code, out, seconds = _call(tmp_path, [command, "--in", str(src)], {})
        assert (code, json.loads(out)) == (
            1, {"error": "invalid JSON: nested too deeply"})
        assert seconds < SECONDS


_DIGIT_DOCS = {
    "factor": {"schema": "chevloops/matrix/v1", "ring": "poly:Q:T"},
    "simplicial-face": {"schema": "chevloops/simplex-matrix/v1", "level": 1,
                        "field": "Q"},
}


@pytest.mark.parametrize("command", sorted(_DIGIT_DOCS))
def test_polynomial_coefficients_over_the_digit_limit_are_exit_2(tmp_path,
                                                                 command):
    # a dense 28x28 poly:Q:T document of random constant 1000-digit
    # integers took 33.5 s to answer "determinant is not 1"
    n, rng = MAX_DOCUMENT_SIZE, random.Random("digits")
    doc = dict(_DIGIT_DOCS[command], n=n, entries=[
        [[[[0], str(rng.randrange(10 ** 999, 10 ** 1000))]]
         for _ in range(n)] for _ in range(n)])
    argv = [command] + (["--i", "0"] if command == "simplicial-face" else [])
    code, out, seconds = _call(tmp_path, argv, {"--in": doc})
    assert code == 2
    assert "MAX_ENTRY_DIGITS" in json.loads(out)["error"]
    assert seconds < SECONDS


def _wide_q_poly():
    """4999 coefficients 1/d over Q[T], each d a random odd 63-digit
    integer: the most terms ``MAX_SIMPLEX_TERMS`` admits in one entry."""
    rng = random.Random("wide")
    return [[[k], f"1/{rng.randrange(10 ** 62, 10 ** 63) | 1}"]
            for k in range(MAX_SIMPLEX_TERMS - 1)]


@pytest.mark.parametrize("command, limit", [
    ("verify-loop", "MAX_ENTRY_DIGITS"), ("k2-check", "MAX_WORD_DIGITS")])
def test_wide_q_documents_are_refused_before_their_denominator(tmp_path,
                                                               command,
                                                               limit):
    # the common denominator of all 4999 coefficients has about 300,000
    # digits: building it took 8.0 s (path) and 13.5 s (word) to refuse
    poly = _wide_q_poly()
    doc = ({"schema": SCHEMA_PATH, "n": 1, "ring": "poly:Q:T",
            "entries": [[poly]]} if command == "verify-loop" else
           {"schema": SCHEMA_WORD, "n": 3, "ring": "poly:Q:T",
            "letters": [[1, 2, poly, 1]]})
    code, out, seconds = _call(tmp_path, [command], {"--in": doc})
    assert code == 2
    assert limit in json.loads(out)["error"]
    assert seconds < 0.5

"""Command-line front end with JSON input and output.

Exit codes: 0 on success, 1 on malformed input (bad JSON, bad flags,
unknown descriptors), 2 on domain errors (violated preconditions such as
a determinant that is not 1 or a non-invertible parameter).  Every run
emits a single JSON document on standard output; error documents carry
one "error" key naming the violated condition.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import serialize
from .acceptance import DEFAULT_SEED, run_all
from .chevalley import GroupMatrix
from .factorization import factor_elementary, path_to_steinberg
from .loops import PathMatrix, c_loop, verify_path_identity
from .oracles import (MAX_GROUP_ORDER, milnor_k2_finite_field,
                      schur_multiplier, tame_symbol)
from .rings import FiniteField, QQ
from .simplicial import _check_witness, face, path_to_simplex
from .steinberg import in_k2


class InputError(Exception):
    """Malformed input: maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _read_json(path: str | None):
    try:
        if path is None or path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}")
    except ValueError as exc:
        if isinstance(exc, UnicodeError):
            raise
        # else json.load found an integer literal longer than int() reads
        raise ValueError(f"a JSON integer literal has more than "
                         f"{sys.get_int_max_str_digits()} digits, past what "
                         f"Python reads (sys.get_int_max_str_digits)")
    except RecursionError:
        raise InputError("invalid JSON: nested too deeply")
    except OSError as exc:
        raise InputError(f"cannot read input: {exc}")


def _emit(doc: dict) -> int:
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


def _parse_scalar(field, text: str):
    try:
        if field is QQ:
            return serialize.parse_rational(text)
        if "," in text:
            return field([int(c) for c in text.split(",")])
        return field(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad scalar {text!r}: {exc}")


def _parse_base_field(desc: str):
    try:
        ring = serialize.parse_ring(desc)
    except ValueError as exc:
        raise InputError(str(exc))
    if not (ring is QQ or isinstance(ring, FiniteField)):
        raise InputError(f"{desc!r} is not a field descriptor")
    return ring


def _parse_root(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError(f"root must be 'i,j', got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise InputError(f"root must be 'i,j' with integers, got {text!r}")


# Largest n accepted by --group sl<n>: a symbol loop has n^2 entries, and
# sl256 answers in well under a second.
MAX_MATRIX_SIZE = 256


def _parse_group(text: str) -> int:
    if not text.startswith("sl"):
        raise InputError(f"group must be sl<n>, got {text!r}")
    try:
        n = int(text[2:])
    except ValueError:
        raise InputError(f"group must be sl<n>, got {text!r}")
    if n < 2:
        raise InputError("group size must be at least 2")
    if n > MAX_MATRIX_SIZE:
        raise ValueError(f"group size {n} exceeds {MAX_MATRIX_SIZE} "
                         f"(MAX_MATRIX_SIZE)")
    return n


def _schema(doc) -> str | None:
    return doc.get("schema") if isinstance(doc, dict) else None


def _cmd_symbol_loop(args) -> int:
    n = _parse_group(args.group)
    field = _parse_base_field(args.ring)
    root = _parse_root(args.root)
    u = _parse_scalar(field, args.u)
    v = _parse_scalar(field, args.v)
    loop = c_loop(root, u, v, n, field)
    return _emit(serialize.path_to_json(loop))


def _cmd_verify_loop(args) -> int:
    path = serialize.path_from_json(_read_json(args.infile))
    at0, at1 = path.endpoints()
    return _emit({
        "is_path": at0.is_identity(),
        "is_loop": at0.is_identity() and at1.is_identity(),
        "endpoints": {
            "at0": serialize.matrix_to_json(at0),
            "at1": serialize.matrix_to_json(at1),
        },
    })


def _cmd_verify_identity(args) -> int:
    doc = _read_json(args.infile)
    try:
        lhs_docs, rhs_docs = doc["lhs"], doc["rhs"]
    except (KeyError, TypeError):
        raise InputError("expected a document with 'lhs' and 'rhs' lists")
    reads = [serialize.read_matrix(d) for d in lhs_docs + rhs_docs]
    # each side is multiplied out, a chain of its own; det is
    # multiplicative: if the products agree and every other factor has
    # det 1, so has the last, which is checked only when they do not
    sides = (len(lhs_docs), len(rhs_docs))
    serialize.check_document_cost(reads, depth=max(sides), products=sum(
        max(k - 1, 0) for k in sides))
    factors = [r.build(k < len(reads) - 1) for k, r in enumerate(reads)]
    equal = False
    try:
        equal, cert = verify_path_identity(factors[:len(lhs_docs)],
                                           factors[len(lhs_docs):])
    finally:
        if not equal:  # rebuilding checks the determinant
            GroupMatrix(factors[-1].ring, factors[-1].rows)
    first_diff = None
    if cert is not None:
        ring = factors[0].ring
        first_diff = {
            "row": cert[0], "col": cert[1],
            "lhs": serialize.scalar_to_json(ring, cert[2]),
            "rhs": serialize.scalar_to_json(ring, cert[3]),
        }
    return _emit({"equal": equal, "first_difference": first_diff})


def _matrix_for_factor(args) -> GroupMatrix:
    """The document of ``factor`` or ``lift``, priced with its run."""
    read = serialize.read_matrix(_read_json(args.infile))
    serialize.check_document_cost([read], factor=1)
    return read.build()


def _cmd_factor(args) -> int:
    matrix = _matrix_for_factor(args)
    factors = factor_elementary(matrix)
    return _emit({
        "count": len(factors),
        "factors": [[i, j, serialize.scalar_to_json(matrix.ring, param)]
                    for (i, j), param in factors],
    })


def _cmd_lift(args) -> int:
    word = path_to_steinberg(PathMatrix(_matrix_for_factor(args)))
    doc = serialize.word_to_json(word)
    doc["is_k2"] = in_k2(word)
    if word.presentation_caveat:
        doc["note"] = word.presentation_caveat
    return _emit(doc)


def _cmd_k2_check(args) -> int:
    word = serialize.word_from_json(_read_json(args.infile))
    doc = {
        "projection_is_identity": in_k2(word),
        "reduced_length": word.reduced_length,
    }
    if word.presentation_caveat:
        doc["note"] = word.presentation_caveat
    return _emit(doc)


def _cmd_tame(args) -> int:
    try:
        a = serialize.parse_rational(args.a)
        b = serialize.parse_rational(args.b)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational: {exc}")
    try:
        p = int(args.p)
    except ValueError:
        raise InputError(f"bad prime {args.p!r}")
    return _emit({"value": str(tame_symbol(a, b, p))})


def _cmd_k2m_field(args) -> int:
    pres = milnor_k2_finite_field(args.q)
    return _emit({
        "q": args.q,
        "generators": len(pres.generators),
        "invariant_factors": pres.invariant_factors,
        "free_rank": pres.free_rank,
    })


def _cmd_schur(args) -> int:
    doc = _read_json(args.gens)
    if isinstance(doc, dict) and "gens" in doc:
        gen_docs = doc["gens"]
    elif isinstance(doc, list):
        gen_docs = doc
    else:
        raise InputError("expected a {'gens': [...]} document or a list")
    if args.bound < 1:
        raise InputError(f"--bound must be at least 1, got {args.bound}")
    reads = [serialize.read_matrix(d) for d in gen_docs]
    # each generator is det-checked on load, then multiplied into up to
    # B + 1 elements, B = min(--bound, MAX_GROUP_ORDER), while the group is
    # enumerated; an element is a product of at most B + 1 generators
    depth = min(args.bound, MAX_GROUP_ORDER) + 1
    serialize.check_document_cost(reads, depth=depth + 1,
                                  products=len(reads) * depth)
    gens = [r.build() for r in reads]
    t0 = time.perf_counter()
    pres = schur_multiplier(gens, order_bound=args.bound)
    dt = time.perf_counter() - t0
    return _emit({
        "order": pres.metadata["group_order"],
        "invariant_factors": pres.invariant_factors,
        "free_rank": pres.free_rank,
        "timing": round(dt, 6),
    })


def _cmd_simplicial_face(args) -> int:
    doc = _read_json(args.infile)
    schema = _schema(doc)
    if schema == serialize.SCHEMA_SIMPLEX_POLY:
        out = face(args.i, serialize.simplex_poly_from_json(doc))
        return _emit(serialize.simplex_poly_to_json(out))
    if schema == serialize.SCHEMA_SIMPLEX_MATRIX:
        out = face(args.i, serialize.simplex_matrix_from_json(doc))
        return _emit(serialize.simplex_matrix_to_json(out))
    raise InputError(f"expected a simplex document, got schema {schema!r}")


def _cmd_verify_homotopy(args) -> int:
    docs = [_read_json(f) for f in (args.sigma, args.src, args.dst)]
    simplex = [True] + [_schema(d) == serialize.SCHEMA_SIMPLEX_MATRIX
                        for d in docs[1:]]
    reads = [(serialize.read_simplex_matrix if s else serialize.read_matrix)(d)
             for d, s in zip(docs, simplex)]
    # past the loads, the faces check five more determinants, and the
    # boundary check inverts a loop (about five more) and multiplies
    serialize.check_document_cost(reads, det=10, products=1)
    sigma, loop_from, loop_to = (
        r.build() if s else path_to_simplex(PathMatrix(r.build()))
        for r, s in zip(reads, simplex))
    certified, faces = _check_witness(sigma, loop_from, loop_to)
    return _emit({
        "certified": certified,
        "faces": {f"d{k}": serialize.simplex_matrix_to_json(f)
                  for k, f in enumerate(faces)},
    })


def _cmd_reproduce(args) -> int:
    report = run_all(args.seed)
    _emit(report)
    return 0 if report["all_passed"] else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="chevloops", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("symbol-loop", help="emit the symbol loop C_T(u, v)")
    p.add_argument("--group", required=True, help="sl<n>")
    p.add_argument("--root", required=True, help="i,j (1-based, i != j)")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--ring", required=True, help="base field: Q or Fq:p^e")
    p.set_defaults(func=_cmd_symbol_loop)

    p = sub.add_parser("verify-loop", help="endpoint report for a path")
    p.add_argument("--in", dest="infile", default=None)
    p.set_defaults(func=_cmd_verify_loop)

    p = sub.add_parser("verify-identity",
                       help="compare two products of matrices exactly")
    p.add_argument("--in", dest="infile", default=None)
    p.set_defaults(func=_cmd_verify_identity)

    p = sub.add_parser("factor", help="elementary factorization")
    p.add_argument("--in", dest="infile", default=None)
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("lift", help="path -> Steinberg word at T = 1")
    p.add_argument("--in", dest="infile", default=None)
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("k2-check", help="does a word project to 1?")
    p.add_argument("--in", dest="infile", default=None)
    p.set_defaults(func=_cmd_k2_check)

    p = sub.add_parser("tame", help="tame symbol of {a, b} at p")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--p", required=True)
    p.set_defaults(func=_cmd_tame)

    p = sub.add_parser("k2m-field", help="Milnor K2 presentation of F_q")
    p.add_argument("--q", required=True, type=int)
    p.set_defaults(func=_cmd_k2m_field)

    p = sub.add_parser("schur", help="Schur multiplier of a matrix group")
    p.add_argument("--gens", required=True)
    p.add_argument("--bound", type=int, default=200)
    p.set_defaults(func=_cmd_schur)

    p = sub.add_parser("simplicial-face", help="apply a face map")
    p.add_argument("--i", required=True, type=int)
    p.add_argument("--in", dest="infile", default=None)
    p.set_defaults(func=_cmd_simplicial_face)

    p = sub.add_parser("verify-homotopy",
                       help="check a level-2 homotopy witness")
    p.add_argument("--sigma", required=True)
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    p.set_defaults(func=_cmd_verify_homotopy)

    p = sub.add_parser("reproduce", help="run the acceptance suite")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_reproduce)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser of ``main``: built on the first call, not at import, and
    shared by every later call in the process (parsing keeps no state)."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except InputError as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True, indent=2))
        return 1
    try:
        return args.func(args)
    except InputError as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True, indent=2))
        return 1
    except (KeyError, TypeError) as exc:
        print(json.dumps({"error": f"malformed document: {exc!r}"},
                         sort_keys=True, indent=2))
        return 1
    except (ValueError, ZeroDivisionError, RuntimeError) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True, indent=2))
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer call tracing, installed from outside the chevloops package.

``Tracer.install(cl)`` replaces the public callables listed in
``SPAN_TARGETS`` and ``COUNT_TARGETS`` with wrappers.  A module-level
function is replaced at every binding in every loaded ``chevloops`` module
(``product_of_elementaries`` is imported by name into ``loops``,
``steinberg`` and ``factorization``, for example), and a method is
replaced on its class, which reaches every caller.
``uninstall()`` puts the originals back.

A span wrapper records one span per call (name, start, end, parent span)
and accumulates, per target, the exact call count, the self time (span
time minus the time of child spans) and optional size counts.  A count
wrapper only counts; it is used where spans would cost more than the
work (``Poly`` multiplication and addition).
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

# Spans kept in memory for the span file; beyond this they are only
# aggregated into the metrics.
MAX_SPANS = 200_000


def _letters(args, kwargs, result):
    factors = args[2] if len(args) > 2 else kwargs["factors"]
    return {"letters": len(factors)}


def _factors(args, kwargs, result):
    return {"factors": len(result)}


def _snf_sizes(args, kwargs, result):
    matrix = args[0] if args else kwargs["matrix"]
    return {"nnz_in": len(matrix.entries), "cols_in": matrix.ncols}


# (module, attribute path, metric name, sizes) for span wrappers
SPAN_TARGETS = [
    ("rings", "Poly.evaluate", "rings.Poly.evaluate", None),
    ("rings", "poly_divmod", "rings.poly_divmod", None),
    ("rings", "Poly.substitute", "rings.Poly.substitute", None),
    ("chevalley", "product_of_elementaries",
     "chevalley.product_of_elementaries", _letters),
    ("chevalley", "eval_matrix", "chevalley.eval_matrix", None),
    ("chevalley", "GroupMatrix.det", "chevalley.GroupMatrix.det", None),
    ("chevalley", "GroupMatrix.inverse", "chevalley.GroupMatrix.inverse",
     None),
    ("chevalley", "GroupMatrix.__mul__", "chevalley.GroupMatrix.mul", None),
    ("loops", "c_loop", "loops.c_loop", None),
    ("loops", "h_loop", "loops.h_loop", None),
    ("loops", "PathMatrix.is_loop", "loops.PathMatrix.is_loop", None),
    ("factorization", "factor_elementary",
     "factorization.factor_elementary", _factors),
    ("factorization", "path_to_steinberg",
     "factorization.path_to_steinberg", None),
    ("factorization", "word_to_path", "factorization.word_to_path", None),
    ("steinberg", "SteinbergWord.project", "steinberg.SteinbergWord.project",
     None),
    ("steinberg", "in_k2", "steinberg.in_k2", None),
    ("simplicial", "face", "simplicial.face", None),
    ("simplicial", "degeneracy", "simplicial.degeneracy", None),
    ("simplicial", "verify_homotopy_witness",
     "simplicial.verify_homotopy_witness", None),
    ("snf", "smith_normal_form", "snf.smith_normal_form", _snf_sizes),
    ("oracles", "schur_multiplier", "oracles.schur_multiplier", None),
    ("oracles", "milnor_k2_finite_field", "oracles.milnor_k2_finite_field",
     None),
    ("oracles", "tame_symbol", "oracles.tame_symbol", None),
] + [
    ("serialize", f"{kind}_{way}_json", f"serialize.{kind}_{way}_json", None)
    for way in ("from", "to")
    for kind in ("matrix", "path", "word", "simplex_poly", "simplex_matrix")
] + [
    ("cli", "main", "cli.main", None),
]

# (module, attribute path, metric name) for count-only wrappers
COUNT_TARGETS = [
    ("rings", "Poly.__mul__", "rings.Poly.mul"),
    ("rings", "Poly.__rmul__", "rings.Poly.mul"),
    ("rings", "Poly.__add__", "rings.Poly.add"),
    ("rings", "Poly.__radd__", "rings.Poly.add"),
]

SIZE_STATS = {
    "chevalley.product_of_elementaries": ["letters"],
    "factorization.factor_elementary": ["factors"],
    "snf.smith_normal_form": ["nnz_in", "cols_in"],
}


def layer_metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in order."""
    names = [f"{name}.calls" for name in
             dict.fromkeys(name for _, _, name in COUNT_TARGETS)]
    for _, _, name, _ in SPAN_TARGETS:
        names += [f"{name}.calls", f"{name}.self_s"]
        names += [f"{name}.{s}" for s in SIZE_STATS.get(name, [])]
    return names


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.sizes: dict[str, int] = {}
        self.bindings: dict[str, list[str]] = {}
        self._stack: list = []         # [span id, child seconds] frames
        self._next_id = 0
        self._names: list[str] = []
        self._span_id = array("q")
        self._span_name = array("H")
        self._span_parent = array("q")
        self._span_start = array("d")
        self._span_end = array("d")
        self._restore: list = []       # (owner, attribute, original)

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name: str, fn, sizer):
        self.calls[name] = 0
        self.self_s[name] = 0.0
        for stat in SIZE_STATS.get(name, []):
            self.sizes[f"{name}.{stat}"] = 0
        name_idx = len(self._names)
        self._names.append(name)
        calls, self_s, sizes = self.calls, self.self_s, self.sizes
        stack, clock = self._stack, time.perf_counter
        spans = (self._span_id, self._span_name, self._span_parent,
                 self._span_start, self._span_end)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                calls[name] += 1
                self_s[name] += dur - frame[1]
                if sid < MAX_SPANS:
                    spans[0].append(sid)
                    spans[1].append(name_idx)
                    spans[2].append(parent)
                    spans[3].append(t0)
                    spans[4].append(t1)
            if sizer is not None:
                for stat, value in sizer(args, kwargs, result).items():
                    sizes[f"{name}.{stat}"] += value
            return result
        return wrapper

    def _count_wrapper(self, name: str, fn):
        self.calls.setdefault(name, 0)
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(a, b):
            calls[name] += 1
            return fn(a, b)
        return wrapper

    # -- installation -------------------------------------------------------

    def _replace(self, cl, modname: str, path: str, wrapper_for):
        module = getattr(cl, modname)
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[attr]
            wrapper = wrapper_for(original)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return [f"{modname}.{cls_name}"]
        original = getattr(module, path)
        wrapper = wrapper_for(original)
        bound = []
        for mod in self._package_modules(cl):
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)
                    bound.append(mod.__name__)
        return bound

    @staticmethod
    def _package_modules(cl):
        prefix = cl.__name__ + "."
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == cl.__name__
                                      or name.startswith(prefix))]

    def install(self, cl):
        for modname, path, name, sizer in SPAN_TARGETS:
            self.bindings[name] = self._replace(
                cl, modname, path,
                lambda fn, name=name, sizer=sizer:
                    self._span_wrapper(name, fn, sizer))
        for modname, path, name in COUNT_TARGETS:
            self.bindings.setdefault(name, []).extend(self._replace(
                cl, modname, path,
                lambda fn, name=name: self._count_wrapper(name, fn)))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in layer_metric_names():
            base, _, stat = name.rpartition(".")
            if stat == "calls":
                out[name] = self.calls.get(base, 0)
            elif stat == "self_s":
                out[name] = self.self_s.get(base, 0.0)
            else:
                out[name] = self.sizes.get(name, 0)
        return out

    @property
    def span_count(self) -> int:
        return self._next_id

    def write_spans(self, path: str):
        """One CSV line per kept span, in order of completion: id, parent
        id (-1 at top level), name, start and end in seconds."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# spans kept {len(self._span_name)} of "
                     f"{self._next_id}\nid,parent,name,start_s,end_s\n")
            for k in range(len(self._span_name)):
                fh.write(f"{self._span_id[k]},{self._span_parent[k]},"
                         f"{self._names[self._span_name[k]]},"
                         f"{self._span_start[k]:.9f},"
                         f"{self._span_end[k]:.9f}\n")

"""Seeded closed-loop benchmark for chevloops.

    python3 perfbench/run.py --workload loops_kT --seed 1729 --seconds 25 \
        --trace 0

Run from the root of a source checkout; chevloops is imported from
``src/`` of that checkout and nothing else.  One caller in one process
sends the next operation only after the previous one has finished.
Operations come from a fixed per-workload schedule whose inputs are drawn
from ``--seed`` (see ``workloads.py``); every operation's result is
checked against an answer known by construction.

``--trace 0`` repeats whole passes over the schedule until ``--seconds``
have elapsed and reports the end-to-end metrics.  ``--trace 1`` runs one
pass untraced, one traced (so call counts are exact and repeatable) and
one untraced, reports the per-layer metrics and the tracing overhead,
then runs the acceptance criteria once for their seconds-over-budget
ratios.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; see README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layertrace                                          # noqa: E402
import workloads                                           # noqa: E402

DEFAULT_SEED = 1729
SETUP_REPEATS = 5        # fresh processes timed for setup_s
MIN_OPS = 100            # every timed run holds at least this many ops
HARD_STOP_S = 120.0      # a timed loop never runs longer than this

# Per workload: per-layer metrics that must read nonzero in a traced run,
# and metric-name prefixes the workload must bypass (must read zero).
EXPECT_NONZERO = {
    "loops_kT": [
        "rings.Poly.mul.calls", "rings.Poly.add.calls",
        "rings.Poly.evaluate.calls", "rings.poly_divmod.calls",
        "chevalley.product_of_elementaries.calls",
        "chevalley.eval_matrix.calls", "loops.c_loop.calls",
        "loops.h_loop.calls", "loops.PathMatrix.is_loop.calls",
        "factorization.factor_elementary.calls",
        "factorization.path_to_steinberg.calls",
        "factorization.word_to_path.calls",
        "steinberg.SteinbergWord.project.calls", "steinberg.in_k2.calls"],
    "simplex_kDn": [
        "rings.Poly.mul.calls", "rings.Poly.add.calls",
        "rings.Poly.substitute.calls", "chevalley.GroupMatrix.det.calls",
        "chevalley.GroupMatrix.inverse.calls", "simplicial.face.calls",
        "simplicial.degeneracy.calls",
        "simplicial.verify_homotopy_witness.calls"],
    "oracles_h2": [
        "chevalley.GroupMatrix.mul.calls", "snf.smith_normal_form.calls",
        "snf.smith_normal_form.nnz_in", "oracles.schur_multiplier.calls",
        "oracles.milnor_k2_finite_field.calls", "oracles.tame_symbol.calls"],
    "documents_cli": [
        "chevalley.GroupMatrix.det.calls",
        "chevalley.GroupMatrix.inverse.calls",
        "factorization.factor_elementary.calls",
        "factorization.path_to_steinberg.calls",
        "serialize.matrix_from_json.calls", "serialize.path_from_json.calls",
        "serialize.word_from_json.calls",
        "serialize.simplex_matrix_from_json.calls",
        "serialize.matrix_to_json.calls", "cli.main.calls"],
}
EXPECT_ZERO = {
    "loops_kT": ["snf.", "oracles.", "simplicial.", "serialize.", "cli."],
    "simplex_kDn": ["rings.Poly.evaluate.", "rings.poly_divmod.",
                    "chevalley.eval_matrix.", "loops.", "factorization.",
                    "snf.", "oracles.", "serialize.", "cli."],
    "oracles_h2": ["rings.", "loops.", "factorization.", "simplicial.",
                   "serialize.", "cli."],
    "documents_cli": ["snf.", "oracles."],
}

ACCEPTANCE_METRICS = [f"acceptance.criterion_{k}.seconds_over_budget"
                      for k in range(1, 10)]
BENCH_METRICS = ["bench.trace_overhead", "bench.traced_ops",
                 "bench.fail_ratio"]


def per_layer_metric_names() -> list[str]:
    return (layertrace.layer_metric_names() + ACCEPTANCE_METRICS
            + BENCH_METRICS)


def import_chevloops():
    """Import chevloops from this checkout's src/, or exit with code 2."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "chevloops", "__init__.py")):
        print(f"error: no chevloops sources under {src}", file=sys.stderr)
        sys.exit(2)
    if src not in sys.path:
        sys.path.insert(0, src)
    import chevloops
    import chevloops.acceptance
    import chevloops.cli
    import chevloops.serialize
    where = os.path.dirname(os.path.abspath(chevloops.__file__))
    if where != os.path.join(src, "chevloops"):
        print(f"error: imported chevloops from {where}", file=sys.stderr)
        sys.exit(2)
    return chevloops


def set_up(name: str, seed: int, workdir: str):
    """Import, generate the inputs and fill lazy caches: the set-up cost."""
    cl = import_chevloops()
    wl = workloads.WORKLOADS[name](cl, seed, workdir)
    for thunk in wl.warmup:
        try:
            thunk()
        except Exception:      # the timed passes count and report it
            pass
    return cl, wl


def make_workdir() -> str:
    base = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"run{os.getpid()}-", dir=base)


def remove_workdir(workdir: str):
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(workdir))
    except OSError:
        pass                   # another run still uses it


def time_setups(name: str, seed: int) -> list[float]:
    """Wall time from process start to the first op, in fresh processes."""
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            out.append(time.perf_counter() - t0)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up process failed with code {code}")
    return out


class Pass:
    """Results of running schedule items: latencies, failures, digest."""

    def __init__(self):
        self.kinds: list[str] = []
        self.latencies: list[float] = []
        self.failed = 0
        self.first_errors: list[str] = []
        self.digest = hashlib.sha256()

    def by_kind(self) -> dict:
        """Per operation kind: count and median latency in ms."""
        groups: dict[str, list[float]] = {}
        for kind, lat in zip(self.kinds, self.latencies):
            groups.setdefault(kind, []).append(lat)
        return {kind: [len(v), round(statistics.median(v) * 1e3, 3)]
                for kind, v in sorted(groups.items())}

    def run_item(self, kind: str, thunk, record_digest: bool):
        t0 = time.perf_counter()
        try:
            result = thunk()
            ok = True
        except Exception as exc:
            result, ok = f"error:{type(exc).__name__}", False
            if len(self.first_errors) < 5:
                self.first_errors.append(
                    f"{kind}: {exc!r}\n{traceback.format_exc()}")
        self.latencies.append(time.perf_counter() - t0)
        self.kinds.append(kind)
        if not ok:
            self.failed += 1
        if record_digest:
            self.digest.update(result.encode())
            self.digest.update(b"\n")


def timed_loop(wl, seconds: float) -> tuple[Pass, float, list[float]]:
    """Whole passes over the schedule until ``seconds`` and MIN_OPS are
    reached.  Returns the results, the elapsed time and the time of each
    complete pass; the result digest covers the first pass."""
    res = Pass()
    pass_s: list[float] = []
    t0 = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        for kind, thunk in wl.items:
            res.run_item(kind, thunk, record_digest=not pass_s)
            if time.perf_counter() - t0 > HARD_STOP_S:
                return res, time.perf_counter() - t0, pass_s
        pass_s.append(time.perf_counter() - p0)
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds and len(res.latencies) >= MIN_OPS:
            return res, elapsed, pass_s


def one_pass(wl) -> tuple[Pass, float]:
    res = Pass()
    t0 = time.perf_counter()
    for kind, thunk in wl.items:
        res.run_item(kind, thunk, record_digest=True)
    return res, time.perf_counter() - t0


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100) gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation()}


def run_untraced(args, wl, setups, info) -> dict:
    res, elapsed, pass_s = timed_loop(wl, args.seconds)
    lat = res.latencies
    n, size = len(lat), len(wl.items)
    if pass_s:
        # Every pass runs the same operations.  An operation's latency is
        # the mean of its repeats, one per complete pass, so the samples
        # average over the speed changes of a shared machine instead of
        # jumping with whichever speed held for most of the run.
        done = len(pass_s) * size
        samples = [statistics.fmean(lat[k:done:size]) for k in range(size)]
        throughput = done / sum(pass_s)
    else:                      # hard stop inside the first pass
        samples, throughput = lat, n / elapsed
    p90 = percentile(samples, 90)
    info.update(ops=n, passes=len(pass_s), schedule_len=size,
                pass_s=[round(p, 4) for p in pass_s],
                measured_s=round(elapsed, 3), failed=res.failed,
                fail_ratio=res.failed / n, digest=res.digest.hexdigest(),
                latency_samples=len(samples),
                repeats_per_sample=max(len(pass_s), 1),
                samples_beyond_p90=sum(1 for x in samples if x > p90),
                kinds_count_p50_ms=res.by_kind(),
                setup_samples_s=[round(s, 4) for s in setups])
    metrics = {
        "throughput_ops_s": (throughput, "1/s"),
        "latency_ms_p50": (statistics.median(samples) * 1e3, "ms"),
        "latency_ms_p90": (p90 * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    return res, metrics


def run_traced(args, cl, wl, setups, info) -> tuple:
    # untraced, traced, untraced: the overhead compares the traced pass
    # with the mean of the two untraced ones around it
    plain, plain_s = one_pass(wl)
    tracer = layertrace.Tracer()
    tracer.install(cl)
    try:
        traced, traced_s = one_pass(wl)
    finally:
        tracer.uninstall()
    after, after_s = one_pass(wl)
    plain_s = (plain_s + after_s) / 2
    problems = []
    if not (plain.digest.hexdigest() == traced.digest.hexdigest()
            == after.digest.hexdigest()):
        problems.append("result digest differs with tracing on and off")
    layer = tracer.metrics()
    for name in EXPECT_NONZERO[args.workload]:
        if not layer[name]:
            problems.append(f"{name} reads 0 on {args.workload}")
    for name, value in layer.items():
        if value and any(name.startswith(p)
                         for p in EXPECT_ZERO[args.workload]):
            problems.append(f"{name} reads {value} on {args.workload}, "
                            f"which should bypass it")

    acceptance = {}
    for k, crit in enumerate(cl.acceptance.CRITERIA, start=1):
        try:
            rec = crit(args.seed)
        except Exception as exc:
            problems.append(f"acceptance criterion {k} raised {exc!r}")
            rec = {"passed": False, "seconds": 0.0, "budget_seconds": 1.0}
        acceptance[k] = rec
        layer[f"acceptance.criterion_{k}.seconds_over_budget"] = (
            rec["seconds"] / rec["budget_seconds"])

    ops = len(wl.items)
    failed = plain.failed + traced.failed + after.failed
    layer["bench.trace_overhead"] = traced_s / plain_s
    layer["bench.traced_ops"] = ops
    layer["bench.fail_ratio"] = failed / (3 * ops)

    span_file = os.path.join(ROOT, ".perfbench_out",
                             f"spans-{args.workload}-seed{args.seed}.csv")
    tracer.write_spans(span_file)
    info.update(
        ops=3 * ops, schedule_len=ops, failed=failed,
        fail_ratio=failed / (3 * ops), digest=traced.digest.hexdigest(),
        untraced_throughput_ops_s=ops / plain_s,
        traced_throughput_ops_s=ops / traced_s,
        spans=tracer.span_count, span_file=os.path.relpath(span_file, ROOT),
        bindings=tracer.bindings, trace_problems=problems,
        acceptance_passed={k: r["passed"] for k, r in acceptance.items()},
        setup_samples_s=[round(s, 4) for s in setups])
    units = {"calls": "count", "self_s": "s", "letters": "count",
             "factors": "count", "nnz_in": "count", "cols_in": "count",
             "seconds_over_budget": "s/s", "trace_overhead": "ratio",
             "traced_ops": "count", "fail_ratio": "ratio"}
    metrics = {name: (layer[name], units[name.rpartition(".")[2]])
               for name in per_layer_metric_names()}
    return [plain, traced, after], metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        workdir = make_workdir()
        try:
            set_up(args.workload, args.seed, workdir)
            print("ready", flush=True)
        finally:
            remove_workdir(workdir)
        return 0

    import_chevloops()         # exits with code 2 when the sources are absent
    setups = time_setups(args.workload, args.seed)
    workdir = make_workdir()
    try:
        cl, wl = set_up(args.workload, args.seed, workdir)
        info = {"workload": args.workload, "seed": args.seed,
                "trace": args.trace, "seconds": args.seconds, **machine()}
        if args.trace:
            passes, metrics, problems = run_traced(
                args, cl, wl, setups, info)
            attempted = sum(len(p.latencies) for p in passes)
            failed = sum(p.failed for p in passes)
            errors = [e for p in passes for e in p.first_errors]
            correct = failed == 0 and not problems
        else:
            res, metrics = run_untraced(args, wl, setups, info)
            attempted, failed = len(res.latencies), res.failed
            errors = res.first_errors
            correct = failed == 0
    finally:
        remove_workdir(workdir)

    for err in errors:
        print(err, file=sys.stderr)
    for problem in info.get("trace_problems", []):
        print(f"trace check failed: {problem}", file=sys.stderr)
    print(json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        extra = ""
        if name == "latency_ms_p90":
            extra = (f"  ({info['latency_samples']} operations, each the "
                     f"mean of {info['repeats_per_sample']} repeats; "
                     f"{info['samples_beyond_p90']} beyond p90)")
        print(f"{name:<58} {value:>16.6f} {unit}{extra}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

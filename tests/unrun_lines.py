"""Print every executable line of src/chevloops that no tier-1 test runs.

An opt-in tool, not a test: pytest does not collect it (no ``test_``
prefix).  It runs tier-1 in this process under a ``sys.settrace`` line
tracer, which makes it about 4x slower, so wall-clock tests may fail here
and pass untraced; a test that fails its time bound stops there, and the
lines it would have run next read as unrun.  Run it from the repository
root, with any extra pytest arguments:

    PYTHONPATH=src python tests/unrun_lines.py [-x] [tests/test_rings.py]

Lines that stay unrun on purpose are listed in ``KEPT`` with their
reason.  The script prints the tests that failed under the tracer, apart
from its line lists: a wall-clock bound that only the slower traced run
overruns is not a coverage gap.  It then prints the unrun lines that
``KEPT`` does not list and the listed lines that now run (or are gone),
and exits 1 when either line list is non-empty, whatever pytest's own
exit code and whichever tests failed.
"""

import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "chevloops"

# (file in src/chevloops, stripped line text) -> why no test runs it
KEPT = {
    ("oracles.py", "ell = _next_prime(ell)"):
        "every group order is at most MAX_GROUP_ORDER = 1024, so the first "
        "prime above 10^6 never divides it; the loop keeps the rank "
        "check's precondition that ell does not",
    ("acceptance.py",
     'raise ValueError(f"no representation on record for order {order}")'):
        "criterion 8 asks only for the orders on record",
    ("acceptance.py", 'raise RuntimeError("order computation ran away")'):
        "a unit of F_q has order at most q - 1",
}


def executable_lines(path: pathlib.Path) -> set[int]:
    todo, lines = [compile(path.read_text(), str(path), "exec")], set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class _Failures:
    """A pytest plugin that keeps the id of every failed test."""

    def __init__(self):
        self.ids = []

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.ids.append(f"{report.nodeid} ({report.when})")


def main(args: list[str]) -> int:
    ran, failures = set(), _Failures()

    def trace(frame, event, arg):
        if "chevloops" not in frame.f_code.co_filename:
            return None
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace

    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *args],
                           plugins=[failures])
    finally:
        sys.settrace(None)
    print(f"{len(failures.ids)} tests failed under the tracer:")
    for test in failures.ids:
        print(f"  {test}")
    ran = {(str(pathlib.Path(f).resolve()), line) for f, line in ran}
    unrun, unlisted, kept = 0, 0, set()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text().splitlines()
        for line in sorted(executable_lines(path)):
            if (str(path), line) not in ran:
                unrun += 1
                key = (path.name, text[line - 1].strip())
                if key in KEPT:
                    kept.add(key)
                else:
                    unlisted += 1
                    print(f"{path.relative_to(SRC.parent.parent)}:{line}: "
                          f"{key[1]}")
    stale = sorted(set(KEPT) - kept)
    for name, line in stale:
        print(f"KEPT but run or gone: {name}: {line}")
    print(f"{unrun} unrun lines, {unlisted} of them not kept "
          f"(pytest exit code {code})")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

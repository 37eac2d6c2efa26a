"""Print every executable line of src/chevloops that no tier-1 test runs.

An opt-in tool, not a test: pytest does not collect it (no ``test_``
prefix).  It runs tier-1 in this process under a ``sys.settrace`` line
tracer, which makes it about 4x slower, so wall-clock tests may fail here
and pass untraced.  Run it from the repository root, with any extra
pytest arguments:

    PYTHONPATH=src python tests/unrun_lines.py [-x] [tests/test_rings.py]
"""

import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "chevloops"


def executable_lines(path: pathlib.Path) -> set[int]:
    todo, lines = [compile(path.read_text(), str(path), "exec")], set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(args: list[str]):
    ran = set()

    def trace(frame, event, arg):
        if "chevloops" not in frame.f_code.co_filename:
            return None
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace

    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
    ran = {(str(pathlib.Path(f).resolve()), line) for f, line in ran}
    unrun = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text().splitlines()
        for line in sorted(executable_lines(path)):
            if (str(path), line) not in ran:
                unrun += 1
                print(f"{path.relative_to(SRC.parent.parent)}:{line}: "
                      f"{text[line - 1].strip()}")
    print(f"{unrun} unrun lines (pytest exit code {code})")


if __name__ == "__main__":
    main(sys.argv[1:])

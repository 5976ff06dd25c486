"""Line-coverage gate for ``src/rankfed``, stdlib only.

Runs the Tier-1 suite in this process under ``sys.settrace`` and
``threading.settrace``, tracing only frames whose code lives in
``src/rankfed``, and exits 1 when pytest fails or when any counted statement
never ran, printing each such statement as ``path:line: text``.

Counted: every ``ast.stmt`` except ``def``, ``class``, imports, ``try``,
``global``, ``nonlocal`` and docstrings. A statement ran when a line event
fired on one of its own lines: its lines less those of the statements nested
in it. Subprocesses are not followed.

Run from the repository root::

    python tests/line_coverage.py

Tracing about doubles the suite's time, so hypothesis runs with no deadline.
pytest does not collect this file: its name does not start with ``test_``.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rankfed"
# ast.TryStar is new in Python 3.11
UNCOUNTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
             ast.Try, getattr(ast, "TryStar", ast.Try), ast.Global, ast.Nonlocal)


def counted_statements(source: str) -> dict:
    """Each counted statement's first line mapped to its own lines."""
    out = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, UNCOUNTED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring, or another bare string: no code
        own = set(range(node.lineno, node.end_lineno + 1))
        for child in ast.walk(node):
            if child is not node and isinstance(child, ast.stmt):
                own -= set(range(child.lineno, child.end_lineno + 1))
        out[node.lineno] = own
    return out


class _Profile:
    """Registers the hypothesis profile before hypothesis's plugin loads it;
    importing hypothesis any earlier would keep pytest from rewriting it."""

    @pytest.hookimpl(tryfirst=True)
    def pytest_configure(self, config):
        import hypothesis

        hypothesis.settings.register_profile("line-coverage", deadline=None)


def main() -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    prefix = str(PACKAGE) + "/"
    hits: set = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
                              "--hypothesis-profile=line-coverage", str(ROOT / "tests")],
                             plugins=[_Profile()])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unrun, total = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text().splitlines()
        ran = {line for name, line in hits if name == str(path)}
        for first, own in sorted(counted_statements("\n".join(lines)).items()):
            total += 1
            if not own & ran:
                unrun.append(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    print("\n".join(unrun))
    print(f"line coverage: {total - len(unrun)} of {total} statements in "
          f"{PACKAGE.relative_to(ROOT)} ran; pytest exit status {int(status)}")
    return 1 if status != 0 or unrun else 0


if __name__ == "__main__":
    sys.exit(main())

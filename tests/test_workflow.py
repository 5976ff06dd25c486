"""The CI job that installs numpy 2.4.6, the numpy that generated
``tests/golden.json``, runs the whole suite again at
``OPENBLAS_NUM_THREADS=1``, so every bit and equality test is gated at one
BLAS thread as well as at the default, and runs the line-coverage gate,
``tests/line_coverage.py``, so no statement of ``src/rankfed`` goes unrun."""

import re
import shlex
from pathlib import Path

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
# pytest options that run less than the whole suite
NARROWING = ("-k", "-m", "--deselect", "--ignore", "--ignore-glob", "--lf", "--last-failed")


def _pinned_step(text, run):
    """The ``run:`` line of a step that the numpy-2.4.6 job runs and whose
    command matches the pattern ``run``, or None."""
    pin = re.search(r'python-version: "([\d.]+)"\s+numpy: numpy==2\.4\.6\s', text)
    assert pin, "no job installs numpy 2.4.6"
    return re.search(r"- name: .*\n(?:\s+if: matrix\.python-version == '%s'\n)?"
                     r"\s+run: (%s)" % (re.escape(pin.group(1)), run), text)


def test_the_pinned_numpy_job_runs_the_whole_suite_at_one_blas_thread():
    step = _pinned_step(WORKFLOW.read_text(), r"OPENBLAS_NUM_THREADS=1 .*")
    assert step, "no step of that job runs at OPENBLAS_NUM_THREADS=1"
    words = shlex.split(step.group(1))
    assert "pytest" in words, f"the one-thread step runs no pytest: {step.group(1)}"
    rest = words[words.index("pytest") + 1:]
    assert all(w.startswith("-") and w.split("=")[0] not in NARROWING for w in rest), \
        f"the one-thread pytest run names a test path or narrows the suite: {rest}"


def test_the_pinned_numpy_job_runs_the_line_coverage_gate():
    step = _pinned_step(WORKFLOW.read_text(),
                        r"\S*PYTHONPATH=src\S* python tests/line_coverage\.py.*")
    assert step, "no step of that job runs tests/line_coverage.py on src/"
    assert step.group(1).endswith("tests/line_coverage.py"), \
        f"the gate's step passes it arguments or adds a command: {step.group(1)}"

"""The CI job that installs numpy 2.4.6, the numpy that generated
``tests/golden.json``, runs the whole suite again at
``OPENBLAS_NUM_THREADS=1``, so every bit and equality test is gated at one
BLAS thread as well as at the default."""

import re
import shlex
from pathlib import Path

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
# pytest options that run less than the whole suite
NARROWING = ("-k", "-m", "--deselect", "--ignore", "--ignore-glob", "--lf", "--last-failed")


def test_the_pinned_numpy_job_runs_the_whole_suite_at_one_blas_thread():
    text = WORKFLOW.read_text()
    pin = re.search(r'python-version: "([\d.]+)"\s+numpy: numpy==2\.4\.6\s', text)
    assert pin, "no job installs numpy 2.4.6"
    step = re.search(r"- name: .*\n(?:\s+if: matrix\.python-version == '%s'\n)?"
                     r"\s+run: (OPENBLAS_NUM_THREADS=1 .*)" % re.escape(pin.group(1)), text)
    assert step, "no step of that job runs at OPENBLAS_NUM_THREADS=1"
    words = shlex.split(step.group(1))
    assert "pytest" in words, f"the one-thread step runs no pytest: {step.group(1)}"
    rest = words[words.index("pytest") + 1:]
    assert all(w.startswith("-") and w.split("=")[0] not in NARROWING for w in rest), \
        f"the one-thread pytest run names a test path or narrows the suite: {rest}"

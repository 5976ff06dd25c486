"""Every pytest node ID that the CI workflow names exists: each test file,
and each ``::Class`` or ``::function`` (``::Class::method``) in it, found
with ``ast`` without running pytest. A renamed test then fails here, not
only on a runner."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
# a path to a test module, then any ::Name parts (a parametrize id is not one)
NODE_ID = re.compile(r"(?<![\w./-])((?:[\w-]+/)*test_\w+\.py)((?:::\w+)*)")


def _defines(body, name):
    """The class or function named ``name`` in ``body``, or None."""
    return next((node for node in body if isinstance(
        node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name),
        None)


def missing(text):
    """The node IDs named in ``text`` that do not exist, relative to the
    repository root."""
    absent = []
    for match in NODE_ID.finditer(text):
        path, names = ROOT / match.group(1), match.group(2).split("::")[1:]
        if not path.is_file():
            absent.append(match.group(0))
            continue
        node = ast.parse(path.read_text(), str(path))
        for name in names:
            node = _defines(node.body, name)
            if node is None:
                absent.append(match.group(0))
                break
    return absent


def test_every_node_id_in_the_workflow_exists():
    text = WORKFLOW.read_text()
    assert NODE_ID.search(text), "the workflow names no test file"
    assert missing(text) == []


def test_a_renamed_node_is_reported():
    assert missing("pytest tests/test_model.py::TestTotalLocalLoss "
                   "tests/test_model.py::TestForward::test_zero_adapters_neutral") == []
    assert missing("pytest tests/test_model.py::TestTotalLocal "
                   "tests/test_model.py::TestForward::test_gone "
                   "tests/test_gone.py") == [
        "tests/test_model.py::TestTotalLocal",
        "tests/test_model.py::TestForward::test_gone", "tests/test_gone.py"]

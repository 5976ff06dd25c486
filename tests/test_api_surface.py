"""Every public module-level function and class in ``src/rankfed``, and
every public method of a public class, has a caller in ``src/``: a name
that only tests (or an ``__all__`` re-export) reach is deleted, not kept
beside the code that does the work. A method counts as called when its
name is used anywhere in ``src/``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rankfed"

# Public names kept without a caller in src/, each for a stated reason.
ALLOWED_UNCALLED = {
    # the benchmark's tracer wraps rankfed.harness.auc as its metrics.auc
    # layer; harness imports it for that target alone
    "auc",
    # the planned run manifest (run.json) will write the validated config
    # with it
    "config_text",
    # the benchmark's invariant check and its transmitted_params count read
    # the ledger's running totals through it
    "CommLedger.cumulative_transmitted",
}


def _trees():
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _public_definitions(trees):
    """(module, name) of each public module-level function and class, and
    (module, "Class.method") of each public method of a public class. A
    private class's methods are skipped: ``_PhiloxKey.generate_state`` is
    numpy's seeding protocol, called by numpy."""
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            out.append((module, node.name))
            if isinstance(node, ast.ClassDef):
                out.extend((module, f"{node.name}.{item.name}") for item in node.body
                           if isinstance(item, ast.FunctionDef)
                           and not item.name.startswith("_"))
    return out


def _bare(name):
    """A definition's name as a use spells it: a method's without its class."""
    return name.rpartition(".")[2]


def _referenced(trees):
    """Every name used outside import statements: a bare name, or the
    attribute of a dotted one. Import aliases and ``__all__`` strings are
    not uses."""
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_public_name_has_a_caller_in_src():
    trees = _trees()
    used = _referenced(trees)
    uncalled = [f"{module}:{name}" for module, name in _public_definitions(trees)
                if _bare(name) not in used and name not in ALLOWED_UNCALLED]
    assert not uncalled, f"public names nothing in src/ calls: {uncalled}"


def test_allowlist_names_only_uncalled_definitions():
    # an entry whose name gained a caller, or lost its definition, is removed
    trees = _trees()
    defined = {name for _, name in _public_definitions(trees)}
    assert ALLOWED_UNCALLED <= defined
    assert not {_bare(name) for name in ALLOWED_UNCALLED} & _referenced(trees)

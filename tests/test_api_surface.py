"""Every public module-level function and class in ``src/rankfed``, and
every public method of a public class, has a caller in ``src/``: a name
that only tests (or an ``__all__`` re-export) reach is deleted, not kept
beside the code that does the work. A name counts as called when it is
used anywhere in ``src/`` outside its own definition, so a method that
only forwards to a namesake (``self._gen.integers``) is not its own
caller. A private module-level function or class that nothing in ``src/``
uses outside its own definition is dead code and fails the same way, and
so does a name that a module imports and never uses."""

import ast
from collections import Counter
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
    # tests draw integer labels, sizes and scores from labelled streams
    # through it, about 40 sites in eight test modules
    "Rng.integers",
}


def _trees():
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _public_definitions(trees):
    """(module, name, node) of each public module-level function and class,
    and (module, "Class.method", node) of each public method of a public
    class. A private class's methods are skipped:
    ``_PhiloxKey.generate_state`` is numpy's seeding protocol, called by
    numpy."""
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            out.append((module, node.name, node))
            if isinstance(node, ast.ClassDef):
                out.extend((module, f"{node.name}.{item.name}", item) for item in node.body
                           if isinstance(item, ast.FunctionDef)
                           and not item.name.startswith("_"))
    return out


def _private_definitions(trees):
    """(module, name, node) of each private module-level function and class;
    a dunder such as a module ``__getattr__`` is a protocol, not a helper."""
    return [(module, node.name, node) for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__")]


def _bare(name):
    """A definition's name as a use spells it: a method's without its class."""
    return name.rpartition(".")[2]


def _uses(node):
    """How often each name is used under ``node`` outside import statements:
    a bare name, or the attribute of a dotted one. Import aliases and
    ``__all__`` strings are not uses."""
    used = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            used[sub.attr] += 1
    return used


def _uncalled(trees, definitions=_public_definitions):
    """(module, name) of each of ``definitions`` whose name is used in
    ``src/`` only inside that definition."""
    used = sum(map(_uses, trees.values()), Counter())
    return [(module, name) for module, name, node in definitions(trees)
            if used[_bare(name)] == _uses(node)[_bare(name)]]


def test_every_public_name_has_a_caller_in_src():
    uncalled = [f"{module}:{name}" for module, name in _uncalled(_trees())
                if name not in ALLOWED_UNCALLED]
    assert not uncalled, f"public names nothing in src/ calls: {uncalled}"


def test_every_private_definition_is_used_in_src():
    unused = [f"{module}:{name}"
              for module, name in _uncalled(_trees(), _private_definitions)]
    assert not unused, f"private definitions nothing in src/ uses: {unused}"


def test_allowlist_names_only_uncalled_definitions():
    # an entry whose name gained a caller, or lost its definition, is removed
    uncalled = {name for _, name in _uncalled(_trees())}
    assert ALLOWED_UNCALLED <= uncalled, ALLOWED_UNCALLED - uncalled


# (module, name) imported without a use in that module, each for a stated reason.
ALLOWED_UNUSED_IMPORTS = {
    # the benchmark's tracer wraps rankfed.harness.auc as its metrics.auc
    # layer; harness imports it for that target alone
    ("harness.py", "auc"),
}


def _unused_imports(trees):
    """(module, name) of each name a module imports and never uses: not as a
    bare name or a dotted name's root, and not as an ``__all__`` entry."""
    out = []
    for module, tree in trees.items():
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used |= {elt.value for elt in node.value.elts}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                out.extend((module, name) for alias in node.names
                           if (name := alias.asname or alias.name.partition(".")[0])
                           not in used)
    return out


def test_every_import_is_used():
    unused = [f"{module}:{name}" for module, name in _unused_imports(_trees())
              if (module, name) not in ALLOWED_UNUSED_IMPORTS]
    assert not unused, f"names imported and never used: {unused}"


def test_unused_import_allowlist_names_only_unused_imports():
    assert ALLOWED_UNUSED_IMPORTS <= set(_unused_imports(_trees()))

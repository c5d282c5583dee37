"""The README's promise of no third-party runtime dependencies, and the
import rule between the two state-space packages.

Every ``repro`` module is imported in a fresh interpreter.  Any top-level
module the imports pull in must come from the standard library, or be
``repro`` itself; modules the interpreter loaded before the first
``repro`` import (``site`` hooks of the environment) do not count.

``repro.ts`` (the graph builder) and ``repro.bdd`` (the symbolic query
engine) share only the kernel packages below them: neither imports the
other, at module level or inside a function.

A module other than a package's ``__init__.py`` uses every name it
imports: the name occurs as an ``ast.Name`` somewhere in the module.
``__init__.py`` files import to re-export, and ``from __future__``
imports are directives, so both are exempt.
"""

import ast
import os
import subprocess
import sys

import pytest

import repro

PROBE = """\
import importlib, pkgutil, sys
before = set(sys.modules)
import repro
for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
    if not info.name.endswith("__main__"):
        importlib.import_module(info.name)
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
# multiprocessing registers the main module a second time, as __mp_main__
allowed = set(sys.stdlib_module_names) | {"repro", "__mp_main__"}
print(" ".join(sorted(loaded - allowed)))
"""


def test_every_module_imports_only_the_standard_library():
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    result = subprocess.run([sys.executable, "-c", PROBE], env=env,
                            check=True, capture_output=True, text=True)
    assert result.stdout.split() == []


def imported_modules(package):
    """Absolute names of every module imported anywhere in the source of
    ``repro.<package>``, with ``from X import name`` counted as both
    ``X`` and ``X.name`` (the name may be a submodule)."""
    root = os.path.join(os.path.dirname(repro.__file__), package)
    path = ["repro", package]
    names = set()
    for filename in sorted(os.listdir(root)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(root, filename)) as handle:
            tree = ast.parse(handle.read(), filename)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                # level 1 is the package itself, level 2 is ``repro``
                base = path[:len(path) + 1 - node.level] if node.level \
                    else []
                if node.module:
                    base = base + node.module.split(".")
                module = ".".join(base)
                names.add(module)
                names.update(module + "." + alias.name
                             for alias in node.names)
    return names


@pytest.mark.parametrize("package,other", [("ts", "bdd"), ("bdd", "ts")])
def test_state_space_packages_do_not_import_each_other(package, other):
    forbidden = "repro." + other
    offending = sorted(name for name in imported_modules(package)
                       if name == forbidden
                       or name.startswith(forbidden + "."))
    assert offending == []


def unused_imports(path):
    """``(line, name)`` of every name ``path`` imports and never uses."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                name = (alias.asname or alias.name).partition(".")[0]
                if name not in used:
                    unused.append((node.lineno, name))
    return unused


def test_modules_use_every_name_they_import():
    root = os.path.dirname(repro.__file__)
    offending = []
    for directory, _, filenames in sorted(os.walk(root)):
        for filename in sorted(filenames):
            if filename.endswith(".py") and filename != "__init__.py":
                path = os.path.join(directory, filename)
                offending.extend(
                    "%s:%d %s" % (os.path.relpath(path, root), line, name)
                    for line, name in unused_imports(path))
    assert offending == []

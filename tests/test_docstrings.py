"""API and documentation hygiene.

* every public module, class, function and method is documented;
* the code blocks in ``README.md`` and ``docs/engines.md`` execute
  verbatim (doctest-style, so the documentation cannot rot);
* relative markdown links in the documentation resolve.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent


def walk_public_objects():
    for modinfo in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if modinfo.name.endswith("__main__"):
            continue
        mod = importlib.import_module(modinfo.name)
        yield modinfo.name, "module", mod
        for name, obj in vars(mod).items():
            if name.startswith("_"):
                continue
            if getattr(obj, "__module__", None) != modinfo.name:
                continue
            if inspect.isclass(obj) or inspect.isfunction(obj):
                yield "%s.%s" % (modinfo.name, name), "object", obj
                if inspect.isclass(obj):
                    for mname, meth in vars(obj).items():
                        if mname.startswith("_"):
                            continue
                        if inspect.isfunction(meth):
                            yield ("%s.%s.%s" % (modinfo.name, name, mname),
                                   "method", meth)


def test_every_public_item_documented():
    missing = []
    for qualname, kind, obj in walk_public_objects():
        doc = obj.__doc__ if kind == "module" else inspect.getdoc(obj)
        if not doc or not doc.strip():
            missing.append(qualname)
    assert not missing, "undocumented public items: %s" % missing


def test_every_package_reexports_all():
    import os

    for modinfo in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if modinfo.name.endswith("__main__"):
            continue
        mod = importlib.import_module(modinfo.name)
        if hasattr(mod, "__path__"):  # a package
            assert hasattr(mod, "__all__"), modinfo.name
            for name in mod.__all__:
                assert hasattr(mod, name), (modinfo.name, name)


# ---------------------------------------------------------------------- #
# executable documentation
# ---------------------------------------------------------------------- #

def python_blocks(path: Path):
    """The ```python fenced code blocks of a markdown file, in order."""
    blocks = re.findall(r"```python\n(.*?)```", path.read_text(), re.S)
    assert blocks, "no ```python blocks in %s" % path
    return blocks


@pytest.mark.parametrize("document", [
    "README.md", "docs/engines.md", "docs/observability.md",
    "docs/portfolio.md"])
def test_documentation_code_blocks_execute(document):
    """README quickstart, the engine guide and the observability guide
    run verbatim, top to bottom, in one shared namespace per document."""
    path = REPO_ROOT / document
    namespace = {}
    for index, block in enumerate(python_blocks(path)):
        code = compile(block, "%s[block %d]" % (document, index), "exec")
        exec(code, namespace)  # noqa: S102 - that is the point


def markdown_documents():
    return [REPO_ROOT / "README.md"] + \
        sorted((REPO_ROOT / "docs").glob("*.md"))


def test_markdown_relative_links_resolve():
    """Every relative link target in README/docs exists on disk."""
    link = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
    broken = []
    for document in markdown_documents():
        for target in link.findall(document.read_text()):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            target_path = target.split("#", 1)[0]
            if not target_path:
                continue  # pure in-page anchor
            if not (document.parent / target_path).exists():
                broken.append("%s -> %s" % (document.name, target))
    assert not broken, "broken markdown links: %s" % broken

"""The package has no runtime dependencies outside the standard library:
every module-level import in src/drinfeld is either a standard-library
module or a module of the package itself, and every name it binds is
used (or, in __init__.py, exported through __all__)."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "drinfeld"


def _imports(tree):
    """(line, module, bound name, level) for each name that the module's
    top-level import statements bind."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                yield (node.lineno, a.name,
                       a.asname or a.name.split(".")[0], 0)
        elif isinstance(node, ast.ImportFrom):
            for a in node.names:
                yield (node.lineno, node.module or "", a.asname or a.name,
                       node.level)


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_imports_are_stdlib_or_package_and_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _exported(tree)
    for line, module, name, level in _imports(tree):
        top = module.split(".")[0]
        assert level > 0 or top in sys.stdlib_module_names, \
            "%s:%d imports %r, which is not in the standard library" % (
                path.name, line, module)
        assert name in used, "%s:%d imports %r but never uses it" % (
            path.name, line, name)


def test_package_attributes_that_name_submodules_are_those_modules():
    """No name the package binds shadows one of its submodules, so
    `import drinfeld.<name> as m` binds the module: for each module file,
    the package attribute of that name, once the module is imported, is
    the module itself."""
    import importlib
    import drinfeld
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module("drinfeld." + path.stem)
        assert getattr(drinfeld, path.stem) is module, path.stem
    import drinfeld.agf as agf_module
    assert agf_module is sys.modules["drinfeld.agf"]

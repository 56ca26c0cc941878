import ast
import graphlib
import re
import sys
from pathlib import Path

import pytest

import dephimetry

PACKAGE = Path(dephimetry.__file__).parent

# The seeded sampler's pieces, which live in bayes next to simulate.
SAMPLER_NAMES = {
    "CHUNK_SHOTS", "BATCH_ELEMENTS", "_batch_shots", "_shaped", "_phase_weights",
    "_site_steps", "_product_weights", "chunk_rngs", "covariance_sqrt",
}


def test_star_import_exports_all():
    # a stale __all__ entry would only fail at a user's `import *`
    namespace = {}
    exec("from dephimetry import *", namespace)
    for name in dephimetry.__all__:
        assert hasattr(dephimetry, name), name
        assert namespace[name] is getattr(dephimetry, name)


def test_exports_come_from_their_defining_module():
    # each exported function and class is bound to the one object of the
    # module that defines it
    for name in dephimetry.__all__:
        obj = getattr(dephimetry, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def module_tree(name: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{name}.py").read_text())


MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def top_level_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def package_imports(tree: ast.Module) -> dict[str, set[str]]:
    """{package module: names taken from it} for a module's imports:
    `from .m import x` takes x from m, and `from . import m` takes the
    module m itself (the name m from __init__ when m is no module)."""
    taken: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "dephimetry":
            continue
        source = module.split(".")[-1] if module not in ("", "dephimetry") else "__init__"
        for alias in node.names:
            if source == "__init__" and alias.name in MODULES:
                taken.setdefault(alias.name, set())
            else:
                taken.setdefault(source, set()).add(alias.name)
    return taken


IMPORTS = {name: package_imports(module_tree(name)) for name in MODULES}


def test_imports_are_layered():
    # a cycle, or a module that imports from one that re-exports, would let
    # a name live in two places; a function-level import could hide a cycle
    graph = {name: set(IMPORTS[name]) for name in MODULES}
    graphlib.TopologicalSorter(graph).static_order()  # raises CycleError
    assert graph["core"] == set()
    for name in MODULES:
        tree = module_tree(name)
        nested = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
        assert all(node in tree.body for node in nested), name
        if name == "__init__":
            continue
        for source, names in IMPORTS[name].items():
            assert names <= top_level_names(module_tree(source)), (name, source)


def test_sampler_lives_in_bayes():
    for name in MODULES:
        defined = top_level_names(module_tree(name)) & SAMPLER_NAMES
        assert defined == (SAMPLER_NAMES if name == "bayes" else set()), name
    assert not hasattr(dephimetry.Povm, "traces")
    # one outcome numbering: a column's label is its outcome
    assert not hasattr(dephimetry.Povm, "collect")


def test_readme_layout_lists_each_module():
    # README's Layout block names every package module once, and no other
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Layout", 1)[1].split("```")[1]
    listed = re.findall(r"^  (\S+\.py) ", block, flags=re.MULTILINE)
    expected = [f"{name}.py" for name in MODULES if name not in ("__init__", "__main__")]
    assert sorted(listed) == expected


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_parses_as_python_3_10(path):
    # pyproject.toml declares requires-python >= 3.10
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


# Module-level imports kept without a use in their module, with the reason.
UNUSED_IMPORTS_ALLOWED = {
    # bench/tracing.py rebinds cli.classical_fi for its per-layer metric.
    ("cli", "classical_fi"),
}


def unused_imports(tree: ast.Module) -> set[str]:
    """Names bound by the module's top-level imports (not __future__) that
    no Name node of the module reads."""
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - used


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_no_unused_imports(path):
    # __init__ imports to re-export; every other module imports to use
    unused = {(path.stem, name) for name in unused_imports(ast.parse(path.read_text()))}
    assert unused <= UNUSED_IMPORTS_ALLOWED


def module_constants(tree: ast.Module) -> set[str]:
    """The UPPER_CASE names (an optional leading underscore) bound at the
    module's top level."""
    return {name for name in top_level_names(tree) if re.fullmatch(r"_?[A-Z][A-Z0-9_]*", name)}


def read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, bare (x) or as an attribute (m.x)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_no_unused_module_constants():
    # a check deleted without its tolerance would leave the constant behind;
    # a constant is read in its own module or in one that imports from it
    read = {name: read_names(module_tree(name)) for name in MODULES}
    unread = set()
    for name in MODULES:
        readers = [name] + [m for m in MODULES if name in IMPORTS[m]]
        for constant in module_constants(module_tree(name)):
            if not any(constant in read[m] for m in readers):
                unread.add((name, constant))
    assert unread == set()

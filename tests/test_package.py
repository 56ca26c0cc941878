import ast
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


def module_tree(name: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{name}.py").read_text())


def names_imported_from(tree: ast.Module, source: str) -> set[str]:
    """Names a module takes from the package module `source`, by any import
    form; the module itself counts as the name `source`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[-1] == source:
                names.update(alias.name for alias in node.names)
            elif module in ("", "dephimetry"):
                names.update(a.name for a in node.names if a.name == source)
        elif isinstance(node, ast.Import):
            names.update(a.name for a in node.names if a.name.split(".")[-1] == source)
    return names


def top_level_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_module_boundaries():
    # fisher needs nothing of the channel; bayes takes only the channel from
    # dephasing and owns its sampler; dephasing keeps none of the sampler
    assert names_imported_from(module_tree("fisher"), "dephasing") == set()
    assert names_imported_from(module_tree("bayes"), "dephasing") == {"dephase"}
    assert top_level_names(module_tree("dephasing")) & SAMPLER_NAMES == set()
    assert top_level_names(module_tree("bayes")) >= SAMPLER_NAMES
    assert not hasattr(dephimetry.Povm, "traces")


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

"""Package surface: the package imports only the standard library, numpy
and PyYAML, and every name it exports resolves."""

import ast
import sys
from pathlib import Path

import fedssa

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "yaml"}


def test_package_imports_only_stdlib_numpy_and_yaml():
    sources = sorted(Path(fedssa.__file__).parent.glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {m}" for m in modules
                        if m.split(".")[0] not in ALLOWED]
    assert not foreign, f"imports outside stdlib, numpy and yaml: {foreign}"


def test_every_export_resolves_once():
    names = fedssa.__all__
    assert len(names) == len(set(names)), \
        f"repeated exports: {sorted({n for n in names if names.count(n) > 1})}"
    missing = [name for name in names if not hasattr(fedssa, name)]
    assert not missing, f"exports that do not resolve: {missing}"

import ast
import importlib
import pathlib
import pkgutil

import horocount


def test_all_exports_resolve():
    # a stale __all__ entry otherwise fails only under ``import *``
    checked = []
    for info in pkgutil.iter_modules(horocount.__path__):
        module = importlib.import_module(f"horocount.{info.name}")
        names = getattr(module, "__all__", None)
        if names is None:
            continue
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"horocount.{info.name}.__all__ names missing {missing}"
        checked.append(info.name)
    assert {"constants", "cosets", "decompose", "dynamics", "measure",
            "partitions"} <= set(checked)


def test_no_unused_imports():
    # a deletion leaves imports behind; ``iter_modules`` does not list
    # ``__init__``, whose imports are re-exports
    for info in pkgutil.iter_modules(horocount.__path__):
        path = pathlib.Path(horocount.__path__[0]) / f"{info.name}.py"
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
        used.update(getattr(importlib.import_module(f"horocount.{info.name}"), "__all__", ()))
        unused = {name: line for name, line in imported.items() if name not in used}
        assert not unused, f"horocount.{info.name} imports names it never uses: {unused}"

import importlib
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

"""The traced benchmark wraps sltk functions and methods by name.

`bench/layers.py` lists them; a name that goes away breaks the traced run
without any sltk test noticing. These checks read that list, without
running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    for modname, attr, *_ in load_layers().FUNCTIONS:
        module = importlib.import_module(f"sltk.{modname}")
        assert callable(getattr(module, attr, None)), f"{modname}.{attr}"


def test_every_traced_method_is_defined_on_its_class():
    for modname, cls_name, method, *_ in load_layers().METHODS:
        cls = getattr(importlib.import_module(f"sltk.{modname}"), cls_name)
        assert method in cls.__dict__, f"{modname}.{cls_name}.{method}"

"""The traced benchmark wraps sltk functions and methods by name.

`bench/layers.py` lists them; a name that goes away breaks the traced run
without any sltk test noticing. These checks read that list, without
running the benchmark, and check what the tracer's wrappers count: every
state a `Space` numbers is numbered inside `Space.intern`.
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


def test_every_state_is_numbered_inside_intern(monkeypatch):
    # The traced run counts `equiv.states` as what each `Space.intern` call
    # adds to `Space._items`: a state numbered anywhere else, or an intern
    # nested in another, would read as a wrong count and fail no other test.
    from sltk import equiv
    from sltk.equiv import BOUNDED, EXACT, TRACE, bisim_check

    from .corpus import finite_corpus, tail_corpus

    added = {}
    init, intern = equiv.Space.__init__, equiv.Space.intern

    def recorded(space, *args, **kwargs):
        init(space, *args, **kwargs)
        added[space] = 0

    def counted(space, items):
        before = len(space._items)
        sid = intern(space, items)
        added[space] += len(space._items) - before
        return sid

    monkeypatch.setattr(equiv.Space, "__init__", recorded)
    monkeypatch.setattr(equiv.Space, "intern", counted)
    finite = [p for _, p in finite_corpus()[:5]]
    tail = dict(tail_corpus())
    pairs = [(p, q) for k, p in enumerate(finite) for q in finite[k:]]
    # names to rename, and recursion that exact mode hands to the game
    pairs += [(tail["t_local"], tail["t_local_dead"]),
              (tail["t_relay_loop"], tail["t_stutter"]),
              (tail["t_sticky"], tail["t_beat"])]
    for p, q in pairs:
        for mode in (EXACT, TRACE, BOUNDED):
            bisim_check(p, q, mode=mode)
    assert len(added) == 2 * 3 * len(pairs)
    for space, numbered in added.items():
        assert numbered == len(space._items) > 0

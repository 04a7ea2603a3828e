"""Per-layer tracing of sltk from outside the package.

`Tracer.install` replaces public functions and methods of the sltk modules
with wrappers that count calls and time outermost entries, and
`Tracer.uninstall` puts the originals back. Nothing inside sltk knows it is
being traced.

A module-level function is replaced under every name that refers to it in
any sltk module (so `from .syntax import substitute` in semantics is
wrapped too); a method is replaced on its class. A call that re-enters a
function already running (its own recursion) passes straight through, so
counts are outermost calls. Each timed call opens a span for its layer
unless the innermost open span already belongs to that layer; a layer's
self time is the time of its spans minus the time of the spans of other
layers they contain.
"""

from __future__ import annotations

import time
from collections import Counter

# (module, attribute, layer, metric prefix, timed)
FUNCTIONS = [
    ("syntax", "parse_program", "syntax", "syntax.parse", True),
    ("syntax", "substitute", "syntax", "syntax.substitute", True),
    ("semantics", "try_step", "semantics", "semantics.try_step", False),
    ("semantics", "can_step", "semantics", "semantics.can_step", False),
    ("semantics", "end_of_instant", "semantics", "semantics.end_of_instant",
     True),
    ("tailcore", "try_step_tail", "tailcore", "tailcore.try_step", False),
    ("tailcore", "can_step_tail", "tailcore", "tailcore.can_step", False),
    ("tailcore", "tail_substitute", "tailcore", "tailcore.substitute", True),
    ("tailcore", "parse_tail_program", "tailcore", "tailcore.parse", True),
    ("tailcore", "check_reactivity_tail", "tailcore",
     "tailcore.check_reactivity", True),
    ("analysis", "check_reactivity", "analysis", "analysis.check_reactivity",
     True),
    ("analysis", "check_bounded", "analysis", "analysis.check_bounded", True),
    ("cps", "cps_program", "cps", "cps.cps_program", True),
    ("mealy", "program_to_mealy", "mealy", "mealy.program_to_mealy", True),
    ("mealy", "closure", "mealy", "mealy.closure", True),
    ("mealy", "mealy_to_program", "mealy", "mealy.mealy_to_program", True),
    ("mealy", "mealy_trace_equiv", "mealy", "mealy.trace_equiv", True),
    ("equiv", "bisim_check", "equiv", "equiv.bisim_check", True),
    ("_canon", "canonical_multiset", "canon", "canon.canonical", True),
]

# (module, class, method, layer, metric prefix)
METHODS = [
    ("semantics", "Runner", "run_instant", "semantics",
     "semantics.run_instant"),
    ("tailcore", "TailRunner", "run_instant", "tailcore",
     "tailcore.run_instant"),
] + [
    ("equiv", "Space", name, "equiv.space", f"equiv.space.{name}")
    for name in ("intern", "tau", "ins", "barbs", "suspended", "weak_tau",
                 "converges", "l_converges", "eoi", "with_emits", "weak_in")
]

# Every per-layer metric: name -> (unit, better). Figures are per round.
METRICS = {
    "semantics.run_instant_s": ("s", "lower"),
    "tailcore.run_instant_s": ("s", "lower"),
    "semantics.steps": ("count", "lower"),
    "tailcore.steps": ("count", "lower"),
    "semantics.probes": ("count", "lower"),
    "tailcore.probes": ("count", "lower"),
    "semantics.step_yield": ("ratio", "higher"),
    "tailcore.step_yield": ("ratio", "higher"),
    "semantics.residual_threads": ("count", "lower"),
    "semantics.live_threads": ("count", "lower"),
    "tailcore.residual_threads": ("count", "lower"),
    "tailcore.live_threads": ("count", "lower"),
    "semantics.end_of_instant_s": ("s", "lower"),
    "syntax.substitute_calls": ("count", "lower"),
    "syntax.substitute_s": ("s", "lower"),
    "tailcore.substitute_calls": ("count", "lower"),
    "tailcore.substitute_s": ("s", "lower"),
    "syntax.parse_s": ("s", "lower"),
    "tailcore.parse_s": ("s", "lower"),
    "analysis.check_reactivity_s": ("s", "lower"),
    "analysis.check_bounded_s": ("s", "lower"),
    "tailcore.check_reactivity_s": ("s", "lower"),
    "cps.cps_program_s": ("s", "lower"),
    "cps.equations": ("count", "lower"),
    "mealy.program_to_mealy_s": ("s", "lower"),
    "mealy.closure_calls": ("count", "lower"),
    "mealy.closure_s": ("s", "lower"),
    "mealy.machine_states": ("count", "lower"),
    "mealy.mealy_to_program_s": ("s", "lower"),
    "mealy.trace_equiv_s": ("s", "lower"),
    "equiv.bisim_check_s": ("s", "lower"),
    "equiv.self_s": ("s", "lower"),
    "equiv.space_s": ("s", "lower"),
    "equiv.intern_calls": ("count", "lower"),
    "equiv.states": ("count", "lower"),
    "equiv.intern_new_ratio": ("ratio", "higher"),
    "equiv.with_emits_calls": ("count", "lower"),
    "equiv.eoi_calls": ("count", "lower"),
    "equiv.tau_calls": ("count", "lower"),
    "canon.canonical_calls": ("count", "lower"),
    "canon.canonical_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    def __init__(self, sl):
        self.sl = sl
        self.calls = Counter()
        self.times = Counter()
        self.self_times = Counter()
        self.extra = Counter()
        self._spans = []
        self._active = set()
        self._last_instant = {}
        self._patches = []

    # -- wrappers ----------------------------------------------------------

    def _counting(self, orig, key):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return orig(*args, **kwargs)
        return wrapper

    def _timed(self, orig, key, layer, post=None):
        calls, times, self_times = self.calls, self.times, self.self_times
        spans, active = self._spans, self._active
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if key in active:
                return orig(*args, **kwargs)
            active.add(key)
            calls[key] += 1
            span = None
            if not spans or spans[-1][0] != layer:
                span = [layer, 0.0]
                spans.append(span)
            start = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                elapsed = clock() - start
                times[key] += elapsed
                active.discard(key)
                if span is not None:
                    spans.pop()
                    self_times[layer] += elapsed - span[1]
                    if spans:
                        spans[-1][1] += elapsed
            if post is not None:
                post(args, result)
            return result
        return wrapper

    # -- post hooks --------------------------------------------------------

    def _instant_hook(self, layer, nil_type):
        def post(args, result):
            self.extra[f"{layer}.steps"] += result.steps
            runner = args[0]
            live = sum(1 for t in result.residual
                       if not isinstance(t, nil_type))
            self._last_instant[(layer, id(runner))] = \
                (runner, len(result.residual), live)
        return post

    def _intern(self, orig):
        def intern(space, items):
            before = len(space._items)
            sid = orig(space, items)
            self.extra["equiv.states"] += len(space._items) - before
            return sid
        return intern

    def _post(self, key):
        sl = self.sl
        if key == "semantics.run_instant":
            return self._instant_hook("semantics", sl.syntax.Nil)
        if key == "tailcore.run_instant":
            return self._instant_hook("tailcore", sl.tailcore.TNil)
        if key == "cps.cps_program":
            return lambda args, r: self.extra.update(
                {"cps.equations": len(r.program.defs)})
        if key == "mealy.program_to_mealy":
            return lambda args, r: self.extra.update(
                {"mealy.machine_states": len(r.states)})
        return None

    # -- install / uninstall -----------------------------------------------

    def install(self):
        sl = self.sl
        modules = [getattr(sl, name) for name in sl.MODULES]
        for modname, attr, layer, key, timed in FUNCTIONS:
            orig = getattr(getattr(sl, modname), attr)
            wrapper = (self._timed(orig, key, layer, self._post(key))
                       if timed else self._counting(orig, key))
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, name, orig))
                        setattr(mod, name, wrapper)
        for modname, cls_name, method, layer, key in METHODS:
            cls = getattr(getattr(sl, modname), cls_name)
            orig = cls.__dict__[method]
            inner = self._intern(orig) if key == "equiv.space.intern" else orig
            self._patches.append((cls, method, orig))
            setattr(cls, method, self._timed(inner, key, layer,
                                             self._post(key)))

    def uninstall(self):
        while self._patches:
            target, name, orig = self._patches.pop()
            setattr(target, name, orig)

    def end_round(self):
        """Fold the last instant of every runner of the round into the
        residual and live thread counts."""
        for (layer, _), (_, residual, live) in self._last_instant.items():
            self.extra[f"{layer}.residual_threads"] += residual
            self.extra[f"{layer}.live_threads"] += live
        self._last_instant.clear()

    # -- report ------------------------------------------------------------

    def metrics(self, rounds, overhead):
        c, t, x = self.calls, self.times, self.extra
        raw = {
            "semantics.run_instant_s": t["semantics.run_instant"],
            "tailcore.run_instant_s": t["tailcore.run_instant"],
            "semantics.steps": x["semantics.steps"],
            "tailcore.steps": x["tailcore.steps"],
            "semantics.probes": c["semantics.try_step"]
            + c["semantics.can_step"],
            "tailcore.probes": c["tailcore.try_step"] + c["tailcore.can_step"],
            "semantics.residual_threads": x["semantics.residual_threads"],
            "semantics.live_threads": x["semantics.live_threads"],
            "tailcore.residual_threads": x["tailcore.residual_threads"],
            "tailcore.live_threads": x["tailcore.live_threads"],
            "semantics.end_of_instant_s": t["semantics.end_of_instant"],
            "syntax.substitute_calls": c["syntax.substitute"],
            "syntax.substitute_s": t["syntax.substitute"],
            "tailcore.substitute_calls": c["tailcore.substitute"],
            "tailcore.substitute_s": t["tailcore.substitute"],
            "syntax.parse_s": t["syntax.parse"],
            "tailcore.parse_s": t["tailcore.parse"],
            "analysis.check_reactivity_s": t["analysis.check_reactivity"],
            "analysis.check_bounded_s": t["analysis.check_bounded"],
            "tailcore.check_reactivity_s": t["tailcore.check_reactivity"],
            "cps.cps_program_s": t["cps.cps_program"],
            "cps.equations": x["cps.equations"],
            "mealy.program_to_mealy_s": t["mealy.program_to_mealy"],
            "mealy.closure_calls": c["mealy.closure"],
            "mealy.closure_s": t["mealy.closure"],
            "mealy.machine_states": x["mealy.machine_states"],
            "mealy.mealy_to_program_s": t["mealy.mealy_to_program"],
            "mealy.trace_equiv_s": t["mealy.trace_equiv"],
            "equiv.bisim_check_s": t["equiv.bisim_check"],
            "equiv.self_s": self.self_times["equiv"],
            "equiv.space_s": self.self_times["equiv.space"],
            "equiv.intern_calls": c["equiv.space.intern"],
            "equiv.states": x["equiv.states"],
            "equiv.with_emits_calls": c["equiv.space.with_emits"],
            "equiv.eoi_calls": c["equiv.space.eoi"],
            "equiv.tau_calls": c["equiv.space.tau"],
            "canon.canonical_calls": c["canon.canonical"],
            "canon.canonical_s": t["canon.canonical"],
        }
        out = {name: value / rounds for name, value in raw.items()}
        out["semantics.step_yield"] = _ratio(raw["semantics.steps"],
                                             raw["semantics.probes"])
        out["tailcore.step_yield"] = _ratio(raw["tailcore.steps"],
                                            raw["tailcore.probes"])
        out["equiv.intern_new_ratio"] = _ratio(raw["equiv.states"],
                                               raw["equiv.intern_calls"])
        out["trace.overhead"] = overhead
        return {name: {"value": out[name], "unit": METRICS[name][0]}
                for name in METRICS}

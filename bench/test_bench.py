"""Tests of the benchmark itself: its reference checks reject wrong
answers, its inputs follow the seed, the deep-program ops fail as named,
and tracing is repeatable and leaves sltk as it found it.

    python3 -m pytest bench        (or: cd bench && python3 -m unittest)
"""

from __future__ import annotations

import random
import unittest

import gen
import layers
import run


class SmallCmRun(run.CmRun):
    LONG_INSTANTS = 16
    INSTANTS = 16
    RANDOM_INSTANTS = 16
    N_HALTING = 1
    N_BLOCKED = 1


class SmallPipeline(run.Pipeline):
    SOURCES = 2
    MEALY = ((3, 2),)
    ENCODINGS = 1


class SmallEquivExact(run.EquivExact):
    GENERATED = 1

    def __init__(self, sl, seed):
        super().__init__(sl, seed)
        self.pairs = self.pairs[:4] + self.pairs[-2:]


def one_round(workload):
    return run.measure(workload, 0, max_rounds=1)


class ChecksRejectWrongAnswers(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.sl = run.import_sltk()

    def test_cm_run(self):
        wl = SmallCmRun(self.sl, 3)
        results = one_round(wl).first
        self.assertEqual(wl.verify(results), [])

        halt_at = next(k for k in range(wl.INSTANTS)
                       if "halt" in results[("halting", "deterministic", k)])
        dropped = dict(results)
        for kind in ("deterministic", "random", "cps"):
            dropped[("halting", kind, halt_at)] = frozenset()
        self.assertTrue(any("halt emitted 0" in p
                            for p in wl.verify(dropped)))

        twice = dict(results)
        twice[("halting", "deterministic", halt_at + 1)] = frozenset({"halt"})
        self.assertTrue(wl.verify(twice))

        diverged = dict(results)
        diverged[("looping", "cps", 5)] = frozenset({"halt"})
        self.assertTrue(any("cps outputs differ" in p
                            for p in wl.verify(diverged)))

    def test_equiv(self):
        wl = SmallEquivExact(self.sl, 4)
        results = one_round(wl).first
        self.assertEqual(wl.verify(results), [])
        for key in results:
            flipped = dict(results)
            flipped[key] = not results[key]
            self.assertTrue(wl.verify(flipped), key)
        twin = next(k for k in results if k[1].endswith("~rearranged"))
        flipped = dict(results)
        flipped[twin] = False
        self.assertEqual(len(wl.verify(flipped)), 2)

    def test_pipeline(self):
        wl = SmallPipeline(self.sl, 5)
        results = one_round(wl).first
        self.assertEqual(wl.verify(results), [])

        source = results["source-0"]
        k = next(k for k, out in enumerate(source.source_out) if out)
        source_out = list(source.source_out)
        source_out[k] = frozenset()
        results["source-0"] = type(source)(**{**vars(source),
                                              "source_out": source_out})
        self.assertTrue(any("source-0" in p for p in wl.verify(results)))

        results = one_round(wl).first
        results["mealy-3"].verdict = False
        self.assertTrue(any("mealy-3" in p for p in wl.verify(results)))

        results = one_round(wl).first
        results["mealy-3"].program.initial = (self.sl.tailcore.TNIL,)
        self.assertTrue(any("disagrees with the table" in p
                            for p in wl.verify(results)))


class Inputs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.sl = run.import_sltk()

    def test_same_seed_same_inputs(self):
        for make in (lambda r: gen.source_program_text(r),
                     lambda r: gen.counter_machine_text(r, 5),
                     lambda r: gen.monotone_mealy_text(r, 4),
                     lambda r: gen.print_parts(*gen.finite_tail_parts(r)),
                     lambda r: gen.print_parts(*gen.ring_parts(
                         gen.wide_ring(r, 4, 2)))):
            self.assertEqual(make(random.Random(7)), make(random.Random(7)))
            self.assertNotEqual(make(random.Random(7)),
                                make(random.Random(8)))

    def test_equivalence_programs_test_inputs_and_emit_outputs(self):
        for wl_cls in (run.EquivExact, run.EquivTraceWide):
            wl = wl_cls(self.sl, 11)
            for _, a, b, _ in wl.pairs:
                for p in (a, b):
                    text = self.sl.tailcore.print_tail_program(p)
                    # a definition parameter stands for the output passed
                    params = tuple(x for d in p.defs.values()
                                   for x in d.params)
                    for kw, allowed in (("present", p.inputs + ("%pause",)),
                                        ("ite", p.inputs),
                                        ("emit!", p.outputs + params)):
                        for chunk in text.split(f"({kw} ")[1:]:
                            self.assertIn(chunk.split()[0], allowed)

    def test_selected_halting_machines_halt_inside_their_run(self):
        for seed in range(1, 9):
            wl = run.CmRun(self.sl, seed)
            for name, halted, program, _, instants in wl.machines:
                if not name.startswith("random-halting"):
                    continue
                runner = self.sl.semantics.Runner(program)
                outs = [runner.run_instant().outputs for _ in range(instants)]
                self.assertEqual(sum("halt" in o for o in outs), 1,
                                 (seed, name))


class Setup(unittest.TestCase):
    def test_repeated_setup_keeps_the_running_modules(self):
        import sys
        for name in [n for n in sys.modules if n.split(".")[0] == "sltk"]:
            del sys.modules[name]  # as in a fresh process
        workload, _ = run.setup(SmallPipeline, 1)
        before = dict(sys.modules)
        again, elapsed = run.setup(SmallPipeline, 1)
        self.assertIsNone(again)
        self.assertGreater(elapsed, 0)
        for name in ("sltk", "sltk.mealy", "sltk.equiv"):
            self.assertIs(sys.modules[name], before[name])
        self.assertIs(workload.sl.mealy, sys.modules["sltk.mealy"])


class DeepOps(unittest.TestCase):
    def test_deep_programs_are_the_only_failures(self):
        sl = run.import_sltk()
        res = one_round(SmallPipeline(sl, 6))
        self.assertEqual(sorted(res.failures),
                         sorted(name for name, _, _ in run.Pipeline.DEEP))
        self.assertEqual(set(res.failures.values()), {"RecursionError"})


class Tracing(unittest.TestCase):
    def traced_counts(self, seed):
        sl = run.import_sltk()
        wl = SmallPipeline(sl, seed)
        tracer = layers.Tracer(sl)
        tracer.install()
        try:
            run.measure(wl, 0, tracer=tracer, max_rounds=2)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(2, 1.0)
        return sl, {k: v["value"] for k, v in metrics.items()
                    if v["unit"] in ("count", "ratio") and k != "trace.overhead"}

    def test_counts_repeat_and_originals_return(self):
        sl, first = self.traced_counts(9)
        _, second = self.traced_counts(9)
        self.assertEqual(first, second)
        self.assertGreater(first["mealy.closure_calls"], 0)
        self.assertGreater(first["semantics.steps"], 0)
        self.assertEqual(set(first) | {"trace.overhead"} |
                         {k for k, (u, _) in layers.METRICS.items()
                          if u == "s"}, set(layers.METRICS))
        sl2 = run.import_sltk()
        tracer = layers.Tracer(sl2)
        before = sl2.semantics.substitute, sl2.equiv.Space.intern
        tracer.install()
        self.assertIsNot(sl2.semantics.substitute, before[0])
        tracer.uninstall()
        self.assertIs(sl2.semantics.substitute, before[0])
        self.assertIs(sl2.equiv.Space.intern, before[1])


if __name__ == "__main__":
    unittest.main()

"""The sltk benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process, on inputs made from the seed, for about
S seconds of whole rounds (a round is the workload's fixed list of
operations), checks every result against a reference computed apart from
the timed code, and prints one JSON object as its last line of output:
the end-to-end metrics with --trace 0, the per-layer metrics (from a
separate traced measurement, see layers.py) with --trace 1. See README.md
for the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import gen
import inputs
import layers

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
MODULES = ("syntax", "semantics", "tailcore", "analysis", "cps", "mealy",
           "equiv", "_canon", "encodings")
SETUP_BEFORE = 3
SETUPS_DURING = 8
TAIL_MIN_BEYOND = 10
REF_EVERY_S = 0.25


class SetupError(Exception):
    """The benchmark cannot run here (for instance, no sltk sources)."""


def import_sltk():
    """Import sltk afresh from this checkout's sources."""
    for name in [n for n in sys.modules if n == "sltk" or
                 n.startswith("sltk.")]:
        del sys.modules[name]
    if not (SRC / "sltk" / "__init__.py").is_file():
        raise SetupError(f"no sltk sources under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    sltk = importlib.import_module("sltk")
    if Path(sltk.__file__).resolve().parent != SRC / "sltk":
        raise SetupError(f"imported sltk from {sltk.__file__}")
    sl = SimpleNamespace(MODULES=MODULES)
    for name in MODULES:
        setattr(sl, name, importlib.import_module(f"sltk.{name}"))
    return sl


def table_walk(machine, word):
    """Output wire sets of a Mealy machine along an input word of wire
    index sets."""
    state, out = machine.init, []
    for X in word:
        out.append(machine.output[(state, X)])
        state = machine.next_state[(state, X)]
    return out


def wires(names, signals):
    """Wire index set (1-based, in interface order) of a signal set."""
    return frozenset(k for k, s in enumerate(names, start=1) if s in signals)


def run_word(runner, word):
    return [runner.run_instant(X).outputs for X in word]


def reference_pass():
    """One pass of fixed plain-Python work that never touches sltk: the
    yardstick of the host's speed at the moment. Like the interpreters and
    the equivalence checker, it builds tuples, strings and sets and walks
    dicts. It takes about 11 ms on the reference host."""
    rng = random.Random(1)
    index = {}
    for k in range(6000):
        term = (rng.randrange(64), f"s{k % 97}", (k, k + 1))
        index.setdefault(term[1], []).append(term)
    total = 0
    for name in sorted(index):
        threads = sorted(index[name], key=lambda t: t[0])
        total += len(frozenset(t[0] for t in threads))
    return total


# ---------------------------------------------------------------------------
# workloads


class CmRun:
    """Counter-machine encodings run instant by instant with no inputs.

    One op is one instant. A round runs every machine three times: the
    source under the deterministic and the seeded random policy, and its
    CPS image under TailRunner.
    """

    name = "cm-run"
    tail_percentile = 98
    LONG_INSTANTS = 80
    INSTANTS = 40
    RANDOM_INSTANTS = 16
    N_HALTING = 1
    N_BLOCKED = 1

    def __init__(self, sl, seed):
        self.sl = sl
        self.seed = seed
        rng = random.Random(seed)
        enc = sl.encodings
        fixed = [("looping", inputs.LOOPING_MACHINE, self.LONG_INSTANTS),
                 ("halting", inputs.HALTING_MACHINE, self.INSTANTS)]
        chosen = [(name, enc.parse_machine(text), k) for name, text, k in fixed]
        halting = blocked = 0
        while halting < self.N_HALTING or blocked < self.N_BLOCKED:
            machine = enc.parse_machine(gen.counter_machine_text(rng, 5))
            halted, steps = enc.run_machine(machine, max_steps=10_000)
            # a halting machine must halt well inside its run: the
            # encoding needs at most about three instants per step; a
            # blocked machine decrements an empty counter and never halts
            if halted and 3 <= steps <= 4 and halting < self.N_HALTING:
                halting += 1
                chosen.append((f"random-halting-{halting}", machine,
                               self.RANDOM_INSTANTS))
            elif not halted and steps < 10_000 and blocked < self.N_BLOCKED:
                blocked += 1
                chosen.append((f"random-blocked-{blocked}", machine,
                               self.RANDOM_INSTANTS))
        self.machines = []
        for name, machine, instants in chosen:
            halted, _ = enc.run_machine(machine, max_steps=10_000)
            program = enc.encode_counter_machine(machine)
            image = sl.cps.cps_program(program).program
            self.machines.append((name, halted, program, image, instants))

    def round(self):
        sem, tail = self.sl.semantics, self.sl.tailcore
        ops = []
        for name, _, program, image, instants in self.machines:
            makers = {
                "deterministic": lambda p=program: sem.Runner(p),
                "random": lambda p=program: sem.Runner(
                    p, policy=sem.RANDOM, seed=self.seed),
                "cps": lambda i=image: tail.TailRunner(i),
            }
            for kind, make in makers.items():
                holder = []

                def first(make=make, holder=holder):
                    holder.append(make())
                    return holder[0].run_instant().outputs

                def later(holder=holder):
                    return holder[0].run_instant().outputs

                for k in range(instants):
                    ops.append(((name, kind, k), first if k == 0 else later))
        return ops

    def verify(self, results):
        problems = []
        for name, halted, _, _, instants in self.machines:
            runs = {kind: [results[(name, kind, k)] for k in range(instants)]
                    for kind in ("deterministic", "random", "cps")}
            if None in runs["deterministic"]:
                continue
            halts = sum("halt" in out for out in runs["deterministic"])
            if halts != (1 if halted else 0):
                problems.append(f"{name}: halt emitted {halts} times, "
                                f"run_machine halted={halted}")
            for kind in ("random", "cps"):
                if runs[kind] != runs["deterministic"]:
                    problems.append(f"{name}: {kind} outputs differ from the "
                                    f"deterministic run")
        return problems


class _EquivWorkload:
    """Shared shape of the two equivalence workloads: one op is one
    bisim_check on a program pair; the reference verdict is Mealy trace
    equivalence of the machines extracted from the two programs."""

    tail_percentile = 90

    def _parse(self, text):
        return self.sl.tailcore.parse_tail_program(text)

    def round(self):
        bisim = self.sl.equiv.bisim_check
        return [((k, name), lambda a=a, b=b: bool(bisim(a, b)))
                for k, (name, a, b, _) in enumerate(self.pairs)]

    def verify(self, results):
        mealy = self.sl.mealy
        problems = []
        for k, (name, a, b, must_hold) in enumerate(self.pairs):
            verdict = results[(k, name)]
            if verdict is None:
                continue
            reference = bool(mealy.mealy_trace_equiv(
                mealy.program_to_mealy(a), mealy.program_to_mealy(b)))
            if verdict != reference:
                problems.append(f"{name}: bisim_check says {verdict}, Mealy "
                                f"trace equivalence says {reference}")
            if must_hold and not verdict:
                problems.append(f"{name}: a rearrangement of a program is "
                                f"not equivalent to it")
        return problems


class EquivExact(_EquivWorkload):
    """Exact-mode bisim_check on call-acyclic, generation-free programs
    over s1 s2 / s3: each program of the finite corpus against its
    neighbour in name order, plus seeded generated programs against an
    equivalent rearrangement of themselves and against a fixed corpus
    program (every tenth in name order).

    The pairs of corpus programs, and the corpus partner of each generated
    program, do not depend on the seed: the cost of a pair grows with the
    product of the two programs' state spaces, so a seeded pairing of the
    corpus moved the round's cost by about a sixth from one seed to
    another.
    """

    name = "equiv-exact"
    tail_percentile = 85
    GENERATED = 3

    def __init__(self, sl, seed):
        self.sl = sl
        rng = random.Random(seed)
        corpus = [(name, self._parse(inputs.FINITE_HEADER + text))
                  for name, text in sorted(inputs.FINITE_TEXTS.items())]
        self.pairs = [(f"{n1}~{n2}", p1, p2, False) for (n1, p1), (n2, p2)
                      in zip(corpus, corpus[1:] + corpus[:1])]
        for k in range(self.GENERATED):
            parts = gen.finite_tail_parts(rng)
            program = self._parse(gen.print_parts(*parts))
            twin = self._parse(gen.rearranged(rng, *parts))
            name, other = corpus[k * len(corpus) // self.GENERATED]
            self.pairs.append((f"gen{k}~rearranged", program, twin, True))
            self.pairs.append((f"gen{k}~{name}", program, other, False))


class EquivTraceWide(_EquivWorkload):
    """Default-mode bisim_check on recursive, generation-free programs
    over three to four inputs, which exact mode routes through the trace
    game. Each program meets an equivalent rearrangement of itself and a
    sibling program (the same ring with one guard drawn afresh)."""

    name = "equiv-trace-wide"
    # (inputs, outputs, programs) per interface
    SHAPES = ((3, 1, 4), (3, 2, 4), (4, 1, 4), (4, 2, 4))

    def __init__(self, sl, seed):
        self.sl = sl
        rng = random.Random(seed)
        self.pairs = []
        for n_in, n_out, count in self.SHAPES:
            for k in range(count):
                ring = gen.wide_ring(rng, n_in, n_out)
                parts = gen.ring_parts(ring)
                program = self._parse(gen.print_parts(*parts))
                twin = self._parse(gen.rearranged(rng, *parts))
                sibling = self._parse(gen.print_parts(
                    *gen.ring_parts(gen.ring_sibling(rng, ring))))
                tag = f"w{n_in}x{n_out}.{k}"
                self.pairs.append((f"{tag}~rearranged", program, twin, True))
                self.pairs.append((f"{tag}~sibling", program, sibling, False))


class Pipeline:
    """One op takes one program through the front end, the analyses, CPS,
    a print/parse round trip of the image, Mealy extraction and both
    interpreters; Mealy round trips and counter-machine encodings ride
    along, and the deep straight-line programs fail today."""

    name = "pipeline"
    tail_percentile = 90
    SOURCES = 40
    MEALY = ((3, 3), (4, 3), (5, 2), (6, 2))  # (inputs, states)
    ENCODINGS = 2
    WORD = 20
    DEEP = (("deep-source-1000", "source", 1000),
            ("deep-tail-1000", "tail", 1000))

    def __init__(self, sl, seed):
        self.sl = sl
        rng = random.Random(seed)
        self.items = []
        for k in range(self.SOURCES):
            n_in = 2 + k % 2
            text = gen.source_program_text(rng, n_inputs=n_in)
            word = gen.input_word(rng, [f"i{x}" for x in range(1, n_in + 1)],
                                  self.WORD)
            self.items.append((f"source-{k}", "source", text, word))
        for n, states in self.MEALY:
            machine = sl.mealy.parse_mealy(
                gen.monotone_mealy_text(rng, n, n_states=states))
            word = gen.input_word(rng, [f"i{x}" for x in range(1, n + 1)],
                                  self.WORD)
            self.items.append((f"mealy-{n}", "mealy", machine, word))
        for k in range(self.ENCODINGS):
            machine = sl.encodings.parse_machine(
                gen.counter_machine_text(rng, 8))
            text = sl.syntax.print_program(
                sl.encodings.encode_counter_machine(machine))
            self.items.append((f"encoding-{k}", "encoding", text, None))
        for name, kind, size in self.DEEP:
            text = (gen.deep_source_text(size) if kind == "source"
                    else gen.deep_tail_text(size))
            word = [frozenset()] * 3
            self.items.append((name, f"deep-{kind}", text, word))

    # -- ops -----------------------------------------------------------------

    def _front(self, text):
        sl = self.sl
        program = sl.syntax.parse_program(text)
        accepted = (bool(sl.analysis.check_reactivity(program)),
                    bool(sl.analysis.check_bounded(program)))
        image = sl.cps.cps_program(program).program
        printed = sl.tailcore.print_tail_program(image)
        image = sl.tailcore.parse_tail_program(printed)
        accepted += (bool(sl.tailcore.check_reactivity_tail(image)),)
        return program, image, printed, accepted

    def _back(self, image, word):
        sl = self.sl
        machine = sl.mealy.program_to_mealy(image)
        return machine, run_word(sl.tailcore.TailRunner(image), word)

    def op_source(self, text, word):
        program, image, printed, accepted = self._front(text)
        machine, image_out = self._back(image, word)
        source_out = run_word(self.sl.semantics.Runner(program), word)
        return SimpleNamespace(accepted=accepted, printed=printed,
                               machine=machine, image=image,
                               image_out=image_out, source_out=source_out)

    def op_tail(self, text, word):
        image = self.sl.tailcore.parse_tail_program(text)
        accepted = (bool(self.sl.tailcore.check_reactivity_tail(image)),)
        machine, image_out = self._back(image, word)
        return SimpleNamespace(accepted=accepted, machine=machine,
                               image=image, image_out=image_out,
                               source_out=image_out)

    def op_mealy(self, machine):
        mealy = self.sl.mealy
        program = mealy.mealy_to_program(machine)
        back = mealy.program_to_mealy(program)
        return SimpleNamespace(program=program,
                               verdict=bool(mealy.mealy_trace_equiv(machine,
                                                                    back)))

    def op_encoding(self, text):
        _, image, printed, accepted = self._front(text)
        return SimpleNamespace(accepted=accepted, printed=printed,
                               image=image)

    def round(self):
        ops = []
        for name, kind, data, word in self.items:
            if kind in ("source", "deep-source"):
                fn = lambda t=data, w=word: self.op_source(t, w)
            elif kind == "deep-tail":
                fn = lambda t=data, w=word: self.op_tail(t, w)
            elif kind == "mealy":
                fn = lambda m=data: self.op_mealy(m)
            else:
                fn = lambda t=data: self.op_encoding(t)
            ops.append((name, fn))
        return ops

    # -- reference checks ----------------------------------------------------

    def verify(self, results):
        sl = self.sl
        problems = []
        for name, kind, data, word in self.items:
            r = results[name]
            if r is None:
                continue
            if kind == "mealy":
                if not r.verdict:
                    problems.append(f"{name}: round trip not equivalent")
                table = table_walk(data, [wires(r.program.inputs, X)
                                          for X in word])
                run = run_word(sl.tailcore.TailRunner(r.program), word)
                if [wires(r.program.outputs, o) for o in run] != table:
                    problems.append(f"{name}: compiled program disagrees with "
                                    f"the table")
                continue
            if not all(r.accepted):
                problems.append(f"{name}: an analysis rejected {r.accepted}")
            if kind in ("encoding", "source", "deep-source") and \
                    sl.tailcore.print_tail_program(r.image) != r.printed:
                problems.append(f"{name}: image print/parse round trip "
                                f"changed it")
            if kind == "encoding":
                continue
            table = table_walk(r.machine, [wires(r.image.inputs, X)
                                           for X in word])
            walked = [frozenset(r.image.outputs[j - 1] for j in outs)
                      for outs in table]
            if not (r.source_out == r.image_out == walked):
                problems.append(f"{name}: source, image and table outputs "
                                f"differ")
        return problems


WORKLOADS = {w.name: w for w in (CmRun, EquivExact, EquivTraceWide, Pipeline)}


# ---------------------------------------------------------------------------
# measurement


def measure(workload, seconds, tracer=None, max_rounds=None,
            between=None):
    """Run whole rounds for about `seconds`, until the tail percentile
    has at least TAIL_MIN_BEYOND successful ops beyond it. After a round,
    when another `seconds / SETUPS_DURING` have passed, call `between`
    (untimed, if given).

    Between ops, at most every REF_EVERY_S seconds, the run times a
    reference pass; the median pass of a round is that round's unit of
    time, `ref`, and its op latencies are also given in it. A run stops
    before the round that would end more than half a round past
    `seconds`, so that on average it measures `seconds`, however long a
    round is. Returns the successful-op latencies in seconds and in refs,
    the refs each round's ops took, each round's time in seconds without
    the reference passes, the op counts, the elapsed time, the round count
    and the first round's results (None for a failed op).
    """
    need = -(-TAIL_MIN_BEYOND * 100 // (100 - workload.tail_percentile))
    latencies = []
    latencies_ref = []
    round_refs = []
    round_times = []
    attempted = failed = rounds = 0
    first = None
    failures = {}
    clock = time.perf_counter
    gc.collect()
    start = last_between = clock()
    while True:
        results = {}
        passes = []
        round_latencies = []
        round_start = last_pass = clock()
        for key, fn in workload.round():
            if not passes or clock() - last_pass >= REF_EVERY_S:
                t0 = clock()
                reference_pass()
                last_pass = clock()
                passes.append(last_pass - t0)
            attempted += 1
            t0 = clock()
            try:
                result = fn()
            except Exception as exc:  # a failing op is counted, not fatal
                failed += 1
                failures.setdefault(key, f"{type(exc).__name__}")
                results[key] = None
                continue
            round_latencies.append(clock() - t0)
            results[key] = result
        round_times.append(clock() - round_start - sum(passes))
        ref = statistics.median(passes)
        round_refs.append(round_times[-1] / ref)
        latencies += round_latencies
        latencies_ref += [t / ref for t in round_latencies]
        rounds += 1
        if tracer is not None:
            tracer.end_round()
        if first is None:
            first = results
        if between is not None and \
                clock() - last_between >= seconds / SETUPS_DURING:
            between()
            last_between = clock()
        elapsed = clock() - start
        if max_rounds is not None and rounds >= max_rounds:
            break
        if elapsed + elapsed / rounds / 2 >= seconds and \
                len(latencies) >= need:
            break
    return SimpleNamespace(latencies=latencies, latencies_ref=latencies_ref,
                           round_refs=round_refs, round_times=round_times,
                           attempted=attempted, failed=failed,
                           elapsed=elapsed, rounds=rounds, first=first,
                           failures=failures)


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def setup(workload_cls, seed):
    """Time one set-up: a fresh import of sltk and the inputs built on it.

    Returns the workload and the time. When sltk was imported before, the
    modules imported before are put back afterwards and the new workload
    is only timed: a workload already running keeps its own modules, also
    for the imports sltk makes inside functions.
    """
    saved = {n: m for n, m in sys.modules.items()
             if n == "sltk" or n.startswith("sltk.")}
    gc.collect()
    t0 = time.perf_counter()
    workload = workload_cls(import_sltk(), seed)
    elapsed = time.perf_counter() - t0
    if saved:
        for name in [n for n in sys.modules if n == "sltk" or
                     n.startswith("sltk.")]:
            del sys.modules[name]
        sys.modules.update(saved)
        workload = None
        gc.collect()
    return workload, elapsed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload_cls = WORKLOADS[args.workload]
    try:
        workload, setup_time = setup(workload_cls, args.seed)
    except (SetupError, ImportError) as exc:
        print(f"bench: cannot set up: {exc}", file=sys.stderr)
        return 2
    # set-up is timed again before and during the timed phase, so that
    # its median spans the run as the op figures do
    setup_times = [setup_time]

    def setup_again():
        setup_times.append(setup(workload_cls, args.seed)[1])

    for _ in range(SETUP_BEFORE - 1):
        setup_again()

    if args.trace:
        base = measure(workload, 0, max_rounds=1).round_times[0]
        tracer = layers.Tracer(workload.sl)
        tracer.install()
        try:
            run = measure(workload, args.seconds, tracer=tracer)
        finally:
            tracer.uninstall()
        overhead = statistics.median(run.round_times) / base
        metrics = tracer.metrics(run.rounds, overhead)
    else:
        run = measure(workload, args.seconds, between=setup_again)
        tail = workload.tail_percentile
        print(f"bench: in seconds: "
              f"ops_per_s={len(run.latencies) / sum(run.round_times):.4g} "
              f"op_p50_ms={1000 * statistics.median(run.latencies):.4g} "
              f"op_tail_ms={1000 * percentile(run.latencies, tail):.4g} "
              f"(p{tail})", file=sys.stderr)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_ref": (len(run.latencies_ref) / sum(run.round_refs),
                            "1/ref"),
            "op_p50_ref": (statistics.median(run.latencies_ref), "ref"),
            "op_tail_ref": (percentile(run.latencies_ref, tail), "ref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    problems = workload.verify(run.first)
    for key, what in sorted(run.failures.items(), key=str):
        print(f"bench: op {key} failed: {what}", file=sys.stderr)
    for problem in problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    print(f"bench: {args.workload} rounds={run.rounds} "
          f"elapsed={run.elapsed:.2f}s", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

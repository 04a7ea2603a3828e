"""Seeded input generators for the benchmark.

Every generator takes a `random.Random` and returns program or machine
text, or plain data that is printed to text, never sltk objects, so the
benchmark's inputs depend only on the seed and on this file. The programs of the equivalence
workloads test (`present`, `ite`) only input signals and emit only output
signals: under that condition the environment never injects a signal the
program itself reacts to except through its inputs, and equivalence of the
extracted Mealy machines is a valid reference verdict.
"""

from __future__ import annotations

from itertools import combinations


# ---------------------------------------------------------------------------
# two-counter machines (sltk.encodings text format)


def counter_machine_text(rng, n_states=4):
    """A random deterministic two-counter machine over q0..q{n-1} and qh.

    q0 always increments, so no machine halts or blocks before it has
    touched a counter.
    """
    states = [f"q{k}" for k in range(n_states)] + ["qh"]
    lines = ["init q0", "halt qh"]
    for k, q in enumerate(states[:-1]):
        counter = rng.choice((1, 2))
        kind = "inc" if k == 0 else rng.choice(("inc", "inc", "dec", "tz",
                                                 "tz"))
        if kind == "tz":
            lines.append(f"state {q}: tz c{counter} -> {rng.choice(states)} "
                         f"{rng.choice(states)}")
        else:
            lines.append(f"state {q}: {kind} c{counter} -> "
                         f"{rng.choice(states)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# generation-free source programs


def source_program_text(rng, n_inputs=2, n_outputs=2, n_loops=2):
    """A reactive, bounded source program without signal generation.

    The shape is fixed and only signal choices and statement order are
    random, so programs of one seed cost about as much as those of another:
    a helper H awaits an input and emits an output; each loop definition
    runs the same five statements in a random order (an emission, an await,
    a watched pause, a spawned await-emit thread and a non-tail call of H),
    pauses and calls itself. One run thread enters each loop. Only
    constructs whose desugaring and CPS image carry no `new` are used (no
    `present`, `par` or `now`); the loops recurse only in tail position
    after a pause, so both static analyses accept by construction.
    """
    inputs = [f"i{k}" for k in range(1, n_inputs + 1)]
    outputs = [f"o{k}" for k in range(1, n_outputs + 1)]
    params = " ".join(inputs + outputs)

    def i():
        return rng.choice(inputs)

    def o():
        return rng.choice(outputs)

    lines = ["(input " + " ".join(inputs) + ")",
             "(output " + " ".join(outputs) + ")",
             f"(def (H {params}) (seq (await {i()}) (emit {o()})))"]
    for k in range(n_loops):
        body = [f"(emit {o()})",
                f"(await {i()})",
                f"(watch {i()} (seq (emit {o()}) pause (emit {o()})))",
                f"(thread (seq (await {i()}) (emit {o()})))",
                f"(call H {params})"]
        rng.shuffle(body)
        body += ["pause", f"(call L{k} {params})"]
        lines.append(f"(def (L{k} {params}) (seq {' '.join(body)}))")
    lines += [f"(run (call L{k} {params}))" for k in range(n_loops)]
    return "\n".join(lines) + "\n"


def deep_source_text(statements):
    """A straight-line source program of `statements` statements."""
    body = " ".join("(emit o1)" if k % 2 == 0 else "pause"
                    for k in range(statements))
    return f"(input i1)\n(output o1)\n(run (seq {body}))\n"


def deep_tail_text(depth):
    """A straight-line tail program nested `depth` deep: emissions
    alternating with pause guards."""
    pairs = depth // 2
    return ("(input i1)\n(output o1)\n(run "
            + "(emit! o1 (present %pause 0 " * pairs + "0" + "))" * pairs
            + ")\n")


# ---------------------------------------------------------------------------
# tail programs for the equivalence workloads


def finite_tail_parts(rng):
    """A call-acyclic, generation-free tail program over s1 s2 / s3 in the
    shape of the finite corpus: a guard that calls a helper emitting s3
    when its input is present, and otherwise decides on an input at the end
    of the instant whether to emit in the next one. The shape is fixed and
    only the tested inputs are drawn, so costs vary little between seeds.
    Returns (header, definitions, runs)."""
    now, late = (rng.choice(("s1", "s2")) for _ in range(2))
    header = ["(input s1 s2)", "(output s3)"]
    defs = ["(def (H0) (emit! s3 0))"]
    runs = [f"(present {now} (call H0) (ite {late} (emit! s3 0) 0))"]
    return header, defs, runs


def _ring_guard(rng, inputs, outputs):
    i, late_i = rng.sample(inputs, 2)
    o, late_o = rng.sample(outputs, 2) if len(outputs) > 1 else outputs * 2
    return f"(present {i} (emit! {o} 0) (ite {late_i} (emit! {late_o} 0) 0))"


def wide_ring(rng, n_inputs=3, n_outputs=1, n_defs=3):
    """A recursive, generation-free tail program over more than two inputs,
    as a ring of definitions.

    Each definition spawns a guard thread and ends its instant in a pause
    whose branch either stays or moves to the next definition, depending
    on an input. A guard tests one input and emits when it is present;
    otherwise it decides on another input at the end of the instant
    whether to emit in the next one. The call graph is cyclic, so exact
    mode plays the trace game. The shape is fixed and a guard draws
    distinct signals, so costs vary little between seeds.
    """
    inputs = tuple(f"i{k}" for k in range(1, n_inputs + 1))
    outputs = tuple(f"o{k}" for k in range(1, n_outputs + 1))
    steps = [f"(ite {rng.choice(inputs)} (call W{(j + 1) % n_defs}) "
             f"(call W{j}))" for j in range(n_defs)]
    guards = [_ring_guard(rng, inputs, outputs) for _ in range(n_defs + 1)]
    return {"inputs": inputs, "outputs": outputs, "steps": steps,
            "guards": guards}


def ring_sibling(rng, ring):
    """Another program of the same interface: the ring with the guard of
    one definition past the first drawn afresh. It may or may not be
    equivalent to the original; when it is not, telling them apart takes
    at least one instant boundary, as the ring starts in W0."""
    guards = list(ring["guards"])
    j = rng.randrange(1, len(ring["steps"]))
    guards[j] = _ring_guard(rng, ring["inputs"], ring["outputs"])
    return {**ring, "guards": guards}


def ring_parts(ring):
    """(header, definitions, runs) of a ring program: one run thread
    enters the ring, another runs the last guard once."""
    header = ["(input " + " ".join(ring["inputs"]) + ")",
              "(output " + " ".join(ring["outputs"]) + ")"]
    defs = [f"(def (W{j}) (thread! {guard} (present %pause 0 {step})))"
            for j, (guard, step) in enumerate(zip(ring["guards"],
                                                  ring["steps"]))]
    return header, defs, ["(call W0)", ring["guards"][-1]]


def print_parts(header, defs, runs):
    return "\n".join(header + defs + [f"(run {t})" for t in runs]) + "\n"


def rearranged(rng, header, defs, runs):
    """An equivalent program: definitions and run threads reordered, one
    thread wrapped as (thread! 0 t) and an idle (run 0) added."""
    defs = list(defs)
    runs = list(runs)
    rng.shuffle(defs)
    k = rng.randrange(len(runs))
    runs[k] = f"(thread! 0 {runs[k]})"
    runs.append("0")
    rng.shuffle(runs)
    return print_parts(header, defs, runs)


# ---------------------------------------------------------------------------
# monotone Mealy machines (sltk.mealy text format)


def input_subsets(n):
    wires = range(1, n + 1)
    return [frozenset(c) for k in range(n + 1) for c in combinations(wires, k)]


def monotone_mealy_text(rng, n, m=2, n_states=3):
    """A random machine whose outputs are monotone by construction: in
    each state every input wire adds one output to the row, so a larger
    input set never yields fewer outputs. The wires of a state are split
    evenly over the outputs in a random order, which fixes the size of the
    compiled program; the empty input set moves around a ring of the
    states, so every state is reachable; other successors are random."""
    states = [f"q{k}" for k in range(n_states)]
    gain = {}
    for q in states:
        split = [1 + x % m for x in range(n)]
        rng.shuffle(split)
        gain.update({(q, x): split[x - 1] for x in range(1, n + 1)})
    lines = [f"mealy n={n} m={m}", f"state {states[0]} init"]
    lines += [f"state {q}" for q in states[1:]]
    for k, q in enumerate(states):
        for X in input_subsets(n):
            nxt = states[(k + 1) % n_states] if not X else rng.choice(states)
            out = {gain[(q, x)] for x in X}
            ins = ",".join(str(x) for x in sorted(X))
            outs = ",".join(str(j) for j in sorted(out))
            lines.append(f"trans {q} {{{ins}}} -> {nxt} {{{outs}}}")
    return "\n".join(lines) + "\n"


def input_word(rng, inputs, length):
    """A seeded input word in which every input is present in exactly half
    of the instants, at random positions."""
    present = {s: set(rng.sample(range(length), length // 2)) for s in inputs}
    return [frozenset(s for s in inputs if k in present[s])
            for k in range(length)]

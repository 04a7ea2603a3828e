"""Shared program corpora and random generators for the test suite.

Source programs stay within two inputs so exhaustive input enumeration is
affordable. Everything random is seeded by the caller.
"""

import random

from sltk.mealy import MonotonicMealy, input_subsets
from sltk.syntax import parse_program
from sltk.tailcore import TNIL, TailProgram, parse_tail_program


SOURCE_TEXTS = {
    "empty": """
(input s1 s2)
(output s3 s4)
(run 0)
""",
    "emit_once": """
(input s1 s2)
(output s3 s4)
(run (emit s3))
""",
    "emit_both": """
(input s1 s2)
(output s3 s4)
(run (seq (emit s3) (emit s4)))
""",
    "relay": """
(input s1 s2)
(output s3 s4)
(def (Copy a b) (seq (await a) (emit b) pause (call Copy a b)))
(run (call Copy s1 s3))
""",
    "double_relay": """
(input s1 s2)
(output s3 s4)
(def (Copy a b) (seq (await a) (emit b) pause (call Copy a b)))
(run (call Copy s1 s3))
(run (call Copy s2 s4))
""",
    "toggle": """
(input s1 s2)
(output s3 s4)
(def (Tick a) (seq (emit a) pause pause (call Tick a)))
(run (call Tick s3))
""",
    "watchdog": """
(input s1 s2)
(output s3 s4)
(run (watch s1 (seq (await s2) (emit s3))))
""",
    "watch_pause": """
(input s1 s2)
(output s3 s4)
(run (watch s1 (seq pause (emit s3))))
""",
    "local_handshake": """
(input s1 s2)
(output s3 s4)
(run (new x (seq (emit x) (await x) (emit s3))))
""",
    "spawn_pair": """
(input s1 s2)
(output s3 s4)
(run (seq (thread (emit s3)) (emit s4)))
""",
    "spawn_waiter": """
(input s1 s2)
(output s3 s4)
(run (seq (thread (seq (await s1) (emit s3))) (await s2) (emit s4)))
""",
    "pause_chain": """
(input s1 s2)
(output s3 s4)
(run (seq pause pause (emit s3)))
""",
    "mutual": """
(input s1 s2)
(output s3 s4)
(def (Ping a b) (seq (emit a) pause (call Pong a b)))
(def (Pong a b) (seq (emit b) pause (call Ping a b)))
(run (call Ping s3 s4))
""",
    "nested_watch": """
(input s1 s2)
(output s3 s4)
(run (watch s1 (watch s2 (seq pause pause (emit s3)))))
""",
    "guarded_counter": """
(input s1 s2)
(output s3 s4)
(def (Wait a b) (seq (await a) pause (emit b)))
(run (call Wait s1 s3))
""",
    "present_branch": """
(input s1 s2)
(output s3 s4)
(run (present s1 (emit s3) (emit s4)))
""",
    "par_join": """
(input s1 s2)
(output s3 s4)
(run (seq (par (await s1) (await s2)) (emit s3)))
""",
    "loop_beat": """
(input s1 s2)
(output s3 s4)
(run (loop (seq (emit s3) pause)))
""",
    "now_window": """
(input s1 s2)
(output s3 s4)
(run (seq (now (seq (await s1) (emit s3))) (emit s4)))
""",
    "shadowed_local": """
(input s1 s2)
(output s3 s4)
(run (new x (seq (emit x) (new x (seq (await s1) (emit x))) (emit s3))))
""",
    "kill_and_restart": """
(input s1 s2)
(output s3 s4)
(def (Guard a b c) (seq (watch a (seq (await b) (emit c))) pause
                        (call Guard a b c)))
(run (call Guard s1 s2 s3))
""",
    "late_emitter": """
(input s1 s2)
(output s3 s4)
(run (seq (thread (seq pause (emit s3))) (watch s3 (seq pause pause
                                                       (emit s4)))))
""",
}


# A fresh name every instant, passed to a definition whose body binds the
# name of its other argument: each new call of Mark is instantiated through
# the capture-avoiding rename of its `new s3`.
FRESH_CAPTURE = """
(input s1 s2)
(output s3 s4)
(def (Loop i o) (new x (seq (thread (call Mark x o)) (present i (emit x) 0)
                             pause (call Loop i o))))
(def (Mark x o) (new s3 (seq (emit s3) (await s3) (present x (emit o) 0))))
(run (call Loop s1 s3))
"""


def source_corpus():
    """Name, program pairs; every program has the s1 s2 / s3 s4 interface."""
    return [(name, parse_program(text))
            for name, text in sorted(SOURCE_TEXTS.items())]


CONFLUENCE_NAMES = [
    "empty", "emit_once", "emit_both", "relay", "watchdog", "watch_pause",
    "local_handshake", "spawn_pair", "pause_chain", "present_branch",
]


def confluence_corpus():
    return [(name, parse_program(SOURCE_TEXTS[name]))
            for name in CONFLUENCE_NAMES]


# ---------------------------------------------------------------------------
# tail corpus for the equivalence checks


TAIL_TEXTS = {
    "t_nil": """
(input s1 s2)
(output s3)
(run 0)
""",
    "t_emit": """
(input s1 s2)
(output s3)
(run (emit! s3 0))
""",
    "t_emit_pair": """
(input s1 s2)
(output s3)
(run (emit! s3 0))
(run 0)
""",
    "t_present": """
(input s1 s2)
(output s3)
(run (present s1 (emit! s3 0) 0))
""",
    "t_present_ite": """
(input s1 s2)
(output s3)
(run (present s1 0 (ite s2 (emit! s3 0) 0)))
""",
    "t_present_other": """
(input s1 s2)
(output s3)
(run (present s2 0 0))
""",
    "t_chain": """
(input s1 s2)
(output s3)
(run (present s1 (present s2 (emit! s3 0) 0) 0))
""",
    "t_spawn": """
(input s1 s2)
(output s3)
(run (thread! (present s1 (emit! s3 0) 0) (present s2 (emit! s3 0) 0)))
""",
    "t_pause_emit": """
(input s1 s2)
(output s3)
(run (present %pause 0 (emit! s3 0)))
""",
    "t_pause_branch": """
(input s1 s2)
(output s3)
(run (present %pause 0 (ite s1 (emit! s3 0) 0)))
""",
    "t_local": """
(input s1 s2)
(output s3)
(run (new x (emit! x (present x (emit! s3 0) 0))))
""",
    "t_local_dead": """
(input s1 s2)
(output s3)
(run (new x (present x (emit! s3 0) 0)))
""",
    "t_relay_loop": """
(input s1 s2)
(output s3)
(def (Rel) (present s1 (emit! s3 (present %pause 0 (call Rel)))
                       (ite s1 (call Rel) (call Rel))))
(run (call Rel))
""",
    "t_idle_loop": """
(input s1 s2)
(output s3)
(def (Idle) (present %pause 0 (call Idle)))
(run (call Idle))
""",
    "t_beat": """
(input s1 s2)
(output s3)
(def (Beat) (emit! s3 (present %pause 0 (call Beat))))
(run (call Beat))
""",
    "t_alternate": """
(input s1 s2)
(output s3)
(def (OnBeat) (emit! s3 (present %pause 0 (call OffBeat))))
(def (OffBeat) (present %pause 0 (call OnBeat)))
(run (call OnBeat))
""",
    "t_acyclic_call": """
(input s1 s2)
(output s3)
(def (Fire a) (emit! a 0))
(run (call Fire s3))
""",
    "t_stutter": """
(input s1 s2)
(output s3)
(def (Wait1) (present s1 (emit! s3 0) (ite s1 0 (call Wait1))))
(run (call Wait1))
""",
    "t_sticky": """
(input s1 s2)
(output s3)
(def (Hold) (present s1 (call Fire) (ite s1 (call Hold) (call Hold))))
(def (Fire) (emit! s3 (present %pause 0 (call Fire))))
(run (call Hold))
""",
    "t_both_inputs": """
(input s1 s2)
(output s3)
(run (present s1 (present s2 (emit! s3 0) 0)
              (ite s2 0 (ite s1 0 0))))
""",
}


def tail_corpus():
    """The general tail corpus: recursion and signal generation included.

    Every program is either call-acyclic or free of signal generation, so
    some equivalence mode applies to each.
    """
    base = [(name, parse_tail_program(text))
            for name, text in sorted(TAIL_TEXTS.items())]
    variants = []
    for name, text in sorted(TAIL_TEXTS.items())[:10]:
        p = parse_tail_program(text)
        widened = TailProgram(p.inputs, p.outputs, p.defs,
                              p.initial + (TNIL,))
        variants.append((name + "_v", widened))
    return (base + variants)[:30]


FINITE_TEXTS = {
    "f_nil": "(run 0)",
    "f_emit": "(run (emit! s3 0))",
    "f_emit_dup": "(run (emit! s3 0))\n(run (emit! s3 0))",
    "f_emit_pad": "(run (emit! s3 0))\n(run 0)",
    "f_present": "(run (present s1 (emit! s3 0) 0))",
    "f_present_pad": "(run (thread! 0 (present s1 (emit! s3 0) 0)))",
    "f_present_ite": "(run (present s1 0 (ite s2 (emit! s3 0) 0)))",
    "f_present_other": "(run (present s2 0 0))",
    "f_present_late": "(run (present s1 (emit! s3 0) (ite s1 0 0)))",
    "f_chain": "(run (present s1 (present s2 (emit! s3 0) 0) 0))",
    "f_chain_swap": "(run (present s2 (present s1 (emit! s3 0) 0) 0))",
    "f_spawn": "(run (thread! (present s1 (emit! s3 0) 0) "
               "(present s2 (emit! s3 0) 0)))",
    "f_spawn_flat": "(run (present s1 (emit! s3 0) 0))\n"
                    "(run (present s2 (emit! s3 0) 0))",
    "f_pause_emit": "(run (present %pause 0 (emit! s3 0)))",
    "f_pause_twice": "(run (present %pause 0 (present %pause 0 "
                     "(emit! s3 0))))",
    "f_pause_branch": "(run (present %pause 0 (ite s1 (emit! s3 0) 0)))",
    "f_pause_branch2": "(run (present %pause 0 (ite s2 0 (emit! s3 0))))",
    "f_both": "(run (present s1 (present s2 (emit! s3 0) 0) "
              "(ite s2 0 (ite s1 0 0))))",
    "f_either": "(run (thread! (present s1 (emit! s3 0) 0) "
                "(present s2 (emit! s3 0) 0)))\n(run (emit! s3 0))",
    "f_now_or_never": "(run (present s1 (emit! s3 0) "
                      "(ite s1 (emit! s3 0) 0)))",
    "f_echo_then_stop": "(run (emit! s3 (present s1 (emit! s3 0) 0)))",
    "f_def_fire": "(def (Fire a) (emit! a 0))\n(run (call Fire s3))",
    "f_def_chain": "(def (Inner a) (emit! a 0))\n"
                   "(def (Outer a) (present s1 (call Inner a) 0))\n"
                   "(run (call Outer s3))",
    "f_def_pad": "(def (Fire a) (emit! a 0))\n(run (call Fire s3))\n(run 0)",
    "f_guarded_pair": "(run (present s1 (emit! s3 (present s2 "
                      "(emit! s3 0) 0)) 0))",
    "f_two_instants": "(run (emit! s3 (present %pause 0 (emit! s3 0))))",
    "f_watchless": "(run (present s2 (thread! (emit! s3 0) 0) 0))",
    "f_s2_relay": "(run (present s2 (emit! s3 0) 0))",
    "f_s2_relay_late": "(run (present s2 (emit! s3 0) (ite s2 "
                       "(emit! s3 0) 0)))",
    "f_three_way": "(run (present s1 0 (ite s1 0 (ite s2 (emit! s3 0) "
                   "0))))",
}


def finite_corpus():
    """Thirty call-acyclic, generation-free programs over s1 s2 / s3.

    Both the refinement and the trace game apply to every pair, which is
    what the exact-versus-trace comparison needs. Several entries are
    deliberate equivalents of each other so both verdicts occur.
    """
    header = "(input s1 s2)\n(output s3)\n"
    return [(name, parse_tail_program(header + text))
            for name, text in sorted(FINITE_TEXTS.items())]


# ---------------------------------------------------------------------------
# random generators


def random_monotone_mealy(rng, n=2, m=2, n_states=3):
    """A random machine whose transition and output maps are monotone by
    construction: per-index contributions combined with max and union."""
    states = tuple(f"q{k}" for k in range(n_states))
    base_next = {q: rng.randrange(n_states) for q in states}
    base_out = {q: frozenset(j + 1 for j in range(m) if rng.random() < 0.3)
                for q in states}
    next_gain = {(q, i): rng.randrange(n_states)
                 for q in states for i in range(1, n + 1)}
    out_gain = {(q, i): frozenset(j + 1 for j in range(m)
                                  if rng.random() < 0.4)
                for q in states for i in range(1, n + 1)}
    next_state = {}
    output = {}
    for q in states:
        for X in input_subsets(n):
            k = max([base_next[q]] + [next_gain[(q, i)] for i in X])
            next_state[(q, frozenset(X))] = states[k]
            out = set(base_out[q])
            for i in X:
                out |= out_gain[(q, i)]
            output[(q, frozenset(X))] = frozenset(out)
    return MonotonicMealy(states, states[0], n, m, next_state, output)


def random_tail_program(rng, n_defs=2, depth=3):
    """A small tail program without signal generation; recursion is
    always guarded behind the pause signal so every instant terminates."""
    inputs = ("s1", "s2")
    outputs = ("s3",)
    names = [f"D{k}" for k in range(n_defs)]
    signals = list(inputs) + list(outputs)

    def tail(d, allow_call):
        roll = rng.random()
        if d <= 0 or roll < 0.2:
            return "0"
        if roll < 0.45:
            return f"(emit! {rng.choice(signals)} {tail(d - 1, allow_call)})"
        if roll < 0.6:
            return f"(thread! {tail(d - 1, False)} {tail(d - 1, allow_call)})"
        if roll < 0.8:
            s = rng.choice(signals)
            return f"(present {s} {tail(d - 1, allow_call)} " \
                   f"{branch(d - 1, allow_call)})"
        if allow_call:
            return f"(present %pause 0 (ite s1 (call {rng.choice(names)}) " \
                   f"(call {rng.choice(names)})))"
        return f"(emit! {rng.choice(signals)} 0)"

    def branch(d, allow_call):
        if d <= 0 or rng.random() < 0.5:
            return tail(d, allow_call)
        return f"(ite {rng.choice(signals)} {branch(d - 1, allow_call)} " \
               f"{branch(d - 1, allow_call)})"

    lines = ["(input s1 s2)", "(output s3)"]
    for name in names:
        lines.append(f"(def ({name}) {tail(depth, True)})")
    lines.append(f"(run {tail(depth, True)})")
    return parse_tail_program("\n".join(lines))


def random_finite_program(rng, n_defs=2, depth=3):
    """A small call-acyclic, generation-free tail program over s1 s2 / s3.
    A definition calls only the definitions after it, so every pair of
    these programs has finite state spaces that both the exact refinement
    and the trace game decide."""
    signals = ("s1", "s2", "s3")
    names = [f"D{k}" for k in range(n_defs)]

    def tail(d, callees):
        roll = rng.random()
        if d <= 0 or roll < 0.15:
            return "0"
        if roll < 0.35:
            return f"(emit! {rng.choice(signals)} {tail(d - 1, callees)})"
        if roll < 0.5:
            return f"(thread! {tail(d - 1, callees)} {tail(d - 1, callees)})"
        if roll < 0.8:
            s = rng.choice(signals + ("%pause",))
            return f"(present {s} {tail(d - 1, callees)} " \
                   f"{branch(d - 1, callees)})"
        if callees:
            return f"(call {rng.choice(callees)})"
        return f"(emit! {rng.choice(signals)} 0)"

    def branch(d, callees):
        if d <= 0 or rng.random() < 0.5:
            return tail(d, callees)
        return f"(ite {rng.choice(signals)} {branch(d - 1, callees)} " \
               f"{branch(d - 1, callees)})"

    lines = ["(input s1 s2)", "(output s3)"]
    lines += [f"(def ({name}) {tail(depth, names[k + 1:])})"
              for k, name in enumerate(names)]
    lines.append(f"(run {tail(depth, names)})")
    return parse_tail_program("\n".join(lines))


def random_ring_programs(rng, n_defs=3, n_inputs=2):
    """Two tail programs over the inputs s1 .. sn and the output s(n+1),
    s1 s2 / s3 by default, on one recursive ring of definitions. Each
    definition spawns a guard and then, in the next instant, moves along
    the ring or stays, depending on an input. A guard tests an input, may
    emit the output at once, and otherwise decides on an input at the end
    of the instant whether to emit it in the next one. The second program
    draws the guard of one definition afresh, so the pair may or may not
    be equivalent. Guards test only inputs and emit only the output, so
    their instant machines are the same whether or not the context may
    emit the output too."""
    inputs = tuple(f"s{k}" for k in range(1, n_inputs + 1))
    output = f"s{n_inputs + 1}"
    emits = ("0", f"(emit! {output} 0)")

    def guard():
        return f"(present {rng.choice(inputs)} {rng.choice(emits)} " \
               f"(ite {rng.choice(inputs)} {rng.choice(emits)} 0))"

    steps = [f"(present %pause 0 (ite {rng.choice(inputs)} "
             f"(call W{(j + 1) % n_defs}) (call W{j})))"
             for j in range(n_defs)]
    guards = [guard() for _ in range(n_defs)]
    sibling = list(guards)
    sibling[rng.randrange(n_defs)] = guard()

    def program(gs):
        lines = [f"(input {' '.join(inputs)})", f"(output {output})"]
        lines += [f"(def (W{j}) (thread! {g} {step}))"
                  for j, (g, step) in enumerate(zip(gs, steps))]
        lines.append("(run (call W0))")
        return parse_tail_program("\n".join(lines))

    return program(guards), program(sibling)


def random_input_word(rng, alphabet, length):
    subsets = [frozenset(), frozenset(alphabet[:1]), frozenset(alphabet[1:]),
               frozenset(alphabet)]
    return [rng.choice(subsets) for _ in range(length)]


def seeded(seed):
    return random.Random(seed)

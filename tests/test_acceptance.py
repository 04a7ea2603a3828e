"""Acceptance gate: one test per advertised guarantee.

Each test prints one summary line; the pytest verdict for the test is the
pass/fail status of that criterion.
"""

import itertools
import time
from collections import Counter

from sltk.analysis import (
    Accept,
    CallResult,
    Reject,
    call_of,
    check_bounded,
    check_reactivity,
)
from sltk.cps import cps_program
from sltk.encodings import (
    CounterMachine,
    Dec,
    Inc,
    TestZero,
    encode_counter_machine,
    encode_pushdown,
)
from sltk.equiv import (
    EXACT,
    TRACE,
    bisim_check,
    space_for,
)
from sltk.mealy import (
    Distinguished,
    mealy_to_program,
    mealy_trace_equiv,
    program_to_mealy,
)
from sltk.semantics import (
    RANDOM,
    Runner,
    check_strong_confluence,
    run_trace,
)
from sltk.syntax import canonicalize, parse_program, print_thread
from sltk.tailcore import (
    BIte,
    BLeaf,
    PAUSE_SIGNAL,
    TCall,
    TEmit,
    TNIL,
    TPresent,
    TailRunner,
    canonicalize_tail,
    parse_tail_program,
    print_tail,
    run_trace_tail,
    tail_substitute,
)

from .corpus import (
    canonical_residual,
    confluence_corpus,
    finite_corpus,
    random_input_word,
    random_monotone_mealy,
    random_tail_program,
    seeded,
    source_corpus,
    tail_corpus,
)


def report(n, detail):
    print(f"criterion {n}: PASS ({detail})")


# the two-definition system whose depth-0 analysis must fail: the first
# definition can re-enter itself in the same instant once the second one
# is known not to suspend, which depth-1 unfolding reveals it does.
AB_SYSTEM = """
(input s1 s2)
(output s3 s4)
(def (A a b c d) (seq (watch a (call B a b c d)) (emit d) (call A a b c d)))
(def (B a b c d) (seq (await b) (emit c) pause (call B a b c d)))
(run (call A s1 s2 s3 s4))
"""


# ---------------------------------------------------------------------------
# criterion 1: scheduling never changes observable behaviour


def test_criterion_1_determinism():
    t0 = time.time()
    rng = seeded(31)
    words = [random_input_word(rng, ("s1", "s2"), 6) for _ in range(5)]
    programs = source_corpus()
    assert len(programs) >= 20
    runs = 0
    for name, p in programs:
        for word in words:
            reference = None
            for seed in range(50):
                runner = Runner(p, policy=RANDOM, seed=seed)
                outputs = [runner.run_instant(inp).outputs for inp in word]
                residual = canonical_residual(p, runner.threads)
                if reference is None:
                    reference = (outputs, residual)
                else:
                    assert reference == (outputs, residual), (name, seed)
                runs += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(1, f"{len(programs)} programs x {len(words)} words x 50 seeds, "
              f"{runs} runs, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: one-step diamond on every reachable state


def test_criterion_2_strong_confluence():
    programs = confluence_corpus()
    assert len(programs) == 10
    total = 0
    for name, p in programs:
        verdict = check_strong_confluence(p, max_states=5000, max_instants=3)
        assert verdict and 1 <= verdict.states <= 5000, name
        total += verdict.states
    report(2, f"10 programs, {total} states, zero violations")


# ---------------------------------------------------------------------------
# criterion 3: instantaneous-loop analysis on the two-definition system


def test_criterion_3_reactivity_analysis():
    p = parse_program(AB_SYSTEM)
    values = {name: call_of(d.body) for name, d in p.defs.items()}
    assert values["A"] == CallResult.of(Counter({"A": 1, "B": 1}), False)
    assert values["B"] == CallResult.of(Counter(), True)

    depth0 = check_reactivity(p, unfold_depth=0)
    assert isinstance(depth0, Reject) and "A" in depth0.cycle
    assert isinstance(check_reactivity(p, unfold_depth=1), Accept)

    rng = seeded(93)
    accepted = 0
    for name, program in source_corpus():
        if not isinstance(check_reactivity(program, unfold_depth=1), Accept):
            continue
        accepted += 1
        word = random_input_word(rng, ("s1", "s2"), 100)
        trace = run_trace(program, word, fuel=10**6)
        assert len(trace) == 100, name
    assert accepted == len(source_corpus())
    report(3, f"depth 0 rejects, depth 1 accepts; {accepted} accepted "
              f"programs completed 100 instants at fuel 1e6")


# ---------------------------------------------------------------------------
# criterion 4: the compiled image is trace-equal to the source


SUBSETS2 = [frozenset(), frozenset({"s1"}), frozenset({"s2"}),
            frozenset({"s1", "s2"})]


def _product_agreement(p, length=8):
    """Check source and compiled outputs on every input word of the given
    length by exploring the joint state graph with memoization on pairs of
    canonical residuals; closure before the depth bound covers all words
    of every length."""
    image = cps_program(p).program

    def skey(threads):
        return tuple(print_thread(t)
                     for t in canonicalize(threads, p.interface))

    def tkey(threads):
        return tuple(print_tail(t)
                     for t in canonicalize_tail(threads, image.interface))

    s0, t0 = Runner(p), TailRunner(image)
    start = (skey(s0.threads), tkey(t0.threads))
    frontier = {start: ((tuple(s0.threads), s0.gen_counter),
                        (tuple(t0.threads), t0.gen_counter))}
    memo = {start}
    edges = 0
    for _ in range(length):
        nxt = {}
        for (sthreads, sgen), (tthreads, tgen) in frontier.values():
            for inp in SUBSETS2:
                sr, tr = Runner(p), TailRunner(image)
                sr.threads, sr.gen_counter = list(sthreads), sgen
                tr.threads, tr.gen_counter = list(tthreads), tgen
                sres = sr.run_instant(inp)
                tres = tr.run_instant(inp)
                assert sres.outputs == tres.outputs, inp
                edges += 1
                key = (skey(sr.threads), tkey(tr.threads))
                if key not in memo:
                    memo.add(key)
                    nxt[key] = ((tuple(sr.threads), sr.gen_counter),
                                (tuple(tr.threads), tr.gen_counter))
        frontier = nxt
        if not frontier:
            break
    return edges, not frontier


def test_criterion_4_cps_traces_and_equations():
    edges = 0
    closed_all = True
    for name, p in source_corpus():
        assert len(p.inputs) <= 2
        checked, closed = _product_agreement(p, length=8)
        edges += checked
        closed_all = closed_all and closed

    # the five recursive equations of the compiled two-definition system,
    # up to renaming of generated identifiers
    res = cps_program(parse_program(AB_SYSTEM))
    defs = res.program.defs
    (start,) = res.program.initial
    a_def = defs[start.ident]
    a_body = tail_substitute(a_def.body, dict(zip(a_def.params, start.args)))
    b_call = a_body
    assert isinstance(b_call, TCall)
    b_def = defs[b_call.ident]
    b_body = tail_substitute(b_def.body, dict(zip(b_def.params, b_call.args)))
    t1 = TEmit("s4", TCall(start.ident, start.args))
    cascade = BIte("s1", BLeaf(t1), BLeaf(b_call))
    t2 = TEmit("s3", TPresent(PAUSE_SIGNAL, TNIL, cascade))
    assert b_body == TPresent("s2", t2, cascade)

    report(4, f"{len(source_corpus())} programs, {edges} distinct "
              f"state-input edges cover all length-8 words "
              f"(graphs closed: {closed_all}); five equations reproduced")


# ---------------------------------------------------------------------------
# criterion 5: evaluation-context growth analysis


def test_criterion_5_bounded_contexts():
    accepts = {
        "thread_guarded": """
(input s1)
(output s2)
(def (A c) (watch c (seq pause (thread (call A c)))))
(run (call A s1))
""",
        "loop_sugared": """
(input s1)
(output s2)
(run (loop (seq (emit s2) pause)))
""",
        "par_beacons": """
(input s1)
(output s2)
(run (par (seq (emit s2) pause) pause))
""",
    }
    tables = {}
    for label, text in accepts.items():
        p = parse_program(text)
        assert isinstance(check_bounded(p), Accept), label
        tables[label] = len(cps_program(p).program.defs)
    assert tables == {"thread_guarded": 1, "loop_sugared": 1,
                      "par_beacons": 4}

    rejects = {
        "tail_then_more": """
(input s1)
(output s2)
(def (A) (seq pause (call A) (call B)))
(def (B) pause)
(run (call A))
""",
        "watch_around_self": """
(input s1)
(output s2)
(def (A c) (watch c (seq pause (call A c))))
(run (call A s1))
""",
    }
    for label, text in rejects.items():
        verdict = check_bounded(parse_program(text))
        assert isinstance(verdict, Reject), label
        assert verdict.render() == "A > A", label
    report(5, "3 accepted with finite tables (1, 1, 4 equations); "
              "2 rejected with the A > A cycle")


# ---------------------------------------------------------------------------
# criterion 6: machine round trip and extraction agreement


def _drive(machine, word):
    q = machine.init
    out = []
    for X in word:
        key = (q, frozenset(X))
        out.append(machine.output[key])
        q = machine.next_state[key]
    return out


def test_criterion_6_mealy_round_trip():
    rng = seeded(6)
    for k in range(30):
        machine = random_monotone_mealy(rng, n=2, m=2, n_states=3)
        again = program_to_mealy(mealy_to_program(machine))
        assert bool(mealy_trace_equiv(machine, again)), k

    rng = seeded(101)
    for k in range(100):
        p = random_tail_program(rng)
        machine = program_to_mealy(p)
        in_name = {x: s for x, s in enumerate(p.inputs, start=1)}
        out_name = {j: s for j, s in enumerate(p.outputs, start=1)}
        word = [frozenset(x for x in (1, 2) if rng.random() < 0.4)
                for _ in range(8)]
        named = [frozenset(in_name[x] for x in X) for X in word]
        direct = [o for _, o in run_trace_tail(p, named)]
        via = [frozenset(out_name[j] for j in O)
               for O in _drive(machine, word)]
        assert direct == via, k
    report(6, "30 machine round trips equivalent; extraction matched the "
              "interpreter on 100 random programs")


# ---------------------------------------------------------------------------
# criterion 7: equivalence checking


REMARK_P = """
(input s1 s2)
(output s3)
(run (present s1 0 (ite s2 (emit! s3 0) 0)))
"""

REMARK_Q = """
(input s1 s2)
(output s3)
(run (present s2 0 0))
"""

LAW_PAIRS = [
    ("nil_component", """
(input s1 s2)
(output s3)
(run (present s1 (emit! s3 (present %pause 0 0)) 0))
""", """
(input s1 s2)
(output s3)
(run (present s1 (emit! s3 (present %pause 0 0)) 0))
(run 0)
"""),
    ("commutativity", """
(input s1 s2)
(output s3)
(run (present s1 (emit! s3 0) 0))
(run (present s2 (emit! s3 0) 0))
""", """
(input s1 s2)
(output s3)
(run (present s2 (emit! s3 0) 0))
(run (present s1 (emit! s3 0) 0))
"""),
    ("associativity", """
(input s1 s2)
(output s3)
(run (thread! (present s1 (emit! s3 0) 0)
              (thread! (present s2 (emit! s3 0) 0)
                       (emit! s3 0))))
""", """
(input s1 s2)
(output s3)
(run (present s1 (emit! s3 0) 0))
(run (present s2 (emit! s3 0) 0))
(run (emit! s3 0))
"""),
    ("scope_extrusion", """
(input s1 s2)
(output s3)
(run (new x (thread! (emit! x (present x (emit! s3 0) 0))
                     (present s1 (emit! s3 0) 0))))
""", """
(input s1 s2)
(output s3)
(run (new x (emit! x (present x (emit! s3 0) 0))))
(run (present s1 (emit! s3 0) 0))
"""),
]


def test_criterion_7_bisimulation():
    p = parse_tail_program(REMARK_P)
    q = parse_tail_program(REMARK_Q)
    verdict = bisim_check(p, q, mode=EXACT)
    assert isinstance(verdict, Distinguished)
    assert "s2" in verdict.render() and "s3" in verdict.render()
    assert isinstance(bisim_check(p, q, mode=TRACE), Distinguished)

    for label, left, right in LAW_PAIRS:
        assert bool(bisim_check(parse_tail_program(left),
                                parse_tail_program(right),
                                mode=EXACT)), label

    programs = finite_corpus()
    assert len(programs) == 30
    agreements = equivalences = 0
    for (n1, p1), (n2, p2) in \
            itertools.combinations_with_replacement(programs, 2):
        exact = bool(bisim_check(p1, p2, mode=EXACT))
        trace = bool(bisim_check(p1, p2, mode=TRACE))
        assert exact == trace, (n1, n2)
        agreements += 1
        equivalences += exact
    report(7, f"separating pair distinguished with its witness; 4 laws "
              f"equivalent; exact == trace on {agreements} pairs "
              f"({equivalences} equivalent)")


# ---------------------------------------------------------------------------
# criterion 8: reachability of suspension is the same weakly and labelled


def _sweep_states(p):
    sp = space_for(p)
    seed = sp.intern(p.initial)
    seen = {seed}
    queue = [seed]
    while queue:
        cur = queue.pop()
        assert sp.converges(cur) == sp.l_converges(cur)
        nxts = set(sp.tau(cur))
        for targets in sp.ins(cur).values():
            nxts.update(targets)
        if sp.suspended(cur):
            nxts.add(sp.eoi(cur))
        for nxt in nxts:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return len(seen)


def test_criterion_8_suspension_collapse():
    states = 0
    swept = 0
    for name, p in finite_corpus():
        states += _sweep_states(p)
        swept += 1
    for name, p in tail_corpus():
        if p.has_binder:
            continue
        states += _sweep_states(p)
        swept += 1
    report(8, f"weak and labelled suspension agree on {states} states "
              f"of {swept} programs")


# ---------------------------------------------------------------------------
# criterion 9: counter machine encodings


HALTING = CounterMachine(
    states=("q0", "q1", "q2", "q3", "q4", "qh"),
    init="q0",
    halt="qh",
    instrs={
        "q0": Inc(1, "q1"),
        "q1": Inc(1, "q2"),
        "q2": Dec(1, "q3"),
        "q3": Dec(1, "q4"),
        "q4": TestZero(1, "qh", "q0"),
    },
)

LOOPING = CounterMachine(
    states=("q0", "q1", "qh"),
    init="q0",
    halt="qh",
    instrs={
        "q0": Inc(1, "q1"),
        "q1": TestZero(1, "qh", "q0"),
    },
)


def _first_halt(program, limit):
    runner = Runner(program, fuel=10**6)
    for k in range(limit):
        if "halt" in runner.run_instant(frozenset()).outputs:
            return k
    return None


def test_criterion_9_undecidability_witness():
    assert len(HALTING.instrs) == 5
    halting = encode_counter_machine(HALTING)
    looping = encode_counter_machine(LOOPING)
    halt_at = _first_halt(halting, 200)
    assert halt_at == 13
    assert _first_halt(looping, 200) is None

    from sltk.tailcore import check_reactivity_tail
    for program in (halting, looping, encode_pushdown(HALTING)):
        assert isinstance(check_reactivity(program, unfold_depth=1), Accept)
        assert isinstance(check_bounded(program), Accept)
        image = cps_program(program).program
        assert isinstance(check_reactivity_tail(image), Accept)
    report(9, f"5-instruction machine halts at instant {halt_at} of 200; "
              f"looping machine silent; encodings pass both analyses "
              f"after compilation")

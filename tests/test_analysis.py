import random
from collections import Counter

from sltk.analysis import (
    EMPTY,
    SUSPENDS,
    CallResult,
    _find_cycle,
    bounded_call,
    call_of,
    call_of_context,
    check_bounded,
    check_reactivity,
)
from sltk.cps import cps_program
from sltk.equiv import EXACT, bisim_check
from sltk.semantics import decompose, plug, run_trace
from sltk.syntax import (
    Await,
    Call,
    Definition,
    Emit,
    New,
    Pause,
    Program,
    Spawn,
    Watch,
    parse_program,
    seq_all,
    seq_of,
)
from sltk.tailcore import check_reactivity_tail, parse_tail_program

from .corpus import SOURCE_TEXTS, source_corpus


AB_SYSTEM = """
(input s1)
(output s2)
(def (A) (seq (call B) (call A)))
(def (B) pause)
(run (call A))
"""


def test_call_values_of_the_ab_system():
    p = parse_program(AB_SYSTEM)
    assert call_of(p.defs["A"].body) == CallResult.of(
        Counter({"A": 1, "B": 1}), False)
    assert call_of(p.defs["B"].body) == SUSPENDS


def test_ab_system_rejected_without_unfolding():
    p = parse_program(AB_SYSTEM)
    verdict = check_reactivity(p, unfold_depth=0)
    assert not verdict
    assert "A" in verdict.cycle


def test_ab_system_accepted_after_one_unfolding():
    p = parse_program(AB_SYSTEM)
    assert check_reactivity(p, unfold_depth=1)


def test_call_of_basic_shapes():
    assert call_of(Emit("s")) == EMPTY
    assert call_of(Await("s")) == EMPTY
    assert call_of(Pause()) == SUSPENDS
    assert call_of(Call("A", ())) == CallResult.of(Counter({"A": 1}), False)
    assert call_of(Watch("s", Call("A", ()))) == \
        CallResult.of(Counter({"A": 1}), False)
    assert call_of(New("x", Pause())) == SUSPENDS


def test_spawn_discards_the_suspension_flag():
    assert call_of(Spawn(Pause())) == EMPTY
    assert call_of(Spawn(seq_of(Pause(), Call("A", ())))) == EMPTY
    assert call_of(Spawn(Call("A", ()))) == \
        CallResult.of(Counter({"A": 1}), False)


def test_suspension_hides_the_rest_of_a_sequence():
    t = seq_of(Pause(), Call("A", ()))
    assert call_of(t) == SUSPENDS
    t2 = seq_of(Call("A", ()), Pause())
    assert call_of(t2) == CallResult.of(Counter({"A": 1}), True)


def test_then_is_associative():
    results = [
        EMPTY,
        SUSPENDS,
        CallResult.of(Counter({"A": 1}), False),
        CallResult.of(Counter({"A": 1}), True),
        CallResult.of(Counter({"B": 2}), False),
        CallResult.of(Counter({"B": 1}), True),
        CallResult.of(Counter({"A": 1, "B": 1}), False),
        CallResult.of(Counter({"A": 2, "B": 1}), True),
    ]
    for x in results:
        for y in results:
            for z in results:
                assert x.then(y).then(z) == x.then(y.then(z))


def test_call_of_respects_plugging():
    # call_of(E[t]) == call_of(t).then(call_of_context(E))
    rng = random.Random(7)
    bodies = []
    for _, p in source_corpus():
        bodies.extend(p.all_threads())
    for body in bodies:
        split = decompose(body)
        if split is None:
            continue
        frames, redex = split
        assert plug(frames, redex) == body
        assert call_of(body) == call_of(redex).then(call_of_context(frames))
    fillers = [Pause(), Call("Z", ()), Emit("x"), seq_of(Pause(), Call("Z", ()))]
    for _ in range(200):
        body = rng.choice(bodies)
        split = decompose(body)
        if split is None:
            continue
        frames, _ = split
        t = rng.choice(fillers)
        assert call_of(plug(frames, t)) == \
            call_of(t).then(call_of_context(frames))


def test_reactivity_accepts_the_corpus():
    for name, p in source_corpus():
        assert check_reactivity(p), name


def test_reactivity_probe_on_accepted_programs():
    rng = random.Random(3)
    for name, p in source_corpus()[:6]:
        assert check_reactivity(p), name
        inputs = [frozenset(s for s in ("s1", "s2") if rng.random() < 0.4)
                  for _ in range(20)]
        trace = run_trace(p, inputs, fuel=10 ** 6)
        assert len(trace) == 20


def test_reactivity_rejects_an_instantaneous_loop():
    p = parse_program("""
(input s1)
(output s2)
(def (D a) (seq (emit a) (call D a)))
(run (call D s2))
""")
    verdict = check_reactivity(p, unfold_depth=3)
    assert not verdict
    assert verdict.cycle == ("D",)
    assert verdict.render() == "D > D"


# ---------------------------------------------------------------------------
# bounded evaluation contexts


THREAD_GUARDED = """
(input s1)
(output s2)
(def (A c) (watch c (seq pause (thread (call A c)))))
(run (call A s1))
"""

PAUSE_THEN_TAIL = """
(input s1)
(output s2)
(def (A) (seq pause (call A) (call B)))
(def (B) 0)
(run (call A))
"""

WATCH_AROUND_CALL = """
(input s1)
(output s2)
(def (A c) (watch c (seq pause (call A c))))
(run (call A s1))
"""


def test_bounded_labels_distinguish_contexts():
    p = parse_program(PAUSE_THEN_TAIL)
    labels = bounded_call(p.defs["A"].body, "e")
    assert labels == frozenset({("A", "k"), ("B", "e")})


def test_bounded_accepts_spawned_recursion():
    assert check_bounded(parse_program(THREAD_GUARDED))


def test_bounded_accepts_loop_sugar():
    p = parse_program(SOURCE_TEXTS["loop_beat"])
    assert check_bounded(p)


def test_bounded_accepts_par_sugar():
    p = parse_program(SOURCE_TEXTS["par_join"])
    assert check_bounded(p)


def test_bounded_rejects_growing_sequence():
    verdict = check_bounded(parse_program(PAUSE_THEN_TAIL))
    assert not verdict
    assert "A" in verdict.cycle


def test_bounded_rejects_recursion_under_watch():
    verdict = check_bounded(parse_program(WATCH_AROUND_CALL))
    assert not verdict
    assert "A" in verdict.cycle


def test_bounded_accepts_the_corpus():
    for name, p in source_corpus():
        assert check_bounded(p), name


def test_accepted_programs_compile_to_finite_tables():
    for text in (THREAD_GUARDED, SOURCE_TEXTS["loop_beat"],
                 SOURCE_TEXTS["par_join"]):
        p = parse_program(text)
        assert check_bounded(p)
        result = cps_program(p, index_limit=20000)
        assert len(result.program.defs) < 20000


def test_strict_cycle_needs_the_nonempty_label():
    # the same shape with the call spawned instead is fine
    fixed = parse_program("""
(input s1)
(output s2)
(def (A c) (watch c (seq pause (thread (call A c)))))
(run (call A s1))
""")
    assert check_bounded(fixed)


def test_cycle_search_walks_a_chain_deeper_than_the_recursion_limit():
    n = 3000
    header = "(input s1)\n(output s2)\n"
    chain = "".join(f"(def (A{k}) (call A{k + 1}))\n" for k in range(n))
    source = f"{header}{chain}(def (A{n}) pause)\n(run (call A0))\n"
    assert check_reactivity(parse_program(source))

    def tail(last):
        return parse_tail_program(
            f"{header}{chain}(def (A{n}) {last})\n(run (call A0))\n")

    assert check_reactivity_tail(tail("(emit! s2 0)"))
    verdict = check_reactivity_tail(tail("(call A0)"))
    assert verdict.cycle == tuple(f"A{k}" for k in range(n + 1))
    # closed behind a pause, the chain is call-cyclic: exact mode finds
    # the cycle and plays the trace game instead of the refinement
    ring = tail("(emit! s2 (present %pause 0 (call A0)))")
    assert bisim_check(ring, ring, mode=EXACT)


# ---------------------------------------------------------------------------
# one search for both analyses


def _reference_find_cycle(edges):
    """The cycle finder of check_reactivity before it shared the search
    with check_bounded: depth-first in sorted order, stopping at the first
    edge back onto the path."""
    color = {}
    for root in sorted(edges):
        if root in color:
            continue
        color[root] = 1
        path = [root]
        succs = [iter(sorted(edges.get(root, ())))]
        while path:
            v = next(succs[-1], None)
            if v is None:
                color[path.pop()] = 2
                succs.pop()
                continue
            c = color.get(v)
            if c == 1:
                return path[path.index(v):]
            if c is None:
                color[v] = 1
                path.append(v)
                succs.append(iter(sorted(edges.get(v, ()))))
    return None


def _random_graphs(count):
    rng = random.Random(15)
    for _ in range(count):
        nodes = [f"N{k}" for k in range(rng.randint(1, 8))]
        density = rng.uniform(0.1, 0.3)
        yield rng, {u: {v for v in nodes if rng.random() < density}
                    for u in nodes}


def _reaches(edges, start):
    seen, todo = {start}, [start]
    while todo:
        for v in edges[todo.pop()]:
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return seen


def test_first_cycle_is_the_reference_cycle_on_random_graphs():
    cyclic = 0
    for _, edges in _random_graphs(2000):
        cycle = _find_cycle(edges)
        assert cycle == _reference_find_cycle(edges), edges
        cyclic += cycle is not None
    assert 0 < cyclic < 2000


def test_bounded_verdict_is_brute_force_on_random_graphs():
    rejected = 0
    for rng, edges in _random_graphs(2000):
        strict = {(u, v) for u in edges for v in edges[u]
                  if rng.random() < 0.5}
        defs = {}
        for u, succs in edges.items():
            # a call followed by a pause sits in a non-empty context, a
            # spawned call in an empty one
            calls = [seq_of(Call(v, ()), Pause()) if (u, v) in strict
                     else Spawn(Call(v, ())) for v in sorted(succs)]
            defs[u] = Definition(u, (), seq_all(calls) if calls else Pause())
        verdict = check_bounded(Program((), (), defs, ()))
        assert bool(verdict) == all(u not in _reaches(edges, v)
                                    for u, v in strict), edges
        if not verdict:
            rejected += 1
            cycle = verdict.cycle
            steps = list(zip(cycle, cycle[1:] + cycle[:1]))
            assert all(v in edges[u] for u, v in steps)
            assert any(step in strict for step in steps)
    assert 0 < rejected < 2000


def test_bounded_witness_is_the_first_component_completed():
    p = parse_program("""
(input s1)
(output s2)
(def (A) (seq pause (call A) (call B)))
(def (B) (seq pause (call B) (call C)))
(def (C) pause)
(run (call A))
""")
    assert check_bounded(p).render() == "B > B"


def test_bounded_witness_starts_at_the_smallest_strict_caller():
    p = parse_program("""
(input s1)
(output s2)
(def (A) (seq (call B) pause))
(def (B) (seq (call C) pause))
(def (C) (call A))
(run (call A))
""")
    assert check_bounded(p).render() == "A > B > C > A"


def test_reactivity_witness_follows_the_walk_not_the_smallest_member():
    p = parse_program("""
(input s1)
(output s2)
(def (A o) (call C o))
(def (B o) (seq (emit o) (call C o)))
(def (C o) (seq (emit o) (call B o)))
(run (call A s1))
""")
    assert check_reactivity(p, unfold_depth=0).render() == "C > B > C"

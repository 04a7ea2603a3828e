import itertools
import random
from collections import Counter

import pytest

from sltk import equiv, semantics
from sltk.cps import cps_program
from sltk.equiv import (
    BOUNDED,
    EXACT,
    TRACE,
    NotFiniteStateError,
    StateExplosionError,
    bisim_check,
    confluence_check,
    space_for,
    suspension,
)
from sltk.errors import (
    FuelExhaustedError,
    InputSetExplosionError,
    NotSuspendedError,
)
from sltk.mealy import (
    Distinguished,
    Equivalent,
    Inconclusive,
    mealy_trace_equiv,
    program_to_mealy,
    shortest_separating_word,
)
from sltk.semantics import ConfluenceOk, subsets
from sltk.syntax import parse_program
from sltk.tailcore import (
    BLeaf, TEmit, TNIL, TPresent, TailRunner, calls_cyclic, parse_tail_program,
    print_tail)

from .corpus import (
    PILED_WAITERS,
    TAIL_TEXTS,
    finite_corpus,
    random_finite_program,
    random_ring_programs,
    seeded,
    tail_corpus,
)


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


def tp(text):
    return parse_tail_program(text)


def tprog(name):
    return tp(TAIL_TEXTS[name])


def test_remark_pair_distinguished_exactly():
    verdict = bisim_check(tp(REMARK_P), tp(REMARK_Q), mode=EXACT)
    assert isinstance(verdict, Distinguished)
    assert not verdict
    text = verdict.render()
    assert "s2" in text
    assert "s3" in text


def test_remark_pair_distinguished_by_traces():
    verdict = bisim_check(tp(REMARK_P), tp(REMARK_Q), mode=TRACE)
    assert isinstance(verdict, Distinguished)
    assert "s2" in verdict.render()


def test_remark_pair_needs_two_instants():
    shallow = bisim_check(tp(REMARK_P), tp(REMARK_Q), mode=BOUNDED, depth=1)
    assert isinstance(shallow, Inconclusive)
    assert not shallow
    assert shallow.depth == 1
    deep = bisim_check(tp(REMARK_P), tp(REMARK_Q), mode=BOUNDED, depth=3)
    assert isinstance(deep, Distinguished)


PAR_BASE = """
(input s1 s2)
(output s3)
(run (present s1 (emit! s3 (present %pause 0 0)) 0))
"""

PAR_WITH_NIL = """
(input s1 s2)
(output s3)
(run (present s1 (emit! s3 (present %pause 0 0)) 0))
(run 0)
"""


def test_law_parallel_nil():
    assert bisim_check(tp(PAR_BASE), tp(PAR_WITH_NIL), mode=EXACT)


def test_law_commutativity():
    ab = """
(input s1 s2)
(output s3)
(run (present s1 (emit! s3 0) 0))
(run (present s2 (emit! s3 0) 0))
"""
    ba = """
(input s1 s2)
(output s3)
(run (present s2 (emit! s3 0) 0))
(run (present s1 (emit! s3 0) 0))
"""
    assert bisim_check(tp(ab), tp(ba), mode=EXACT)


def test_law_associativity():
    # grouping by spawn order against flat run threads
    grouped = """
(input s1 s2)
(output s3)
(run (thread! (present s1 (emit! s3 0) 0)
              (thread! (present s2 (emit! s3 0) 0)
                       (emit! s3 0))))
"""
    flat = """
(input s1 s2)
(output s3)
(run (present s1 (emit! s3 0) 0))
(run (present s2 (emit! s3 0) 0))
(run (emit! s3 0))
"""
    assert bisim_check(tp(grouped), tp(flat), mode=EXACT)


def test_law_scope_extrusion():
    inside = """
(input s1 s2)
(output s3)
(run (new x (thread! (emit! x (present x (emit! s3 0) 0))
                     (present s1 (emit! s3 0) 0))))
"""
    outside = """
(input s1 s2)
(output s3)
(run (new x (emit! x (present x (emit! s3 0) 0))))
(run (present s1 (emit! s3 0) 0))
"""
    assert bisim_check(tp(inside), tp(outside), mode=EXACT)


def test_lazy_call_equals_unfolded_body():
    lazy = """
(input s1 s2)
(output s3)
(def (F) (present s1 (emit! s3 0) 0))
(run (call F))
"""
    unfolded = """
(input s1 s2)
(output s3)
(run (present s1 (emit! s3 0) 0))
"""
    assert bisim_check(tp(lazy), tp(unfolded), mode=EXACT)


def test_distinct_outputs_are_distinguished():
    a = """
(input s1 s2)
(output s3)
(run (emit! s3 0))
"""
    b = """
(input s1 s2)
(output s3)
(run 0)
"""
    verdict = bisim_check(tp(a), tp(b), mode=EXACT)
    assert isinstance(verdict, Distinguished)
    assert "s3" in verdict.render()


def test_timing_differences_are_distinguished():
    now = """
(input s1 s2)
(output s3)
(run (emit! s3 0))
"""
    later = """
(input s1 s2)
(output s3)
(run (present %pause 0 (emit! s3 0)))
"""
    assert not bisim_check(tp(now), tp(later), mode=EXACT)
    assert not bisim_check(tp(now), tp(later), mode=TRACE)


def test_every_corpus_program_matches_itself():
    for name, p in tail_corpus():
        assert bisim_check(p, p, mode=EXACT), name


def test_exact_equals_trace_on_sampled_pairs():
    programs = finite_corpus()
    rng = seeded(11)
    pairs = [tuple(rng.sample(range(len(programs)), 2)) for _ in range(20)]
    pairs += [(i, i) for i in range(0, len(programs), 6)]
    saw_equivalent = saw_distinguished = False
    for i, j in pairs:
        (n1, p1), (n2, p2) = programs[i], programs[j]
        exact = bool(bisim_check(p1, p2, mode=EXACT))
        trace = bool(bisim_check(p1, p2, mode=TRACE))
        assert exact == trace, (n1, n2)
        saw_equivalent |= exact
        saw_distinguished |= not exact
    assert saw_equivalent and saw_distinguished


def test_recursion_with_generation_is_out_of_scope():
    looping_nu = """
(input s1 s2)
(output s3)
(def (G) (new x (emit! x (present x (present %pause 0 (call G)) 0))))
(run (call G))
"""
    with pytest.raises(NotFiniteStateError):
        bisim_check(tp(looping_nu), tp(looping_nu), mode=EXACT)
    # bounded mode still applies
    verdict = bisim_check(tp(looping_nu), tp(looping_nu), mode=BOUNDED,
                          depth=3)
    assert isinstance(verdict, Inconclusive)


# every instant leaves one more waiter on a fresh signal
RECURSIVE_NU = """
(input s1 s2)
(output s3)
(def (K x) (present x 0 (call K x)))
(def (G) (new x (thread! (call K x) (present %pause 0 (call G)))))
(run (call G))
"""


def test_trace_mode_overruns_budget_on_generation_recursion():
    with pytest.raises(StateExplosionError):
        bisim_check(tp(RECURSIVE_NU), tp(RECURSIVE_NU), mode=TRACE,
                    state_limit=200)


def test_equal_members_are_one_member_of_a_state():
    # Every instant of the image adds one more copy of a waiter it already
    # holds. A state keeps one member per printed form, so the space
    # closes within the state budget, at the size of the extracted machine.
    image = cps_program(parse_program(PILED_WAITERS)).program
    verdict = bisim_check(image, image, mode=TRACE, state_limit=500)
    assert isinstance(verdict, Equivalent)
    assert len(program_to_mealy(image).states) == 4
    space = equiv.Space(image, sorted(image.universe))
    waiter = TPresent("i2", TNIL, BLeaf(TNIL))
    assert space.intern([waiter, waiter]) == space.intern([waiter])
    assert space.show(space.intern([waiter] * 3)) == \
        "(present i2 0 0)"


def test_trace_mode_decides_generation_with_dead_binders():
    # the generated signal is dead after its instant, so lifting it to the
    # top level leaves a finite state graph
    dead_nu = """
(input s1 s2)
(output s3)
(def (G) (new x (emit! x (present x (present %pause 0 (call G)) 0))))
(run (call G))
"""
    verdict = bisim_check(tp(dead_nu), tp(dead_nu), mode=TRACE,
                          state_limit=200)
    assert isinstance(verdict, Equivalent)


def test_suspension_report_shapes():
    report = suspension(tprog("t_emit"))
    assert report.now and report.weak and report.labelled

    needs_tau = """
(input s1 s2)
(output s3)
(def (F) (emit! s3 0))
(run (call F))
"""
    report = suspension(tp(needs_tau))
    assert not report.now
    assert report.weak and report.labelled

    waiting = tprog("t_present")
    report = suspension(waiting)
    assert report.now and report.weak and report.labelled


def test_weak_and_labelled_suspension_agree_on_corpus():
    for name, p in tail_corpus():
        report = suspension(p)
        assert report.weak == report.labelled, name


def test_confluence_of_corpus_programs():
    for name, p in tail_corpus()[:10]:
        verdict = confluence_check(p, depth=4)
        assert isinstance(verdict, ConfluenceOk), name
        assert verdict.states >= 1


def test_confluence_counts_the_states_within_depth():
    programs = dict(tail_corpus())
    for name, depth, states in [("t_emit", 6, 1), ("t_chain", 6, 3),
                                ("t_spawn", 4, 4), ("t_sticky", 2, 3),
                                ("t_sticky", 6, 4)]:
        assert confluence_check(programs[name], depth=depth) == \
            ConfluenceOk(states), (name, depth)


def test_emission_is_a_parallel_component():
    p = tprog("t_emit")
    space = space_for(p)
    sid = space.intern(p.initial)
    assert "(emit! s3 0)" in space.show(sid)
    assert "s3" in space.barbs(sid)


def _replayed(program, word):
    """The present interface signals of each instant of `word` on the
    program's `TailRunner`, which runs instants through `run_threads`
    rather than through `Space`."""
    runner = TailRunner(program)
    return [runner.run_instant(X).outputs | X for X in word]


def test_distinguishing_witness_replays():
    corpus = [p for _, p in finite_corpus()]
    for mode in (EXACT, TRACE):
        distinguished = 0
        for p, q in itertools.combinations(corpus, 2):
            verdict = bisim_check(p, q, mode=mode)
            if verdict:
                continue
            distinguished += 1
            left = _replayed(p, verdict.word)
            right = _replayed(q, verdict.word)
            assert left[:-1] == right[:-1], verdict.render()
            assert (left[-1], right[-1]) == verdict.outputs, verdict.render()
        assert distinguished == 465 - 75


def test_a_split_that_no_word_separates_is_an_error(monkeypatch):
    # the refinement splits the remark pair; a game that found no word
    # would contradict it, and the check never answers Equivalent then
    monkeypatch.setattr(equiv, "_trace_game", lambda *args: Equivalent())
    with pytest.raises(RuntimeError):
        bisim_check(tp(REMARK_P), tp(REMARK_Q), mode=EXACT)


def test_unknown_mode_is_rejected_before_any_state_is_built(monkeypatch):
    def no_space(*args, **kwargs):
        raise AssertionError("a state space was built")
    monkeypatch.setattr(equiv, "Space", no_space)
    with pytest.raises(ValueError, match="unknown mode"):
        bisim_check(tp(REMARK_P), tp(REMARK_Q), mode="fuzzy")


def test_end_of_instant_on_a_running_state_is_refused():
    running = """
(input s1 s2)
(output s3)
(def (F) (emit! s3 0))
(run (call F))
"""
    p = tp(running)
    space = space_for(p)
    sid = space.intern(p.initial)
    assert not space.suspended(sid)
    for _ in range(2):
        with pytest.raises(NotSuspendedError, match=r"\(call F\)"):
            space.eoi(sid)


def _full_closure(space, seed):
    """Every state reached from the seed by internal moves, inputs,
    every context set and, from a suspended state, the end of the
    instant."""
    contexts = subsets(space.universe)
    seen = {seed}
    queue = [seed]
    while queue:
        sid = queue.pop()
        succs = set(space.tau(sid))
        for targets in space.ins(sid).values():
            succs.update(targets)
        succs.update(space.with_emits(sid, S) for S in contexts)
        if space.suspended(sid):
            succs.add(space.eoi(sid))
        for nxt in succs - seen:
            seen.add(nxt)
            queue.append(nxt)
    return seen


def _closed_spaces():
    programs = dict(finite_corpus())
    for p in (tp(REMARK_P), tp(REMARK_Q), programs["f_both"],
              programs["f_def_chain"]):
        space = space_for(p)
        seed = space.intern(p.initial)
        states = _full_closure(space, seed)
        yield space, sorted(states), subsets(space.universe)


def test_context_moves_are_memoized_exactly(monkeypatch):
    for space, states, inputs in _closed_spaces():
        for sid in states:
            for S in inputs:
                markers = tuple(TEmit(s, TNIL) for s in sorted(S))
                expected = space.intern(space._items[sid] + markers)
                assert space.with_emits(sid, S) == expected
                if S <= space.barbs(sid):
                    assert space.with_emits(sid, S) == sid
            assert space.barbs(sid) is space.barbs(sid)
        calls = []
        intern = space.intern

        def counting_intern(items):
            calls.append(items)
            return intern(items)
        monkeypatch.setattr(space, "intern", counting_intern)
        for sid in states:
            for S in inputs:
                space.with_emits(sid, set(S))
            if space.suspended(sid):
                space.eoi(sid)
        assert calls == []


# ---------------------------------------------------------------------------
# exact mode: signature refinement against the pair-by-pair fixpoint


def _kleene_verdict(sp1, seed1, sp2, seed2):
    """Exact mode's verdict as the pair-by-pair Kleene loop computed it
    before signature refinement: every pair of closed states starts alive,
    and each round drops the pairs that break a clause against the pairs
    still alive, until no pair drops or the seed pair has."""
    inputs = subsets(sp1.universe)
    states2 = _full_closure(sp2, seed2)
    alive = {(a, b) for a in _full_closure(sp1, seed1) for b in states2}
    contexts = {}

    def context(sp, p):
        """Per context set: p's state after it and that state's end of
        instant if it is suspended, and the suspended states p reaches
        after it by internal moves with their ends of instant."""
        if (sp, p) not in contexts:
            out = []
            for S in inputs:
                pS = sp.with_emits(p, S)
                out.append((pS, sp.eoi(pS) if sp.suspended(pS) else None,
                            [(q, sp.eoi(q)) for q in sp.weak_tau(pS)
                             if sp.suspended(q)]))
            contexts[sp, p] = out
        return contexts[sp, p]

    def breaks(p, q, spP, spQ, live):
        for p2 in spP.tau(p):
            if not any(live(p2, q2) for q2 in spQ.weak_tau(q)):
                return True
        if spP.converges(p):
            for s in spP.barbs(p):
                if not any(s in spQ.barbs(q2) and live(p, q2)
                           for q2 in spQ.weak_tau(q)):
                    return True
        for (pS, pE, _), (_, _, candidates) in zip(context(spP, p),
                                                   context(spQ, q)):
            if pE is not None and not any(live(pS, q2) and live(pE, qE)
                                          for q2, qE in candidates):
                return True
        for s, targets in spP.ins(p).items():
            for p2 in targets:
                if not (any(live(p2, q2) for q2 in spQ.weak_in(q, s)) or
                        any(live(p2, spQ.with_emits(q2, {s}))
                            for q2 in spQ.weak_tau(q))):
                    return True
        return False

    def forward(x, y):
        return (x, y) in alive

    def backward(x, y):
        return (y, x) in alive

    changed = True
    while changed and (seed1, seed2) in alive:
        changed = False
        for a, b in sorted(alive):
            if (breaks(a, b, sp1, sp2, forward) or
                    breaks(b, a, sp2, sp1, backward)):
                alive.discard((a, b))
                changed = True
    return (seed1, seed2) in alive


def _seeded_spaces(programs):
    """A space over s1 s2 s3 and its seed for each program, shared by every
    pair the program is in."""
    out = []
    for p in programs:
        space = equiv.Space(p, ("s1", "s2", "s3"))
        out.append((space, space.intern(p.initial)))
    return out


def _refine(left, right):
    (sp1, seed1), (sp2, seed2) = left, right
    refinement = equiv._Refinement(sp1, sp2, sp1.universe)
    return refinement, refinement.run(seed1, seed2)


def test_exact_verdicts_equal_the_kleene_fixpoint_on_the_corpus():
    spaces = _seeded_spaces(p for _, p in finite_corpus())
    verdicts = []
    for left, right in itertools.combinations_with_replacement(spaces, 2):
        exact = bool(_refine(left, right)[1])
        assert exact == _kleene_verdict(*left, *right)
        verdicts.append(exact)
    assert (len(verdicts), sum(verdicts)) == (465, 75)


def test_exact_equals_the_kleene_fixpoint_and_trace_on_generated_pairs():
    rng = seeded(3)
    programs = [random_finite_program(rng) for _ in range(30)]
    spaces = _seeded_spaces(programs)
    pairs = rng.sample(list(itertools.combinations(range(30), 2)), 200)
    verdicts = set()
    for i, j in pairs:
        exact = bool(_refine(spaces[i], spaces[j])[1])
        assert exact == _kleene_verdict(*spaces[i], *spaces[j]), (i, j)
        assert exact == bool(bisim_check(programs[i], programs[j],
                                         mode=TRACE)), (i, j)
        verdicts.add(exact)
    assert verdicts == {True, False}


def _reinterned(program, space, seed):
    """A space of the same program whose closed states are interned in
    the opposite order."""
    closed = _full_closure(space, seed)
    other = equiv.Space(program, space.universe)
    for sid in sorted(closed, reverse=True):
        other.intern(space._items[sid])
    return other, other.intern(program.initial)


def _game(left, right):
    (sp1, seed1), (sp2, seed2) = left, right
    return equiv._trace_game(sp1, seed1, sp2, seed2, sp1.universe)


def test_exact_witnesses_are_short_observable_and_order_free():
    programs = [p for _, p in finite_corpus()]
    spaces = _seeded_spaces(programs)
    reordered = [_reinterned(p, *s) for p, s in zip(programs, spaces)]
    assert [sp.show(seed) for sp, seed in reordered] == \
        [sp.show(seed) for sp, seed in spaces]
    assert any(a[1] != b[1] for a, b in zip(reordered, spaces))
    distinguished = 0
    for i, j in itertools.combinations(range(len(programs)), 2):
        refinement, same = _refine(spaces[i], spaces[j])
        if same:
            continue
        distinguished += 1
        verdict = _game(spaces[i], spaces[j])
        # each instant of the word takes the refinement at least a round
        assert len(verdict.word) < refinement.rounds, verdict.render()
        o1, o2 = verdict.outputs
        assert o1 != o2, verdict.render()
        assert _game(reordered[i], reordered[j]) == verdict
    assert distinguished == 465 - 75


def bare_call_chain(n, last):
    """(def (A0) (call A1)) ... (def (An) (emit! last 0)), run from A0."""
    defs = "".join(f"(def (A{k}) (call A{k + 1}))\n" for k in range(n))
    return tp(f"(input s1 s2)\n(output s3)\n{defs}"
              f"(def (A{n}) (emit! {last} 0))\n(run (call A0))")


def test_an_open_bare_call_chain_refines_in_two_rounds(monkeypatch):
    rounds, states = [], []

    class Counted(equiv._Refinement):
        def run(self, *seeds):
            verdict = super().run(*seeds)
            rounds.append(self.rounds)
            states.append(len(self.states))
            return verdict

    monkeypatch.setattr(equiv, "_Refinement", Counted)
    for n in (100, 300):
        rounds.clear()
        chain = bare_call_chain(n, "s2")
        assert isinstance(bisim_check(chain, chain, mode=EXACT), Equivalent)
        verdict = bisim_check(chain, bare_call_chain(n, "s3"), mode=EXACT)
        assert isinstance(verdict, Distinguished)
        o1, o2 = verdict.outputs
        assert o1 ^ o2 == {"s2", "s3"}
        assert rounds == [2, 2]
    # only settled states are numbered, not every state of the unfolding
    assert max(states) <= 20


def test_every_state_settles_into_one_suspended_state():
    programs = [p for _, p in finite_corpus()]
    rng = seeded(9)
    programs += [random_finite_program(rng) for _ in range(40)]
    checked = 0
    for p in programs:
        space = space_for(p)
        for sid in _full_closure(space, space.intern(p.initial)):
            settled = {y for y in space.weak_tau(sid) if space.suspended(y)}
            assert settled == {space.settle(sid)}, space.show(sid)
            checked += 1
    assert checked > 1000


def _walking_settle(space, sid):
    """The settled state of sid on the interned path: the first tau move
    of each state, every state on the way interned."""
    while not space.suspended(sid):
        sid = space.tau(sid)[0]
    return sid


def _context_sets(space, y):
    """{S: settled state after the context emits S} for every subset S of
    the universe, from a settled state y: each set after {} is an earlier
    set plus its largest signal, reached by `Space.settle_with`."""
    out = {}
    for S in subsets(space.universe):
        out[S] = space.settle_with(out[S - {max(S)}], max(S)) if S else y
    return out


# guards on inputs that park and emit on a generated name, across two
# instants
RELAYED_NAME = """
(input s1 s2)
(output s3)
(run (new x (thread! (present s1 (present x (emit! s3 0) 0) 0)
                     (present s2 (emit! x 0)
                              (ite s1 (present s2 (emit! x 0) 0) 0)))))
"""


def _binding_acyclic_programs():
    """The call-acyclic programs that bind names: exact mode labels their
    states canonically."""
    programs = [p for p in map(tp, TAIL_TEXTS.values())
                if p.has_binder and not p.fact(calls_cyclic)]
    return programs + [tp(FRESH_NAMES), tp(RELAYED_NAME)]


def test_one_signal_fold_equals_the_interned_path():
    programs = [p for _, p in finite_corpus()]
    rng = seeded(5)
    programs += [random_finite_program(rng) for _ in range(40)]
    # their states hold generated names, which the spaces label canonically
    programs += _binding_acyclic_programs()
    checked = 0
    for p in programs:
        space = space_for(p)
        closure = _full_closure(space, space.intern(p.initial))
        for y in sorted(x for x in closure if space.suspended(x)):
            folded = _context_sets(space, y)
            assert folded == {S: _walking_settle(space,
                                                 space.with_emits(y, S))
                              for S in folded}, space.show(y)
            assert space.settle_eoi(y) == \
                _walking_settle(space, space.eoi(y)), space.show(y)
            checked += 1
    assert checked > 500


def test_only_programs_without_binders_have_ground_spaces():
    assert all(space_for(p)._ground for _, p in finite_corpus())
    assert not any(space_for(p)._ground for p in _binding_acyclic_programs())


def one_shot_guards(n):
    """n one-shot guards in parallel, with no calls."""
    body = "0"
    for k in range(n, 0, -1):
        body = f"(thread! (present i{k} (emit! o 0) 0) {body})"
    inputs = " ".join(f"i{k}" for k in range(1, n + 1))
    return tp(f"(input {inputs})\n(output o)\n(run {body})")


def test_exact_mode_runs_instants_on_raw_threads(monkeypatch):
    spaces, refinements, runs = [], [], []
    saturate = equiv.Space._saturate

    def counted(space, *args):
        runs.append(space)
        return saturate(space, *args)

    class Recorded(equiv.Space):
        def __init__(self, *args):
            super().__init__(*args)
            spaces.append(self)

    class Kept(equiv._Refinement):
        def run(self, *seeds):
            refinements.append(self)
            return super().run(*seeds)

    monkeypatch.setattr(equiv.Space, "_saturate", counted)
    monkeypatch.setattr(equiv, "Space", Recorded)
    monkeypatch.setattr(equiv, "_Refinement", Kept)
    p = one_shot_guards(6)
    assert isinstance(bisim_check(p, p, mode=EXACT), Equivalent)
    # only settled states are interned
    assert [len(sp._items) for sp in spaces] == [192, 192]
    # a run per signal not yet marked, not one per context set
    numbered = len(refinements[0].states)
    assert len(runs) <= numbered * len(spaces[0].universe)


def _settled_closure(refinement, seed1, seed2):
    """The (k, sid) pairs that the settled states of the two seeds reach
    by every context set and by settle_eoi."""
    spaces = (refinement.sp1, refinement.sp2)
    seen = {(0, spaces[0].settle(seed1)), (1, spaces[1].settle(seed2))}
    todo = list(seen)
    while todo:
        k, y = todo.pop()
        sp = spaces[k]
        for x in [*_context_sets(sp, y).values(), sp.settle_eoi(y)]:
            if (k, x) not in seen:
                seen.add((k, x))
                todo.append((k, x))
    return seen


def test_exact_mode_asks_each_settled_state_one_move_per_signal(
        monkeypatch):
    calls = Counter()
    for name in ("settle_with", "settle_eoi"):
        def counted(space, *args, name=name,
                    method=getattr(equiv.Space, name)):
            calls[name] += 1
            return method(space, *args)
        monkeypatch.setattr(equiv.Space, name, counted)
    pairs = list(itertools.combinations_with_replacement(
        _seeded_spaces(p for _, p in finite_corpus()), 2))
    guards = one_shot_guards(6)
    pairs.append(tuple((space, space.intern(guards.initial))
                       for space in (space_for(guards), space_for(guards))))
    for left, right in pairs:
        calls.clear()
        refinement, _ = _refine(left, right)
        numbered = len(refinement.states)
        assert calls == {"settle_with": numbered * len(left[0].universe),
                         "settle_eoi": numbered}
        assert set(refinement.states) == \
            _settled_closure(refinement, left[1], right[1])


# ---------------------------------------------------------------------------
# trace mode: one instant on raw lifted threads


def _interned_instant(space, sid, inputs):
    """One instant the way the interned transition system runs it: emit
    the inputs, follow tau moves until the state suspends, then read the
    barbs and end the instant."""
    cur = space.with_emits(sid, inputs)
    while not space.suspended(cur):
        cur = space.tau(cur)[0]
    return space.barbs(cur), space.eoi(cur)


# a `new` lifted in mid-instant (G unfolds) whose name is still live when
# an else-branch lifts another `new` at the end of the instant
FRESH_NAMES = """
(input s1 s2)
(output s3)
(def (G) (new x (present x 0 (new y (emit! y (present x (emit! s3 0) 0))))))
(run (call G))
"""


# a guard on an input that the program also emits later in its instant
SELF_EMITTED = """
(input s1 s2)
(output s3)
(run (thread! (present s1 (emit! s3 0) 0)
              (present s2 (emit! s1 0) (ite s1 (emit! s3 0) 0))))
"""

# a conditional tree at the instant boundary on a signal no guard waits on
BOUNDARY_ITE = """
(input s1 s2)
(output s3)
(def (B) (present %pause 0 (ite s2 (emit! s3 (call B)) (call B))))
(run (call B))
"""


def _instant_programs():
    programs = [p for _, p in finite_corpus()]
    programs += [p for p in map(tp, TAIL_TEXTS.values()) if p.has_binder]
    return programs + [tp(FRESH_NAMES), tp(SELF_EMITTED), tp(BOUNDARY_ITE)]


def _check_instants(programs, order=list):
    """Space.instant against the interned instant on every state pair the
    two reach, querying the input sets of each state in `order`."""
    # the oracle and Space.instant run in spaces of their own, so that
    # Space.instant interns its boundary states itself; states compare by
    # their canonical printed form
    for p in programs:
        oracle, raw = space_for(p), space_for(p)
        inputs = order(subsets(oracle.universe))
        start = (oracle.intern(p.initial), raw.intern(p.initial))
        seen = {start}
        queue = [start]
        while queue:
            a, b = queue.pop()
            assert oracle.show(a) == raw.show(b)
            for S in inputs:
                out, a2 = _interned_instant(oracle, a, S)
                raw_out, b2 = raw.instant(b, S)
                assert raw_out == out, (oracle.show(a), S)
                if (a2, b2) not in seen:
                    seen.add((a2, b2))
                    queue.append((a2, b2))
        assert len({a for a, _ in seen}) == len({b for _, b in seen})


def test_instant_equals_the_interned_instant():
    _check_instants(_instant_programs())


@pytest.mark.parametrize("order", [
    lambda letters: letters[::-1],
    lambda letters: random.Random(17).sample(letters, len(letters)),
], ids=["reversed", "shuffled"])
def test_instant_trees_answer_queries_in_any_order(order):
    _check_instants(_instant_programs(), order)


def _leaves(tree):
    if tree.__class__ is equiv._Split:
        return sum(map(_leaves, tree.branches))
    return 1


def _count_builds(monkeypatch):
    """(space, state id, leaves) of every instant tree built from now on."""
    builds = []
    build = equiv.Space._build

    def counted(space, sid):
        tree = build(space, sid)
        builds.append((space, sid, _leaves(tree)))
        return tree

    monkeypatch.setattr(equiv.Space, "_build", counted)
    return builds


def test_trace_game_runs_one_instant_per_boundary_state(monkeypatch):
    # no guard of this program waits on s1, s2 or s3, so each state's tree
    # is one leaf, where every input set used to run the instant again
    builds = _count_builds(monkeypatch)
    with pytest.raises(StateExplosionError):
        bisim_check(tp(RECURSIVE_NU), tp(RECURSIVE_NU), mode=TRACE,
                    state_limit=200)
    assert {leaves for _, _, leaves in builds} == {1}
    for space in {sp for sp, _, _ in builds}:
        sids = [sid for sp, sid, _ in builds if sp is space]
        # the last state may be left when the other space runs out
        assert sids == list(range(len(sids)))
        assert len(sids) >= len(space._items) - 1 >= 199


def test_instant_trees_split_only_on_tested_signals(monkeypatch):
    # leaves per state of each space, for all eight input sets of s1 s2 s3
    builds = _count_builds(monkeypatch)
    # only the boundary tests s2: two classes
    assert bisim_check(tp(BOUNDARY_ITE), tp(BOUNDARY_ITE), mode=TRACE)
    assert {leaves for _, _, leaves in builds} == {2}
    builds.clear()
    # guards wait on s1 and s2, never on s3: four classes from the seed
    assert bisim_check(tp(SELF_EMITTED), tp(SELF_EMITTED), mode=TRACE)
    assert [leaves for _, sid, leaves in builds if sid == 0] == [4, 4]


def test_trace_mode_queries_only_the_input_sets_it_needs():
    # the instant diverges only when s2 is present; {s1} separates the
    # pair before any input set with s2 is queried
    diverging = """
(input s1 s2)
(output s3)
(def (F) (call F))
(run (thread! (present s2 (call F) 0) (present s1 (emit! s3 0) 0)))
"""
    quiet = """
(input s1 s2)
(output s3)
(def (F) (call F))
(run (present s2 (call F) 0))
"""
    verdict = bisim_check(tp(diverging), tp(quiet), mode=TRACE)
    assert verdict.render() == "inputs {s1} emit {s1,s3} versus {s1}"
    with pytest.raises(FuelExhaustedError):
        bisim_check(tp(diverging), tp(diverging), mode=TRACE)


def test_a_diverging_input_runs_out_of_fuel_once_per_tree(monkeypatch):
    # the guard on i7, the last signal decided, diverges on 64 paths of
    # each tree; the first to run out stands for the others
    guards = "(present i7 (call F) 0)"
    for k in range(6, 0, -1):
        guards = f"(thread! (present i{k} (emit! o1 0) 0) {guards})"
    p = tp(f"(input i1 i2 i3 i4 i5 i6 i7)\n(output o1)\n"
           f"(def (F) (call F))\n(run {guards})")
    ran_out = []
    saturate = equiv.Space._saturate

    def counted(space, *args):
        try:
            return saturate(space, *args)
        except FuelExhaustedError:
            ran_out.append(space)
            raise

    monkeypatch.setattr(equiv.Space, "_saturate", counted)
    with pytest.raises(FuelExhaustedError):
        bisim_check(p, p, mode=TRACE)
    assert len(ran_out) == len(set(ran_out)) == 2


def test_wide_input_set_enumeration_is_refused(monkeypatch):
    monkeypatch.setattr(semantics, "MAX_ENUMERATED_SIGNALS", 4)
    assert len(subsets("abcd")) == 16
    with pytest.raises(InputSetExplosionError) as e:
        subsets("abcde")
    assert (e.value.limit, e.value.signals) == (4, 5)
    assert "5 signals" in str(e.value) and "4 signals" in str(e.value)
    wide = tp("(input i1 i2 i3 i4)\n(output o1)\n"
              "(run (present i1 (emit! o1 0) 0))")
    for mode in (EXACT, TRACE):
        with pytest.raises(InputSetExplosionError):
            bisim_check(wide, wide, mode=mode)


def test_fresh_names_stay_apart_across_the_instant_boundary():
    for mode in (TRACE, EXACT):
        assert bisim_check(tp(FRESH_NAMES), tprog("t_nil"), mode=mode)


@pytest.mark.parametrize("mode", [TRACE, EXACT])
@pytest.mark.parametrize("left, right, witness", [
    ("f_nil", "f_pause_twice",
     "inputs {} then inputs {} then inputs {} emit {} versus {s3}"),
    ("f_nil", "f_present_ite",
     "inputs {s2} then inputs {} emit {} versus {s3}"),
    ("f_both", "f_def_chain", "inputs {s1} emit {s1} versus {s1,s3}"),
    ("f_both", "f_nil", "inputs {s1,s2} emit {s1,s2,s3} versus {s1,s2}"),
    ("f_chain_swap", "f_def_chain", "inputs {s1} emit {s1} versus {s1,s3}"),
    ("f_both", "f_pause_branch",
     "inputs {s1,s2} emit {s1,s2,s3} versus {s1,s2}"),
    ("f_chain_swap", "f_nil",
     "inputs {s1,s2} emit {s1,s2,s3} versus {s1,s2}"),
])
def test_trace_witnesses_are_stable(left, right, witness, mode):
    programs = dict(finite_corpus())
    verdict = bisim_check(programs[left], programs[right], mode=mode)
    assert isinstance(verdict, Distinguished)
    assert verdict.render() == witness


def guard_loop(n):
    """n parallel guards respawned by a pause loop: 2**n orders of firing
    within an instant, one state at its boundary."""
    body = "(present %pause 0 (call L))"
    for k in range(n, 0, -1):
        body = f"(thread! (present i{k} (emit! o1 0) 0) {body})"
    inputs = " ".join(f"i{k}" for k in range(1, n + 1))
    return tp(f"(input {inputs})\n(output o1)\n(def (L) {body})\n"
              "(run (call L))")


def test_the_game_walks_both_trees_together(monkeypatch):
    # ten guards on ten inputs: 1,024 classes on each side and 1,024
    # meets, where pairing the two lists of classes would try 2**20
    played = []
    meets = equiv._meets

    def counted(tree1, tree2):
        out = meets(tree1, tree2)
        played.append(len(out))
        return out

    monkeypatch.setattr(equiv, "_meets", counted)
    p = guard_loop(10)
    assert isinstance(bisim_check(p, p, mode=TRACE), Equivalent)
    assert played == [1024]


def test_trace_mode_interns_only_instant_boundaries(monkeypatch):
    spaces = []

    class Recorded(equiv.Space):
        def __init__(self, *args):
            super().__init__(*args)
            spaces.append(self)

    monkeypatch.setattr(equiv, "Space", Recorded)
    p = guard_loop(8)
    assert isinstance(bisim_check(p, p, mode=TRACE), Equivalent)
    assert len(spaces) == 2
    assert all(len(sp._items) <= 2 for sp in spaces)


def record_renders(monkeypatch):
    """The nodes `equiv` prints that have no printed form yet, in order:
    a node keeps its text once printed, so a later print renders
    nothing."""
    rendered = []

    def counting(t, original=equiv.print_tail):
        if not hasattr(t, "_text"):
            rendered.append(t)
        return original(t)

    monkeypatch.setattr(equiv, "print_tail", counting)
    return rendered


def test_a_raw_intern_prints_each_member_once(monkeypatch):
    rendered = record_renders(monkeypatch)
    sp = space_for(guard_loop(3))

    def members():
        return [TPresent(f"i{k}", TEmit("o1", TNIL), BLeaf(TNIL))
                for k in (1, 2, 3)] + [TEmit("i2", TNIL)]

    # a miss renders the members for its key, and `intern` renders none again
    first = members()
    sid = sp._intern_raw(first)
    assert sorted(map(id, rendered)) == sorted(map(id, first))
    # the same nodes again render nothing; equal new nodes render once each
    rendered.clear()
    assert sp._intern_raw(first[::-1]) == sid
    assert rendered == []
    again = members()
    assert sp._intern_raw(again) == sid
    assert sorted(map(id, rendered)) == sorted(map(id, again))


def test_a_move_prints_only_the_members_it_makes(monkeypatch):
    rendered = record_renders(monkeypatch)
    p = one_shot_guards(6)
    sp = space_for(p)
    seed = sp.settle(sp.intern(p.initial))
    # the seed parks six guards; i3 wakes one, which emits o: the guard
    # fires, and only the markers of i3 and o are new
    rendered.clear()
    y = sp.settle_with(seed, "i3")
    assert sorted(map(print_tail, rendered)) == ["(emit! i3 0)",
                                                 "(emit! o 0)"]
    # the five guards left are the seed's own nodes, with their text
    assert len(sp._items[y]) == 7
    rendered.clear()
    sp.settle_with(y, "i5")
    assert list(map(print_tail, rendered)) == ["(emit! i5 0)"]
    rendered.clear()
    assert sp.settle_with(y, "o") == y
    assert rendered == []


def test_only_spaces_with_names_to_rename_label_canonically(monkeypatch):
    calls = []
    canonical = equiv._canon.canonical_multiset

    def counting(*args):
        calls.append(args)
        return canonical(*args)

    monkeypatch.setattr(equiv._canon, "canonical_multiset", counting)
    ground = one_shot_guards(6)
    assert bisim_check(ground, ground, mode=EXACT)
    assert calls == []
    assert bisim_check(tp(FRESH_NAMES), tprog("t_nil"), mode=EXACT)
    assert len(calls) >= 1


def letter_game(p1, p2, depth=None):
    """The trace game over letters: every input set, in `subsets` order,
    goes through `Space.instant` into the one product search."""
    universe = sorted(p1.universe | p2.universe)
    sp1, sp2 = equiv.Space(p1, universe), equiv.Space(p2, universe)
    letters = subsets(universe)

    def moves(pair):
        for X in letters:
            o1, n1 = sp1.instant(pair[0], X)
            o2, n2 = sp2.instant(pair[1], X)
            yield X, o1, o2, (n1, n2)

    start = (sp1.intern(p1.initial), sp2.intern(p2.initial))
    return shortest_separating_word(start, moves, depth)


def _ring_pairs():
    for n_inputs in (2, 3, 4):
        for seed in range(40):
            a, b = random_ring_programs(seeded(seed), n_inputs=n_inputs)
            yield from ((a, b), (a, a), (b, b))


@pytest.mark.parametrize("pairs, mode, depths", [
    (_ring_pairs, TRACE, (None,)),
    (lambda: itertools.combinations_with_replacement(
        [p for _, p in tail_corpus()], 2), TRACE, (None,)),
    (lambda: itertools.combinations_with_replacement(
        [p for _, p in finite_corpus()], 2), BOUNDED, (1, 2, 3)),
], ids=["rings", "tail-corpus", "finite-corpus-bounded"])
def test_the_meet_game_plays_as_the_letter_game(pairs, mode, depths):
    kinds = set()
    for p1, p2 in pairs():
        for depth in depths:
            verdict = bisim_check(p1, p2, mode=mode, depth=depth)
            assert verdict == letter_game(p1, p2, depth)
            kinds.add(type(verdict))
    assert len(kinds) >= 2


def test_trace_mode_reports_a_divergent_instant():
    diverging = """
(input s1)
(def (F) (call F))
(run (present s1 (call F) 0))
"""
    with pytest.raises(FuelExhaustedError):
        bisim_check(tp(diverging), tp(diverging), mode=TRACE)


def test_trace_mode_agrees_with_mealy_extraction_on_rings():
    # on five and six inputs most input sets fall in a few classes
    for n_inputs, seeds in ((2, 30), (5, 20), (6, 20)):
        verdicts = set()
        for seed in range(seeds):
            a, b = random_ring_programs(seeded(seed), n_inputs=n_inputs)
            trace = bool(bisim_check(a, b, mode=TRACE))
            mealy = bool(mealy_trace_equiv(program_to_mealy(a),
                                           program_to_mealy(b)))
            assert trace == mealy, (n_inputs, seed)
            verdicts.add(trace)
        assert verdicts == {True, False}, n_inputs

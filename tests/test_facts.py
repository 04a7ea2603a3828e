"""The facts a `Program` keeps: equal to the recursive walks they replace
on every corpus program, computed at most once per program, dropped when
a field is assigned, ignored by equality, repr, copy and pickle, and
answered on programs nested deeper than the recursion limit."""

import copy
import dataclasses
import itertools
import pickle
import sys
from collections import Counter

import pytest

from sltk import equiv, syntax, tailcore
from sltk._canon import occurrences
from sltk.analysis import Accept, _find_cycle
from sltk.cps import cps_program
from sltk.equiv import EXACT, TRACE, bisim_check
from sltk.mealy import program_to_mealy
from sltk.semantics import Runner
from sltk.syntax import (
    Definition,
    Program,
    next_gen_index,
    parse_program,
    program_names,
)
from sltk.tailcore import (
    PAUSE_SIGNAL,
    TNIL,
    BLeaf,
    TCall,
    TEmit,
    TNew,
    TPresent,
    TSpawn,
    TailRunner,
    calls_cyclic,
    check_reactivity_tail,
    instant_calls,
)

from .corpus import finite_corpus, source_corpus, tail_corpus
from .test_walkers import reference_free_signals, reference_has_binder

# ---------------------------------------------------------------------------
# the walks the facts replace, as they were written


def reference_names(p):
    names = set(p.interface)
    for t in p.all_threads():
        names.update(occurrences(t))
    for d in p.defs.values():
        names.update(d.params)
    return names


def reference_gen_index(p):
    best = 0
    for name in reference_names(p):
        if name.startswith("%g"):
            digits = name[2:]
            if digits.isdigit():
                best = max(best, int(digits) + 1)
    return best


def reference_universe(p):
    names = set(p.inputs) | set(p.outputs)
    for t in p.initial:
        names |= reference_free_signals(t)
    for d in p.defs.values():
        names |= reference_free_signals(d.body) - set(d.params)
    names.discard(PAUSE_SIGNAL)
    return frozenset(n for n in names if not n.startswith("%"))


def reference_env_domain(p, threads):
    dom = set(p.inputs) | set(p.outputs)
    for t in threads:
        dom |= reference_free_signals(t)
    for d in p.defs.values():
        dom |= {s for s in reference_free_signals(d.body) - set(d.params)
                if s.startswith("%")}
    return dom


def reference_has_new(p):
    return any(reference_has_binder(t) for t in p.all_threads())


def reference_tail_calls(t, acc, branches=False):
    if isinstance(t, TEmit):
        reference_tail_calls(t.next, acc, branches)
    elif isinstance(t, TNew):
        reference_tail_calls(t.body, acc, branches)
    elif isinstance(t, TSpawn):
        reference_tail_calls(t.spawned, acc, branches)
        reference_tail_calls(t.next, acc, branches)
    elif isinstance(t, TPresent):
        reference_tail_calls(t.then, acc, branches)
        if branches:
            reference_branch_calls(t.branch, acc)
    elif isinstance(t, TCall):
        acc.add(t.ident)


def reference_branch_calls(b, acc):
    if isinstance(b, BLeaf):
        reference_tail_calls(b.tail, acc, True)
    else:
        reference_branch_calls(b.then, acc)
        reference_branch_calls(b.other, acc)


def reference_calls_cyclic(p):
    edges = {}
    for name, d in p.defs.items():
        edges[name] = set()
        reference_tail_calls(d.body, edges[name], branches=True)
    return _find_cycle(edges) is not None


def reference_reactivity_cycle(p):
    """The cycle `check_reactivity_tail` reported, from its own edges:
    the definitions' and the initial threads' calls within an instant."""
    edges = {}
    for name, d in p.defs.items():
        edges[name] = set()
        reference_tail_calls(d.body, edges[name])
    roots = set()
    for t in p.initial:
        reference_tail_calls(t, roots)
    for r in roots - set(edges):
        edges[r] = set()
    return _find_cycle(edges)


def source_programs():
    return [p for _, p in source_corpus()]


def stray():
    """A tail program whose definition names a signal that is neither a
    parameter nor in the interface, as no parsed program does."""
    body = TEmit("x", TEmit("y", TEmit("%g2", TNIL)))
    return Program(("i",), ("o",), {"A": Definition("A", ("x",), body)},
                   (TCall("A", ("o",)),))


def tail_programs():
    return ([p for _, p in tail_corpus()] + [p for _, p in finite_corpus()]
            + [cps_program(p).program for p in source_programs()]
            + [stray()])


def assert_signal_facts(p):
    assert p.names == reference_names(p) == program_names(p)
    assert p.next_gen_index == reference_gen_index(p) == next_gen_index(p)
    assert p.universe == reference_universe(p)
    assert p.env_domain == reference_env_domain(p, p.initial)
    assert p.has_binder == reference_has_new(p)
    assert p.params == {x for d in p.defs.values() for x in d.params}


def test_facts_equal_the_walks_they_replace():
    for p in source_programs():
        assert_signal_facts(p)
    for p in tail_programs():
        assert_signal_facts(p)
        assert p.fact(calls_cyclic) == reference_calls_cyclic(p)
        cycle = reference_reactivity_cycle(p)
        assert _find_cycle(p.fact(instant_calls)) == cycle
        assert bool(check_reactivity_tail(p)) == (cycle is None)


def test_the_corpus_meets_every_fact_both_ways():
    # otherwise the comparison above could pass on constant facts
    programs = source_programs() + tail_programs()
    assert {p.has_binder for p in programs} == {True, False}
    assert {p.next_gen_index > 0 for p in programs} == {True, False}
    assert any(p.universe - p.interface for p in programs)
    assert any(p.env_domain - p.interface for p in programs)
    assert {p.fact(calls_cyclic) for p in tail_programs()} == {True, False}


# ---------------------------------------------------------------------------
# each program is walked at most once per fact group


def test_each_program_is_walked_once_per_fact_group(monkeypatch):
    walks = Counter()

    def counted(compute):
        def walk(p):
            walks[compute.__name__, id(p)] += 1
            return compute(p)
        return walk

    monkeypatch.setattr(syntax, "_signals", counted(syntax._signals))
    cyclic = counted(calls_cyclic)
    monkeypatch.setattr(tailcore, "calls_cyclic", cyclic)
    monkeypatch.setattr(equiv, "calls_cyclic", cyclic)
    monkeypatch.setattr(tailcore, "instant_calls", counted(instant_calls))
    programs = [p for _, p in finite_corpus()]
    for mode in (EXACT, TRACE):
        for p1, p2 in itertools.combinations_with_replacement(programs, 2):
            bisim_check(p1, p2, mode=mode)
    for p in programs:
        check_reactivity_tail(p)
        program_to_mealy(p)
        TailRunner(p).run_instant()
    assert set(walks.values()) == {1}
    assert Counter(name for name, _ in walks) == {
        "_signals": 30, "calls_cyclic": 30, "instant_calls": 30}


# ---------------------------------------------------------------------------
# the record: read-only parts, assignment, equality, copy and pickle


def emitter():
    """A tail program whose first thread emits a name outside its
    interface and a generated name."""
    return Program(("i",), ("o",), {"A": Definition("A", (), TNIL)},
                   (TEmit("x", TEmit("%g4", TCall("A", ()))),))


def test_assigning_a_field_gives_the_new_programs_facts():
    p = emitter()
    assert (p.names, p.universe, p.next_gen_index) == (
        {"i", "o", "x", "%g4"}, {"i", "o", "x"}, 5)
    p.initial = (TNIL,)
    assert (p.names, p.universe, p.next_gen_index) == ({"i", "o"},
                                                      {"i", "o"}, 0)
    p.defs = {"B": Definition("B", ("%g7",), TEmit("%g7", TNIL))}
    assert isinstance(p.defs, syntax.MappingProxyType)
    assert (p.params, p.next_gen_index) == ({"%g7"}, 8)


def test_definitions_are_read_only():
    table = {"A": Definition("A", (), TNIL)}
    p = Program(("i",), ("o",), table, (TNIL,))
    table["B"] = Definition("B", (), TNIL)
    assert list(p.defs) == ["A"]
    with pytest.raises(TypeError):
        p.defs["B"] = Definition("B", (), TNIL)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.defs["A"].body = TEmit("o", TNIL)


def test_equality_repr_copy_and_pickle_ignore_the_facts():
    p, q = emitter(), emitter()
    p.names, p.fact(calls_cyclic)
    assert p == q and repr(p) == repr(q)
    for clone in (copy.copy(p), copy.deepcopy(p),
                  pickle.loads(pickle.dumps(p))):
        assert clone == p and repr(clone) == repr(p)
        assert "_facts" not in vars(clone)
        assert (clone.names, clone.fact(calls_cyclic)) == (p.names, False)


# ---------------------------------------------------------------------------
# nesting deeper than the recursion limit


DEPTH = 10_000


def test_facts_answer_on_a_deep_source_program():
    assert DEPTH > sys.getrecursionlimit()
    body = " ".join("(emit o1)" if k % 2 == 0 else "pause"
                    for k in range(DEPTH))
    p = parse_program(f"(input i1)\n(output o1)\n(run (seq {body}))\n")
    assert (p.names, p.universe, p.env_domain) == ({"i1", "o1"},) * 3
    assert (next_gen_index(p), p.has_binder, p.params) == (0, False, set())
    assert Runner(p).run_instant().outputs == {"o1"}


def test_facts_answer_on_a_deep_tail_program():
    # built from nodes: the tail parser reads nested forms by recursion
    t = TCall("A", ())
    for _ in range(DEPTH // 2):
        t = TEmit("o1", TPresent(PAUSE_SIGNAL, TNIL, BLeaf(t)))
    p = Program(("i1",), ("o1",), {"A": Definition("A", (), t)},
                (TNew("x", TEmit("x", t)),))
    assert p.names == {"i1", "o1", "x", PAUSE_SIGNAL}
    assert p.universe == {"i1", "o1"}
    assert p.env_domain == {"i1", "o1", PAUSE_SIGNAL}
    assert (next_gen_index(p), p.has_binder) == (0, True)
    assert p.fact(instant_calls) == {"A": set()}
    assert p.fact(calls_cyclic)
    assert isinstance(check_reactivity_tail(p), Accept)

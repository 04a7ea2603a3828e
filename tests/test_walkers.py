"""Laws of the shape-driven walkers in `_canon`, checked on generated source
and tail terms, and the guard that keeps every node's SHAPE in step with
its dataclass fields."""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from sltk import _canon
from sltk._canon import BIND, KEEP, SIG, SIGS, SUB
from sltk.syntax import (
    NIL,
    PAUSE,
    Await,
    Call,
    Emit,
    New,
    Spawn,
    Thread,
    Watch,
    print_thread,
    seq_of,
)
from sltk.tailcore import (
    TNIL,
    BIte,
    BLeaf,
    Branch,
    Tail,
    TCall,
    TEmit,
    TNew,
    TPresent,
    TSpawn,
    print_tail,
)

LAWS = settings(max_examples=150, derandomize=True, database=None,
                deadline=None)
DEPTH = 3
# %r0 is in the pool so that substitution meets free names it could
# otherwise pick for a renamed binder.
NAMES = st.sampled_from(["a", "b", "c", "%r0"])
ARGS = st.lists(NAMES, max_size=3).map(tuple)
INTERFACE = {"a"}


@lru_cache(maxsize=None)
def source_terms(depth, binders=True):
    leaves = st.one_of(st.just(NIL), st.just(PAUSE), st.builds(Emit, NAMES),
                       st.builds(Await, NAMES),
                       st.builds(Call, st.just("A"), ARGS))
    if depth == 0:
        return leaves
    sub = source_terms(depth - 1, binders)
    nodes = [leaves, st.builds(seq_of, sub, sub), st.builds(Spawn, sub),
             st.builds(Watch, NAMES, sub)]
    if binders:
        nodes.append(st.builds(New, NAMES, sub))
    return st.one_of(*nodes)


@lru_cache(maxsize=None)
def tail_terms(depth, binders=True):
    leaves = st.one_of(st.just(TNIL), st.builds(TCall, st.just("A"), ARGS))
    if depth == 0:
        return leaves
    sub = tail_terms(depth - 1, binders)
    nodes = [leaves, st.builds(TEmit, NAMES, sub),
             st.builds(TSpawn, sub, sub),
             st.builds(TPresent, NAMES, sub, branches(depth - 1, binders))]
    if binders:
        nodes.append(st.builds(TNew, NAMES, sub))
    return st.one_of(*nodes)


@lru_cache(maxsize=None)
def branches(depth, binders=True):
    leaf = st.builds(BLeaf, tail_terms(depth, binders))
    if depth == 0:
        return leaf
    sub = branches(depth - 1, binders)
    return st.one_of(leaf, st.builds(BIte, NAMES, sub, sub))


TERMS = st.one_of(source_terms(DEPTH), tail_terms(DEPTH))
BINDER_FREE = st.one_of(source_terms(DEPTH, False), tail_terms(DEPTH, False))


def canonical(t):
    show = print_thread if isinstance(t, Thread) else print_tail
    return _canon.canonical_multiset([t], INTERFACE, show)[0]


@LAWS
@given(TERMS, st.dictionaries(NAMES, NAMES, max_size=3))
def test_substitution_maps_the_free_signals(t, sub):
    expected = {sub.get(s, s) for s in _canon.free_signals(t)}
    assert _canon.free_signals(_canon.substitute(t, sub)) == expected


@LAWS
@given(TERMS)
def test_empty_substitution_is_the_identity(t):
    assert _canon.substitute(t, {}) is t


@LAWS
@given(TERMS)
def test_renaming_by_a_bijection_is_undone_by_its_inverse(t):
    names = sorted(set(_canon.occurrences(t)))
    m = {name: f"u{k}" for k, name in enumerate(names)}
    inverse = {v: k for k, v in m.items()}
    assert _canon.rename_all(_canon.rename_all(t, m), inverse) == t


@LAWS
@given(TERMS)
def test_freshening_keeps_free_signals_and_canonical_form(t):
    supply = _canon.name_supply("%u", set(_canon.occurrences(t)))
    fresh = _canon.freshen_apart(t, supply)
    assert _canon.free_signals(fresh) == _canon.free_signals(t)
    assert canonical(fresh) == canonical(t)


@LAWS
@given(BINDER_FREE)
def test_freshening_a_binder_free_term_changes_nothing(t):
    supply = _canon.name_supply("%u", set())
    assert not _canon.has_binder(t)
    assert _canon.freshen_apart(t, supply) is t
    assert next(supply) == "%u0"


def test_every_node_shape_has_one_kind_per_field():
    classes = [c for base in (Thread, Tail, Branch)
               for c in base.__subclasses__()]
    assert len(classes) == 17
    for cls in classes:
        kinds = list(cls.SHAPE)
        assert len(kinds) == len(cls.__match_args__), cls
        assert set(kinds) <= {SIG, SIGS, BIND, SUB, KEEP}, cls
        for k, kind in enumerate(kinds):
            if kind is BIND:
                assert kinds[k + 1:k + 2] == [SUB], cls

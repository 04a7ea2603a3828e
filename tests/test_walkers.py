"""Laws of the shape-driven walkers in `_canon`, checked on generated source
and tail terms; canonical forms, checked against brute force and for the
work they do; and the node classes themselves: the guard that keeps every
node's SHAPE in step with its fields, and their equality, hash and repr."""

import copy
import itertools
import pickle
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sltk import _canon, tailcore
from sltk._canon import BIND, KEEP, SIG, SIGS, SUB
from sltk.errors import LabellingLimitError
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
    assert not reference_has_binder(t)
    assert _canon.freshen_apart(t, supply) is t
    assert next(supply) == "%u0"


def interpreted_substitute(t, sub):
    """`_canon.substitute` as the field table drives it at every node: the
    reference that the functions compiled per node class must equal."""
    if not sub:
        return t
    out = []
    changed = False
    fields = iter(_canon._FIELDS[type(t)])
    for name, kind in fields:
        v = getattr(t, name)
        if kind is BIND:
            body_name, _ = next(fields)
            body = getattr(t, body_name)
            inner = sub
            if v in sub:
                inner = {k: x for k, x in sub.items() if k != v}
            if v in inner.values():
                free = _canon.free_signals(body)
                inner = {k: x for k, x in inner.items() if k in free}
                if v in inner.values():
                    avoid = set(inner.values()) | free | set(inner)
                    fresh = next(_canon.name_supply("%r", avoid))
                    inner[v] = fresh
                    v = fresh
                    changed = True
            w = interpreted_substitute(body, inner)
            changed = changed or w is not body
            out += (v, w)
            continue
        if kind is SUB:
            w = interpreted_substitute(v, sub)
        elif kind is SIG:
            w = sub.get(v, v)
        elif kind is SIGS:
            w = tuple(sub.get(a, a) for a in v)
            if w == v:
                w = v
        else:
            w = v
        changed = changed or w is not v
        out.append(w)
    return type(t)(*out) if changed else t


def eager_substitute(t, sub):
    """Substitution as `_canon.substitute` did it before its binder check
    became lazy: every binder's body is walked for its free names, and only
    the keys free in it are passed on."""
    if not sub:
        return t
    out = []
    changed = False
    fields = iter(_canon._FIELDS[type(t)])
    for name, kind in fields:
        v = getattr(t, name)
        if kind is BIND:
            body_name, _ = next(fields)
            body = getattr(t, body_name)
            free = _canon.free_signals(body)
            inner = {k: x for k, x in sub.items() if k != v and k in free}
            if inner:
                if v in inner.values():
                    avoid = set(inner.values()) | free | set(inner)
                    fresh = next(_canon.name_supply("%r", avoid))
                    inner[v] = fresh
                    v = fresh
                out += (v, eager_substitute(body, inner))
                changed = True
            else:
                out += (v, body)
            continue
        if kind is SUB:
            w = eager_substitute(v, sub)
        elif kind is SIG:
            w = sub.get(v, v)
        elif kind is SIGS:
            w = tuple(sub.get(a, a) for a in v)
            if w == v:
                w = v
        else:
            w = v
        changed = changed or w is not v
        out.append(w)
    return type(t)(*out) if changed else t


def binder_names(t):
    """The names bound anywhere in t."""
    out = set()
    fields = _canon._FIELDS[type(t)]
    for name, kind in fields:
        if kind is BIND:
            out.add(getattr(t, name))
        elif kind is SUB:
            out |= binder_names(getattr(t, name))
    return out


def reference_free_signals(t, bound=frozenset()):
    """The names free in t, by recursion with the names bound around t."""
    out = set()
    scope = bound
    for name, kind in _canon._FIELDS[type(t)]:
        v = getattr(t, name)
        if kind is SUB:
            out |= reference_free_signals(v, scope)
            scope = bound
        elif kind is BIND:
            scope = bound | {v}
        elif kind is SIG and v not in scope:
            out.add(v)
        elif kind is SIGS:
            out.update(a for a in v if a not in scope)
    return out


def reference_has_binder(t):
    return any(kind is BIND or (kind is SUB and
                                reference_has_binder(getattr(t, name)))
               for name, kind in _canon._FIELDS[type(t)])


# Terms whose binders nest at the root, besides the general ones, so that
# a map can meet a binder inside another binder's body.
NESTED = st.one_of(
    TERMS,
    st.builds(New, NAMES, st.builds(New, NAMES, source_terms(DEPTH - 1))),
    st.builds(TNew, NAMES, st.builds(TNew, NAMES, tail_terms(DEPTH - 1))),
    st.builds(TPresent, NAMES, st.builds(TNew, NAMES, tail_terms(1)),
              st.builds(BLeaf, st.builds(TNew, NAMES, tail_terms(1)))),
)


@LAWS
@given(NESTED, st.data())
def test_lazy_binder_check_equals_the_eager_one(t, data):
    binders = sorted(binder_names(t))
    values = st.sampled_from(binders) if binders else NAMES
    sub = data.draw(st.dictionaries(NAMES, values, max_size=3))
    assert _canon.substitute(t, sub) == eager_substitute(t, sub)


@LAWS
@given(NESTED)
def test_one_scan_gathers_names_free_names_and_binders(t):
    names, free = set(), set()
    bound = _canon.scan(t, names, free)
    assert names == set(_canon.occurrences(t))
    assert free == reference_free_signals(t) == _canon.free_signals(t)
    assert bound == reference_has_binder(t)


def assert_shares_alike(got, want, t):
    """got and want keep the same subterms of t, node for node."""
    assert (got is t) == (want is t), (got, t)
    if want is not t:
        for name, kind in _canon._FIELDS[type(t)]:
            if kind is SUB:
                assert_shares_alike(getattr(got, name), getattr(want, name),
                                    getattr(t, name))


@LAWS
@given(NESTED, st.data())
def test_compiled_substitution_equals_the_interpreted_walker(t, data):
    # keys drawn from the free names and values from the binders' names,
    # with %r0 among the names, make the captures that rename a binder
    keys = st.sampled_from(sorted(_canon.free_signals(t) | {"d"}))
    values = st.sampled_from(sorted(binder_names(t)) + ["a", "%r0"])
    sub = data.draw(st.dictionaries(keys, values, max_size=3))
    got, want = _canon.substitute(t, sub), interpreted_substitute(t, sub)
    assert got == want
    assert_shares_alike(got, want, t)


@LAWS
@given(NESTED, st.data())
def test_substituting_no_free_name_returns_the_term_itself(t, data):
    absent = sorted({"a", "b", "c", "%r0", "d"} - _canon.free_signals(t))
    sub = data.draw(st.dictionaries(st.sampled_from(absent), NAMES,
                                    min_size=1, max_size=3))
    assert _canon.substitute(t, sub) is t


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


# Every node class occurs in these terms; each prints as its dataclass
# form did.
REPRS = [
    (seq_of(Emit("a"), NIL), "Seq(first=Emit(signal='a'), rest=Nil())"),
    (New("x", Await("x")), "New(bound='x', body=Await(signal='x'))"),
    (Spawn(PAUSE), "Spawn(body=Pause())"),
    (Watch("b", Call("A")),
     "Watch(signal='b', body=Call(ident='A', args=()))"),
    (Call("A", ("a", "b")), "Call(ident='A', args=('a', 'b'))"),
    (TEmit("a", TNIL), "TEmit(signal='a', next=TNil())"),
    (TNew("x", TCall("K", ("x",))),
     "TNew(bound='x', body=TCall(ident='K', args=('x',)))"),
    (TSpawn(TNIL, TNIL), "TSpawn(spawned=TNil(), next=TNil())"),
    (TPresent("a", TNIL, BIte("b", BLeaf(TNIL), BLeaf(TCall("K", ())))),
     "TPresent(signal='a', then=TNil(), branch=BIte(signal='b', "
     "then=BLeaf(tail=TNil()), other=BLeaf(tail=TCall(ident='K', "
     "args=()))))"),
]


def nodes(t):
    """t and every node below it."""
    yield t
    for name, kind in _canon._FIELDS[type(t)]:
        if kind is SUB:
            yield from nodes(getattr(t, name))


def test_every_node_class_has_slots_and_stays_as_built():
    classes = {c for base in (Thread, Tail, Branch)
               for c in base.__subclasses__()}
    samples = {type(n): n for t, _ in REPRS for n in nodes(t)}
    assert set(samples) == classes
    for cls, node in samples.items():
        assert not hasattr(node, "__dict__"), cls
        assert cls.__slots__ == cls.__match_args__, cls
        for name in cls.__slots__:
            with pytest.raises(AttributeError):
                setattr(node, name, getattr(node, name))
            with pytest.raises(AttributeError):
                delattr(node, name)
        with pytest.raises(AttributeError):
            node.extra = 1
        assert copy.deepcopy(node) == pickle.loads(pickle.dumps(node)) == node


def test_nodes_print_as_their_dataclass_forms_did():
    for t, text in REPRS:
        assert repr(t) == text
    assert Call("A") == Call("A", ())
    assert Emit("a") != Await("a") and NIL != TNIL


def printed(t):
    """t's family and printed form."""
    if isinstance(t, Thread):
        return Thread, print_thread(t)
    return Tail, print_tail(t)


@LAWS
@given(TERMS, TERMS)
def test_equality_and_hash_follow_printed_forms(s, t):
    # renaming a name that does not occur rebuilds every node
    copy = _canon.rename_all(t, {"z": "z"})
    assert copy is not t and copy == t and hash(copy) == hash(t)
    same = printed(s) == printed(t)
    assert (s == t) == same and (s != t) == (not same)
    if same:
        assert hash(s) == hash(t)


# ---------------------------------------------------------------------------
# the printed form a tail node keeps


def reference_print(t):
    """`print_tail` and `print_branch` rendered afresh from the fields at
    every node, with no kept text."""
    if isinstance(t, BLeaf):
        return reference_print(t.tail)
    if isinstance(t, BIte):
        return (f"(ite {t.signal} {reference_print(t.then)}"
                f" {reference_print(t.other)})")
    if isinstance(t, TEmit):
        return f"(emit! {t.signal} {reference_print(t.next)})"
    if isinstance(t, TNew):
        return f"(new {t.bound} {reference_print(t.body)})"
    if isinstance(t, TSpawn):
        return (f"(thread! {reference_print(t.spawned)}"
                f" {reference_print(t.next)})")
    if isinstance(t, TPresent):
        return (f"(present {t.signal} {reference_print(t.then)}"
                f" {reference_print(t.branch)})")
    if isinstance(t, TCall):
        return "(call " + " ".join((t.ident,) + t.args) + ")"
    return "0"


def counting_renders(monkeypatch):
    """The tail nodes that `tailcore.print_tail` renders from here on,
    subterms included: those it is called on before they have a text."""
    rendered = []

    def counting(t, original=tailcore.print_tail):
        if not hasattr(t, "_text"):
            rendered.append(t)
        return original(t)

    monkeypatch.setattr(tailcore, "print_tail", counting)
    return rendered


SAMPLE = TSpawn(TEmit("a", TNIL), TPresent("b", TCall("K", ("a",)), BIte(
    "c", BLeaf(TNIL), BLeaf(TNew("x", TEmit("x", TNIL))))))


def test_a_tail_node_renders_once(monkeypatch):
    t = copy.copy(SAMPLE)
    rendered = counting_renders(monkeypatch)
    text = tailcore.print_tail(t)
    assert text == reference_print(t)
    assert rendered[0] is t
    rendered.clear()
    assert tailcore.print_tail(t) is text
    assert rendered == []


def test_the_kept_text_is_not_part_of_the_node(monkeypatch):
    fresh = copy.copy(SAMPLE)
    text = print_tail(SAMPLE)
    # equal to a node that has no text yet, in every way a field shows
    assert not hasattr(fresh, "_text")
    assert fresh == SAMPLE and hash(fresh) == hash(SAMPLE)
    assert repr(fresh) == repr(SAMPLE)
    # a copy or a pickle round trip starts without text and prints the same
    rendered = counting_renders(monkeypatch)
    for other in (copy.copy(SAMPLE), pickle.loads(pickle.dumps(SAMPLE))):
        assert other is not SAMPLE and other == SAMPLE
        assert not hasattr(other, "_text")
        rendered.clear()
        assert tailcore.print_tail(other) == text
        assert rendered[0] is other


def test_the_kept_text_refuses_assignment():
    t = TCall("K", ("a",))
    text = print_tail(t)
    for name in ("_text", "ident", "args"):
        with pytest.raises(AttributeError):
            setattr(t, name, "x")
        with pytest.raises(AttributeError):
            delattr(t, name)
    assert print_tail(t) == text and t == TCall("K", ("a",))


@LAWS
@given(tail_terms(DEPTH), st.dictionaries(NAMES, NAMES, max_size=3),
       st.dictionaries(NAMES, NAMES, max_size=3))
def test_walked_tail_terms_print_afresh(t, sub, m):
    # every node of t keeps its text before the walkers run, so a walker
    # that gave a changed node an old node's text would print it here
    print_tail(t)
    supply = _canon.name_supply("%u", set(_canon.occurrences(t)))
    for walked in (_canon.substitute(t, sub), _canon.rename_all(t, m),
                   _canon.freshen_apart(t, supply)):
        for node in nodes(walked):
            if isinstance(node, Tail):
                assert print_tail(node) == reference_print(node)


# ---------------------------------------------------------------------------
# canonical forms of multisets


MULTISETS = st.one_of(
    st.tuples(st.lists(source_terms(2), max_size=5), st.just(print_thread)),
    st.tuples(st.lists(tail_terms(2), max_size=5), st.just(print_tail)))
BINDER_FREE_MULTISETS = st.one_of(
    st.tuples(st.lists(source_terms(2, False), max_size=4),
              st.just(print_thread)),
    st.tuples(st.lists(tail_terms(2, False), max_size=4),
              st.just(print_tail)))
# Renaming targets: never interface names, never names _canon makes.
TARGETS = ["b", "c", "d", "e", "x", "y", "%r0", "%r1"]


def renamable(items):
    return sorted({n for t in items for n in _canon.occurrences(t)}
                  - INTERFACE)


def form(items, show):
    return _canon.canonical_multiset(items, INTERFACE, show)[0]


@LAWS
@given(MULTISETS, st.permutations(TARGETS), st.randoms(use_true_random=False))
def test_canonical_form_ignores_renaming_and_order(multiset, targets, rng):
    items, show = multiset
    names = renamable(items)
    m = dict(zip(names, targets))
    other = [_canon.rename_all(t, m) for t in items]
    rng.shuffle(other)
    assert form(other, show) == form(items, show)


def isomorphic(xs, ys, show):
    """Whether some bijection of renamable names maps the binder-free
    multiset xs onto ys, by trying every one."""
    xn, yn = renamable(xs), renamable(ys)
    if len(xn) != len(yn) or len(xs) != len(ys):
        return False
    target = sorted(map(show, ys))
    return any(sorted(show(_canon.rename_all(t, dict(zip(xn, p))))
                      for t in xs) == target
               for p in itertools.permutations(yn))


@LAWS
@given(BINDER_FREE_MULTISETS, st.data())
def test_equal_forms_exactly_for_a_bijection(multiset, data):
    items, show = multiset
    names = renamable(items)
    pool = st.sampled_from(TARGETS[:4])
    m = data.draw(st.fixed_dictionaries({n: pool for n in names}))
    other = data.draw(st.permutations(
        [_canon.rename_all(t, m) for t in items]))
    assert len(renamable(items)) <= 4 and len(renamable(other)) <= 4
    assert (form(items, show) == form(other, show)) == \
        isomorphic(items, other, show)


def ring(names):
    """Waiters that each call the next one's signal, around a ring."""
    n = len(names)
    return [TPresent(names[k], TCall("K", (names[(k + 1) % n],)),
                     BLeaf(TNIL)) for k in range(n)]


@pytest.mark.parametrize("n", range(8, 13))
def test_a_ring_has_one_form_whatever_its_names_and_order(n):
    rng = random.Random(n)
    forms = set()
    for _ in range(20):
        items = ring([f"w{k}" for k in rng.sample(range(100), n)])
        rng.shuffle(items)
        forms.add(form(items, print_tail))
    assert len(forms) == 1


@pytest.mark.parametrize("seed", range(5))
def test_names_refinement_cannot_split_still_get_one_form(seed):
    # Each waiter calls its ring successor and one more name: every name
    # sits once at each of the three places of the one shape, so colour
    # refinement splits nothing, yet the names are not all alike and the
    # leaves of the search differ.
    rng = random.Random(seed)
    n = 8
    while True:
        other = rng.sample(range(n), n)
        if all(other[k] not in (k, (k + 1) % n) for k in range(n)):
            break
    forms = set()
    for _ in range(20):
        names = [f"w{k}" for k in rng.sample(range(100), n)]
        items = [TPresent(names[k], TCall("K", (names[(k + 1) % n],
                                                names[other[k]])),
                          BLeaf(TNIL)) for k in range(n)]
        rng.shuffle(items)
        forms.add(form(items, print_tail))
    assert len(forms) == 1


class CountingShow:
    def __init__(self, show):
        self.show = show
        self.calls = 0

    def __call__(self, t):
        self.calls += 1
        return self.show(t)


def test_ground_items_are_printed_once_each():
    show = CountingShow(print_tail)
    items = [TCall("K", ("a",))] * 7
    canonical, renaming = _canon.canonical_multiset(items, INTERFACE, show)
    assert show.calls == 7
    assert canonical == tuple(items) and renaming == {}
    assert tuple(map(print_tail, canonical)) == ("(call K a)",) * 7


@pytest.mark.parametrize("n", range(7, 13))
def test_a_ring_costs_at_most_two_n_squared_prints(n):
    show = CountingShow(print_tail)
    form(ring([f"w{k}" for k in range(n)]), show)
    assert show.calls <= 2 * n * n


def test_labelling_search_stops_at_its_budget(monkeypatch):
    # Four guards on one shared name, each holding a private name of its
    # own: no refinement tells the private names apart, so the search
    # reaches 4! = 24 leaves.
    items = [TPresent("h", TCall("K", (f"p{k}",)), BLeaf(TNIL))
             for k in range(4)]
    renamed = [_canon.rename_all(t, {f"p{k}": f"q{3 - k}", "h": "g"})
               for k, t in enumerate(items)]
    assert form(renamed, print_tail) == form(items, print_tail)
    monkeypatch.setattr(_canon, "LEAF_LIMIT", 23)
    with pytest.raises(LabellingLimitError, match="23 leaves"):
        form(items, print_tail)

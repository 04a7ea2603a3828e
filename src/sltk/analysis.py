"""Static analyses over source programs.

Two sufficient criteria, both over the call structure of definitions:

  check_reactivity: every instant terminates. Computes, per definition, the
  multiset of identifiers the body may call before suspending, and accepts
  when the resulting call constraints admit a well-founded order (the
  constraint graph is acyclic). Precision improves by unfolding definitions
  before the analysis.

  check_bounded: evaluation contexts stay bounded during execution, which
  also bounds the equation table of the CPS translation. Calls are labelled
  by whether they sit in a possibly non-empty context; a strict constraint
  inside a cycle rejects.

Both walk the call graph with one depth-first search, `_search`, which
takes roots and successors in sorted order. check_reactivity (like
tailcore.check_reactivity_tail) reports the first cycle that search closes.
check_bounded takes the first component the search completes that holds a
strict edge, in it the strict edge u > v with the smallest u and then the
smallest v, and reports u followed by the shortest path from v back to u
inside the component.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .syntax import (
    Await,
    Call,
    Emit,
    New,
    Nil,
    Pause,
    Seq,
    Spawn,
    Watch,
    seq_of,
    substitute,
)


@dataclass(frozen=True)
class CallResult:
    """Identifiers a thread may call within the current instant, with a flag
    telling whether the thread necessarily suspends before finishing.

    ids holds (identifier, multiplicity) pairs sorted by name. Sequential
    composition is associative: a suspending left side hides the right side
    entirely.
    """

    ids: tuple
    suspends: bool

    @staticmethod
    def of(counter, suspends):
        return CallResult(tuple(sorted(counter.items())), suspends)

    def counter(self):
        return Counter(dict(self.ids))

    def support(self):
        return frozenset(name for name, _ in self.ids)

    def then(self, other):
        if self.suspends:
            return self
        return CallResult.of(self.counter() + other.counter(), other.suspends)


EMPTY = CallResult((), False)
SUSPENDS = CallResult((), True)


def call_of(t):
    """Call analysis of a single thread."""
    if isinstance(t, (Nil, Emit, Await)):
        return EMPTY
    if isinstance(t, Pause):
        return SUSPENDS
    if isinstance(t, (New, Watch)):
        return call_of(t.body)
    if isinstance(t, Call):
        return CallResult.of(Counter((t.ident,)), False)
    if isinstance(t, Spawn):
        inner = call_of(t.body)
        return CallResult(inner.ids, False)
    if isinstance(t, Seq):
        return call_of(t.first).then(call_of(t.rest))
    raise TypeError(f"not a thread: {t!r}")


def call_of_context(frames):
    """Call analysis of an evaluation context (frames outermost first).

    Satisfies call_of(plug(frames, t)) == call_of(t).then(call_of_context(frames)).
    """
    acc = EMPTY
    for f in reversed(frames):
        rest = getattr(f, "rest", None)
        if rest is not None:
            acc = acc.then(call_of(rest))
    return acc


@dataclass(frozen=True)
class Accept:
    def __bool__(self):
        return True


@dataclass(frozen=True)
class Reject:
    """Carries a concrete identifier cycle, closing back on its first entry."""

    cycle: tuple

    def __bool__(self):
        return False

    def render(self):
        names = list(self.cycle) + [self.cycle[0]]
        return " > ".join(names)


def _unfold(t, defs, depth):
    """Inline calls with the bodies of their definitions, depth times."""
    if depth <= 0:
        return t
    if isinstance(t, (Nil, Pause, Emit, Await)):
        return t
    if isinstance(t, Seq):
        return seq_of(_unfold(t.first, defs, depth), _unfold(t.rest, defs, depth))
    if isinstance(t, New):
        return New(t.bound, _unfold(t.body, defs, depth))
    if isinstance(t, Spawn):
        return Spawn(_unfold(t.body, defs, depth))
    if isinstance(t, Watch):
        return Watch(t.signal, _unfold(t.body, defs, depth))
    if isinstance(t, Call):
        dfn = defs[t.ident]
        body = _unfold(dfn.body, defs, depth - 1)
        return substitute(body, dict(zip(dfn.params, t.args)))
    raise TypeError(f"not a thread: {t!r}")


def _search(edges):
    """One depth-first search of a directed graph: roots are the nodes of
    `edges` and successors are taken in sorted order, with an explicit
    stack so that long call chains do not exhaust the recursion limit.

    Returns (cycle, components). `cycle` is the search path from the target
    of the first edge that leads back onto it, or None when the graph is
    acyclic. `components` are the strongly connected components in the
    order Tarjan's algorithm completes them (SIAM J. Comput. 1972).
    """
    index, low, on_stack = {}, {}, set()
    stack, work, components = [], [], []
    cycle = None

    def visit(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        work.append((v, iter(sorted(edges.get(v, ())))))

    for root in sorted(edges):
        if root in index:
            continue
        visit(root)
        while work:
            node, it = work[-1]
            for w in it:
                if w not in index:
                    visit(w)
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
                    # Until an edge first meets the stack, every finished
                    # node has left it, so w is on the search path.
                    if cycle is None:
                        path = [v for v, _ in work]
                        cycle = path[path.index(w):]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = set()
                    while node not in component:
                        component.add(stack.pop())
                    on_stack -= component
                    components.append(component)
    return cycle, components


def _find_cycle(edges):
    """The first cycle of `_search`, as a node list, or None."""
    return _search(edges)[0]


def check_reactivity(program, unfold_depth=1):
    """Accept when the call constraints of the (unfolded) definitions are
    acyclic, which guarantees every instant of every run terminates."""
    edges = {}
    for name, dfn in program.defs.items():
        body = _unfold(dfn.body, program.defs, unfold_depth)
        edges[name] = set(call_of(body).support())
    cycle = _find_cycle(edges)
    if cycle:
        return Reject(tuple(cycle))
    return Accept()


# ---------------------------------------------------------------------------
# bounded evaluation contexts

EMPTY_CTX = "e"
NONEMPTY_CTX = "k"


def bounded_call(t, label):
    """Labelled call analysis: which identifiers may be reached within the
    instant, each tagged with whether its evaluation context can be
    non-empty at that point. Spawned threads restart with an empty context;
    sequencing and watch put their left/inner parts under a context."""
    if isinstance(t, (Nil, Emit, Await, Pause)):
        return frozenset()
    if isinstance(t, Call):
        return frozenset(((t.ident, label),))
    if isinstance(t, Spawn):
        return bounded_call(t.body, EMPTY_CTX)
    if isinstance(t, Seq):
        return bounded_call(t.first, NONEMPTY_CTX) | bounded_call(t.rest, label)
    if isinstance(t, Watch):
        return bounded_call(t.body, NONEMPTY_CTX)
    if isinstance(t, New):
        return bounded_call(t.body, label)
    raise TypeError(f"not a thread: {t!r}")


def check_bounded(program):
    """Accept when no cycle of call constraints contains a strict one.

    A strict constraint A > B arises from a call to B under a possibly
    non-empty context in A's body; a weak constraint A >= B from a call in
    tail or freshly spawned position. Satisfiable by a pre-order with
    well-founded strict part exactly when no strongly connected component
    contains a strict edge.
    """
    strict = {}
    weak = {}
    nodes = set(program.defs)
    for name, dfn in program.defs.items():
        for ident, label in bounded_call(dfn.body, EMPTY_CTX):
            nodes.add(ident)
            target = strict if label == NONEMPTY_CTX else weak
            target.setdefault(name, set()).add(ident)
    both = {v: strict.get(v, set()) | weak.get(v, set()) for v in nodes}
    for scc in _search(both)[1]:
        for u in sorted(scc):
            for v in sorted(strict.get(u, ())):
                if v in scc:
                    path = _path_within(both, scc, v, u)
                    return Reject(tuple([u] + path[:-1]))
    return Accept()


def _path_within(edges, scc, start, goal):
    """A path from start to goal staying inside the component."""
    if start == goal:
        return [start]
    prev = {start: None}
    queue = [start]
    while queue:
        u = queue.pop(0)
        for v in sorted(edges.get(u, ())):
            if v in scc and v not in prev:
                prev[v] = u
                if v == goal:
                    path = [v]
                    while prev[path[-1]] is not None:
                        path.append(prev[path[-1]])
                    return list(reversed(path))
                queue.append(v)
    return [start]

"""Program equivalence on tail threads.

A state of a tail program is a multiset of threads in one lifted normal
form: an emission becomes a marker `(emit! s 0)`, kept once; a spawned
thread becomes a member of its own; and `new x` is lifted to the top level
with `x` renamed to a name fresh for the program (scope extrusion). What
remains is markers, `present` guards and pending calls. A call unfolds and
a guard whose signal is marked fires, both as internal moves; a guard on a
signal of the interface also fires on input, adding the marker; and the
barbs of a state are its marked interface signals. Generated names never
reach the interface, so no input or barb exists for them.

On top of the transition system the module provides the end-of-instant
rewrite, the three suspension predicates, an equivalence checker with
three modes (exact labelled bisimilarity by signature refinement over the
settled states of both programs, trace comparison which is equal to the
exact relation for this confluent language, and a bounded game that can
only distinguish), and a diamond-property check for the transition system
itself on `semantics.diamond_walk`. Both checking modes run instants the
same way, on raw lifted threads that one saturation loop drives until
nothing can move, and intern only where the run stops. Exact mode relies
on termination and confluence: internal moves lead every state to one
suspended state, its settled state, which is bisimilar to it, so the
refinement numbers and interns settled states only. It refines on the
end of each settled state's instant and on one move per universe signal:
emissions commute, so a context emits a set one signal at a time. Trace
mode relies on confluence: it interns only instant boundaries, and
grows the instant of each boundary state as a decision tree over the
input signals the instant tests, in one run that forks wherever an
input decides how it goes on, so that the instant runs once per state
rather than once per input set. The game walks the two states' trees
together and plays the nonempty meets of their classes of input sets,
each as its smallest member, rather than every input set. Every mode
explains a distinction the same way, by the game's shortest separating
input word and the two sides' outputs at its last instant: where exact
mode's refinement splits two programs, the game finds their word. The
game is the product search `mealy.shortest_separating_word`, which also
compares Mealy tables and builds the verdict it returns. The interned
moves `tau` and `ins` serve the suspension and confluence diagnostics;
`with_emits` and `eoi` are the interned reference that tests check the
settled moves against.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _canon
from .errors import (
    FuelExhaustedError,
    NotFiniteStateError,
    NotSuspendedError,
    StateExplosionError,
)
from .mealy import Equivalent, shortest_separating_word
from .semantics import check_enumerable, diamond_walk
from .tailcore import (
    BIte,
    TCall,
    TEmit,
    TNew,
    TNIL,
    TNil,
    TPresent,
    TSpawn,
    calls_cyclic,
    print_tail,
    select_branch,
    tail_substitute,
    PAUSE_SIGNAL,
)

TAU = ("tau", None)

# steps one run of raw threads may take before FuelExhaustedError
FUEL = 100_000

# states one space may intern before StateExplosionError
DEFAULT_STATE_LIMIT = 50_000


def _lift(t, members, marks, supply):
    """Add t to a state in lifted normal form: markers go to `marks`,
    guards and calls to `members`."""
    while True:
        if isinstance(t, TEmit):
            marks.add(t.signal)
            t = t.next
        elif isinstance(t, TSpawn):
            _lift(t.spawned, members, marks, supply)
            t = t.next
        elif isinstance(t, TNew):
            t = _canon.rename_all(t.body, {t.bound: next(supply)})
        elif isinstance(t, TNil):
            return
        else:
            members.append(t)
            return


def _lifted(items, supply):
    """The items in lifted normal form. Guards, calls and markers
    `(emit! s 0)` are lifted already and come back as they are."""
    members, marks = [], set()
    for t in items:
        if t.__class__ is TEmit and t.next.__class__ is TNil:
            members.append(t)
        else:
            _lift(t, members, marks, supply)
    return members + [TEmit(s, TNIL) for s in marks]


def _marked(items):
    return {t.signal for t in items if isinstance(t, TEmit)}


class _Split:
    """An inner node of an instant tree: the run forked on `signal`, and
    branches[False] and branches[True] hold the subtrees of the input sets
    without and with it."""

    __slots__ = ("signal", "branches")

    def __init__(self, signal):
        self.signal = signal
        self.branches = [None, None]


class _Leaf:
    """A leaf of an instant tree: the universe signals its path marked,
    and the lifted members where the next instant starts, interned as
    `sid` the first time a query or a meet reaches the leaf."""

    __slots__ = ("marks", "members", "sid")

    def __init__(self, marks, members):
        self.marks = marks
        self.members = members
        self.sid = None


class _Exhausted:
    """A leaf whose path ran out of fuel after `steps` steps: reaching it
    raises FuelExhaustedError."""

    __slots__ = ("steps",)
    sid = None

    def __init__(self, steps):
        self.steps = steps


def _select(waiting, marks, decided, universe):
    """(None, the branches other than 0 that the conditional trees of the
    guards parked in `waiting` pick at the end of the instant), or (s,
    None) for the first universe signal a tree tests that neither `marks`
    nor `decided` settles."""
    chosen = []
    for guards in waiting.values():
        for t in guards:
            b = t.branch
            while b.__class__ is BIte:
                s = b.signal
                if s in marks or decided.get(s):
                    b = b.then
                elif s in universe and s not in decided:
                    return s, None
                else:
                    b = b.other
            if b.tail.__class__ is not TNil:
                chosen.append(b.tail)
    return None, chosen


class _Parked:
    """A suspended state taken apart for its moves: `guards` holds its
    guards parked by signal, `markers` its markers and `marks` their
    signals. The members are the state's own nodes, which keep their
    printed forms."""

    __slots__ = ("guards", "marks", "markers")

    def __init__(self, items):
        guards, self.markers = {}, []
        for t in items:
            if isinstance(t, TEmit):
                self.markers.append(t)
            else:
                guards.setdefault(t.signal, []).append(t)
        self.guards = {s: tuple(g) for s, g in guards.items()}
        self.marks = frozenset(t.signal for t in self.markers)


# nothing parked: the start of `settle` and `settle_eoi`
_Parked.EMPTY = _Parked(())


# ---------------------------------------------------------------------------
# reachable state space


class Space:
    """Canonical reachable states of one tail program.

    States are interned canonical multisets of lifted threads. Building a
    space walks no thread: it reads the program's facts (`syntax.Program`).
    Transitions, weak closures and barbs are computed on demand and cached
    by state id, and so are the two moves of a context: `eoi(sid)` ends the
    instant and is cached by state id; `with_emits(sid, S)` emits the
    signals S into the instant and is cached by state id and signal set.
    Every state they reach is interned. The checking modes use none of
    these: `tau` and `ins` serve the diagnostics, and `with_emits` and
    `eoi` only the tests.

    The checking modes run `_saturate` on raw lifted threads and intern
    only the state where it stops. Exact mode asks for settled states, once
    per state and move, so no move is cached: `settle(sid)`,
    `settle_with(sid, s)` for the settled state after one more emission,
    and `settle_eoi(sid)` for the settled state after the end of the
    instant. What is cached is each state taken apart for its `settle_with`
    moves (`_Parked`): its guards parked by signal and its markers, so that
    a move runs only the guards it wakes and, as the nodes it keeps hold
    their text (`print_tail`), renders only the members it makes. Trace
    mode asks `instant(sid, S)`, which interns instant boundaries only; per
    state it grows, in one forking run, a decision tree whose leaves hold
    the outputs and the next state of one class of input sets, and the
    trace game walks two such trees together (`_tree`, `_reach`). Exact
    mode asks for them too, on the same space, once its refinement has
    split the two seeds: the game's word is the witness of every mode.
    """

    def __init__(self, program, universe, state_limit=DEFAULT_STATE_LIMIT):
        self.defs = program.defs
        self.universe = tuple(sorted(universe))
        self._universe = frozenset(universe)
        self.interface = set(universe) | {PAUSE_SIGNAL}
        self.state_limit = state_limit
        self._taken = self.interface | program.names
        # without binders every name a state holds is an interface name or
        # a parameter's argument, so no state has a name to rename
        self._ground = (not program.has_binder and
                        program.names - program.params <= self.interface)
        self._ids = {}
        self._items = []
        self._tau = {}
        self._ins = {}
        self._weak = {}
        self._barbs = {}
        self._eoi = {}
        self._emits = {}
        self._bodies = {}
        self._trees = {}
        self._parked = {}

    def intern(self, items):
        """The id of the state of `items`, lifted here; members lifted
        already pass through as they are (`_lifted`).

        A state keeps one member per printed form: equal threads have the
        same moves, and emission is idempotent, so P | P behaves as P. It
        is keyed by the set of those printed forms. In a ground space no
        member has a name to rename, so the members sorted by printed form
        are the canonical tuple, with no call to `canonical_multiset`."""
        items = _lifted(items, _canon.name_supply("%l", self._taken))
        if self._ground:
            canonical = sorted(items, key=print_tail)
        else:
            canonical, _ = _canon.canonical_multiset(items, self.interface,
                                                     print_tail)
        distinct = {print_tail(t): t for t in canonical}
        key = frozenset(distinct)
        sid = self._ids.get(key)
        if sid is None:
            if len(self._items) >= self.state_limit:
                raise StateExplosionError(self.state_limit)
            sid = self._ids[key] = len(self._items)
            self._items.append(tuple(distinct.values()))
        return sid

    def show(self, sid):
        return " | ".join(map(print_tail, self._items[sid])) or "0"

    def _steps(self, sid):
        """(action, replacement threads) for every move of a state."""
        items = self._items[sid]
        marked = _marked(items)
        out = []
        for i, t in enumerate(items):
            # markers have no moves, and a state holds no member twice
            if isinstance(t, TEmit):
                continue
            rest = items[:i] + items[i + 1:]
            if isinstance(t, TCall):
                dfn = self.defs[t.ident]
                body = tail_substitute(dfn.body, dict(zip(dfn.params, t.args)))
                out.append((TAU, rest + (body,)))
                continue
            if t.signal in marked:
                out.append((TAU, rest + (t.then,)))
            if t.signal in self._universe:
                out.append((("in", t.signal),
                            rest + (t.then, TEmit(t.signal, TNIL))))
        return out

    def tau(self, sid):
        hit = self._tau.get(sid)
        if hit is None:
            hit = tuple(sorted({self.intern(items)
                                for a, items in self._steps(sid)
                                if a is TAU}))
            self._tau[sid] = hit
        return hit

    def ins(self, sid):
        hit = self._ins.get(sid)
        if hit is None:
            table = {}
            for a, items in self._steps(sid):
                if a is not TAU:
                    table.setdefault(a[1], set()).add(self.intern(items))
            hit = {s: tuple(sorted(v)) for s, v in table.items()}
            self._ins[sid] = hit
        return hit

    def barbs(self, sid):
        hit = self._barbs.get(sid)
        if hit is None:
            hit = frozenset(_marked(self._items[sid]) & self._universe)
            self._barbs[sid] = hit
        return hit

    def suspended(self, sid):
        return not self.tau(sid)

    def weak_tau(self, sid):
        hit = self._weak.get(sid)
        if hit is None:
            seen = {sid}
            queue = [sid]
            while queue:
                cur = queue.pop()
                for nxt in self.tau(cur):
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
            hit = frozenset(seen)
            self._weak[sid] = hit
        return hit

    def converges(self, sid):
        return any(self.suspended(x) for x in self.weak_tau(sid))

    def l_converges(self, sid):
        """Reachability of a suspended state through arbitrary actions."""
        seen = {sid}
        queue = [sid]
        while queue:
            cur = queue.pop()
            if self.suspended(cur):
                return True
            nxts = set(self.tau(cur))
            for targets in self.ins(cur).values():
                nxts.update(targets)
            for nxt in nxts:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return False

    def eoi(self, sid):
        """End of instant: drop the markers and pick each guard's branch by
        the marked set."""
        hit = self._eoi.get(sid)
        if hit is None:
            if not self.suspended(sid):
                raise NotSuspendedError(self.show(sid))
            items = self._items[sid]
            S = _marked(items)
            hit = self.intern([select_branch(t.branch, S.__contains__)
                               for t in items
                               if isinstance(t, TPresent)])
            self._eoi[sid] = hit
        return hit

    def with_emits(self, sid, signals):
        """The state after the context emits `signals` into the instant."""
        signals = frozenset(signals)
        hit = self._emits.get((sid, signals))
        if hit is None:
            items = self._items[sid]
            new = signals - _marked(items)
            if not new:
                hit = sid
            else:
                hit = self._intern_raw(items + tuple(TEmit(s, TNIL)
                                                     for s in sorted(new)))
            self._emits[sid, signals] = hit
        return hit

    def instant(self, sid, inputs):
        """(outputs, next state) of the instant from state sid under the
        context's `inputs`, a subset of the universe: the leaf that the
        path of `inputs` reaches in the state's instant tree. A leaf holds
        the signals the run marked and the next state, the same for every
        input set that reaches it."""
        node = self._tree(sid)
        while node.__class__ is _Split:
            node = node.branches[node.signal in inputs]
        marks, nxt = self._reach(node)
        return marks | (inputs & self._universe), nxt

    def _tree(self, sid):
        """The instant tree of state sid, built on first use."""
        tree = self._trees.get(sid)
        if tree is None:
            tree = self._trees[sid] = self._build(sid)
        return tree

    def _reach(self, leaf):
        """(marks, next state) of a leaf of an instant tree. The next state
        is interned the first time the leaf is reached, and a leaf whose
        path ran out of fuel raises FuelExhaustedError each time."""
        if leaf.sid is None:
            if leaf.__class__ is _Exhausted:
                raise FuelExhaustedError(leaf.steps)
            leaf.sid = self._intern_raw(leaf.members)
            leaf.members = None
        return leaf.marks, leaf.sid

    def _build(self, sid):
        """The instant tree of state sid, grown by one run that forks.

        The run lifts the state's items and runs `_saturate` on raw lifted
        threads, which parks each guard until its signal is marked. When
        nothing can move, it forks on the smallest universe signal, in
        sorted order, that a parked guard waits on and the path has not
        decided: the absent side goes on with the same marks and parked
        guards, and the present side, on copies of the set and the dict
        (the parked tuples are shared), marks the signal, wakes its guards
        and saturates on. At the end of the instant it
        forks the same way on each undecided universe signal that a
        conditional tree tests. No input off a path changes its outputs or
        its next state, and by confluence an input marked when nothing can
        move, not at the start of the instant, leaves the same state. Fuel
        is counted per path from the state's start, and a path that runs
        out ends in an `_Exhausted` leaf. More inputs run more steps, so a
        path whose present signals hold those of a path that ran out ends
        there too, without running. Nothing is interned here, and nothing
        of the run is kept but the tree."""
        # a prefix of its own: intern restarts its %l supply at every call
        supply = _canon.name_supply("%i", self._taken)
        universe = self._universe
        work, marks = [], set()
        for t in self._items[sid]:
            _lift(t, work, marks, supply)
        root = [None]
        runs = [(work, marks, {}, {}, 0, root, 0)]
        # the signals decided present on each path that ran out of fuel
        exhausted = []
        while runs:
            work, marks, waiting, decided, steps, holder, slot = runs.pop()
            if exhausted and any(all(decided.get(s) for s in e)
                                 for e in exhausted):
                holder[slot] = _Exhausted(FUEL + 1)
                continue
            try:
                steps = self._saturate(work, marks, waiting, supply, steps,
                                       FUEL)
            except FuelExhaustedError as e:
                holder[slot] = _Exhausted(e.steps)
                exhausted.append([s for s, side in decided.items() if side])
                continue
            while True:
                # a signal leaves `waiting` only once it is marked
                s = next((s for s in self.universe
                          if s in waiting and s not in decided), None)
                if s is not None:
                    parked = dict(waiting)
                    fork = (list(parked.pop(s)), marks | {s}, parked)
                else:
                    s, chosen = _select(waiting, marks, decided, universe)
                    if s is None:
                        # an else-branch that emits at once leaves a marker
                        holder[slot] = _Leaf(frozenset(marks & universe),
                                             _lifted(chosen, supply))
                        break
                    # nothing is left to run: the sides share the guards
                    fork = ([], marks, waiting)
                node = holder[slot] = _Split(s)
                runs.append((*fork, {**decided, s: True}, steps,
                             node.branches, True))
                decided[s] = False
                holder, slot = node.branches, False
        return root[0]

    def _saturate(self, work, marks, waiting, supply, steps, fuel):
        """Run the raw lifted threads of `work` until none can move and
        return `steps` plus the steps taken. A call unfolds through
        `_bodies`, a guard whose signal is in `marks` fires, and any other
        guard parks in `waiting`, in a tuple under its signal, until that
        signal is marked. More than `fuel` steps raise
        FuelExhaustedError."""
        while work:
            t = work.pop()
            if isinstance(t, TCall):
                body = self._bodies.get(t)
                if body is None:
                    dfn = self.defs[t.ident]
                    body = self._bodies[t] = tail_substitute(
                        dfn.body, dict(zip(dfn.params, t.args)))
                t = body
            elif t.signal in marks:
                t = t.then
            else:
                waiting[t.signal] = waiting.get(t.signal, ()) + (t,)
                continue
            steps += 1
            if steps > fuel:
                raise FuelExhaustedError(steps)
            known = len(marks)
            _lift(t, work, marks, supply)
            if len(marks) > known:
                for s in marks & waiting.keys():
                    work.extend(waiting.pop(s))
        return steps

    def _intern_raw(self, members):
        """Intern lifted members. States are keyed by the set of the
        printed forms of their canonical tuple, and printing is injective:
        so members whose printed forms make up a key are that state,
        whatever _canon makes of them. A miss becomes another key of its
        state, and `intern` reads the members' kept text."""
        key = frozenset(map(print_tail, members))
        sid = self._ids.get(key)
        if sid is None:
            sid = self._ids[key] = self.intern(members)
        return sid

    def _settled(self, threads, marks, parked=_Parked.EMPTY):
        """Intern the suspended state that internal moves reach from the
        raw `threads` with the signals `marks` and those of `parked`
        marked and the guards of `parked` parked, those on a marked signal
        woken. The guards that stay parked and the markers of `parked` are
        the state's own nodes and keep their text, so only what the run
        made is rendered."""
        supply = _canon.name_supply("%i", self._taken)
        marks |= parked.marks
        work, waiting = [], dict(parked.guards)
        for t in threads:
            _lift(t, work, marks, supply)
        for s in marks & waiting.keys():
            work += waiting.pop(s)
        self._saturate(work, marks, waiting, supply, 0, FUEL)
        members = list(parked.markers)
        members += [TEmit(s, TNIL) for s in marks - parked.marks]
        for guards in waiting.values():
            members += guards
        return self._intern_raw(members)

    def settle(self, sid):
        """The suspended state that internal moves reach from sid. Where
        every instant terminates and internal moves are confluent, it is
        the only one they reach, and no state on the way is interned."""
        return self._settled(self._items[sid], set())

    def settle_with(self, sid, signal):
        """settle(with_emits(sid, {signal})) for a suspended state sid,
        which is sid itself where the signal is marked already. An
        emission marked once the state has settled leaves the same
        suspended state as one marked at the start of the run, so the
        settled state of a context set is reached one signal at a time.

        The move starts from the state's parked guards (`_Parked`, taken
        apart once per state): it wakes the guards on `signal` and leaves
        the others parked, so only the guards and markers it makes are
        rendered."""
        parked = self._parked.get(sid)
        if parked is None:
            parked = self._parked[sid] = _Parked(self._items[sid])
        if signal in parked.marks:
            return sid
        return self._settled((), {signal}, parked)

    def settle_eoi(self, sid):
        """settle(eoi(sid)) for a suspended state sid: each guard's branch
        picked by the marked set, then run until nothing can move."""
        items = self._items[sid]
        S = _marked(items)
        return self._settled([select_branch(t.branch, S.__contains__)
                              for t in items if isinstance(t, TPresent)],
                             set())

    def weak_in(self, sid, signal):
        out = set()
        for mid in self.weak_tau(sid):
            for tgt in self.ins(mid).get(signal, ()):
                out |= self.weak_tau(tgt)
        return frozenset(out)


def space_for(program, state_limit=DEFAULT_STATE_LIMIT):
    return Space(program, program.universe, state_limit)


# ---------------------------------------------------------------------------
# suspension report


@dataclass(frozen=True)
class SuspensionReport:
    now: bool
    weak: bool
    labelled: bool


def suspension(program, state_limit=DEFAULT_STATE_LIMIT):
    sp = space_for(program, state_limit=state_limit)
    seed = sp.intern(program.initial)
    return SuspensionReport(sp.suspended(seed), sp.converges(seed),
                            sp.l_converges(seed))


# ---------------------------------------------------------------------------
# equivalence checking


class _Refinement:
    """Labelled bisimilarity of two reachable state spaces, decided by
    signature refinement over the settled states of both.

    Exact mode runs on call-acyclic definitions only, where every instant
    terminates and internal moves are confluent. So the internal moves
    from a state x reach exactly one suspended state, settle(x): they
    terminate, and by Newman's lemma a terminating, locally confluent
    system has unique normal forms. Confluent internal moves are inert
    (Groote and Sellink, "Confluence for process verification", TCS
    1996): x is bisimilar to settle(x) and shares its block in every
    round, so only settled states are numbered. They are the settled
    states of the two seeds and those reached from a settled state y by
    y_s = settle_with(y, s) for each universe signal s and by
    settle_eoi(y). Emissions commute, so the settled state after a
    context emits a set S is reached one signal at a time, each step a
    numbered state with its own end of instant: a partition stable under
    single signals and the end of the instant is stable under every
    context set, and the converse holds as well.

    The partition starts as one block. Each round gives every settled
    state y a signature built from the previous partition: its own block;
    its barbs; block(settle_eoi(y)); and block(y_s) for each universe
    signal s, whose input move settles to y_s. States with equal
    signatures share the next block, and the rounds stop when the number
    of blocks stops growing.
    """

    def __init__(self, sp1, sp2, universe):
        # numbered states carry the context's markers: up to 2^|universe|
        check_enumerable(universe)
        self.sp1 = sp1
        self.sp2 = sp2
        self.universe = tuple(sorted(universe))

    def run(self, seed1, seed2):
        """Whether the settled states of the two seeds share a block of the
        coarsest stable partition."""
        u, v = self._union(seed1, seed2)
        block = [0] * len(self.states)
        self.rounds = 0
        while True:
            self.rounds += 1
            ids = {}
            nxt = [ids.setdefault(
                (block[x], self.barbs[x], tuple([block[y] for y in moves])),
                len(ids))
                for x, moves in enumerate(self.moves)]
            if len(ids) == len(set(block)):
                return block[u] == block[v]
            block = nxt

    def _union(self, seed1, seed2):
        """Number the settled states of both spaces apart, as `states`, in
        the order a search from the seeds' settled states reaches them, and
        record per state its barbs, as `barbs`, and its moves, as `moves`:
        the numbers of settle_eoi(y) and then of y_s for each universe
        signal s in sorted order. Returns the numbers of the seeds' settled
        states."""
        spaces = (self.sp1, self.sp2)
        self.states, self.number, self.barbs, self.moves = [], {}, [], []

        def number(k, sid):
            n = self.number.get((k, sid))
            if n is None:
                n = self.number[k, sid] = len(self.states)
                self.states.append((k, sid))
            return n

        seeds = number(0, self.sp1.settle(seed1)), \
            number(1, self.sp2.settle(seed2))
        # the loop numbers the states it reaches, so `states` grows under it
        for k, sid in self.states:
            sp = spaces[k]
            self.barbs.append(sp.barbs(sid))
            self.moves.append(
                [number(k, sp.settle_eoi(sid))] +
                [number(k, sp.settle_with(sid, s)) for s in self.universe])
        return seeds


# ---------------------------------------------------------------------------
# trace mode


def _meets(tree1, tree2):
    """Every nonempty meet of a class of input sets of one instant tree
    with a class of the other, as (smallest member, leaf1, leaf2).

    One stack holds a walk through both trees together: a signal already
    decided on the path is followed, and an undecided signal that either
    tree tests forks the walk. A meet's members are the input sets that
    hold the signals decided present and lack those decided absent, so its
    smallest member is the set of the signals decided present."""
    out = []
    stack = [(tree1, tree2, {})]
    while stack:
        a, b, decided = stack.pop()
        while True:
            node = a if a.__class__ is _Split else b
            if node.__class__ is not _Split:
                break
            s = node.signal
            side = decided.get(s)
            if side is None:
                stack.append((a, b, {**decided, s: True}))
                decided[s] = side = False
            if node is a:
                a = a.branches[side]
            else:
                b = b.branches[side]
        out.append((frozenset(s for s, side in decided.items() if side),
                    a, b))
    return out


def _trace_game(sp1, seed1, sp2, seed2, universe, depth=None):
    """Compare the instant machines of two spaces breadth first.

    From a state pair the game plays the nonempty meets of the two states'
    classes of input sets (`_meets`), in `subsets` order of their smallest
    members P, with outputs `marks | P` on each side. Every member of a
    meet reaches the same two leaves and contains P, so a member separates
    the pair only if P does: the game finds the word, the outputs and the
    order of pairs that playing every input set in `subsets` order finds,
    and reaches the leaves in the same order."""
    check_enumerable(universe)

    def moves(pair):
        meets = _meets(sp1._tree(pair[0]), sp2._tree(pair[1]))
        meets.sort(key=lambda meet: (len(meet[0]), sorted(meet[0])))
        for P, leaf1, leaf2 in meets:
            marks1, n1 = sp1._reach(leaf1)
            marks2, n2 = sp2._reach(leaf2)
            yield P, marks1 | P, marks2 | P, (n1, n2)

    return shortest_separating_word((seed1, seed2), moves, depth)


# ---------------------------------------------------------------------------
# entry point


EXACT = "exact"
TRACE = "trace"
BOUNDED = "bounded"


def bisim_check(p1, p2, mode=EXACT, depth=8, state_limit=DEFAULT_STATE_LIMIT):
    """Decide equivalence of two tail programs.

    exact refines a partition of the settled states of both programs by
    signatures when the definition tables are call-acyclic, where every
    instant terminates and each state settles into one suspended state;
    with recursion but no signal generation it falls back to trace
    comparison, which coincides with the labelled relation for this
    language; with both it refuses. trace compares instant machines
    directly. bounded plays the trace game for `depth` instants and never
    certifies equivalence. Every distinguished verdict is the trace
    game's shortest separating input word: where the refinement splits
    the two seeds, the game is played on the same two spaces, and the
    states it interns count against the same `state_limit`. A split that
    the game cannot separate would contradict the coincidence of the two
    relations, and raises RuntimeError. What it reads of a program is
    kept on it (`syntax.Program`), so a program met again is not walked.
    """
    if mode not in (EXACT, TRACE, BOUNDED):
        raise ValueError(f"unknown mode: {mode}")
    universe = sorted(p1.universe | p2.universe)
    sp1 = Space(p1, universe, state_limit)
    sp2 = Space(p2, universe, state_limit)
    seed1 = sp1.intern(p1.initial)
    seed2 = sp2.intern(p2.initial)
    if mode == EXACT and not (p1.fact(calls_cyclic) or
                              p2.fact(calls_cyclic)):
        if _Refinement(sp1, sp2, universe).run(seed1, seed2):
            return Equivalent()
        verdict = _trace_game(sp1, seed1, sp2, seed2, universe)
        if verdict:
            raise RuntimeError("the refinement split two programs that no "
                               "input word separates")
        return verdict
    if mode == EXACT and (p1.has_binder or p2.has_binder):
        raise NotFiniteStateError(
            "definitions are recursive and generate signals; "
            "use trace or bounded mode")
    return _trace_game(sp1, seed1, sp2, seed2, universe,
                       depth=depth if mode == BOUNDED else None)


# ---------------------------------------------------------------------------
# diamond property of the transition system


def confluence_check(program, depth=6, state_limit=DEFAULT_STATE_LIMIT):
    """Check the transition system's one-step diamond on every state within
    `depth` moves of the initial one, and at every move that barbs persist
    and that an input leaves the received signal observable. Emissions are
    markers with no moves of their own. Returns the `diamond_walk`
    verdict."""
    sp = space_for(program, state_limit=state_limit)

    def moves(sid):
        out = [(TAU, t) for t in sp.tau(sid)]
        for s, targets in sorted(sp.ins(sid).items()):
            out.extend((("in", s), t) for t in targets)
        return out

    def barbs_kept(sid, action, tgt):
        if not sp.barbs(sid) <= sp.barbs(tgt):
            return f"barb lost across {action}"
        if action[0] == "in" and action[1] not in sp.barbs(tgt):
            return f"input {action[1]} left no emission"

    def successors(sid, left, targets):
        return [(t, left - 1) for t in targets] if left else []

    return diamond_walk([(sp.intern(program.initial), depth)], moves,
                        successors, key=lambda sid: sid, show=sp.show,
                        check=barbs_kept)

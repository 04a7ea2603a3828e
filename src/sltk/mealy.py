"""Monotonic Mealy machines, compilation into the tail core, and extraction
back out of it.

A machine reads a subset of n input wires each instant and produces a
subset of m output wires, with the requirement that more input never yields
less output. Compilation realizes each state as a definition that spawns
one watcher per (input subset, fired output) pair and chooses the next
state through a conditional tree once the instant ends. Extraction runs
the tail threads themselves: each instant is a saturation over a set of
threads, with calls unfolded through a memo of instantiated bodies. For
programs without signal generation a set emits the same signals and leaves
the same guards as multiset execution, so the reachable states are finite.
Saturation is monotone, so the instant of a state under an input set
resumes its instant under the set without its largest wire: one run per
added signal, visited depth first over the subset lattice. Extraction
keeps this instant loop of its own, apart from `equiv.Space.instant`, so
that it stays an independent reference for the trace mode of the
equivalence checker. Tables and programs (`equiv`) are compared by one
product search, `shortest_separating_word`, which builds the verdict:
`Equivalent`, `Distinguished` with its word and the outputs of its last
letter, or `Inconclusive` at a depth bound.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass

from . import _canon
from .errors import (
    HasSignalGenerationError,
    ParseError,
    SLError,
    StateExplosionError,
)
from .semantics import subsets
from .syntax import Definition, Program
from .tailcore import (
    BIte,
    BLeaf,
    TCall,
    TEmit,
    TNew,
    TNIL,
    TNil,
    TPresent,
    TSpawn,
    pause_prefix,
    select_branch,
    tail_substitute,
)

DEFAULT_STATE_LIMIT = 2 ** 16


@dataclass(frozen=True)
class MonotonicMealy:
    states: tuple
    init: str
    n: int
    m: int
    next_state: dict
    output: dict


@dataclass(frozen=True)
class MonotonicityViolation:
    small: frozenset
    large: frozenset
    state: str
    index: int


def input_subsets(n):
    """Every subset of the wires 1..n, smallest first."""
    return subsets(range(1, n + 1))


def validate_mealy(machine):
    """None when the machine is total and monotone, else a concrete witness
    of the first monotonicity failure found: the first state, then the
    first pair of input sets X < Y in `input_subsets` order.

    A row is monotone when every covering pair X < X | {x} is, so a state
    costs n 2^n checks; only a state that fails them is scanned pair by
    pair for its first witness. More than MAX_ENUMERATED_SIGNALS inputs
    raise InputSetExplosionError, as in every input-set enumeration."""
    subsets = input_subsets(machine.n)
    for q in machine.states:
        for X in subsets:
            if (q, X) not in machine.next_state or (q, X) not in machine.output:
                raise ValueError(f"table missing entry for ({q}, {set(X)})")
    wires = range(1, machine.n + 1)
    for q in machine.states:
        out = {X: machine.output[(q, X)] for X in subsets}
        if all(out[X] <= out[X | {x}]
               for X in subsets for x in wires if x not in X):
            continue
        for X in subsets:
            for Y in subsets:
                if X < Y:
                    missing = out[X] - out[Y]
                    if missing:
                        return MonotonicityViolation(X, Y, q, min(missing))
    return None


# ---------------------------------------------------------------------------
# machine -> program


def _state_branch(machine, q, x, chosen):
    if x > machine.n:
        return BLeaf(TCall(machine.next_state[(q, chosen)], ()))
    return BIte(f"i{x}",
                _state_branch(machine, q, x + 1, chosen | {x}),
                _state_branch(machine, q, x + 1, chosen))


def _spawn_tree(threads):
    """One thread that spawns all of `threads`, from a balanced tree of
    spawns about log2 of their number deep."""
    if len(threads) == 1:
        return threads[0]
    half = len(threads) // 2
    return TSpawn(_spawn_tree(threads[:half]), _spawn_tree(threads[half:]))


def mealy_to_program(machine):
    """One definition per state. Each instant the state spawns a watcher per
    (input subset, output) table entry; a watcher emits its output wire only
    if every wire of its subset is present. Monotonicity makes the union of
    fired watchers equal the table row of the actual input. The watchers
    come from a balanced tree of spawns, so a wide table does not nest
    deeper than the printer and parser can follow."""
    bad = validate_mealy(machine)
    if bad is not None:
        raise ValueError(f"machine is not monotone: {bad}")
    inputs = tuple(f"i{x}" for x in range(1, machine.n + 1))
    outputs = tuple(f"o{j}" for j in range(1, machine.m + 1))
    defs = {}
    for q in machine.states:
        spawns = []
        for X in input_subsets(machine.n):
            for j in sorted(machine.output[(q, X)]):
                guard = TEmit(f"o{j}", TNIL)
                for x in sorted(X, reverse=True):
                    guard = TPresent(f"i{x}", guard, BLeaf(TNIL))
                spawns.append(guard)
        body = pause_prefix(_state_branch(machine, q, 1, frozenset()))
        if spawns:
            body = TSpawn(_spawn_tree(spawns), body)
        defs[q] = Definition(q, (), body)
    return Program(inputs, outputs, defs, (TCall(machine.init, ()),))


# ---------------------------------------------------------------------------
# machine extraction


def _call_bodies(defs):
    """Unfold calls through a memo: one instantiated body per call, shared
    by every occurrence of that call. A call object met before is looked up
    by identity, without hashing it again; the entry keeps the object alive,
    so its id is not reused.

    A chain of bare calls resolves to the body it ends in; a chain that
    closes on itself has no productive body at all and is rejected.
    """
    memo = {}
    by_id = {}

    def unfold(call):
        known = by_id.get(id(call))
        if known is not None:
            return known[1]
        first = call
        body = memo.get(call)
        chain = {}
        while body is None:
            if call in chain:
                shown = " = ".join(f"{c.ident}({','.join(c.args)})"
                                   for c in [*chain, call])
                raise SLError(f"unguarded call cycle: {shown}")
            chain[call] = None
            dfn = defs[call.ident]
            if len(call.args) != len(dfn.params):
                raise SLError(f"arity mismatch instantiating {call.ident}")
            body = tail_substitute(dfn.body,
                                   _canon.binding(dfn.params, call.args))
            if isinstance(body, TCall):
                call, body = body, memo.get(body)
        for c in chain:
            memo[c] = body
        by_id[id(first)] = (first, body)
        return body
    return unfold


class _Run:
    """One instant's saturation so far: the threads it has seen, by
    identity, a tuple of the guards parked on each signal not yet emitted,
    the same for the parked guards whose branch can leave a thread
    (`leaving`: a guard whose branch is 0 waits and leaves nothing), and
    the signals emitted, inputs included."""

    __slots__ = ("seen", "waiting", "leaving", "emitted")

    def __init__(self, seen, waiting, leaving, emitted):
        self.seen = seen
        self.waiting = waiting
        self.leaving = leaving
        self.emitted = emitted


def _saturate(run, work, unfold):
    """Run the threads of `work` to the end of the instant inside `run`.

    Emissions and spawns are lifted, calls unfold, and a guard parks on its
    signal until that signal is emitted. A thread counts once, by identity:
    every thread is a subterm of the program or of a memoized call body, so
    one that comes back within the instant is the same object.
    """
    seen, waiting, leaving, emitted = (run.seen, run.waiting, run.leaving,
                                       run.emitted)
    while work:
        t = work.pop()
        if id(t) in seen:
            continue
        seen[id(t)] = t
        if isinstance(t, TPresent):
            if t.signal in emitted:
                work.append(t.then)
            else:
                waiting[t.signal] = waiting.get(t.signal, ()) + (t,)
                b = t.branch
                if b.__class__ is not BLeaf or b.tail.__class__ is not TNil:
                    leaving[t.signal] = leaving.get(t.signal, ()) + (t,)
        elif isinstance(t, TCall):
            work.append(unfold(t))
        elif isinstance(t, TEmit):
            if t.signal not in emitted:
                emitted.add(t.signal)
                leaving.pop(t.signal, None)
                work.extend(g.then for g in waiting.pop(t.signal, ()))
            work.append(t.next)
        elif isinstance(t, TSpawn):
            work.append(t.spawned)
            work.append(t.next)
        elif isinstance(t, TNew):
            raise HasSignalGenerationError()


def closure(threads, emitted, unfold):
    """Saturate one instant over a set of tail threads, given the signals
    present so far, inputs included. Returns the run: the guards still
    waiting at the end, per signal, and the emitted signals.

    Exact for programs without signal generation: running the threads as
    a multiset emits the same signals and leaves the same guards, up to
    copies.
    """
    run = _Run({}, {}, {}, set(emitted))
    _saturate(run, list(threads), unfold)
    return run


def _with_signal(run, signal, unfold):
    """The run that `run` becomes once `signal` is emitted as well.

    Saturation is monotone and confluent, so marking a signal after a run
    has settled leaves the guards and emissions of a run that had it from
    the start. Only the guards the signal wakes run again. When there is
    one, the new run copies the dicts of `run` (the parked tuples are
    shared); otherwise it shares them outright.
    """
    if signal in run.emitted:
        return run
    emitted = run.emitted | {signal}
    woken = run.waiting.get(signal)
    if not woken:
        return _Run(run.seen, run.waiting, run.leaving, emitted)
    waiting = dict(run.waiting)
    del waiting[signal]
    leaving = dict(run.leaving)
    leaving.pop(signal, None)
    child = _Run(dict(run.seen), waiting, leaving, emitted)
    _saturate(child, [g.then for g in woken], unfold)
    return child


def _boundary(run):
    """The threads a settled run leaves for the next instant: each parked
    guard's branch taken by the instant's emissions, without the ones that
    have ended. The guards whose branch is 0 are not visited."""
    present = run.emitted.__contains__
    threads = []
    for gs in run.leaving.values():
        for g in gs:
            b = g.branch
            t = b.tail if isinstance(b, BLeaf) else select_branch(b, present)
            if not isinstance(t, TNil):
                threads.append(t)
    return threads


def program_to_mealy(program, state_limit=DEFAULT_STATE_LIMIT):
    """Explore the reachable saturation states of a generator-free tail
    program and tabulate them as a monotonic Mealy machine.

    A state is where an instant stands once its input-free part has run:
    the guards that the threads of the instant boundary leave when
    saturated with no input, and the signals they emit. It is computed
    once per boundary, and a bare call in a boundary counts as its
    memoized body, so equal calls close once.

    The run of a state under input set X resumes the run under
    X - {max X} with max X marked, so each input set costs the guards its
    largest wire wakes. The input sets are visited depth first, so at most
    n + 1 runs are alive at a time. States are named in the order of their
    first transition, input sets in `input_subsets` order.
    """
    if program.has_binder:
        raise HasSignalGenerationError()
    unfold = _call_bodies(program.defs)
    n = len(program.inputs)
    in_name = {x: s for x, s in enumerate(program.inputs, start=1)}
    out_index = {s: j for j, s in enumerate(program.outputs, start=1)}
    subsets = input_subsets(n)
    entered = {}

    def enter(threads):
        """The state a boundary enters, and its run when first entered."""
        key = frozenset([id(unfold(t)) if isinstance(t, TCall) else id(t)
                         for t in threads])
        q = entered.get(key)
        if q is not None:
            return q, None
        run = closure(threads, (), unfold)
        q = entered[key] = (
            frozenset([id(g) for gs in run.waiting.values() for g in gs]),
            frozenset(run.emitted))
        return q, run

    def rows(root):
        """Input set -> (next boundary, output wires), from a state's run."""
        row = {}

        def visit(X, run, first):
            row[X] = (_boundary(run),
                      frozenset([out_index[s] for s in run.emitted
                                 if s in out_index]))
            for x in range(first, n + 1):
                visit(X | {x}, _with_signal(run, in_name[x], unfold), x + 1)

        visit(frozenset(), root, 1)
        return row

    queue = deque([enter(program.initial)])
    names = {queue[0][0]: "q0"}
    next_state, output = {}, {}
    while queue:
        q, run = queue.popleft()
        row = rows(run)
        for X in subsets:
            threads, out = row[X]
            q2, run2 = enter(threads)
            if q2 not in names:
                if len(names) >= state_limit:
                    raise StateExplosionError(state_limit)
                names[q2] = f"q{len(names)}"
                queue.append((q2, run2))
            key = (names[q], X)
            next_state[key] = names[q2]
            output[key] = out
    return MonotonicMealy(tuple(names.values()), "q0", n,
                          len(program.outputs), next_state, output)


# ---------------------------------------------------------------------------
# machine trace equivalence


@dataclass(frozen=True)
class Equivalent:
    """No input word separates the two machines; the verdict is true."""


def show_set(S):
    """A set as `{a,b}`: its members sorted, each printed through str."""
    return "{" + ",".join(map(str, sorted(S))) + "}"


@dataclass(frozen=True)
class Distinguished:
    """A separating input word: `word` holds the input set of each
    instant, and `outputs` what each side emits at its last instant, where
    they differ. Before it the sides agree."""

    word: tuple
    outputs: tuple

    def __bool__(self):
        return False

    def render(self):
        *before, last = self.word
        labels = [f"inputs {show_set(X)}" for X in before]
        o1, o2 = self.outputs
        labels.append(f"inputs {show_set(last)} emit {show_set(o1)} "
                      f"versus {show_set(o2)}")
        return " then ".join(labels)


@dataclass(frozen=True)
class Inconclusive:
    depth: int

    def __bool__(self):
        return False


def shortest_separating_word(start, moves, depth=None):
    """Breadth-first search over pairs of states of two instant machines.

    `moves(pair)` yields (letter, out1, out2, next pair) for the letters
    to try from `pair`, in order; the search stops reading it at the
    first letter whose outputs differ. Returns Distinguished for a
    shortest word on whose last letter the outputs differ, with those
    outputs. When no word of at most `depth` letters separates the
    machines it returns Inconclusive(depth), and Equivalent when depth is
    None and no word of any length does.
    """
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        pair, word = queue.popleft()
        if depth is not None and len(word) >= depth:
            continue
        for X, out1, out2, nxt in moves(pair):
            if out1 != out2:
                return Distinguished(word + (X,), (out1, out2))
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, word + (X,)))
    return Equivalent() if depth is None else Inconclusive(depth)


def mealy_trace_equiv(m1, m2):
    """Product reachability; the witness, when any, is a shortest input word
    on which the two machines emit different output sets, and the two sets
    at its last letter."""
    if (m1.n, m1.m) != (m2.n, m2.m):
        raise ValueError("machines have different interfaces")
    letters = input_subsets(m1.n)

    def moves(pair):
        s1, s2 = pair
        for X in letters:
            yield (X, m1.output[(s1, X)], m2.output[(s2, X)],
                   (m1.next_state[(s1, X)], m2.next_state[(s2, X)]))

    return shortest_separating_word((m1.init, m2.init), moves)


# ---------------------------------------------------------------------------
# text format

_TRANS_RE = re.compile(
    r"trans\s+(\S+)\s+\{([^}]*)\}\s*->\s*(\S+)\s+\{([^}]*)\}\s*$")


def _parse_subset(text, line_no):
    text = text.strip()
    if not text:
        return frozenset()
    try:
        return frozenset(int(part) for part in re.split(r"[,\s]+", text))
    except ValueError:
        raise ParseError(f"bad wire subset {{{text}}}", line_no, 0)


def parse_mealy(text):
    """Read the text format of `print_mealy`. Every state a `trans` line
    names must be declared, every wire must lie within the header's 1..n
    and 1..m, and no state or (state, input set) entry may repeat."""
    lines = [ln.strip() for ln in text.splitlines()]
    header = None
    states = {}
    init = None
    next_state = {}
    output = {}
    trans_line = {}
    for no, line in enumerate(lines, start=1):
        if not line or line.startswith("#"):
            continue
        if line.startswith("mealy"):
            m = re.match(r"mealy\s+n=(\d+)\s+m=(\d+)\s*$", line)
            if not m:
                raise ParseError("bad header", no, 0)
            header = (int(m.group(1)), int(m.group(2)))
        elif line.startswith("state"):
            parts = line.split()
            if len(parts) not in (2, 3) or \
                    (len(parts) == 3 and parts[2] != "init"):
                raise ParseError("bad state line", no, 0)
            if parts[1] in states:
                raise ParseError(f"duplicate state {parts[1]}", no, 0)
            states[parts[1]] = None
            if len(parts) == 3:
                if init is not None:
                    raise ParseError("two initial states", no, 0)
                init = parts[1]
        elif line.startswith("trans"):
            m = _TRANS_RE.match(line)
            if not m:
                raise ParseError("bad trans line", no, 0)
            src, ins, dst, outs = m.groups()
            key = (src, _parse_subset(ins, no))
            if key in trans_line:
                raise ParseError(f"duplicate trans for {src} {{{ins}}}", no, 0)
            trans_line[key] = no
            next_state[key] = dst
            output[key] = _parse_subset(outs, no)
        else:
            raise ParseError(f"unknown line: {line}", no, 0)
    if header is None:
        raise ParseError("missing mealy header", 0, 0)
    if init is None:
        raise ParseError("no state marked init", 0, 0)
    n, m_arity = header
    for (q, X), no in trans_line.items():
        for state in (q, next_state[(q, X)]):
            if state not in states:
                raise ParseError(f"undeclared state {state}", no, 0)
        for wires, bound, what in ((X, n, "input"),
                                   (output[(q, X)], m_arity, "output")):
            bad = sorted(w for w in wires if not 1 <= w <= bound)
            if bad:
                raise ParseError(f"{what} wire {bad[0]} outside 1..{bound}",
                                 no, 0)
    for q in states:
        for X in input_subsets(n):
            if (q, X) not in next_state:
                raise ParseError(f"missing trans for {q} {show_set(X)}", 0, 0)
    return MonotonicMealy(tuple(states), init, n, m_arity, next_state, output)


def print_mealy(machine):
    lines = [f"mealy n={machine.n} m={machine.m}"]
    for q in machine.states:
        lines.append(f"state {q} init" if q == machine.init else f"state {q}")
    for q in machine.states:
        for X in input_subsets(machine.n):
            lines.append(f"trans {q} {show_set(X)} -> "
                         f"{machine.next_state[(q, X)]} "
                         f"{show_set(machine.output[(q, X)])}")
    return "\n".join(lines) + "\n"

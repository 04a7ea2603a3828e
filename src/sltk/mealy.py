"""Monotonic Mealy machines, compilation into the tail core, and extraction
back out of it.

A machine reads a subset of n input wires each instant and produces a
subset of m output wires, with the requirement that more input never yields
less output. Compilation realizes each state as a definition that spawns
one watcher per (input subset, fired output) pair and chooses the next
state through a conditional tree once the instant ends. Extraction works
over parameter-free normal form equations and replaces multiset execution
by a saturation over sets of equation names and emitted signals, which is
exact for that fragment.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass

from . import _canon
from .errors import (
    ArityTooLargeError,
    HasSignalGenerationError,
    ParseError,
    SLError,
    StateExplosionError,
)
from .semantics import subsets
from .tailcore import (
    BIte,
    BLeaf,
    TailDef,
    TailProgram,
    TCall,
    TEmit,
    TNew,
    TNIL,
    TNil,
    TPresent,
    TSpawn,
    pause_prefix,
    tail_substitute,
)

MAX_VALIDATE_ARITY = 12
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
    of the first monotonicity failure found."""
    if machine.n > MAX_VALIDATE_ARITY:
        raise ArityTooLargeError(
            f"cannot validate tables over {machine.n} inputs")
    subsets = input_subsets(machine.n)
    for q in machine.states:
        for X in subsets:
            if (q, X) not in machine.next_state or (q, X) not in machine.output:
                raise ValueError(f"table missing entry for ({q}, {set(X)})")
    for q in machine.states:
        for X in subsets:
            for Y in subsets:
                if not X < Y:
                    continue
                ox = machine.output[(q, X)]
                oy = machine.output[(q, Y)]
                missing = ox - oy
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


def mealy_to_program(machine):
    """One definition per state. Each instant the state spawns a watcher per
    (input subset, output) table entry; a watcher emits its output wire only
    if every wire of its subset is present. Monotonicity makes the union of
    fired watchers equal the table row of the actual input."""
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
        for g in reversed(spawns):
            body = TSpawn(g, body)
        defs[q] = TailDef(q, (), body)
    return TailProgram(inputs, outputs, defs,
                       (TCall(machine.init, ()),))


# ---------------------------------------------------------------------------
# normal form


@dataclass(frozen=True)
class NZero:
    pass


@dataclass(frozen=True)
class NEmit:
    signal: str
    next: str


@dataclass(frozen=True)
class NPresent:
    signal: str
    then: str
    branch: object


@dataclass(frozen=True)
class NSpawn:
    spawned: str
    next: str


@dataclass(frozen=True)
class NBIte:
    signal: str
    then: object
    other: object


@dataclass
class NormalProgram:
    inputs: tuple
    outputs: tuple
    ids: dict
    initial: tuple


class _Normalizer:
    def __init__(self, program):
        self.program = program
        self.ids = {}
        self.memo = {}
        self.name_of = {}
        self.pending = deque()
        self.aux_count = 0

    def _mangle(self, ident, args):
        name = f"{ident}[{','.join(args)}]" if args else ident
        while name in self.ids or \
                (name in self.program.defs and name != ident):
            name += "'"
        return name

    def _instantiate(self, key):
        ident, args = key
        dfn = self.program.defs[ident]
        if len(args) != len(dfn.params):
            raise SLError(f"arity mismatch instantiating {ident}")
        return tail_substitute(dfn.body, dict(zip(dfn.params, args)))

    def instance(self, ident, args):
        """The equation name for a definition applied to concrete signals.

        Chains of equations that are bare calls collapse onto the equation
        they end in; a chain that closes on itself has no productive body
        at all and is rejected.
        """
        key = (ident, tuple(args))
        hit = self.name_of.get(key)
        if hit is not None:
            return hit
        chain = []
        seen = set()
        cur = key
        while True:
            if cur in seen:
                shown = " = ".join(f"{i}({','.join(a)})" for i, a in
                                   chain + [cur])
                raise SLError(f"unguarded call cycle: {shown}")
            seen.add(cur)
            chain.append(cur)
            body = self._instantiate(cur)
            if isinstance(body, TCall):
                nxt = (body.ident, tuple(body.args))
                known = self.name_of.get(nxt)
                if known is not None:
                    name = known
                    break
                cur = nxt
                continue
            name = self._mangle(*cur)
            self.name_of[cur] = name
            self.ids[name] = None
            self.pending.append((name, body))
            break
        for k in chain:
            self.name_of[k] = name
        return name

    def norm(self, t):
        """The equation name describing an arbitrary tail term."""
        if isinstance(t, TCall):
            return self.instance(t.ident, t.args)
        built = self._build(t)
        key = built
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        name = f"N{self.aux_count}"
        self.aux_count += 1
        self.memo[key] = name
        self.ids[name] = built
        return name

    def drain(self):
        while self.pending:
            name, body = self.pending.popleft()
            self.ids[name] = self._build(body)

    def _build(self, t):
        if isinstance(t, TNil):
            return NZero()
        if isinstance(t, TEmit):
            return NEmit(t.signal, self.norm(t.next))
        if isinstance(t, TSpawn):
            return NSpawn(self.norm(t.spawned), self.norm(t.next))
        if isinstance(t, TPresent):
            return NPresent(t.signal, self.norm(t.then),
                            self._build_branch(t.branch))
        if isinstance(t, TNew):
            raise HasSignalGenerationError()
        raise TypeError(f"not a tail thread: {t!r}")

    def _build_branch(self, b):
        if isinstance(b, BLeaf):
            return self.norm(b.tail)
        return NBIte(b.signal, self._build_branch(b.then),
                     self._build_branch(b.other))


def normalize_tail(program):
    """Instantiate parameters lazily and split every equation into one of
    the four normal shapes, sharing structurally identical pieces."""
    for t in program.all_tails():
        if _canon.has_binder(t):
            raise HasSignalGenerationError()
    nz = _Normalizer(program)
    initial = tuple(nz.norm(t) for t in program.initial)
    nz.drain()
    return NormalProgram(tuple(program.inputs), tuple(program.outputs),
                         nz.ids, initial)


# ---------------------------------------------------------------------------
# set saturation


def select_normal(branch, emitted):
    while isinstance(branch, NBIte):
        branch = branch.then if branch.signal in emitted else branch.other
    return branch


def closure(q, emitted, normal):
    """Saturate (equation set, emitted set) to the end of the instant, then
    apply the instant boundary. Exact for parameter-free equations: running
    the same ids as a multiset emits the same signals and leaves the same
    set of residual equations."""
    q = set(q)
    emitted = set(emitted)
    changed = True
    while changed:
        changed = False
        for name in sorted(q):
            b = normal.ids[name]
            if isinstance(b, NEmit):
                if b.next not in q or b.signal not in emitted:
                    q.add(b.next)
                    emitted.add(b.signal)
                    changed = True
            elif isinstance(b, NPresent):
                if b.signal in emitted and b.then not in q:
                    q.add(b.then)
                    changed = True
            elif isinstance(b, NSpawn):
                if b.spawned not in q or b.next not in q:
                    q.add(b.spawned)
                    q.add(b.next)
                    changed = True
    nq = set()
    for name in q:
        b = normal.ids[name]
        if isinstance(b, NZero):
            nq.add(name)
        elif isinstance(b, NPresent) and b.signal not in emitted:
            nq.add(select_normal(b.branch, emitted))
    return frozenset(nq), frozenset(emitted)


def program_to_mealy(program, state_limit=DEFAULT_STATE_LIMIT):
    """Explore the reachable saturation states of a generator-free tail
    program and tabulate them as a monotonic Mealy machine."""
    normal = normalize_tail(program)
    n = len(program.inputs)
    m = len(program.outputs)
    in_name = {x: s for x, s in enumerate(program.inputs, start=1)}
    out_index = {s: j for j, s in enumerate(program.outputs, start=1)}
    subsets = input_subsets(n)
    q0 = frozenset(normal.initial)
    names = {q0: "q0"}
    order = [q0]
    queue = deque([q0])
    next_state = {}
    output = {}
    while queue:
        q = queue.popleft()
        for X in subsets:
            base = {in_name[x] for x in X}
            q2, emitted = closure(q, base, normal)
            if q2 not in names:
                if len(names) >= state_limit:
                    raise StateExplosionError(state_limit)
                names[q2] = f"q{len(names)}"
                order.append(q2)
                queue.append(q2)
            key = (names[q], X)
            next_state[key] = names[q2]
            output[key] = frozenset(out_index[s] for s in emitted
                                    if s in out_index)
    return MonotonicMealy(tuple(names[q] for q in order), "q0", n, m,
                          next_state, output)


# ---------------------------------------------------------------------------
# machine trace equivalence


@dataclass(frozen=True)
class MealyEquivalent:
    def __bool__(self):
        return True


@dataclass(frozen=True)
class MealyWitness:
    word: tuple

    def __bool__(self):
        return False

    def render(self):
        return " ".join("{" + ",".join(str(x) for x in sorted(X)) + "}"
                        for X in self.word)


def shortest_separating_word(start, letters, step, depth=None):
    """Breadth-first search over pairs of states of two instant machines.

    `step(pair, letter)` gives the two output sets and the next pair.
    Returns (word, out1, out2) for a shortest word on whose last letter the
    outputs differ, or None when no word of at most `depth` letters (any
    length when depth is None) separates the machines.
    """
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        pair, word = queue.popleft()
        if depth is not None and len(word) >= depth:
            continue
        for X in letters:
            out1, out2, nxt = step(pair, X)
            if out1 != out2:
                return word + (X,), out1, out2
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, word + (X,)))
    return None


def mealy_trace_equiv(m1, m2):
    """Product reachability; the witness, when any, is a shortest input word
    on which the two machines emit different output sets."""
    if (m1.n, m1.m) != (m2.n, m2.m):
        raise ValueError("machines have different interfaces")

    def step(pair, X):
        s1, s2 = pair
        return (m1.output[(s1, X)], m2.output[(s2, X)],
                (m1.next_state[(s1, X)], m2.next_state[(s2, X)]))

    found = shortest_separating_word((m1.init, m2.init),
                                     input_subsets(m1.n), step)
    if found is None:
        return MealyEquivalent()
    return MealyWitness(found[0])


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
    lines = [ln.strip() for ln in text.splitlines()]
    header = None
    states = []
    init = None
    next_state = {}
    output = {}
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
            states.append(parts[1])
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
            next_state[key] = dst
            output[key] = _parse_subset(outs, no)
        else:
            raise ParseError(f"unknown line: {line}", no, 0)
    if header is None:
        raise ParseError("missing mealy header", 0, 0)
    if init is None:
        raise ParseError("no state marked init", 0, 0)
    n, m_arity = header
    machine = MonotonicMealy(tuple(states), init, n, m_arity,
                             next_state, output)
    for q in states:
        for X in input_subsets(n):
            if (q, X) not in next_state:
                raise ParseError(
                    f"missing trans for {q} {{{','.join(map(str, sorted(X)))}}}",
                    0, 0)
    return machine


def print_mealy(machine):
    lines = [f"mealy n={machine.n} m={machine.m}"]
    for q in machine.states:
        lines.append(f"state {q} init" if q == machine.init else f"state {q}")
    for q in machine.states:
        for X in input_subsets(machine.n):
            ins = ",".join(str(x) for x in sorted(X))
            outs = ",".join(str(j) for j in sorted(machine.output[(q, X)]))
            lines.append(
                f"trans {q} {{{ins}}} -> {machine.next_state[(q, X)]} "
                f"{{{outs}}}")
    return "\n".join(lines) + "\n"

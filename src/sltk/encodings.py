"""Counter machine and pushdown encoders.

A deterministic machine with one or two counters is compiled to a source
program: one definition per control state plus a shared family of stack
definitions. A counter holding n is a chain of n cell threads ending in
a bottom thread; control and stack communicate over a five signal bundle
(dec, inc, zero, ack, abort) per counter. The control starts at most one
operation per instant and waits for its acknowledgement before moving on.

An increment splits the top cell in two; a decrement travels as a wave to
the bottom, turns the last cell into the new bottom, aborts the old one
and returns an acknowledgement wave; the bottom broadcasts its zero
signal every instant, which is how a zero test reads emptiness.

The pushdown encoder is the single counter special case (one stack
symbol plus the bottom marker).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import _canon
from .errors import ParseError, SLError
from .syntax import (
    Await,
    Call,
    Definition,
    Emit,
    GENERATED_PREFIX,
    New,
    NIL,
    Pause,
    Program,
    Spawn,
    Watch,
    expand_present,
    seq_all,
)


# ---------------------------------------------------------------------------
# machines


@dataclass(frozen=True)
class Inc:
    counter: int
    next: str


@dataclass(frozen=True)
class Dec:
    counter: int
    next: str


@dataclass(frozen=True)
class TestZero:
    counter: int
    if_zero: str
    if_nonzero: str

    # keep pytest from collecting this instruction class as a test case
    __test__ = False


@dataclass
class CounterMachine:
    """Deterministic machine: one instruction per non-halt state,
    counters numbered 1 and 2."""

    states: tuple[str, ...]
    init: str
    halt: str
    instrs: dict

    def validate(self):
        states = set(self.states)
        if self.init not in states:
            raise SLError(f"initial state {self.init} not declared")
        if self.halt not in states:
            raise SLError(f"halt state {self.halt} not declared")
        if self.halt in self.instrs:
            raise SLError("halt state cannot carry an instruction")
        for q in self.states:
            if q == self.halt:
                continue
            if q not in self.instrs:
                raise SLError(f"state {q} has no instruction")
        for q, ins in self.instrs.items():
            if q not in states:
                raise SLError(f"instruction on undeclared state {q}")
            if ins.counter not in (1, 2):
                raise SLError(f"state {q}: counter must be 1 or 2")
            targets = (ins.if_zero, ins.if_nonzero) \
                if isinstance(ins, TestZero) else (ins.next,)
            for t in targets:
                if t not in states:
                    raise SLError(f"state {q} jumps to undeclared {t}")
        return self

    def counters_used(self):
        return {ins.counter for ins in self.instrs.values()} or {1}


def run_machine(machine, max_steps=10_000):
    """Reference interpreter. Returns (halted, steps)."""
    q = machine.init
    counters = {1: 0, 2: 0}
    for step in range(max_steps):
        if q == machine.halt:
            return True, step
        ins = machine.instrs[q]
        if isinstance(ins, Inc):
            counters[ins.counter] += 1
            q = ins.next
        elif isinstance(ins, Dec):
            if counters[ins.counter] == 0:
                return False, step
            counters[ins.counter] -= 1
            q = ins.next
        else:
            q = ins.if_zero if counters[ins.counter] == 0 \
                else ins.if_nonzero
    return q == machine.halt, max_steps


# ---------------------------------------------------------------------------
# machine text format


_STATE_RE = re.compile(
    r"state\s+(\w+)\s*:\s*(inc|dec|tz)\s+c([12])\s*->\s*(\w+)(?:\s+(\w+))?$")


def parse_machine(text):
    init = halt = None
    instrs = {}
    states = []

    def note(q):
        if q not in states:
            states.append(q)

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("init "):
            init = line.split()[1]
            note(init)
            continue
        if line.startswith("halt "):
            halt = line.split()[1]
            note(halt)
            continue
        m = _STATE_RE.match(line)
        if not m:
            raise ParseError(f"bad machine line: {raw.strip()}", lineno, 1)
        q, op, counter, t1, t2 = m.groups()
        note(q)
        note(t1)
        counter = int(counter)
        if op == "tz":
            if t2 is None:
                raise ParseError("tz needs two target states", lineno, 1)
            note(t2)
            instrs[q] = TestZero(counter, t1, t2)
        else:
            if t2 is not None:
                raise ParseError(f"{op} takes one target state", lineno, 1)
            instrs[q] = Inc(counter, t1) if op == "inc" else Dec(counter, t1)
    if init is None or halt is None:
        raise ParseError("machine needs init and halt lines", 1, 1)
    return CounterMachine(tuple(states), init, halt, instrs).validate()


def print_machine(machine):
    lines = [f"init {machine.init}", f"halt {machine.halt}"]
    for q in machine.states:
        ins = machine.instrs.get(q)
        if ins is None:
            continue
        if isinstance(ins, Inc):
            lines.append(f"state {q}: inc c{ins.counter} -> {ins.next}")
        elif isinstance(ins, Dec):
            lines.append(f"state {q}: dec c{ins.counter} -> {ins.next}")
        else:
            lines.append(f"state {q}: tz c{ins.counter} -> "
                         f"{ins.if_zero} {ins.if_nonzero}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# stack definitions


BUNDLE = ("dec", "inc", "zero", "ack", "abort")


def _bundle(prefix):
    return tuple(f"{prefix}_{field}" for field in BUNDLE)


def _nu_all(names, body):
    for name in reversed(names):
        body = New(name, body)
    return body


def _spawn_all(threads):
    return seq_all([Spawn(t) for t in threads] + [NIL])


def _present(gen, signal, then_branch, else_branch):
    return expand_present(signal, then_branch, else_branch, gen,
                          lambda: Pause())


def stack_definitions(gen):
    """The five stack thread definitions shared by every encoded machine.

    Calls sitting inside a signal-presence branch are spawned as fresh
    threads so that the context-growth analysis sees them outside any
    watch context.
    """
    left = _bundle("l")
    right = _bundle("r")
    l_dec, l_inc, l_zero, l_ack, l_abort = left
    r_dec, r_inc, r_zero, r_ack, r_abort = right

    # bottom: broadcast emptiness, answer an increment by growing a cell
    # and a new bottom to its right, otherwise restart next instant.
    fresh = _bundle("f")
    grow_bottom = _nu_all(fresh, _spawn_all([
        Call("cell", left + fresh), Call("bottom", fresh)]))
    bottom_body = Watch(l_abort, seq_all([
        Emit(l_zero),
        _present(gen, l_inc,
                 seq_all([Emit(l_ack), Pause(), grow_bottom]),
                 Spawn(Call("bottom", left)))]))

    # cell: two racing listeners, one per direction of traffic.
    cell_body = _spawn_all([
        Watch(l_dec, seq_all([Await(l_inc), Pause(),
                              Spawn(Call("cell_grow", left + right))])),
        Watch(l_inc, seq_all([Await(l_dec), Pause(),
                              Spawn(Call("cell_shrink", left + right))])),
    ])

    # cell_grow: acknowledge and split into two cells around a fresh
    # bundle.
    mid = _bundle("m")
    grow_body = _nu_all(mid, seq_all([
        Emit(l_ack),
        _spawn_all([Call("cell", left + mid), Call("cell", mid + right)])]))

    # cell_shrink: if the right neighbour is the bottom, abort it and
    # become the new bottom; otherwise push the decrement wave further
    # right and wait for its acknowledgement.
    shrink_body = _present(
        gen, r_zero,
        seq_all([Emit(r_abort), Pause(), Emit(l_ack),
                 Spawn(Call("bottom", left))]),
        seq_all([Emit(r_dec), Spawn(Call("cell_restore", left + right))]))

    # cell_restore: the returning wave; acknowledge leftwards and turn
    # back into a plain cell.
    restore_body = seq_all([Await(r_ack), Pause(), Emit(l_ack),
                            Call("cell", left + right)])

    return [
        Definition("bottom", left, bottom_body),
        Definition("cell", left + right, cell_body),
        Definition("cell_grow", left + right, grow_body),
        Definition("cell_shrink", left + right, shrink_body),
        Definition("cell_restore", left + right, restore_body),
    ]


# ---------------------------------------------------------------------------
# control definitions


def _control_name(state):
    return f"ctl_{state}"


def _control_defs(machine, vectors, gen):
    halt_param = "halt_out"
    params = tuple(n for vec in vectors for n in vec) + (halt_param,)
    defs = []
    for q in machine.states:
        if q == machine.halt:
            body = Emit(halt_param)
            defs.append(Definition(_control_name(q), params, body))
            continue
        ins = machine.instrs[q]
        vec = vectors[ins.counter - 1]
        dec, inc, zero, ack, _abort = vec
        if isinstance(ins, (Inc, Dec)):
            op = inc if isinstance(ins, Inc) else dec
            body = seq_all([Emit(op), Await(ack), Pause(),
                            Call(_control_name(ins.next), params)])
        else:
            body = _present(
                gen, zero,
                seq_all([Pause(),
                         Spawn(Call(_control_name(ins.if_zero), params))]),
                Spawn(Call(_control_name(ins.if_nonzero), params)))
        defs.append(Definition(_control_name(q), params, body))
    return defs


def _encode(machine, halt_signal, n_counters):
    machine.validate()
    gen = _canon.name_supply(GENERATED_PREFIX, ()).__next__
    vectors = [_bundle(f"c{k + 1}") for k in range(n_counters)]
    defs = {}
    for d in stack_definitions(gen):
        defs[d.name] = d
    for d in _control_defs(machine, vectors, gen):
        defs[d.name] = d
    flat = tuple(n for vec in vectors for n in vec)
    spawns = [Call(_control_name(machine.init), flat + (halt_signal,))]
    spawns += [Call("bottom", vec) for vec in vectors]
    initial = _nu_all(flat, _spawn_all(spawns))
    return Program((), (halt_signal,), defs, (initial,))


def encode_counter_machine(machine, halt_signal="halt"):
    """Source program simulating a two counter machine; the halt signal
    is emitted when the machine reaches its halt state."""
    return _encode(machine, halt_signal, 2)


def encode_pushdown(machine, halt_signal="halt"):
    """Single stack variant: all instructions must act on counter 1."""
    machine.validate()
    for q, ins in machine.instrs.items():
        if ins.counter != 1:
            raise SLError(f"pushdown encoding is single stack; state {q} "
                          f"uses counter {ins.counter}")
    return _encode(machine, halt_signal, 1)

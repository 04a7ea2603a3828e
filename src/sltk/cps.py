"""Continuation passing translation from the source language to the tail
recursive core.

Each source thread is translated against a pair (t, tau): t is the compiled
continuation, tau the stack of enclosing preemption points as (signal,
continuation) pairs, outermost first. Statements compile to prefix
instructions ahead of t; watch pushes onto tau; pause and await compile to
guards whose branch consults tau in priority order, so the outermost
preemption wins once the instant ends.

Source definitions become families of generated definitions, one per
distinct continuation pair the definition is called against, memoized so
recursive calls close back onto already allocated equations. Each generated
definition takes the source parameters (renamed when they would clash) plus
the signal names free in its continuation pair.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from . import _canon
from .analysis import check_bounded
from .errors import IndexExplosionError
from .semantics import SeqAfter
from .syntax import (
    Await,
    Call,
    Definition,
    Emit,
    New,
    Nil,
    Pause,
    Program,
    Seq,
    Spawn,
    Watch,
    expand_pause_table1,
    substitute,
)
from .tailcore import (
    PAUSE_SIGNAL,
    BIte,
    BLeaf,
    TCall,
    TEmit,
    TNew,
    TNIL,
    TPresent,
    TSpawn,
    pause_prefix,
    print_tail,
    tail_alpha_key,
)

OPTIMIZED = "optimized"
NAIVE = "naive"
DEFAULT_INDEX_LIMIT = 10_000


def _pair_signals(t, tau):
    names = set(_canon.free_signals(t))
    for s, ti in tau:
        names.add(s)
        names |= _canon.free_signals(ti)
    names.discard(PAUSE_SIGNAL)
    return names


def _cascade(tau, last):
    """ite chain trying each preemption point left to right, else `last`."""
    branch = last
    for s, ti in reversed(tau):
        branch = BIte(s, BLeaf(ti), branch)
    return branch


@dataclass
class CpsResult:
    program: Program
    notes: list = field(default_factory=list)


class CpsTranslator:
    def __init__(self, program, pause_mode=OPTIMIZED,
                 index_limit=DEFAULT_INDEX_LIMIT):
        self.program = program
        self.pause_mode = pause_mode
        self.index_limit = index_limit
        self.defs_out = {}
        self.memo = {}
        self.notes = []
        self._id_counters = {}
        self._sig_supply = _canon.name_supply("%n", program.names)
        self._worklist = deque()

    # -- naming ------------------------------------------------------------

    def _fresh_ident(self, base):
        k = self._id_counters.get(base, 0)
        name = f"{base}${k}"
        while name in self.program.defs or name in self.defs_out:
            k += 1
            name = f"{base}${k}"
        self._id_counters[base] = k + 1
        return name

    def _guard_table(self):
        if len(self.defs_out) >= self.index_limit:
            raise IndexExplosionError(self.index_limit,
                                      check_bounded(self.program))

    def _index_key(self, t, tau):
        return (tail_alpha_key(t),
                tuple((s, tail_alpha_key(ti)) for s, ti in tau))

    # -- translation -------------------------------------------------------

    def translate(self, T, t, tau, toplevel=None):
        """Compile source thread T against continuation t and preemption
        stack tau. toplevel, when set to (ident, args), names the equation
        whose body is being built, so a leading await recurses onto it."""
        if isinstance(T, Nil):
            return t
        if isinstance(T, Seq):
            t2 = self.translate(T.rest, t, tau)
            return self.translate(T.first, t2, tau, toplevel)
        if isinstance(T, Emit):
            return TEmit(T.signal, t)
        if isinstance(T, New):
            fresh = next(self._sig_supply)
            body = substitute(T.body, {T.bound: fresh})
            return TNew(fresh, self.translate(body, t, tau))
        if isinstance(T, Spawn):
            return TSpawn(self.translate(T.body, TNIL, ()), t)
        if isinstance(T, Watch):
            return self.translate(T.body, t, tau + ((T.signal, t),), toplevel)
        if isinstance(T, Pause):
            if self.pause_mode == NAIVE:
                expansion = expand_pause_table1(lambda: next(self._sig_supply))
                return self.translate(expansion, t, tau)
            return pause_prefix(_cascade(tau, BLeaf(t)))
        if isinstance(T, Await):
            if toplevel is not None:
                ident, args = toplevel
                self_call = TCall(ident, tuple(args))
                return TPresent(T.signal, t, _cascade(tau, BLeaf(self_call)))
            return self._await_def(T.signal, t, tau)
        if isinstance(T, Call):
            return self._call(T, t, tau)
        raise TypeError(f"not a thread: {T!r}")

    def _await_def(self, signal, t, tau):
        self._guard_table()
        gid = self._fresh_ident("Awt")
        params = tuple(sorted(_pair_signals(t, tau) | {signal}))
        self_call = TCall(gid, params)
        body = TPresent(signal, t, _cascade(tau, BLeaf(self_call)))
        self.defs_out[gid] = Definition(gid, params, body)
        self.notes.append(f"{gid} awaits {signal} with t={print_tail(t)}"
                          f" tau={self._show_tau(tau)}")
        return self_call

    def _call(self, T, t, tau):
        key = (T.ident, self._index_key(t, tau))
        gid = self.memo.get(key)
        extra = tuple(sorted(_pair_signals(t, tau)))
        if gid is None:
            self._guard_table()
            gid = self._fresh_ident(T.ident)
            self.memo[key] = gid
            src = self.program.defs[T.ident]
            taken = set(extra)
            renaming = {}
            params = []
            for x in src.params:
                if x in taken:
                    x2 = next(self._sig_supply)
                    renaming[x] = x2
                    params.append(x2)
                else:
                    params.append(x)
            body_src = substitute(src.body, renaming) if renaming else src.body
            all_params = tuple(params) + extra
            self.defs_out[gid] = None
            self.notes.append(f"{gid} = {T.ident} with t={print_tail(t)}"
                              f" tau={self._show_tau(tau)}")
            self._worklist.append((gid, body_src, t, tau, all_params))
        return TCall(gid, tuple(T.args) + extra)

    def _show_tau(self, tau):
        inside = " ".join(f"({s} {print_tail(ti)})" for s, ti in tau)
        return f"[{inside}]"

    def drain(self):
        while self._worklist:
            gid, body_src, t, tau, all_params = self._worklist.popleft()
            body = self.translate(body_src, t, tau,
                                  toplevel=(gid, all_params))
            self.defs_out[gid] = Definition(gid, all_params, body)

    def translate_context(self, frames, t, tau):
        """Continuation pair seen by the hole of an evaluation context.

        Satisfies translate(plug(frames, T), t, tau) ==
        translate(T, *translate_context(frames, t, tau)).
        """
        for f in frames:
            if isinstance(f, SeqAfter):
                t = self.translate(f.rest, t, tau)
            else:
                tau = tau + ((f.signal, t),)
        return t, tau


def cps_program(program, pause_mode=OPTIMIZED,
                index_limit=DEFAULT_INDEX_LIMIT):
    """Translate a whole program; every initial thread starts on (0, empty)."""
    tr = CpsTranslator(program, pause_mode=pause_mode,
                       index_limit=index_limit)
    initial = []
    for T in program.initial:
        initial.append(tr.translate(T, TNIL, ()))
        tr.drain()
    return CpsResult(Program(tuple(program.inputs), tuple(program.outputs),
                             dict(tr.defs_out), tuple(initial)), tr.notes)

"""The tail recursive core language: its term grammar, its runner and its
reactivity check.

A tail program is a `syntax.Program` whose threads are `Tail` terms. The
program record with its facts, the declaration reader and the program
printer are the ones of the source language in `syntax`; this module adds
the term grammar that reads and prints the bodies and initial threads.

Threads here never sequence arbitrary statements. Each constructor carries
its continuation directly (prefix form), recursion happens only through
identifier calls in tail position, and the only branching point is
`present`, whose else branch runs at the end of the instant as a
conditional tree over the signals that were emitted.

Concrete syntax mirrors the source language:

    program   := decl*
    decl      := (input name*) | (output name*)
               | (def (ident param*) texpr) | (run texpr)
    texpr     := 0
               | (emit! sig texpr)
               | (new sig texpr)
               | (thread! texpr texpr)     ; spawned thread, then continuation
               | (present sig texpr branch)
               | (call ident sig*)
    branch    := texpr | (ite sig branch branch)

A line whose first non-blank character is `#` is a comment, as is the rest
of a line after `;`; the printer writes compilation notes that way.

`pause` is a library constructor over this grammar, `pause_prefix`, not an
AST node. It guards on the reserved signal `%pause`, which no program may
emit, so the guard suspends every instant and the branch picks the
continuation; this avoids wrapping a generator around every pause and
keeps images of the translation free of `new`. `await` has no constructor
here: the translation in `cps` builds each one as a recursive guard.
"""

from __future__ import annotations

import random

from . import _canon
from ._canon import BIND, KEEP, SIG, SIGS, SUB
from .analysis import Accept, Reject, _find_cycle
from .errors import (
    ArityMismatchError,
    FuelExhaustedError,
    NotSuspendedError,
    ParseError,
    UnboundIdentifierError,
)
from .semantics import (
    DEFAULT_FUEL,
    DETERMINISTIC,
    NEXT_INSTANT,
    Blocked,
    CallBodies,
    Env,
    InstantResult,
    _Carried,
    _checked_inputs,
    _show,
    _trace,
    check_policy,
    run_threads,
)
from .syntax import (
    Definition,
    Program,
    SList,
    _at,
    _atom,
    _print_program,
    _read_declarations,
    _read_forms,
    _scan,
)

PAUSE_SIGNAL = "%pause"


class Tail(_canon.Term):
    __slots__ = ("_text",)  # kept by `print_tail`; not a field


class TNil(Tail):
    __slots__ = ()
    SHAPE = ()


class TEmit(Tail):
    __slots__ = ("signal", "next")
    SHAPE = (SIG, SUB)


class TNew(Tail):
    __slots__ = ("bound", "body")
    SHAPE = (BIND, SUB)


class TSpawn(Tail):
    __slots__ = ("spawned", "next")
    SHAPE = (SUB, SUB)


class TPresent(Tail):
    __slots__ = ("signal", "then", "branch")
    SHAPE = (SIG, SUB, SUB)


class TCall(Tail):
    __slots__ = ("ident", "args")
    SHAPE = (KEEP, SIGS)


class Branch(_canon.Term):
    __slots__ = ()


class BLeaf(Branch):
    __slots__ = ("tail",)
    SHAPE = (SUB,)


class BIte(Branch):
    __slots__ = ("signal", "then", "other")
    SHAPE = (SIG, SUB, SUB)


TNIL = TNil()


def pause_prefix(branch):
    """pause.b: suspend for exactly one instant, then run the branch."""
    return TPresent(PAUSE_SIGNAL, TNIL, branch)


def tail_substitute(t, mapping):
    """Capture-avoiding signal substitution."""
    return _canon.substitute(t, mapping)


# ---------------------------------------------------------------------------
# printing


def print_tail(t):
    """The printed form of a tail thread. The first call renders the node
    (its subterms through `print_tail`) and keeps the text in its `_text`
    slot, through the slot descriptor as `_canon` writes fields; ==, hash,
    repr, copy and pickle ignore it. A `Branch` keeps no text of its own."""
    try:
        return t._text
    except AttributeError:
        pass
    if isinstance(t, TNil):
        text = "0"
    elif isinstance(t, TEmit):
        text = f"(emit! {t.signal} {print_tail(t.next)})"
    elif isinstance(t, TNew):
        text = f"(new {t.bound} {print_tail(t.body)})"
    elif isinstance(t, TSpawn):
        text = f"(thread! {print_tail(t.spawned)} {print_tail(t.next)})"
    elif isinstance(t, TPresent):
        text = (f"(present {t.signal} {print_tail(t.then)}"
                f" {print_branch(t.branch)})")
    elif isinstance(t, TCall):
        text = "(call " + " ".join((t.ident,) + t.args) + ")"
    else:
        raise TypeError(f"not a tail thread: {t!r}")
    _set_text(t, text)
    return text


_set_text = Tail._text.__set__


def print_branch(b):
    if isinstance(b, BLeaf):
        return print_tail(b.tail)
    return f"(ite {b.signal} {print_branch(b.then)} {print_branch(b.other)})"


def print_tail_program(p, index_notes=None):
    return _print_program(p, print_tail,
                          [f"#index {note}" for note in index_notes or ()])


# ---------------------------------------------------------------------------
# parsing


class TailForms(SList):
    """A list read from a tail text, where a `#` that is the first non-blank
    character of a line starts a comment to its end: a compilation note."""

    __slots__ = ()
    LEAD, TOKEN = _scan(r"(?m:^[ \t\r]*#[^\n]*)|[ \t\r]+|\n")


def _check_signal(form, index, scope):
    name = _atom(form, index, "signal")
    if name in scope or name.startswith("%"):
        return name
    raise ParseError(f"signal not in scope: {name}", *_at(form, index))


def _parse_tail(parent, index, scope, def_arities):
    """The tail thread at item index of parent."""
    form = parent[index]
    if isinstance(form, str):
        if form == "0":
            return TNIL
        raise ParseError(f"expected a tail thread, got {form!r}",
                         *_at(parent, index))
    if not form:
        raise ParseError("empty form", *_at(form))
    head = _atom(form, 0, "keyword")
    n = len(form) - 1
    if head == "emit!":
        if n != 2:
            raise ParseError("emit! takes a signal and a continuation",
                             *_at(form))
        s = _check_signal(form, 1, scope)
        if s == PAUSE_SIGNAL:
            raise ParseError(f"{PAUSE_SIGNAL} is reserved and never emitted",
                             *_at(form, 1))
        return TEmit(s, _parse_tail(form, 2, scope, def_arities))
    if head == "new":
        if n != 2:
            raise ParseError("new takes a signal and a body", *_at(form))
        s = _atom(form, 1, "signal")
        if s == PAUSE_SIGNAL:
            raise ParseError(f"cannot bind {PAUSE_SIGNAL}", *_at(form, 1))
        return TNew(s, _parse_tail(form, 2, scope | {s}, def_arities))
    if head == "thread!":
        if n != 2:
            raise ParseError("thread! takes a spawned thread and a "
                             "continuation", *_at(form))
        return TSpawn(_parse_tail(form, 1, scope, def_arities),
                      _parse_tail(form, 2, scope, def_arities))
    if head == "present":
        if n != 3:
            raise ParseError("present takes a signal, a thread and a branch",
                             *_at(form))
        s = _check_signal(form, 1, scope)
        return TPresent(s, _parse_tail(form, 2, scope, def_arities),
                        _parse_branch(form, 3, scope, def_arities))
    if head == "call":
        if not n:
            raise ParseError("call needs an identifier", *_at(form))
        ident = _atom(form, 1, "identifier")
        if ident not in def_arities:
            raise UnboundIdentifierError(
                "%d:%d: no definition for %s" % (*_at(form, 1), ident))
        args = tuple(_check_signal(form, k, scope) for k in range(2, n + 1))
        if len(args) != def_arities[ident]:
            raise ArityMismatchError("%d:%d: %s takes %d signals, got %d" % (
                *_at(form, 1), ident, def_arities[ident], len(args)))
        return TCall(ident, args)
    raise ParseError(f"unknown tail form: {head}", *_at(form))


def _parse_branch(parent, index, scope, def_arities):
    form = parent[index]
    if not isinstance(form, str) and form and form[0] == "ite":
        if len(form) != 4:
            raise ParseError("ite takes a signal and two branches",
                             *_at(form))
        s = _check_signal(form, 1, scope)
        return BIte(s, _parse_branch(form, 2, scope, def_arities),
                    _parse_branch(form, 3, scope, def_arities))
    return BLeaf(_parse_tail(parent, index, scope, def_arities))


def parse_tail_program(text):
    inputs, outputs, headers, runs = _read_declarations(
        _read_forms(text, TailForms), _atom)
    interface = set(inputs) | set(outputs)
    arities = {name: len(params) for name, (params, _) in headers.items()}
    defs = {name: Definition(name, params,
                             _parse_tail(*body, set(params) | interface,
                                         arities))
            for name, (params, body) in headers.items()}
    initial = tuple(_parse_tail(*run, interface, arities) for run in runs)
    return Program(inputs, outputs, defs, initial)


# ---------------------------------------------------------------------------
# execution


def try_step_tail(t, env, unfold):
    """One reduction at the root; returns (t', spawned), or the Blocked
    value that keeps t from moving now. `unfold(ident, args)` gives a
    call's body."""
    if isinstance(t, TNil):
        return NEXT_INSTANT
    if isinstance(t, TEmit):
        env.emit(t.signal)
        return t.next, []
    if isinstance(t, TNew):
        g = env.fresh()
        return tail_substitute(t.body, {t.bound: g}), []
    if isinstance(t, TCall):
        return unfold(t.ident, t.args), []
    if isinstance(t, TSpawn):
        return t.next, [t.spawned]
    if isinstance(t, TPresent):
        if env.present(t.signal):
            return t.then, []
        return Blocked(t.signal)
    raise TypeError(f"not a tail thread: {t!r}")


def can_step_tail(t, env, unfold):
    """True, or the Blocked value of a suspended tail thread: a guard waits
    on its signal (%pause when paused), a terminated thread for the next
    instant."""
    if isinstance(t, TNil):
        return NEXT_INSTANT
    if isinstance(t, TPresent) and not env.present(t.signal):
        return Blocked(t.signal)
    return True


def select_branch(b, present):
    """Evaluate a conditional tree by the instant's final emissions, given
    as a predicate on signals."""
    while isinstance(b, BIte):
        b = b.then if present(b.signal) else b.other
    return b.tail


def end_of_instant_tail(threads, env):
    out = []
    for t in threads:
        if isinstance(t, TNil):
            out.append(t)
        elif isinstance(t, TPresent) and not env.present(t.signal):
            out.append(select_branch(t.branch, env.present))
        else:
            raise NotSuspendedError(print_tail(t))
    return tuple(out)


class TailRunner(_Carried):
    """Instant-by-instant execution of a tail program, through the same
    `run_threads` driver as `Runner`, and like it with one `Env`, one
    `CallBodies` and one `Parking` for the whole run, and its threads kept
    by key from instant to instant.

    The CPS image of a waiting thread is a guard whose branch calls it
    again, as in `(present s P (ite w Q (call L s w)))`: while s and w stay
    absent it floors to a call that unfolds back to the same guard. Under
    the deterministic policy such a guard stays parked across instants,
    filed under its signal, with the signals its branch tests as its
    watches. The residual shows its call. Each instant counts its re-entry
    as a step, charged against fuel before anything runs, without taking
    it: the unfold neither emits nor generates a name, so skipping it
    changes no later choice of that policy. The guard wakes when its signal
    is emitted, and floors as any other guard when a signal its branch
    tests is. Under the random policy every step is a draw, so no guard
    stays parked there. An instant thus probes, floors and shows again only
    the threads that run or wake in it. The residual omits terminated
    threads. The state carried between instants is `_Carried`'s, so a
    residual assigned as `threads` runs every call again.
    """

    _keep = staticmethod(lambda t: t)

    def __init__(self, program, policy=DETERMINISTIC, seed=0,
                 fuel=DEFAULT_FUEL):
        self.program = program
        self.policy = check_policy(policy)
        self.rng = random.Random(seed)
        self.fuel = fuel
        self._loops = (program.fact(self_loops) if policy == DETERMINISTIC
                       else {})
        self._gen_counter = program.next_gen_index
        self.threads = program.initial
        self.env = Env(program.env_domain | {PAUSE_SIGNAL}, self._gen_counter)
        self.unfold = CallBodies(program.defs,
                                 lambda body, m: tail_substitute(body, m))

    def run_instant(self, inputs=frozenset()):
        env, unfold, threads = self.env, self.unfold, self._threads
        parking = self._parking
        env.begin(_checked_inputs(self.program, inputs))
        env.counter = self._gen_counter
        # each guard parked across the boundary re-enters by one call
        reentries = len(parking.blocked)
        try:
            if reentries > self.fuel:
                raise FuelExhaustedError(self.fuel)
            steps, stopped = run_threads(
                threads, self._ready, parking, self.policy, self.rng,
                self.fuel - reentries, try_step_tail, can_step_tail, env,
                unfold)
            changes = self._end_of_instant(stopped, env.present,
                                           parking.unwatch(env.emitted))
        except FuelExhaustedError:
            # the re-entries were charged first: the instant ran out at
            # the runner's fuel
            self.threads = self._residual
            raise FuelExhaustedError(self.fuel) from None
        except BaseException:
            self.threads = self._residual
            raise
        self._gen_counter = env.counter
        unfold.end_instant()
        self._residual = _show(self._shown, changes)
        return InstantResult(
            frozenset(s for s in self.program.outputs if env.defined[s]),
            self._residual, steps + reentries)

    def _end_of_instant(self, stopped, present, floored):
        """Floor the threads that ended the instant: drop the terminated
        ones (`stopped`), floor the guards in `floored`, and of the guards
        parked in the instant keep parked those that `_loop` finds calling
        themselves back and floor the others. Returns the changes to the
        residual, a thread or None by key."""
        threads, parking = self._threads, self._parking
        changes = dict.fromkeys(stopped)
        for key in stopped:
            del threads[key]
        dropped = []
        for key in dict.fromkeys(parking.parked):
            if key not in parking.blocked:
                continue  # woken later in the instant
            g = threads[key]
            loop = self._loop(g, present)
            if loop is None:
                dropped.append(key)
            else:
                changes[key], watches = loop
                parking.park(key, Blocked(g.signal, watches))
        parking.parked.clear()
        parking.take(dropped)
        floored += dropped
        self._ready = []
        for key in floored:
            t = select_branch(threads[key].branch, present)
            if t.__class__ is TNil:
                del threads[key]
                changes[key] = None
            else:
                threads[key] = changes[key] = t
                self._ready.append(key)
        return changes

    def _loop(self, g, present):
        """(call, watches) when guard g floors to a call that unfolds back
        to g, and so can stay parked: `watches` are the signals its branch
        tests on the way to that call, all absent now. Else None, and
        always None when the policy keeps no guard parked."""
        if not self._loops:
            return None
        b = g.branch
        watches = []
        while b.__class__ is BIte:
            if present(b.signal):
                return None
            watches.append(b.signal)
            b = b.other
        call = b.tail
        if (call.__class__ is not TCall
                or self._loops.get(call.ident) != len(call.args)):
            return None
        body = self.unfold(call.ident, call.args)
        if body is g or body == g:
            return call, tuple(watches)
        return None


def self_loops(program):
    """The definitions of a tail program that can re-enter themselves, each
    mapped to its number of parameters, kept on the program
    (`Program.fact`): those whose body is a guard that floors, with every
    signal its branch tests absent, to a call of the definition on its own
    parameters."""
    out = {}
    for name, d in program.defs.items():
        if isinstance(d.body, TPresent):
            t = select_branch(d.body.branch, lambda s: False)
            if isinstance(t, TCall) and t.ident == name and t.args == d.params:
                out[name] = len(d.params)
    return out


def run_trace_tail(program, input_sets, policy=DETERMINISTIC, seed=0,
                   fuel=DEFAULT_FUEL):
    return _trace(TailRunner(program, policy=policy, seed=seed, fuel=fuel),
                  input_sets)


# ---------------------------------------------------------------------------
# canonical forms


def canonicalize_tail(threads, interface):
    canonical, _ = _canon.canonical_multiset(list(threads), interface,
                                             print_tail)
    return canonical


def tail_alpha_key(t):
    """A string identifying t up to renaming of bound signals."""
    supply = _canon.name_supply("%k", set())
    return print_tail(_canon.freshen_apart(t, supply))


# ---------------------------------------------------------------------------
# reactivity for tail programs

def tail_calls(t, acc, branches=False):
    """Add the identifiers t calls to acc and return acc. Without
    `branches`, only those reachable without crossing an instant boundary."""
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, TCall):
            acc.add(t.ident)
        elif isinstance(t, TPresent) and not branches:
            stack.append(t.then)
        else:
            stack += [getattr(t, name) for name, kind in
                      _canon._FIELDS[t.__class__] if kind is SUB]
    return acc


def instant_calls(program):
    """Each definition of a tail program mapped to the identifiers it calls
    within an instant, kept on the program (`Program.fact`)."""
    return {name: tail_calls(d.body, set())
            for name, d in program.defs.items()}


def calls_cyclic(program):
    """Whether the calls of a tail program's definitions, in branches too,
    close a cycle, kept on the program (`Program.fact`)."""
    return _find_cycle({name: tail_calls(d.body, set(), branches=True)
                        for name, d in program.defs.items()}) is not None


def check_reactivity_tail(program):
    """Accept when no within-instant call chain can revisit an identifier.

    Branches of present run only after the instant ends, so they never
    contribute; everything else may unfold in the same instant.
    """
    cycle = _find_cycle(program.fact(instant_calls))
    if cycle:
        return Reject(tuple(cycle))
    return Accept()

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
    Parking,
    _checked_inputs,
    _trace,
    check_policy,
    run_threads,
)
from .syntax import (
    Definition,
    Program,
    SAtom,
    SList,
    _atom,
    _print_program,
    _read_declarations,
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


def _check_signal(name, form, scope):
    if name.startswith("%"):
        return name
    if name not in scope:
        raise ParseError(f"signal not in scope: {name}", form.line, form.col)
    return name


def _parse_tail(form, scope, def_arities):
    if isinstance(form, SAtom):
        if form.value == "0":
            return TNIL
        raise ParseError(f"expected a tail thread, got {form.value!r}",
                         form.line, form.col)
    if not form.items:
        raise ParseError("empty form", form.line, form.col)
    head = _atom(form.items[0], "keyword")
    rest = form.items[1:]
    if head == "emit!":
        if len(rest) != 2:
            raise ParseError("emit! takes a signal and a continuation",
                             form.line, form.col)
        s = _check_signal(_atom(rest[0], "signal"), rest[0], scope)
        if s == PAUSE_SIGNAL:
            raise ParseError(f"{PAUSE_SIGNAL} is reserved and never emitted",
                             rest[0].line, rest[0].col)
        return TEmit(s, _parse_tail(rest[1], scope, def_arities))
    if head == "new":
        if len(rest) != 2:
            raise ParseError("new takes a signal and a body",
                             form.line, form.col)
        s = _atom(rest[0], "signal")
        if s == PAUSE_SIGNAL:
            raise ParseError(f"cannot bind {PAUSE_SIGNAL}",
                             rest[0].line, rest[0].col)
        return TNew(s, _parse_tail(rest[1], scope | {s}, def_arities))
    if head == "thread!":
        if len(rest) != 2:
            raise ParseError("thread! takes a spawned thread and a "
                             "continuation", form.line, form.col)
        return TSpawn(_parse_tail(rest[0], scope, def_arities),
                      _parse_tail(rest[1], scope, def_arities))
    if head == "present":
        if len(rest) != 3:
            raise ParseError("present takes a signal, a thread and a branch",
                             form.line, form.col)
        s = _check_signal(_atom(rest[0], "signal"), rest[0], scope)
        return TPresent(s, _parse_tail(rest[1], scope, def_arities),
                        _parse_branch(rest[2], scope, def_arities))
    if head == "call":
        if not rest:
            raise ParseError("call needs an identifier", form.line, form.col)
        ident = _atom(rest[0], "identifier")
        at = f"{rest[0].line}:{rest[0].col}"
        if ident not in def_arities:
            raise UnboundIdentifierError(f"{at}: no definition for {ident}")
        args = tuple(_check_signal(_atom(a, "signal"), a, scope)
                     for a in rest[1:])
        if len(args) != def_arities[ident]:
            raise ArityMismatchError(
                f"{at}: {ident} takes {def_arities[ident]} signals, "
                f"got {len(args)}")
        return TCall(ident, args)
    raise ParseError(f"unknown tail form: {head}", form.line, form.col)


def _parse_branch(form, scope, def_arities):
    if isinstance(form, SList) and form.items and \
            isinstance(form.items[0], SAtom) and form.items[0].value == "ite":
        if len(form.items) != 4:
            raise ParseError("ite takes a signal and two branches",
                             form.line, form.col)
        s = _check_signal(_atom(form.items[1], "signal"), form.items[1], scope)
        return BIte(s, _parse_branch(form.items[2], scope, def_arities),
                    _parse_branch(form.items[3], scope, def_arities))
    return BLeaf(_parse_tail(form, scope, def_arities))


def parse_tail_program(text):
    # lines starting with # carry compilation notes; they are comments here
    text = "\n".join("" if line.lstrip().startswith("#") else line
                     for line in text.splitlines())
    inputs, outputs, headers, runs = _read_declarations(text, _atom)
    interface = set(inputs) | set(outputs)
    arities = {name: len(params) for name, (params, _) in headers.items()}
    defs = {name: Definition(name, params,
                             _parse_tail(body, set(params) | interface,
                                         arities))
            for name, (params, body) in headers.items()}
    initial = tuple(_parse_tail(f, interface, arities) for f in runs)
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


class TailRunner:
    """Instant-by-instant execution of a tail program, through the same
    `run_threads` driver as `Runner`, and like it with one `Env` and one
    `CallBodies` for the whole run. A waiting guard re-enters its loop
    through a call at every instant, so no thread stays parked across
    instants: every instant probes and floors every thread. The memo gives
    a guard the body it had the instant before. The residual omits
    terminated threads."""

    def __init__(self, program, policy=DETERMINISTIC, seed=0,
                 fuel=DEFAULT_FUEL):
        self.program = program
        self.policy = check_policy(policy)
        self.rng = random.Random(seed)
        self.fuel = fuel
        self.gen_counter = program.next_gen_index
        self.threads = list(program.initial)
        self.env = Env(program.env_domain | {PAUSE_SIGNAL}, self.gen_counter)
        self.unfold = CallBodies(program.defs,
                                 lambda body, m: tail_substitute(body, m))

    def run_instant(self, inputs=frozenset()):
        env, unfold = self.env, self.unfold
        env.begin(_checked_inputs(self.program, inputs))
        env.counter = self.gen_counter
        threads = dict(enumerate(self.threads))
        steps, _ = run_threads(
            threads, list(threads), Parking(), self.policy, self.rng,
            self.fuel, lambda t: try_step_tail(t, env, unfold),
            lambda t: can_step_tail(t, env, unfold), env)
        self.gen_counter = env.counter
        outputs = frozenset(s for s in self.program.outputs
                            if env.defined[s])
        residual = tuple(t for t in end_of_instant_tail(threads.values(), env)
                         if not isinstance(t, TNil))
        unfold.end_instant()
        self.threads = list(residual)
        return InstantResult(outputs, residual, steps)


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

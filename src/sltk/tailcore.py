"""The tail recursive core language.

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

`pause` and `await` are library constructors over this grammar, not AST
nodes. The pause constructor guards on the reserved signal `%pause`, which
no program may emit, so the guard suspends every instant and the branch
picks the continuation; this avoids wrapping a generator around every
pause and keeps images of the translation free of `new`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import _canon
from ._canon import BIND, KEEP, SIG, SIGS, SUB
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
    CallBodies,
    Env,
    InstantResult,
    _checked_inputs,
    _env_domain,
    run_threads,
)
from .syntax import (
    GENERATED_PREFIX,
    SAtom,
    SList,
    _read_forms,
)

PAUSE_SIGNAL = "%pause"


class Tail:
    __slots__ = ()


@dataclass(frozen=True)
class TNil(Tail):
    __slots__ = ()
    SHAPE = ()

    def __repr__(self):
        return "TNil()"


@dataclass(frozen=True)
class TEmit(Tail):
    SHAPE = (SIG, SUB)
    signal: str
    next: Tail


@dataclass(frozen=True)
class TNew(Tail):
    SHAPE = (BIND, SUB)
    bound: str
    body: Tail


@dataclass(frozen=True)
class TSpawn(Tail):
    SHAPE = (SUB, SUB)
    spawned: Tail
    next: Tail


@dataclass(frozen=True)
class TPresent(Tail):
    SHAPE = (SIG, SUB, SUB)
    signal: str
    then: Tail
    branch: "Branch"


@dataclass(frozen=True)
class TCall(Tail):
    SHAPE = (KEEP, SIGS)
    ident: str
    args: tuple


class Branch:
    __slots__ = ()


@dataclass(frozen=True)
class BLeaf(Branch):
    SHAPE = (SUB,)
    tail: Tail


@dataclass(frozen=True)
class BIte(Branch):
    SHAPE = (SIG, SUB, SUB)
    signal: str
    then: Branch
    other: Branch


TNIL = TNil()


def pause_prefix(branch):
    """pause.b: suspend for exactly one instant, then run the branch."""
    return TPresent(PAUSE_SIGNAL, TNIL, branch)


def await_prefix(signal, cont, fresh_ident, define):
    """await s.t: a recursive guard that waits for s across instants.

    Emits one definition through `define(name, params, body)` and returns
    the call that enters it.
    """
    params = tuple(sorted((_canon.free_signals(cont) | {signal})
                          - {PAUSE_SIGNAL}))
    name = fresh_ident()
    body = TPresent(signal, cont, BLeaf(TCall(name, params)))
    define(name, params, body)
    return TCall(name, params)


def tail_substitute(t, mapping):
    """Capture-avoiding signal substitution."""
    return _canon.substitute(t, mapping)


# ---------------------------------------------------------------------------
# printing


def print_tail(t):
    if isinstance(t, TNil):
        return "0"
    if isinstance(t, TEmit):
        return f"(emit! {t.signal} {print_tail(t.next)})"
    if isinstance(t, TNew):
        return f"(new {t.bound} {print_tail(t.body)})"
    if isinstance(t, TSpawn):
        return f"(thread! {print_tail(t.spawned)} {print_tail(t.next)})"
    if isinstance(t, TPresent):
        return (f"(present {t.signal} {print_tail(t.then)}"
                f" {print_branch(t.branch)})")
    if isinstance(t, TCall):
        return "(call " + " ".join((t.ident,) + t.args) + ")"
    raise TypeError(f"not a tail thread: {t!r}")


def print_branch(b):
    if isinstance(b, BLeaf):
        return print_tail(b.tail)
    return f"(ite {b.signal} {print_branch(b.then)} {print_branch(b.other)})"


@dataclass(frozen=True)
class TailDef:
    name: str
    params: tuple
    body: Tail


@dataclass
class TailProgram:
    inputs: tuple
    outputs: tuple
    defs: dict
    initial: tuple

    @property
    def interface(self):
        return frozenset(self.inputs) | frozenset(self.outputs)

    def all_tails(self):
        for d in self.defs.values():
            yield d.body
        yield from self.initial


def print_tail_program(p, index_notes=None):
    lines = []
    lines.append("(input" + "".join(" " + s for s in p.inputs) + ")")
    lines.append("(output" + "".join(" " + s for s in p.outputs) + ")")
    if index_notes:
        for note in index_notes:
            lines.append(f"#index {note}")
    for d in p.defs.values():
        head = " ".join((d.name,) + d.params)
        lines.append(f"(def ({head}) {print_tail(d.body)})")
    for t in p.initial:
        lines.append(f"(run {print_tail(t)})")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# parsing

_KEYWORDS = {"0", "emit!", "new", "thread!", "present", "ite", "call"}


def _atom(form, what):
    if not isinstance(form, SAtom):
        raise ParseError(f"expected {what}", form.line, form.col)
    return form.value


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
        if ident not in def_arities:
            raise UnboundIdentifierError(ident)
        args = tuple(_check_signal(_atom(a, "signal"), a, scope)
                     for a in rest[1:])
        if len(args) != def_arities[ident]:
            raise ArityMismatchError(
                f"{ident} takes {def_arities[ident]} arguments, "
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
    forms = _read_forms(text)
    inputs = []
    outputs = []
    def_forms = []
    run_forms = []
    for form in forms:
        if not isinstance(form, SList) or not form.items or \
                not isinstance(form.items[0], SAtom):
            raise ParseError("expected a declaration", form.line, form.col)
        head = form.items[0].value
        if head == "input":
            inputs.extend(_atom(f, "signal") for f in form.items[1:])
        elif head == "output":
            outputs.extend(_atom(f, "signal") for f in form.items[1:])
        elif head == "def":
            def_forms.append(form)
        elif head == "run":
            run_forms.append(form)
        else:
            raise ParseError(f"unknown declaration: {head}",
                             form.line, form.col)
    interface = set(inputs) | set(outputs)
    def_arities = {}
    headers = []
    for form in def_forms:
        if len(form.items) != 3 or not isinstance(form.items[1], SList) \
                or not form.items[1].items:
            raise ParseError("def takes a header and a body",
                             form.line, form.col)
        header = form.items[1]
        name = _atom(header.items[0], "identifier")
        params = tuple(_atom(f, "signal") for f in header.items[1:])
        if name in def_arities:
            raise ParseError(f"duplicate definition: {name}",
                             header.line, header.col)
        def_arities[name] = len(params)
        headers.append((name, params, form.items[2]))
    defs = {}
    initial = []
    for name, params, body_form in headers:
        scope = set(params) | interface
        defs[name] = TailDef(name, params,
                             _parse_tail(body_form, scope, def_arities))
    for form in run_forms:
        if len(form.items) != 2:
            raise ParseError("run takes one thread", form.line, form.col)
        initial.append(_parse_tail(form.items[1], interface, def_arities))
    if not initial:
        raise ParseError("program has no (run ...) threads", 0, 0)
    return TailProgram(tuple(inputs), tuple(outputs), defs, tuple(initial))


# ---------------------------------------------------------------------------
# execution


def try_step_tail(t, env, unfold):
    """One reduction at the root; returns (t', spawned) or None.
    `unfold(ident, args)` gives a call's body."""
    if isinstance(t, TNil):
        return None
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
        return None
    raise TypeError(f"not a tail thread: {t!r}")


def can_step_tail(t, env, unfold):
    if isinstance(t, TNil):
        return False
    if isinstance(t, TPresent):
        return env.present(t.signal)
    return True


def waits_on_tail(t):
    """The signal a suspended tail thread tests (%pause when paused), or
    None when it is terminated."""
    return t.signal if isinstance(t, TPresent) else None


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


def tail_next_gen_index(p):
    best = 0
    names = set(p.interface)
    for t in p.all_tails():
        names.update(_canon.occurrences(t))
    for d in p.defs.values():
        names.update(d.params)
    for name in names:
        if name.startswith(GENERATED_PREFIX):
            digits = name[len(GENERATED_PREFIX):]
            if digits.isdigit():
                best = max(best, int(digits) + 1)
    return best


class TailRunner:
    """Instant-by-instant execution of a tail program, through the same
    `run_threads` driver as `Runner`, and like it with one `Env` and one
    `CallBodies` for the whole run. A waiting guard re-enters its loop
    through a call at every instant; the memo gives it the body it had the
    instant before. The residual omits terminated threads."""

    def __init__(self, program, policy=DETERMINISTIC, seed=0,
                 fuel=DEFAULT_FUEL):
        self.program = program
        self.policy = policy
        self.rng = random.Random(seed)
        self.fuel = fuel
        self.gen_counter = tail_next_gen_index(program)
        self.threads = list(program.initial)
        self.env = Env(_env_domain(program, program.initial)
                       | {PAUSE_SIGNAL}, self.gen_counter)
        self.unfold = CallBodies(program.defs,
                                 lambda body, m: tail_substitute(body, m))

    def run_instant(self, inputs=frozenset()):
        env, unfold = self.env, self.unfold
        env.begin(_checked_inputs(self.program, inputs))
        env.counter = self.gen_counter
        threads, steps = run_threads(
            self.threads, self.policy, self.rng, self.fuel,
            lambda t: try_step_tail(t, env, unfold),
            lambda t: can_step_tail(t, env, unfold),
            waits_on_tail, env)
        self.gen_counter = env.counter
        outputs = frozenset(s for s in self.program.outputs
                            if env.defined[s])
        residual = tuple(t for t in end_of_instant_tail(threads, env)
                         if not isinstance(t, TNil))
        unfold.end_instant()
        self.threads = list(residual)
        return InstantResult(outputs, residual, steps)


def run_trace_tail(program, input_sets, policy=DETERMINISTIC, seed=0,
                   fuel=DEFAULT_FUEL):
    runner = TailRunner(program, policy=policy, seed=seed, fuel=fuel)
    trace = []
    for k, inputs in enumerate(input_sets):
        try:
            res = runner.run_instant(inputs)
        except FuelExhaustedError as e:
            e.instant = k
            raise
        trace.append((frozenset(inputs), res.outputs))
    return trace


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

from .analysis import Accept, Reject, _find_cycle  # noqa: E402


def tail_calls(t, acc, branches=False):
    """Identifiers t calls. Without `branches`, only those reachable
    without crossing an instant boundary."""
    if isinstance(t, TEmit):
        tail_calls(t.next, acc, branches)
    elif isinstance(t, TNew):
        tail_calls(t.body, acc, branches)
    elif isinstance(t, TSpawn):
        tail_calls(t.spawned, acc, branches)
        tail_calls(t.next, acc, branches)
    elif isinstance(t, TPresent):
        tail_calls(t.then, acc, branches)
        if branches:
            _branch_calls(t.branch, acc)
    elif isinstance(t, TCall):
        acc.add(t.ident)


def _branch_calls(b, acc):
    if isinstance(b, BLeaf):
        tail_calls(b.tail, acc, True)
    else:
        _branch_calls(b.then, acc)
        _branch_calls(b.other, acc)


def check_reactivity_tail(program):
    """Accept when no within-instant call chain can revisit an identifier.

    Branches of present run only after the instant ends, so they never
    contribute; everything else may unfold in the same instant.
    """
    edges = {}
    for name, d in program.defs.items():
        acc = set()
        tail_calls(d.body, acc)
        edges[name] = acc
    roots = set()
    for t in program.initial:
        tail_calls(t, roots)
    for r in roots - set(edges):
        edges[r] = set()
    cycle = _find_cycle(edges)
    if cycle:
        return Reject(tuple(cycle))
    return Accept()

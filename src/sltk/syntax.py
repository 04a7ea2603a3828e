"""Source language: syntax trees, parser, printer, desugaring, canonical forms.

The program record with its facts, the declaration reader and the program
printer serve the tail core too. Concrete syntax is s-expressions, one
declaration per top-level form:

    (input a b)
    (output o)
    (def (A x) (seq (emit x) (call A x)))
    (run (call A a))

Threads use the core keywords seq, emit, new, thread, await, watch, call and
pause, plus the derived forms loop, now, present and par which the parser
expands into the core constructors. Comments run from ; to end of line.

Names starting with % are reserved for generated signals (%gN from the fresh
counter). Sequential composition associates to the right; the smart
constructor seq_of maintains that invariant everywhere trees are rebuilt.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from types import MappingProxyType

from . import _canon
from ._canon import BIND, KEEP, SIG, SIGS, SUB
from .errors import (
    ArityMismatchError,
    ParseError,
    UnboundIdentifierError,
    UndeclaredSignalError,
)

GENERATED_PREFIX = "%g"


class Thread(_canon.Term):
    """Base class for source thread expressions."""

    __slots__ = ()


class Nil(Thread):
    __slots__ = ()
    SHAPE = ()


class Seq(Thread):
    """T1;T2. Invariant: first is never itself a Seq (right association)."""

    __slots__ = ("first", "rest")
    SHAPE = (SUB, SUB)


class Emit(Thread):
    __slots__ = ("signal",)
    SHAPE = (SIG,)


class New(Thread):
    """Signal generation: nu s T."""

    __slots__ = ("bound", "body")
    SHAPE = (BIND, SUB)


class Spawn(Thread):
    """thread T: run T as a separate thread of the program."""

    __slots__ = ("body",)
    SHAPE = (SUB,)


class Await(Thread):
    __slots__ = ("signal",)
    SHAPE = (SIG,)


class Watch(Thread):
    """watch s T: abort the residual of T if s is present at instant end."""

    __slots__ = ("signal", "body")
    SHAPE = (SIG, SUB)


class Call(Thread, defaults=((),)):
    __slots__ = ("ident", "args")
    SHAPE = (KEEP, SIGS)


class Pause(Thread):
    __slots__ = ()
    SHAPE = ()


NIL = Nil()
PAUSE = Pause()


def seq_of(first, rest):
    """Sequential composition keeping the right-association invariant."""
    while isinstance(first, Seq):
        rest = Seq(first.rest, rest) if not isinstance(first.rest, Seq) \
            else seq_of(first.rest, rest)
        first = first.first
    return Seq(first, rest)


def seq_all(threads):
    """Right-nested sequence of a non-empty list of threads."""
    acc = threads[-1]
    for t in reversed(threads[:-1]):
        acc = seq_of(t, acc)
    return acc


def substitute(t, sub):
    """Capture-avoiding substitution of signal names for free signal names."""
    return _canon.substitute(t, sub)


# ---------------------------------------------------------------------------
# printing


def print_thread(t):
    if isinstance(t, Nil):
        return "0"
    if isinstance(t, Pause):
        return "pause"
    if isinstance(t, Emit):
        return f"(emit {t.signal})"
    if isinstance(t, Await):
        return f"(await {t.signal})"
    if isinstance(t, Seq):
        parts = []
        cur = t
        while isinstance(cur, Seq):
            parts.append(print_thread(cur.first))
            cur = cur.rest
        parts.append(print_thread(cur))
        return "(seq " + " ".join(parts) + ")"
    if isinstance(t, New):
        names = []
        cur = t
        while isinstance(cur, New):
            names.append(cur.bound)
            cur = cur.body
        return "(new " + " ".join(names) + " " + print_thread(cur) + ")"
    if isinstance(t, Spawn):
        return f"(thread {print_thread(t.body)})"
    if isinstance(t, Watch):
        return f"(watch {t.signal} {print_thread(t.body)})"
    if isinstance(t, Call):
        if t.args:
            return "(call " + " ".join((t.ident,) + t.args) + ")"
        return f"(call {t.ident})"
    raise TypeError(f"not a thread: {t!r}")


@dataclass(frozen=True)
class Definition:
    """A recursive definition A(params) = body of either language: a source
    `Thread`, whose free signals are among the params, or a `tailcore.Tail`,
    which may also name the interface and the reserved `%` signals."""

    name: str
    params: tuple[str, ...]
    body: Thread


@dataclass
class Program:
    """A program of either language: interface, definitions by name and
    initial threads, all `Thread` terms or all `tailcore.Tail` terms.

    `defs` is read-only and a `Definition` is frozen. Facts of the fields
    are computed by one walk on first read and kept (`_signals`): `names`,
    every name the program mentions, bound or free, with the interface and
    the parameters; `next_gen_index`; `universe`, the names outside `%` in
    the interface or free in a thread; `env_domain`, the runners' `Env`
    domain: the interface, the names free in the initial threads and the
    `%` names free in definitions; `has_binder`; and `params`. A later
    layer keeps its own through `fact`. `==`, `repr`, copy and pickle
    ignore facts, and assigning a field drops them."""

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    defs: MappingProxyType[str, Definition]
    initial: tuple[Thread, ...]

    def __setattr__(self, name, value):
        if name == "defs":
            value = MappingProxyType(dict(value))
        object.__setattr__(self, name, value)
        self.__dict__.pop("_facts", None)

    def __reduce__(self):
        return Program, (self.inputs, self.outputs, dict(self.defs),
                         self.initial)

    def fact(self, compute):
        """compute(self), computed on the first call and kept."""
        facts = self.__dict__.setdefault("_facts", {})
        if compute not in facts:
            facts[compute] = compute(self)
        return facts[compute]

    names = property(lambda self: self.fact(_signals)["names"])
    next_gen_index = property(lambda self: self.fact(_signals)["gen_index"])
    universe = property(lambda self: self.fact(_signals)["universe"])
    env_domain = property(lambda self: self.fact(_signals)["env_domain"])
    has_binder = property(lambda self: self.fact(_signals)["has_binder"])
    params = property(lambda self: self.fact(_signals)["params"])

    @property
    def interface(self):
        return frozenset(self.inputs) | frozenset(self.outputs)

    def all_threads(self):
        for d in self.defs.values():
            yield d.body
        yield from self.initial


def _signals(p):
    """The facts of `Program` by name, from one walk of p's threads."""
    names, free, binds, params = set(p.interface), set(), False, set()
    for t in p.initial:
        binds |= _canon.scan(t, names, free)
    domain = free | p.interface
    for d in p.defs.values():
        body_free = set()
        binds |= _canon.scan(d.body, names, body_free)
        free |= body_free.difference(d.params)
        params.update(d.params)
    names |= params
    domain.update(s for s in free if s.startswith("%"))
    digits = [n[len(GENERATED_PREFIX):] for n in names
              if n.startswith(GENERATED_PREFIX)]
    return dict(
        names=frozenset(names), has_binder=binds, params=frozenset(params),
        gen_index=max((int(k) + 1 for k in digits if k.isdigit()), default=0),
        universe=frozenset(n for n in free | p.interface
                           if not n.startswith("%")),
        env_domain=frozenset(domain))


def _print_program(p, print_term, notes=()):
    """The text of p, a declaration a line, notes after the interface."""
    lines = ["(input" + "".join(" " + s for s in p.inputs) + ")",
             "(output" + "".join(" " + s for s in p.outputs) + ")"]
    lines.extend(notes)
    for d in p.defs.values():
        head = " ".join((d.name,) + d.params)
        lines.append(f"(def ({head}) {print_term(d.body)})")
    lines.extend(f"(run {print_term(t)})" for t in p.initial)
    return "\n".join(lines) + "\n"


def print_program(p):
    return _print_program(p, print_thread)


# two facts of `Program` as functions of a program
program_names = attrgetter("names")
next_gen_index = attrgetter("next_gen_index")


# ---------------------------------------------------------------------------
# canonical forms


def canonicalize(threads, interface):
    """Canonical form of a thread multiset: generated and local names become
    %g0, %g1, ... while interface names stay fixed. Two multisets get equal
    canonical forms exactly when one is a renaming of the other, at any
    size (see `_canon.canonical_multiset`)."""
    result, _ = _canon.canonical_multiset(threads, interface, print_thread)
    return result


def canonicalize_with_renaming(threads, interface):
    return _canon.canonical_multiset(threads, interface, print_thread)


# ---------------------------------------------------------------------------
# desugaring of the derived instructions


def expand_now(body, gensym):
    """now T = nu s (emit s);(watch s T) with s fresh."""
    s = gensym()
    return New(s, seq_of(Emit(s), Watch(s, body)))


def expand_pause_table1(gensym):
    """pause = nu s (now (await s))."""
    s = gensym()
    return New(s, expand_now(Await(s), gensym))


def expand_present(signal, then_branch, else_branch, gensym, pause):
    """present s T1 T2 as two racing watcher threads and a completion await.

    The then watcher runs T1 within the instant s arrives; the else watcher
    survives the instant only if s stays absent and runs T2 in the next one.
    Both signal completion on a fresh signal the main thread awaits.
    """
    done = gensym()
    then_watcher = expand_now(
        seq_of(Await(signal), Spawn(seq_of(then_branch, Emit(done)))), gensym)
    else_watcher = Watch(
        signal, seq_of(pause(), Spawn(seq_of(else_branch, Emit(done)))))
    return New(done, seq_all([
        Spawn(then_watcher), Spawn(else_watcher), Await(done)]))


def expand_par(left, right, gensym, pause, define_loop):
    """T1 || T2: run both under watch guards and join on their termination."""
    t1done = gensym()
    t2done = gensym()
    kill1 = gensym()
    kill2 = gensym()
    beacon1 = define_loop(seq_of(Emit(t1done), pause()))
    beacon2 = define_loop(seq_of(Emit(t2done), pause()))
    body = seq_all([
        Spawn(Watch(kill1, seq_of(left, beacon1))),
        Spawn(Watch(kill2, seq_of(right, beacon2))),
        Await(t1done), Emit(kill1), Await(t2done), Emit(kill2)])
    return New(t1done, New(t2done, New(kill1, New(kill2, body))))


# ---------------------------------------------------------------------------
# tokenizer and reader


KEYWORDS = {"seq", "emit", "new", "thread", "await", "watch", "call", "pause",
            "loop", "now", "present", "par", "0"}
DECL_KEYWORDS = {"input", "output", "def", "run"}


@dataclass
class SAtom:
    value: str
    line: int
    col: int


@dataclass
class SList:
    items: list
    line: int
    col: int


def _tokenize(text):
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            col += 1
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            yield (c, c, line, col)
            col += 1
            i += 1
        else:
            start = i
            start_col = col
            while i < n and text[i] not in " \t\r\n();":
                i += 1
                col += 1
            yield ("atom", text[start:i], line, start_col)


def _read_forms(text):
    forms = []
    stack = []
    for kind, value, line, col in _tokenize(text):
        if kind == "(":
            stack.append(SList([], line, col))
        elif kind == ")":
            if not stack:
                raise ParseError("unmatched )", line, col)
            done = stack.pop()
            (stack[-1].items if stack else forms).append(done)
        else:
            node = SAtom(value, line, col)
            (stack[-1].items if stack else forms).append(node)
    if stack:
        raise ParseError("unclosed (", stack[-1].line, stack[-1].col)
    return forms


def _atom(form, what):
    if not isinstance(form, SAtom):
        raise ParseError(f"expected {what}", form.line, form.col)
    return form.value


def _name(form, what="signal"):
    """A source name: an atom that is not a keyword."""
    name = _atom(form, what)
    if name in KEYWORDS or name in DECL_KEYWORDS:
        raise ParseError(f"keyword used as {what}: {name}", form.line, form.col)
    return name


def _read_declarations(text, read_name):
    """The checked declarations of a program text of either language: the
    inputs, the outputs, `{name: (params, body form)}` and the run forms,
    whose terms each language parses itself. `read_name(form, what)` reads
    a name. A repeated interface signal is rejected where it repeats, a
    repeated parameter or definition at the header that repeats it."""
    inputs, outputs, headers, runs = [], [], {}, []
    declared = set()
    for form in _read_forms(text):
        if not isinstance(form, SList) or not form.items:
            raise ParseError("expected a declaration", form.line, form.col)
        head = _atom(form.items[0], "declaration keyword")
        if head == "input" or head == "output":
            target = inputs if head == "input" else outputs
            for f in form.items[1:]:
                signal = read_name(f, "signal")
                if signal in declared:
                    raise ParseError("duplicate interface signal",
                                     f.line, f.col)
                declared.add(signal)
                target.append(signal)
        elif head == "def":
            if len(form.items) != 3 or not isinstance(form.items[1], SList) \
                    or not form.items[1].items:
                raise ParseError("def takes (name params...) and a body",
                                 form.line, form.col)
            sig = form.items[1]
            name = read_name(sig.items[0], "identifier")
            params = tuple(read_name(f, "signal") for f in sig.items[1:])
            if len(set(params)) != len(params):
                raise ParseError(f"duplicate parameter in {name}",
                                 sig.line, sig.col)
            if name in headers:
                raise ParseError(f"duplicate definition: {name}",
                                 sig.line, sig.col)
            headers[name] = (params, form.items[2])
        elif head == "run":
            if len(form.items) != 2:
                raise ParseError("run takes one thread", form.line, form.col)
            runs.append(form.items[1])
        else:
            raise ParseError(f"unknown declaration: {head}", form.line, form.col)
    if not runs:
        raise ParseError("program has no (run ...) declaration", 1, 1)
    return tuple(inputs), tuple(outputs), headers, runs


# ---------------------------------------------------------------------------
# parser


class _ProgramBuilder:
    def __init__(self, pause_mode, reserved_names):
        self.defs = {}
        self.reserved_names = set(reserved_names)
        self.gensym = _canon.name_supply(GENERATED_PREFIX, ()).__next__
        self.pause_mode = pause_mode

    def pause(self):
        if self.pause_mode == "table1":
            return expand_pause_table1(self.gensym)
        return PAUSE

    def fresh_def_name(self, base):
        k = 0
        while f"{base}{k}" in self.reserved_names or f"{base}{k}" in self.defs:
            k += 1
        name = f"{base}{k}"
        self.reserved_names.add(name)
        return name

    def define_loop(self, body):
        params = tuple(sorted(_canon.free_signals(body)))
        name = self.fresh_def_name("L")
        call = Call(name, params)
        self.defs[name] = Definition(name, params, seq_of(body, call))
        return call


def _parse_thread(form, builder, scope, def_arities):
    if isinstance(form, SAtom):
        if form.value == "0":
            return NIL
        if form.value == "pause":
            return builder.pause()
        raise ParseError(f"unknown thread: {form.value}", form.line, form.col)
    if not form.items:
        raise ParseError("empty form", form.line, form.col)
    head = _atom(form.items[0], "keyword")
    args = form.items[1:]

    def sub(f, extra=frozenset()):
        return _parse_thread(f, builder, scope | extra, def_arities)

    def signal(f):
        name = _name(f)
        if name not in scope:
            raise UndeclaredSignalError(
                f"{f.line}:{f.col}: signal {name} is not declared or bound")
        return name

    if head == "seq":
        if len(args) < 2:
            raise ParseError("seq needs at least two threads", form.line, form.col)
        return seq_all([sub(f) for f in args])
    if head == "emit":
        if len(args) != 1:
            raise ParseError("emit takes one signal", form.line, form.col)
        return Emit(signal(args[0]))
    if head == "await":
        if len(args) != 1:
            raise ParseError("await takes one signal", form.line, form.col)
        return Await(signal(args[0]))
    if head == "new":
        if len(args) < 2:
            raise ParseError("new takes signals and a body", form.line, form.col)
        names = [_name(f) for f in args[:-1]]
        body = sub(args[-1], frozenset(names))
        for name in reversed(names):
            body = New(name, body)
        return body
    if head == "thread":
        if not args:
            raise ParseError("thread takes at least one body", form.line, form.col)
        spawns = [Spawn(sub(f)) for f in args]
        return seq_all(spawns) if len(spawns) > 1 else spawns[0]
    if head == "watch":
        if len(args) != 2:
            raise ParseError("watch takes a signal and a body", form.line, form.col)
        return Watch(signal(args[0]), sub(args[1]))
    if head == "call":
        if not args:
            raise ParseError("call needs an identifier", form.line, form.col)
        ident = _name(args[0], "identifier")
        if ident not in def_arities:
            raise UnboundIdentifierError(
                f"{args[0].line}:{args[0].col}: no definition for {ident}")
        actuals = tuple(signal(f) for f in args[1:])
        if len(actuals) != def_arities[ident]:
            raise ArityMismatchError(
                f"{args[0].line}:{args[0].col}: {ident} takes "
                f"{def_arities[ident]} signals, got {len(actuals)}")
        return Call(ident, actuals)
    if head == "loop":
        if len(args) != 1:
            raise ParseError("loop takes one body", form.line, form.col)
        return builder.define_loop(sub(args[0]))
    if head == "now":
        if len(args) != 1:
            raise ParseError("now takes one body", form.line, form.col)
        return expand_now(sub(args[0]), builder.gensym)
    if head == "present":
        if len(args) != 3:
            raise ParseError("present takes a signal and two branches",
                             form.line, form.col)
        return expand_present(signal(args[0]), sub(args[1]), sub(args[2]),
                              builder.gensym, builder.pause)
    if head == "par":
        if len(args) != 2:
            raise ParseError("par takes two threads", form.line, form.col)
        return expand_par(sub(args[0]), sub(args[1]), builder.gensym,
                          builder.pause, builder.define_loop)
    raise ParseError(f"unknown thread form: {head}", form.line, form.col)


def parse_program(text, pause_mode="primitive"):
    """Parse and desugar a source program.

    pause_mode selects the meaning of the pause keyword: "primitive" keeps it
    as a core constructor, "table1" expands the derived form.
    """
    if pause_mode not in ("primitive", "table1"):
        raise ValueError(f"unknown pause mode: {pause_mode}")
    inputs, outputs, headers, runs = _read_declarations(text, _name)
    builder = _ProgramBuilder(pause_mode, headers)
    # only declared names are callable: a generated loop is called by the
    # term that generated it, never by name from the text
    arities = {name: len(params) for name, (params, _) in headers.items()}
    parsed_defs = {}
    for name, (params, body_form) in headers.items():
        body = _parse_thread(body_form, builder, frozenset(params), arities)
        parsed_defs[name] = Definition(name, params, body)
    interface = frozenset(inputs + outputs)
    initial = tuple(_parse_thread(f, builder, interface, arities)
                    for f in runs)
    return Program(inputs, outputs, {**parsed_defs, **builder.defs}, initial)

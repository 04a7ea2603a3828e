"""Source language: syntax trees, parser, printer, desugaring, canonical forms.

The program record with its facts, the reader, the declaration reader and
the program printer serve the tail core too. One regular-expression scan
reads the text of either language into lists of atom strings; a line and
column are computed only for an error. Concrete syntax is s-expressions,
one declaration per top-level form:

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

import re
from dataclasses import dataclass
from itertools import islice
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
# reader


KEYWORDS = {"seq", "emit", "new", "thread", "await", "watch", "call", "pause",
            "loop", "now", "present", "par", "0"}
DECL_KEYWORDS = {"input", "output", "def", "run"}


def _scan(blanks):
    """The reader's patterns for `blanks`: the blanks and comments (; to the
    end of the line) that lead a text, and a token with those after it."""
    skip = rf"(?:{blanks}|;[^\n]*)*"
    return re.compile(skip), re.compile(r"([()]|[^ \t\r\n();]+)" + skip)


class SList(list):
    """A list read from a text, of atoms (`str`) and lists, with the text and
    the number of tokens before its `(` (-1 for the top-level forms). Blanks
    are space, tab, CR and LF; a character that is no blank, parenthesis or
    ; is an atom's. A subclass reads another language by its `LEAD` and
    `TOKEN`."""

    __slots__ = ("text", "at")
    LEAD, TOKEN = _scan(r"[ \t\r\n]+")


def _read_forms(text, kind=SList):
    """The top-level forms of text, as one `kind` list."""
    root = top = kind()
    root.text, root.at = text, -1
    stack = []
    tokens = kind.TOKEN.findall(text, kind.LEAD.match(text).end())
    for at, token in enumerate(tokens):
        if token == "(":
            form = kind()
            form.text, form.at = text, at
            top.append(form)
            stack.append(top)
            top = form
        elif token == ")":
            if not stack:
                # the ) stands where a next top-level form would
                raise ParseError("unmatched )", *_at(root, len(root)))
            top = stack.pop()
        else:
            top.append(token)
    if stack:
        raise ParseError("unclosed (", *_at(top))
    return root


def _at(form, index=None):
    """The line and column of form's `(` or, given an index, of its item
    there, found for an error by scanning form's text again: the items are
    the tokens met at depth 0 after form's `(`."""
    text = form.text
    tokens = form.TOKEN.finditer(text, form.LEAD.match(text).end())
    depth = 0 if form.at < 0 else -1
    for m in islice(tokens, max(form.at, 0), None):
        if index is None or depth == 0 and index == 0:
            break
        index -= depth == 0
        depth += (m[1] == "(") - (m[1] == ")")
    at = m.start()
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)


def _atom(form, index, what):
    """Item index of form, which must be an atom."""
    item = form[index]
    if not isinstance(item, str):
        raise ParseError(f"expected {what}", *_at(item))
    return item


def _name(form, index, what="signal"):
    """A source name: an atom that is not a keyword."""
    name = _atom(form, index, what)
    if name in KEYWORDS or name in DECL_KEYWORDS:
        raise ParseError(f"keyword used as {what}: {name}", *_at(form, index))
    return name


def _read_declarations(forms, read_name):
    """The checked declarations of a program of either language, from its
    top-level forms: the inputs, the outputs, `{name: (params, body)}` and
    the run threads, where a body or thread is a (form, index) pair that
    each language parses itself. `read_name(form, index, what)` reads a
    name. A repeated interface signal is rejected where it repeats, a
    repeated parameter or definition at the header that repeats it."""
    inputs, outputs, headers, runs = [], [], {}, []
    declared = set()
    for i, form in enumerate(forms):
        if isinstance(form, str) or not form:
            raise ParseError("expected a declaration", *_at(forms, i))
        head = _atom(form, 0, "declaration keyword")
        if head == "input" or head == "output":
            target = inputs if head == "input" else outputs
            for k in range(1, len(form)):
                signal = read_name(form, k, "signal")
                if signal in declared:
                    raise ParseError("duplicate interface signal",
                                     *_at(form, k))
                declared.add(signal)
                target.append(signal)
        elif head == "def":
            if len(form) != 3 or isinstance(form[1], str) or not form[1]:
                raise ParseError("def takes (name params...) and a body",
                                 *_at(form))
            sig = form[1]
            name = read_name(sig, 0, "identifier")
            params = tuple(read_name(sig, k, "signal")
                           for k in range(1, len(sig)))
            if len(set(params)) != len(params):
                raise ParseError(f"duplicate parameter in {name}", *_at(sig))
            if name in headers:
                raise ParseError(f"duplicate definition: {name}", *_at(sig))
            headers[name] = (params, (form, 2))
        elif head == "run":
            if len(form) != 2:
                raise ParseError("run takes one thread", *_at(form))
            runs.append((form, 1))
        else:
            raise ParseError(f"unknown declaration: {head}", *_at(form))
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


def _parse_thread(parent, index, builder, scope, def_arities):
    """The thread at item index of parent."""
    form = parent[index]
    if isinstance(form, str):
        if form == "0":
            return NIL
        if form == "pause":
            return builder.pause()
        raise ParseError(f"unknown thread: {form}", *_at(parent, index))
    if not form:
        raise ParseError("empty form", *_at(form))
    head = _atom(form, 0, "keyword")
    n = len(form) - 1

    def sub(k, inner=scope):
        return _parse_thread(form, k, builder, inner, def_arities)

    def signal(k):
        name = _name(form, k)
        if name not in scope:
            raise UndeclaredSignalError("%d:%d: signal %s is not declared "
                                        "or bound" % (*_at(form, k), name))
        return name

    if head == "seq":
        if n < 2:
            raise ParseError("seq needs at least two threads", *_at(form))
        return seq_all([sub(k) for k in range(1, n + 1)])
    if head == "emit":
        if n != 1:
            raise ParseError("emit takes one signal", *_at(form))
        return Emit(signal(1))
    if head == "await":
        if n != 1:
            raise ParseError("await takes one signal", *_at(form))
        return Await(signal(1))
    if head == "new":
        if n < 2:
            raise ParseError("new takes signals and a body", *_at(form))
        names = [_name(form, k) for k in range(1, n)]
        body = sub(n, scope.union(names))
        for name in reversed(names):
            body = New(name, body)
        return body
    if head == "thread":
        if not n:
            raise ParseError("thread takes at least one body", *_at(form))
        spawns = [Spawn(sub(k)) for k in range(1, n + 1)]
        return seq_all(spawns) if n > 1 else spawns[0]
    if head == "watch":
        if n != 2:
            raise ParseError("watch takes a signal and a body", *_at(form))
        return Watch(signal(1), sub(2))
    if head == "call":
        if not n:
            raise ParseError("call needs an identifier", *_at(form))
        ident = _name(form, 1, "identifier")
        if ident not in def_arities:
            raise UnboundIdentifierError(
                "%d:%d: no definition for %s" % (*_at(form, 1), ident))
        actuals = tuple(signal(k) for k in range(2, n + 1))
        if len(actuals) != def_arities[ident]:
            raise ArityMismatchError("%d:%d: %s takes %d signals, got %d" % (
                *_at(form, 1), ident, def_arities[ident], len(actuals)))
        return Call(ident, actuals)
    if head == "loop":
        if n != 1:
            raise ParseError("loop takes one body", *_at(form))
        return builder.define_loop(sub(1))
    if head == "now":
        if n != 1:
            raise ParseError("now takes one body", *_at(form))
        return expand_now(sub(1), builder.gensym)
    if head == "present":
        if n != 3:
            raise ParseError("present takes a signal and two branches",
                             *_at(form))
        return expand_present(signal(1), sub(2), sub(3),
                              builder.gensym, builder.pause)
    if head == "par":
        if n != 2:
            raise ParseError("par takes two threads", *_at(form))
        return expand_par(sub(1), sub(2), builder.gensym,
                          builder.pause, builder.define_loop)
    raise ParseError(f"unknown thread form: {head}", *_at(form))


def parse_program(text, pause_mode="primitive"):
    """Parse and desugar a source program.

    pause_mode selects the meaning of the pause keyword: "primitive" keeps it
    as a core constructor, "table1" expands the derived form.
    """
    if pause_mode not in ("primitive", "table1"):
        raise ValueError(f"unknown pause mode: {pause_mode}")
    inputs, outputs, headers, runs = _read_declarations(_read_forms(text),
                                                        _name)
    builder = _ProgramBuilder(pause_mode, headers)
    # only declared names are callable: a generated loop is called by the
    # term that generated it, never by name from the text
    arities = {name: len(params) for name, (params, _) in headers.items()}
    parsed_defs = {}
    for name, (params, body) in headers.items():
        thread = _parse_thread(*body, builder, frozenset(params), arities)
        parsed_defs[name] = Definition(name, params, thread)
    interface = frozenset(inputs + outputs)
    initial = tuple(_parse_thread(*run, builder, interface, arities)
                    for run in runs)
    return Program(inputs, outputs, {**parsed_defs, **builder.defs}, initial)

"""The s-expression reader of both languages.

A golden table of parse outcomes, one reading of line separators for both
languages, and a seeded parse fuzz over mutated corpus texts. An outcome is
a program, given by its printed text, or an `SLError`, given by its class
and message.
"""

import hashlib
import random
import re

import pytest

from sltk.cps import cps_program
from sltk.errors import SLError
from sltk.syntax import parse_program, print_program
from sltk.tailcore import parse_tail_program, print_tail_program

from .corpus import source_corpus, tail_corpus

PARSERS = {"source": (parse_program, print_program),
           "tail": (parse_tail_program, print_tail_program)}


def outcome(language, text):
    parse, show = PARSERS[language]
    try:
        return show(parse(text))
    except SLError as e:
        return f"{type(e).__name__}: {e}"


# (language, row, text, outcome), recorded before the reader became one
# regular-expression scan: every raise of the reader and of both term
# parsers, and per language the blanks, comments and atom characters.
GOLDEN = [
    ("source", "unmatched-close", "(input a)\n(run 0))",
     "ParseError: 2:8: unmatched )"),
    ("source", "unclosed-open", "(input a)\n(run (seq 0 0)",
     "ParseError: 2:1: unclosed ("),
    ("source", "top-level-atom", "(input a)\nrun",
     "ParseError: 2:1: expected a declaration"),
    ("source", "empty-declaration", "(input a)\n()\n(run 0)",
     "ParseError: 2:1: expected a declaration"),
    ("source", "list-as-declaration-keyword", "((input) a)\n(run 0)",
     "ParseError: 1:2: expected declaration keyword"),
    ("source", "duplicate-interface-signal",
     "(input a b)\n(output b)\n(run 0)",
     "ParseError: 2:9: duplicate interface signal"),
    ("source", "keyword-as-interface-signal", "(input a emit)\n(run 0)",
     "ParseError: 1:10: keyword used as signal: emit"),
    ("source", "list-as-interface-signal", "(input a (b))\n(run 0)",
     "ParseError: 1:10: expected signal"),
    ("source", "def-shape", "(def (A) 0 0)\n(run 0)",
     "ParseError: 1:1: def takes (name params...) and a body"),
    ("source", "keyword-as-identifier", "(def (seq x) 0)\n(run 0)",
     "ParseError: 1:7: keyword used as identifier: seq"),
    ("source", "keyword-as-parameter", "(def (A x call) 0)\n(run 0)",
     "ParseError: 1:11: keyword used as signal: call"),
    ("source", "duplicate-parameter", "(def (A x x) 0)\n(run 0)",
     "ParseError: 1:6: duplicate parameter in A"),
    ("source", "duplicate-definition",
     "(def (A) 0)\n(def (A) pause)\n(run (call A))",
     "ParseError: 2:6: duplicate definition: A"),
    ("source", "run-shape", "(run 0 0)",
     "ParseError: 1:1: run takes one thread"),
    ("source", "unknown-declaration", "(inputs a)\n(run 0)",
     "ParseError: 1:1: unknown declaration: inputs"),
    ("source", "no-run", "(input a)\n(output b)\n",
     "ParseError: 1:1: program has no (run ...) declaration"),
    ("source", "unknown-thread", "(input a)\n(run foo)",
     "ParseError: 2:6: unknown thread: foo"),
    ("source", "empty-form", "(run (seq 0 ()))",
     "ParseError: 1:13: empty form"),
    ("source", "list-as-keyword", "(run ((seq) 0))",
     "ParseError: 1:7: expected keyword"),
    ("source", "undeclared-signal", "(input a)\n(run (emit b))",
     "UndeclaredSignalError: 2:12: signal b is not declared or bound"),
    ("source", "seq-shape", "(run (seq 0))",
     "ParseError: 1:6: seq needs at least two threads"),
    ("source", "emit-shape", "(input a)\n(run (emit a a))",
     "ParseError: 2:6: emit takes one signal"),
    ("source", "await-shape", "(run (await))",
     "ParseError: 1:6: await takes one signal"),
    ("source", "new-shape", "(run (new x))",
     "ParseError: 1:6: new takes signals and a body"),
    ("source", "thread-shape", "(run (thread))",
     "ParseError: 1:6: thread takes at least one body"),
    ("source", "watch-shape", "(input a)\n(run (watch a))",
     "ParseError: 2:6: watch takes a signal and a body"),
    ("source", "call-shape", "(run (call))",
     "ParseError: 1:6: call needs an identifier"),
    ("source", "unbound-identifier", "(run (call B))",
     "UnboundIdentifierError: 1:12: no definition for B"),
    ("source", "arity-mismatch",
     "(input a)\n(def (A x) (emit x))\n(run (call A))",
     "ArityMismatchError: 3:12: A takes 1 signals, got 0"),
    ("source", "loop-shape", "(run (loop 0 0))",
     "ParseError: 1:6: loop takes one body"),
    ("source", "now-shape", "(run (now))",
     "ParseError: 1:6: now takes one body"),
    ("source", "present-shape", "(input a)\n(run (present a 0))",
     "ParseError: 2:6: present takes a signal and two branches"),
    ("source", "par-shape", "(run (par 0))",
     "ParseError: 1:6: par takes two threads"),
    ("source", "unknown-thread-form", "(run (jump 0))",
     "ParseError: 1:6: unknown thread form: jump"),
    ("source", "keyword-as-bound-signal", "(run (new emit 0))",
     "ParseError: 1:11: keyword used as signal: emit"),
    ("source", "keyword-as-emitted-signal", "(input a)\n(run (emit pause))",
     "ParseError: 2:12: keyword used as signal: pause"),
    ("source", "list-as-emitted-signal", "(input a)\n(run (emit (a)))",
     "ParseError: 2:12: expected signal"),
    ("source", "keyword-as-called-identifier", "(run (call seq))",
     "ParseError: 1:12: keyword used as identifier: seq"),
    ("source", "list-as-called-identifier", "(run (call (A)))",
     "ParseError: 1:12: expected identifier"),
    ("source", "tab", "(input a)\n\t(run\t(emit\tb))",
     "UndeclaredSignalError: 2:13: signal b is not declared or bound"),
    ("source", "crlf", "(input a)\r\n(output b)\r\n(run (emit c))\r\n",
     "UndeclaredSignalError: 3:12: signal c is not declared or bound"),
    ("source", "semicolon-comment",
     "; header\n(input a) ; in\n(run ; thread\n  (emit c))",
     "UndeclaredSignalError: 4:9: signal c is not declared or bound"),
    ("source", "form-feed-in-atom", "(input a\x0cb)\n(run (emit a))",
     "UndeclaredSignalError: 2:12: signal a is not declared or bound"),
    ("source", "non-ascii-name", "(input é)\n(run (emit ü))",
     "UndeclaredSignalError: 2:12: signal ü is not declared or bound"),
    ("source", "vertical-tab", "(input a)\x0b(run (call X))",
     "ParseError: 1:10: expected a declaration"),
    ("source", "lone-cr", "(input a)\r(output b)\r(run (call X))",
     "UnboundIdentifierError: 1:33: no definition for X"),
    ("tail", "unmatched-close", "(input a)\n(run 0))",
     "ParseError: 2:8: unmatched )"),
    ("tail", "unclosed-open", "(run (emit! a 0)",
     "ParseError: 1:1: unclosed ("),
    ("tail", "top-level-atom", "(input a)\nrun",
     "ParseError: 2:1: expected a declaration"),
    ("tail", "list-as-interface-signal", "(input a (b))\n(run 0)",
     "ParseError: 1:10: expected signal"),
    ("tail", "duplicate-interface-signal", "(input a)\n(output a)\n(run 0)",
     "ParseError: 2:9: duplicate interface signal"),
    ("tail", "def-shape", "(def (A))\n(run 0)",
     "ParseError: 1:1: def takes (name params...) and a body"),
    ("tail", "duplicate-parameter", "(def (A x x) 0)\n(run 0)",
     "ParseError: 1:6: duplicate parameter in A"),
    ("tail", "not-a-tail-thread", "(run pause)",
     "ParseError: 1:6: expected a tail thread, got 'pause'"),
    ("tail", "empty-form", "(run (thread! 0 ()))",
     "ParseError: 1:17: empty form"),
    ("tail", "list-as-keyword", "(run ((emit!) 0))",
     "ParseError: 1:7: expected keyword"),
    ("tail", "emit-shape", "(output o)\n(run (emit! o))",
     "ParseError: 2:6: emit! takes a signal and a continuation"),
    ("tail", "list-as-emitted-signal", "(run (emit! (o) 0))",
     "ParseError: 1:13: expected signal"),
    ("tail", "signal-not-in-scope", "(input a)\n(run (emit! b 0))",
     "ParseError: 2:13: signal not in scope: b"),
    ("tail", "pause-emitted", "(run (emit! %pause 0))",
     "ParseError: 1:13: %pause is reserved and never emitted"),
    ("tail", "new-shape", "(run (new x))",
     "ParseError: 1:6: new takes a signal and a body"),
    ("tail", "pause-bound", "(run (new %pause 0))",
     "ParseError: 1:11: cannot bind %pause"),
    ("tail", "list-as-bound-signal", "(run (new (x) 0))",
     "ParseError: 1:11: expected signal"),
    ("tail", "thread-shape", "(run (thread! 0))",
     "ParseError: 1:6: thread! takes a spawned thread and a continuation"),
    ("tail", "present-shape", "(input a)\n(run (present a 0))",
     "ParseError: 2:6: present takes a signal, a thread and a branch"),
    ("tail", "guard-not-in-scope", "(run (present b 0 0))",
     "ParseError: 1:15: signal not in scope: b"),
    ("tail", "call-shape", "(run (call))",
     "ParseError: 1:6: call needs an identifier"),
    ("tail", "list-as-called-identifier", "(run (call (A)))",
     "ParseError: 1:12: expected identifier"),
    ("tail", "unbound-identifier", "(run (call B))",
     "UnboundIdentifierError: 1:12: no definition for B"),
    ("tail", "arity-mismatch", "(input a)\n(def (A x) 0)\n(run (call A a a))",
     "ArityMismatchError: 3:12: A takes 1 signals, got 2"),
    ("tail", "argument-not-in-scope", "(def (A x) 0)\n(run (call A q))",
     "ParseError: 2:14: signal not in scope: q"),
    ("tail", "unknown-tail-form", "(input a)\n(run (emit a 0))",
     "ParseError: 2:6: unknown tail form: emit"),
    ("tail", "ite-shape", "(input a)\n(run (present a 0 (ite a 0)))",
     "ParseError: 2:19: ite takes a signal and two branches"),
    ("tail", "ite-not-in-scope", "(input a)\n(run (present a 0 (ite b 0 0)))",
     "ParseError: 2:24: signal not in scope: b"),
    ("tail", "list-as-ite-signal",
     "(input a)\n(run (present a 0 (ite (a) 0 0)))",
     "ParseError: 2:24: expected signal"),
    ("tail", "tab", "(input a)\n\t(run\t(emit!\tb 0))",
     "ParseError: 2:14: signal not in scope: b"),
    ("tail", "crlf", "(input a)\r\n(output b)\r\n(run (emit! c 0))\r\n",
     "ParseError: 3:13: signal not in scope: c"),
    ("tail", "semicolon-comment",
     "; header\n(input a) ; in\n(run ; thread\n  (emit! c 0))",
     "ParseError: 4:10: signal not in scope: c"),
    ("tail", "note-line",
     "(input a)\n#index note (\n  # indented ) note\n(run (emit! c 0))",
     "ParseError: 4:13: signal not in scope: c"),
    ("tail", "hash-inside-a-line", "(input a)\n(run (emit! #a 0))",
     "ParseError: 2:13: signal not in scope: #a"),
    ("tail", "form-feed-in-atom", "(input a\x0cb)\n(run (emit! a 0))",
     "(input a b)\n(output)\n(run (emit! a 0))\n"),
    ("tail", "non-ascii-name", "(input é)\n(run (emit! ü 0))",
     "ParseError: 2:13: signal not in scope: ü"),
    ("tail", "vertical-tab", "(input a)\x0b(run (call X))",
     "UnboundIdentifierError: 2:12: no definition for X"),
    ("tail", "lone-cr", "(input a)\r(output b)\r(run (call X))",
     "UnboundIdentifierError: 3:12: no definition for X"),
    ("tail", "hash-after-a-lone-cr", "(input a)\r# note\n(run 0)",
     "(input a)\n(output)\n(run 0)\n"),
]

# The rows that moved when the tail language stopped dropping `#` note
# lines with a `str.splitlines` pre-pass, which also broke lines at a lone
# CR and at VT and FF. Each now reads as the source parser reads it.
MOVED = {
    ("tail", "form-feed-in-atom"):
        "ParseError: 2:13: signal not in scope: a",
    ("tail", "vertical-tab"): "ParseError: 1:10: expected a declaration",
    ("tail", "lone-cr"): "UnboundIdentifierError: 1:33: no definition for X",
    ("tail", "hash-after-a-lone-cr"):
        "ParseError: 1:11: expected a declaration",
}


@pytest.mark.parametrize("language, row, text, recorded", GOLDEN,
                         ids=[f"{lang}-{row}" for lang, row, _, _ in GOLDEN])
def test_parse_outcomes_match_the_golden_table(language, row, text,
                                               recorded):
    assert outcome(language, text) == MOVED.get((language, row), recorded)


def test_every_moved_row_is_in_the_table():
    assert set(MOVED) <= {(lang, row) for lang, row, _, _ in GOLDEN}


# Line breaks of `str.splitlines` that are no blank of the reader: a lone
# CR is a blank, the others are atom characters, in both languages alike.
@pytest.mark.parametrize("text", [
    "(input a)\x0b(run (call X))",
    "(input a)\r(output b)\r(run (call X))",
    "(input a\x0cb)\n(run (call X))",
    "(input a\x1cb)\n(run (call X))",
    "(input a\x85b)\n(run (call X))",
    "(input a\u2028b)\n(run (call X))",
    "(input a)\r# note\n(run 0)",
    "(input a)\n\x0b# note\n(run 0)",
])
def test_both_languages_read_line_separators_alike(text):
    assert outcome("tail", text) == outcome("source", text)


def test_a_note_line_is_a_comment_of_the_tail_language_only():
    text = "(input a)\n  # note (\n(run 0)"
    assert outcome("tail", text) == "(input a)\n(output)\n(run 0)\n"
    assert outcome("source", text) == "ParseError: 2:10: unclosed ("


# The mutation alphabet: tokens of both languages, blanks and comment
# starts. The line breaks that only `str.splitlines` knows (a lone CR, VT,
# FF, FS, GS, RS, NEL, LS, PS) stay out, so the recorded digests hold for
# the reader before and after it stopped breaking lines there.
ALPHABET = ("(", ")", " ", "\n", "\t", ";", "#", "0", "pause", "seq", "emit",
            "emit!", "await", "watch", "new", "thread", "thread!", "present",
            "ite", "call", "loop", "now", "par", "input", "output", "def",
            "run", "%pause", "%g0", "s1", "s3", "x", "A", "L0", "é")
PIECE = re.compile(r"[()]|[ \t\n]+|[^ \t\n()]+")


def mutants(texts, count, rng):
    """count texts, each one of texts with one to three pieces inserted or
    deleted, or cut short at a piece."""
    for _ in range(count):
        pieces = PIECE.findall(rng.choice(texts))
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            k = rng.randrange(len(pieces) + 1)
            if roll < 0.45:
                pieces.insert(k, rng.choice(ALPHABET))
            elif roll < 0.9:
                del pieces[k:k + 1]
            else:
                del pieces[k:]
        yield "".join(pieces)


def digest(language, texts, seed, count=3000):
    h = hashlib.sha1()
    for text in mutants(texts, count, random.Random(seed)):
        h.update(outcome(language, text).encode() + b"\0")
    return h.hexdigest()


def test_mutated_corpus_texts_read_as_recorded():
    """3,000 mutants per language of the printed corpus programs; the tail
    texts include the CPS images of the source corpus with their `#index`
    notes. The digests were recorded before the reader became one scan."""
    sources = [p for _, p in source_corpus()]
    tails = [print_tail_program(p) for _, p in tail_corpus()]
    for p in sources:
        image = cps_program(p)
        tails.append(print_tail_program(image.program, image.notes))
    assert sum("#index" in t for t in tails) > 0
    assert digest("source", [print_program(p) for p in sources], 1) == \
        "34a24f455e9a07313d0b6071f0366b7c377805fe"
    assert digest("tail", tails, 2) == \
        "8c90ff6163c5c8f8b23db262be22bf0a0132959a"

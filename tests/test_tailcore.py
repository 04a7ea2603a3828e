import pytest

from sltk._canon import free_signals
from sltk.errors import (
    ArityMismatchError,
    NotSuspendedError,
    ParseError,
    UnboundIdentifierError,
)
from sltk.semantics import Env
from sltk.syntax import parse_program
from sltk.tailcore import (
    PAUSE_SIGNAL,
    TNIL,
    BIte,
    BLeaf,
    TCall,
    TEmit,
    TNew,
    TPresent,
    TSpawn,
    TailRunner,
    canonicalize_tail,
    check_reactivity_tail,
    end_of_instant_tail,
    parse_tail_program,
    pause_prefix,
    print_tail,
    print_tail_program,
    run_trace_tail,
    tail_substitute,
)

from .corpus import TAIL_TEXTS, tail_corpus


def tprog(name):
    return parse_tail_program(TAIL_TEXTS[name])


def touts(name, *input_sets):
    trace = run_trace_tail(tprog(name), [frozenset(s) for s in input_sets])
    return [out for _, out in trace]


def test_print_parse_round_trip():
    for name, p in tail_corpus():
        text = print_tail_program(p)
        assert print_tail_program(parse_tail_program(text)) == text, name


def test_comment_lines_are_skipped_but_counted():
    p = parse_tail_program("""
(input s1)
(output s2)
#index note kept out of the tree
(run (emit! s2 0))
""")
    assert p.initial == (TEmit("s2", TNIL),)
    try:
        parse_tail_program("""
(input s1)
(output s2)
# comment
(run (emit! s9 0))
""")
    except ParseError as e:
        assert e.line == 5
    else:
        raise AssertionError("expected a parse error")


def test_pause_signal_is_reserved():
    with pytest.raises(ParseError):
        parse_tail_program("(input s1)\n(output s2)\n(run (emit! %pause 0))")
    with pytest.raises(ParseError):
        parse_tail_program("(input s1)\n(output s2)\n"
                           "(run (new %pause (emit! s2 0)))")


# One table of header errors: both parsers read declarations alike.
@pytest.mark.parametrize("text, message, position", [
    ("(input s1)\n(output s2)\n(def (A x x) (emit! x 0))\n"
     "(run (call A s1 s2))", "duplicate parameter in A", (3, 6)),
    ("(input a a)\n(run 0)", "duplicate interface signal", (1, 10)),
    ("(input a)\n(output b a)\n(run 0)", "duplicate interface signal",
     (2, 11)),
    ("(input a)\n(def (A) 0)\n(def (A) 0)\n(run (call A))",
     "duplicate definition: A", (3, 6)),
    ("(def A 0)\n(run 0)", "def takes (name params...) and a body", (1, 1)),
    ("(input a)\n(run 0 0)", "run takes one thread", (2, 1)),
    ("(inputs a)\n(run 0)", "unknown declaration: inputs", (1, 1)),
    ("(input a)\n(output b)\n", "program has no (run ...) declaration",
     (1, 1)),
    ("(run 0)\n((input) a)", "expected declaration keyword", (2, 2)),
    ("(run 0)\nrun", "expected a declaration", (2, 1)),
])
def test_tail_parser_rejects_what_the_source_parser_rejects(text, message,
                                                            position):
    for parse in (parse_program, parse_tail_program):
        with pytest.raises(ParseError) as e:
            parse(text)
        assert str(e.value) == "%d:%d: %s" % (*position, message), parse
        assert (e.value.line, e.value.col) == position


# A bad call is reported at its identifier, worded as the source parser
# words it.
@pytest.mark.parametrize("text, error, message", [
    ("(run (call B))", UnboundIdentifierError, "1:12: no definition for B"),
    ("(def (A x) 0)\n(run (call A))", ArityMismatchError,
     "2:12: A takes 1 signals, got 0"),
])
def test_tail_parser_places_bad_calls(text, error, message):
    with pytest.raises(error) as e:
        parse_tail_program(text)
    assert str(e.value) == message
    source = text.replace("(def (A x) 0)", "(def (A x) (emit x))")
    with pytest.raises(error) as e:
        parse_program(source)
    assert str(e.value) == message


def test_pause_prefix_shape():
    b = BLeaf(TEmit("s2", TNIL))
    t = pause_prefix(b)
    assert t == TPresent(PAUSE_SIGNAL, TNIL, b)


def test_emit_shows_in_its_instant():
    assert touts("t_emit", ()) == [frozenset({"s3"})]
    assert touts("t_pause_emit", (), ()) == [frozenset(), frozenset({"s3"})]


def test_present_follows_the_input():
    assert touts("t_present", ("s1",)) == [frozenset({"s3"})]
    assert touts("t_present", ()) == [frozenset()]
    assert touts("t_chain", ("s1", "s2")) == [frozenset({"s3"})]
    assert touts("t_chain", ("s1",)) == [frozenset()]


def test_branch_selection_at_end_of_instant():
    # ite consults the final environment of the instant
    assert touts("t_pause_branch", ("s1",), ()) == [frozenset(),
                                                    frozenset({"s3"})]
    assert touts("t_pause_branch", (), ()) == [frozenset(), frozenset()]


def test_local_signal_handshake():
    assert touts("t_local", ()) == [frozenset({"s3"})]
    assert touts("t_local_dead", (), ()) == [frozenset(), frozenset()]


def test_recursive_relay():
    assert touts("t_relay_loop", (), ("s1",), (), ("s1",)) == [
        frozenset(), frozenset({"s3"}), frozenset(), frozenset({"s3"})]


def test_beat_alternation():
    assert touts("t_beat", (), (), ()) == [
        frozenset({"s3"}), frozenset({"s3"}), frozenset({"s3"})]
    assert touts("t_alternate", (), (), (), ()) == [
        frozenset({"s3"}), frozenset(), frozenset({"s3"}), frozenset()]


def test_tail_free_signals_respects_new():
    t = TNew("x", TEmit("x", TPresent("s1", TNIL, BLeaf(TNIL))))
    assert free_signals(t) == {"s1"}


def test_tail_substitute_avoids_capture():
    t = TNew("x", TPresent("y", TEmit("x", TNIL), BLeaf(TNIL)))
    out = tail_substitute(t, {"y": "x"})
    assert isinstance(out, TNew)
    assert out.bound != "x"
    assert free_signals(out) == {"x"}


def test_tail_substitute_renames_a_binder_past_free_reserved_names():
    t = TNew("y", TEmit("x", TEmit("%r0", TNIL)))
    out = tail_substitute(t, {"x": "y"})
    assert free_signals(out) == {"y", "%r0"}


def test_call_unfolding_keeps_a_free_reserved_name_free():
    p = parse_tail_program(
        "(input y) (output o)"
        " (def (A x) (new y (emit! x (present %r0 (emit! o 0) 0))))"
        " (run (thread! (emit! %r0 0) (call A y)))")
    assert run_trace_tail(p, [frozenset()]) == [(frozenset(), {"o"})]


def test_canonicalize_tail_identifies_alpha_variants():
    interface = frozenset({"s1"})
    t1 = TNew("%g0", TEmit("%g0", TPresent("s1", TNIL, BLeaf(TNIL))))
    t2 = TNew("%g9", TEmit("%g9", TPresent("s1", TNIL, BLeaf(TNIL))))
    assert canonicalize_tail([t1], interface) == \
        canonicalize_tail([t2], interface)
    assert canonicalize_tail([t1, TNIL], interface) == \
        canonicalize_tail([TNIL, t2], interface)


def test_canonicalize_tail_renames_binders_whatever_the_order():
    a = parse_tail_program(
        "(output o) (run (new x (emit! x (present x (emit! o 0) 0))))")
    b = parse_tail_program("(output o) (run (new y (present y 0 (emit! o 0))))")
    threads = [a.initial[0], b.initial[0]]
    assert canonicalize_tail(threads, {"o"}) == \
        canonicalize_tail(threads[::-1], {"o"})


def test_end_of_instant_rejects_runnable_threads():
    env = Env({"s2", PAUSE_SIGNAL}, 0)
    with pytest.raises(NotSuspendedError):
        end_of_instant_tail([TEmit("s2", TNIL)], env)


def test_runner_threads_survive_between_instants():
    r = TailRunner(tprog("t_alternate"))
    assert r.run_instant(frozenset()).outputs == frozenset({"s3"})
    # the instant boundary already selected the branch
    assert TCall("OffBeat", ()) in r.threads
    assert r.run_instant(frozenset()).outputs == frozenset()


def test_tail_reactivity_accepts_the_corpus():
    for name, p in tail_corpus():
        assert check_reactivity_tail(p), name


def test_tail_reactivity_rejects_an_instant_loop():
    p = parse_tail_program("""
(input s1)
(output s2)
(def (D) (call D))
(run (call D))
""")
    verdict = check_reactivity_tail(p)
    assert not verdict
    assert "D" in verdict.cycle


def test_spawn_runs_both_sides():
    assert touts("t_spawn", ("s1", "s2")) == [frozenset({"s3"})]
    assert touts("t_spawn", ("s2",)) == [frozenset({"s3"})]
    assert touts("t_spawn", ()) == [frozenset()]


def test_print_tail_is_stable():
    t = TSpawn(TEmit("a", TNIL), TPresent("b", TNIL, BIte(
        "c", BLeaf(TNIL), BLeaf(TCall("D", ("a",))))))
    text = print_tail(t)
    assert text == "(thread! (emit! a 0) (present b 0 (ite c 0 (call D a))))"


def test_print_tail_takes_one_frame_per_level():
    # keeping the text must not add a call per node: an 800-deep chain
    # prints under the default recursion limit of 1,000
    t = TNIL
    for _ in range(800):
        t = TEmit("a", t)
    assert print_tail(t) == "(emit! a " * 800 + "0" + ")" * 800

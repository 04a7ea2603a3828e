import pytest

from sltk._canon import free_signals
from sltk.errors import NotSuspendedError, ParseError
from sltk.semantics import Env
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
    await_prefix,
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


def test_await_prefix_builds_a_retry_definition():
    defined = {}

    def define(name, params, body):
        defined[name] = (params, body)

    call = await_prefix("s1", TEmit("s2", TNIL), lambda: "W0", define)
    assert call == TCall("W0", ("s1", "s2"))
    params, body = defined["W0"]
    assert params == ("s1", "s2")
    assert body == TPresent("s1", TEmit("s2", TNIL),
                            BLeaf(TCall("W0", ("s1", "s2"))))


def test_await_prefix_drops_the_pause_signal_from_params():
    call = await_prefix("s1", pause_prefix(BLeaf(TNIL)), lambda: "W1",
                        lambda *a: None)
    assert call == TCall("W1", ("s1",))


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

import pytest

from sltk._canon import free_signals
from sltk.errors import (
    ArityMismatchError,
    ParseError,
    UnboundIdentifierError,
    UndeclaredSignalError,
)
from sltk.syntax import (
    NIL,
    PAUSE,
    Await,
    Emit,
    New,
    Pause,
    Seq,
    Watch,
    canonicalize,
    canonicalize_with_renaming,
    expand_present,
    parse_program,
    print_program,
    print_thread,
    seq_all,
    seq_of,
    substitute,
)

from .corpus import SOURCE_TEXTS, source_corpus


def parse_run(text):
    """Parse a one-thread program body over the standard interface."""
    p = parse_program("(input s1 s2)\n(output s3 s4)\n(run %s)" % text)
    return p.initial[0]


def test_seq_is_right_associated():
    t = parse_run("(seq (emit s3) (emit s4) pause)")
    assert isinstance(t, Seq)
    assert isinstance(t.first, Emit)
    assert isinstance(t.rest, Seq)
    assert isinstance(t.rest.rest, Pause)


def test_seq_of_reassociates_to_the_right():
    a, b, c = Emit("a"), Emit("b"), Emit("c")
    t = seq_of(Seq(a, b), c)
    assert t == Seq(a, Seq(b, c))


def test_seq_of_keeps_nil_nil():
    # 0;0 still takes a reduction step, so it must not collapse to 0
    t = seq_of(NIL, NIL)
    assert isinstance(t, Seq)


def test_seq_all_singleton_is_identity():
    assert seq_all([PAUSE]) is PAUSE
    t = seq_all([Emit("a"), Emit("b"), Emit("c")])
    assert t == Seq(Emit("a"), Seq(Emit("b"), Emit("c")))


def test_free_signals_respects_binders():
    t = New("x", seq_of(Emit("x"), Watch("s1", Await("y"))))
    assert free_signals(t) == {"s1", "y"}


def test_substitute_avoids_capture():
    t = New("x", seq_of(Await("y"), Emit("x")))
    out = substitute(t, {"y": "x"})
    assert isinstance(out, New)
    assert out.bound != "x"
    assert free_signals(out) == {"x"}


def test_print_parse_round_trip():
    for name, p in source_corpus():
        text = print_program(p)
        again = parse_program(text)
        assert print_program(again) == text, name


@pytest.mark.parametrize("text, message", [
    # from a later declaration
    ("(input a)(output b)(def (A) (loop pause))(def (B) (call L0))"
     "(run (call B))", "1:57: no definition for L0"),
    # from a run form, with a loop generated and without one
    ("(input a)(output b)(def (A) (loop pause))(run (call L0))",
     "1:53: no definition for L0"),
    ("(run (call L0))", "1:12: no definition for L0"),
])
def test_generated_loops_are_not_callable(text, message):
    with pytest.raises(UnboundIdentifierError) as e:
        parse_program(text)
    assert str(e.value) == message


def test_print_thread_is_stable():
    t = parse_run("(seq (new x (emit x)) (watch s1 pause))")
    assert print_thread(t) == "(seq (new x (emit x)) (watch s1 pause))"


def test_parse_rejects_unbalanced():
    with pytest.raises(ParseError):
        parse_program("(input s1)\n(output s2)\n(run (emit s2)")


def test_parse_rejects_unknown_signal():
    with pytest.raises(UndeclaredSignalError):
        parse_program("(input s1)\n(output s2)\n(run (emit s9))")


def test_parse_rejects_free_signal_in_def_body():
    # definition bodies close over their parameters only
    with pytest.raises(UndeclaredSignalError):
        parse_program("""
(input s1)
(output s2)
(def (Leak a) (emit s2))
(run (call Leak s1))
""")


def test_parse_rejects_arity_mismatch():
    with pytest.raises(ArityMismatchError):
        parse_program("""
(input s1)
(output s2)
(def (Two a b) (seq (await a) (emit b)))
(run (call Two s1))
""")


def test_parse_rejects_duplicate_definition():
    with pytest.raises(ParseError):
        parse_program("""
(input s1)
(output s2)
(def (A) pause)
(def (A) 0)
(run (call A))
""")


def test_parse_requires_a_run():
    with pytest.raises(ParseError):
        parse_program("(input s1)\n(output s2)\n(def (A) pause)")


def test_parse_error_carries_position():
    try:
        parse_program("(input s1)\n(output s2)\n(run (seq))")
    except ParseError as e:
        assert e.line == 3
    else:
        raise AssertionError("expected a parse error")


def test_present_sugar_matches_expansion():
    p = parse_program(
        "(input s1)\n(output s2)\n(run (present s1 (emit s2) 0))")
    counter = [0]

    def gensym():
        counter[0] += 1
        return f"%g{counter[0] - 1}"

    expected = expand_present("s1", Emit("s2"), NIL, gensym, lambda: PAUSE)
    assert print_thread(p.initial[0]) == print_thread(expected)


def test_par_sugar_creates_loop_definitions():
    p = parse_program(SOURCE_TEXTS["par_join"])
    loops = [d for d in p.defs.values()
             if d.name[0] == "L" and d.name[1:].isdigit()]
    assert len(loops) >= 2
    for d in loops:
        assert free_signals(d.body) <= set(d.params)
        assert isinstance(d.body, Seq)


def test_pause_modes_share_surface_syntax():
    prim = parse_program(SOURCE_TEXTS["pause_chain"])
    table = parse_program(SOURCE_TEXTS["pause_chain"], pause_mode="table1")
    assert any(isinstance(t, Seq) for t in prim.initial)
    assert not any("pause" in print_thread(t) for t in table.initial)


def test_interface_and_all_threads():
    p = parse_program(SOURCE_TEXTS["double_relay"])
    assert p.interface == frozenset({"s1", "s2", "s3", "s4"})
    bodies = list(p.all_threads())
    assert len(bodies) == len(p.defs) + len(p.initial)


def test_canonicalize_ignores_thread_order():
    interface = frozenset({"s1", "s2"})
    a = Emit("s1")
    b = Await("s2")
    assert canonicalize([a, b], interface) == canonicalize([b, a], interface)


def test_canonicalize_identifies_alpha_variants():
    interface = frozenset({"s1"})
    t1 = New("%g0", seq_of(Emit("%g0"), Await("s1")))
    t2 = New("%g7", seq_of(Emit("%g7"), Await("s1")))
    assert canonicalize([t1], interface) == canonicalize([t2], interface)


def test_canonicalize_with_renaming_returns_mapping():
    interface = frozenset({"s1"})
    t = seq_of(Emit("%g5"), Await("s1"))
    canon, renaming = canonicalize_with_renaming([t], interface)
    assert "%g5" in renaming
    assert canonicalize([t], interface) == canon


def test_generated_names_survive_a_round_trip():
    # printed programs contain generated names, so the parser accepts them
    p = parse_program(SOURCE_TEXTS["par_join"])
    text = print_program(p)
    assert print_program(parse_program(text)) == text

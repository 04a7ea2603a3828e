import itertools
import random
import re

import pytest

from sltk.cps import NAIVE, CpsTranslator, cps_program
from sltk.errors import IndexExplosionError
from sltk.semantics import decompose, plug, run_trace
from sltk.syntax import (
    PAUSE,
    Await,
    Call,
    Emit,
    New,
    Spawn,
    Watch,
    parse_program,
    seq_of,
    substitute,
)
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
    check_reactivity_tail,
    print_tail,
    run_trace_tail,
    tail_alpha_key,
    tail_substitute,
)

from .corpus import source_corpus


WORKED_EXAMPLE = """
(input s1 s2)
(output s3 s4)
(def (A a b c d) (seq (watch a (call B a b c d)) (emit d) (call A a b c d)))
(def (B a b c d) (seq (await b) (emit c) pause (call B a b c d)))
(run (call A s1 s2 s3 s4))
"""


HOST = """
(input s1 s2)
(output s3 s4)
(def (Z a b) (seq (await a) (emit b)))
(run 0)
"""


def translator():
    return CpsTranslator(parse_program(HOST))


def subsets(signals):
    out = []
    for k in range(len(signals) + 1):
        out.extend(frozenset(c) for c in itertools.combinations(signals, k))
    return out


def all_words(signals, length):
    return itertools.product(subsets(signals), repeat=length)


def agree(p, words):
    image = cps_program(p).program
    for word in words:
        src = run_trace(p, list(word))
        tgt = run_trace_tail(image, list(word))
        assert [o for _, o in src] == [o for _, o in tgt], word


# ---------------------------------------------------------------------------
# clause shapes


def compile_run(text):
    p = parse_program("(input s1 s2)\n(output s3 s4)\n(run %s)" % text)
    return cps_program(p)


def test_nil_compiles_to_its_continuation():
    assert compile_run("0").program.initial == (TNIL,)


def test_emit_prefixes_the_continuation():
    res = compile_run("(seq (emit s3) (emit s4))")
    assert res.program.initial == (TEmit("s3", TEmit("s4", TNIL)),)


def test_spawn_restarts_on_the_empty_context():
    res = compile_run("(seq (thread (emit s3)) (emit s4))")
    assert res.program.initial == (
        TSpawn(TEmit("s3", TNIL), TEmit("s4", TNIL)),)


def test_new_stays_a_binder():
    res = compile_run("(new x (emit x))")
    (t,) = res.program.initial
    assert isinstance(t, TNew)
    assert t.body == TEmit(t.bound, TNIL)


def test_pause_compiles_the_preemption_stack():
    res = compile_run("(watch s1 pause)")
    assert res.program.initial == (
        TPresent(PAUSE_SIGNAL, TNIL,
                 BIte("s1", BLeaf(TNIL), BLeaf(TNIL))),)


def test_await_becomes_a_recursive_guard():
    res = compile_run("(await s1)")
    (t,) = res.program.initial
    assert isinstance(t, TCall)
    body = res.program.defs[t.ident].body
    assert body == TPresent("s1", TNIL, BLeaf(TCall(t.ident, t.args)))


def test_watch_around_await_adds_a_kill_branch():
    res = compile_run("(watch s1 (await s2))")
    (t,) = res.program.initial
    body = res.program.defs[t.ident].body
    assert body == TPresent("s2", TNIL,
                            BIte("s1", BLeaf(TNIL),
                                 BLeaf(TCall(t.ident, t.args))))


def test_worked_example_equations_up_to_renaming():
    p = parse_program(WORKED_EXAMPLE)
    res = cps_program(p)
    defs = res.program.defs
    (start,) = res.program.initial
    assert isinstance(start, TCall)

    a_def = defs[start.ident]
    a_body = tail_substitute(a_def.body, dict(zip(a_def.params, start.args)))
    assert isinstance(a_body, TCall)
    b_call = a_body

    b_def = defs[b_call.ident]
    b_body = tail_substitute(b_def.body, dict(zip(b_def.params, b_call.args)))

    t1 = TEmit("s4", TCall(start.ident, start.args))
    cascade = BIte("s1", BLeaf(t1), BLeaf(b_call))
    t2 = TEmit("s3", TPresent(PAUSE_SIGNAL, TNIL, cascade))
    assert b_body == TPresent("s2", t2, cascade)


def test_worked_example_traces_agree():
    agree(parse_program(WORKED_EXAMPLE), all_words(("s1", "s2"), 3))


def test_corpus_traces_agree_exhaustively_short():
    for name, p in source_corpus()[:6]:
        agree(p, all_words(("s1", "s2"), 3))


def test_corpus_traces_agree_on_random_words():
    rng = random.Random(11)
    sets = subsets(("s1", "s2"))
    for name, p in source_corpus():
        words = [tuple(rng.choice(sets) for _ in range(6)) for _ in range(8)]
        agree(p, words)


def test_naive_pause_mode_agrees_with_optimized():
    rng = random.Random(5)
    sets = subsets(("s1", "s2"))
    for name, p in source_corpus()[:8]:
        fast = cps_program(p).program
        slow = cps_program(p, pause_mode=NAIVE).program
        for _ in range(5):
            word = [rng.choice(sets) for _ in range(5)]
            a = [o for _, o in run_trace_tail(fast, word)]
            b = [o for _, o in run_trace_tail(slow, word)]
            assert a == b, name


def test_cps_images_stay_reactive():
    for name, p in source_corpus():
        image = cps_program(p).program
        assert check_reactivity_tail(image), name


def test_equation_table_entries_are_shared():
    p = parse_program("""
(input s1 s2)
(output s3 s4)
(def (Z a b) (seq (await a) (emit b)))
(run (call Z s1 s3))
(run (call Z s1 s3))
""")
    res = cps_program(p)
    entries = [name for name in res.program.defs if name.startswith("Z$")]
    assert len(entries) == 1


def test_unbounded_program_overflows_the_table():
    p = parse_program("""
(input s1)
(output s2)
(def (A) (seq pause (call A) (call B)))
(def (B) 0)
(run (call A))
""")
    with pytest.raises(IndexExplosionError) as info:
        cps_program(p, index_limit=64)
    assert str(info.value) == ("equation table exceeded 64 entries "
                               "(bounded-context check: reject: A > A)")


def test_table_overflow_names_an_accepting_bounded_check():
    p = parse_program("""
(input s1)
(output s2)
(def (A) (seq pause (thread (call A))))
(run (call A))
""")
    with pytest.raises(IndexExplosionError) as info:
        cps_program(p, index_limit=0)
    assert str(info.value) == ("equation table exceeded 0 entries "
                               "(bounded-context check: accept)")


def test_index_notes_name_every_generated_equation():
    res = cps_program(parse_program(WORKED_EXAMPLE))
    noted = {note.split()[0] for note in res.notes}
    assert set(res.program.defs) <= noted


# ---------------------------------------------------------------------------
# the decomposition and substitution laws


def _plain_fillers():
    return [
        Emit("s3"),
        PAUSE,
        seq_of(Emit("s3"), PAUSE),
        Watch("s1", PAUSE),
        New("z", Emit("z")),
        Spawn(seq_of(PAUSE, Emit("s4"))),
        seq_of(Watch("s2", seq_of(PAUSE, Emit("s3"))), Emit("s4")),
    ]


def _contexts():
    """(program, frames) pairs taken from corpus decompositions."""
    pool = []
    for _, p in source_corpus():
        for body in p.all_threads():
            split = decompose(body)
            if split:
                pool.append((p, split[0]))
    return pool


def test_context_law_on_plain_fillers():
    rng = random.Random(23)
    pool = _contexts()
    for _ in range(150):
        p, frames = rng.choice(pool)
        filler = rng.choice(_plain_fillers())
        tr = CpsTranslator(p)
        t, tau = tr.translate_context(frames, TNIL, ())
        via_hole = tr.translate(filler, t, tau)
        direct = tr.translate(plug(frames, filler), TNIL, ())
        # binders and await guards pick fresh names per translation, so
        # compare up to renaming of both
        assert _blur_generated(tail_alpha_key(direct)) == \
            _blur_generated(tail_alpha_key(via_hole)), (frames, filler)


def _blur_generated(text):
    return re.sub(r"Awt\$\d+", "Awt$*", text)


def test_context_law_modulo_names_for_await():
    pool = _contexts()
    rng = random.Random(29)
    filler = seq_of(Await("s1"), Emit("s3"))
    for _ in range(40):
        p, frames = rng.choice(pool)
        tr = CpsTranslator(p)
        t, tau = tr.translate_context(frames, TNIL, ())
        via_hole = tr.translate(filler, t, tau)
        direct = tr.translate(plug(frames, filler), TNIL, ())
        assert _blur_generated(print_tail(direct)) == \
            _blur_generated(print_tail(via_hole))


def test_substitution_law_on_plain_bodies():
    # syntactic equality where no equations get generated
    bodies = [
        seq_of(Emit("y"), seq_of(PAUSE, Emit("x"))),
        Watch("x", seq_of(PAUSE, Emit("y"))),
        New("z", seq_of(Emit("z"), Emit("x"))),
        seq_of(Spawn(Emit("x")), Emit("y")),
    ]
    conts = [TNIL, TEmit("s3", TNIL),
             TPresent(PAUSE_SIGNAL, TNIL, BLeaf(TNIL))]
    taus = [(), (("s1", TEmit("s4", TNIL)),)]
    sub = {"x": "s1", "y": "s2"}
    for T in bodies:
        for t in conts:
            for tau in taus:
                lhs = tail_substitute(translator().translate(T, t, tau), sub)
                rhs = translator().translate(substitute(T, sub), t, tau)
                assert lhs == rhs, (T, t, tau)


def _close_over(tr, thread):
    """A runnable tail program from one translated thread."""
    tr.drain()
    from sltk.syntax import Program

    return Program(("s1", "s2"), ("s3", "s4"), dict(tr.defs_out), (thread,))


def test_substitution_law_up_to_traces():
    # generated guards parameterize differently on each side, so the law
    # holds at the level of traces rather than trees
    bodies = [
        seq_of(Await("x"), Emit("y")),
        New("z", seq_of(Emit("z"), Await("x"))),
        seq_of(Spawn(Emit("x")), Call("Z", ("x", "y"))),
        seq_of(Call("Z", ("y", "x")), Emit("y")),
    ]
    conts = [TNIL, TEmit("s3", TNIL)]
    taus = [(), (("s1", TEmit("s4", TNIL)),)]
    sub = {"x": "s1", "y": "s2"}
    words = list(all_words(("s1", "s2"), 3))
    for T in bodies:
        for t in conts:
            for tau in taus:
                tr1 = translator()
                lhs = tail_substitute(tr1.translate(T, t, tau), sub)
                left = _close_over(tr1, lhs)
                tr2 = translator()
                rhs = tr2.translate(substitute(T, sub), t, tau)
                right = _close_over(tr2, rhs)
                for word in words:
                    a = [o for _, o in run_trace_tail(left, list(word))]
                    b = [o for _, o in run_trace_tail(right, list(word))]
                    assert a == b, (T, t, tau, word)

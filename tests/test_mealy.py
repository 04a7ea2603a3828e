from collections import deque

import pytest

from sltk import mealy
from sltk.errors import (
    HasSignalGenerationError,
    ParseError,
    SLError,
    StateExplosionError,
)
from sltk.mealy import (
    DEFAULT_STATE_LIMIT,
    Distinguished,
    Equivalent,
    MonotonicMealy,
    MonotonicityViolation,
    input_subsets,
    mealy_to_program,
    mealy_trace_equiv,
    parse_mealy,
    print_mealy,
    program_to_mealy,
    validate_mealy,
)
from sltk.cps import cps_program
from sltk.syntax import Program
from sltk.tailcore import (
    TCall,
    parse_tail_program,
    print_tail_program,
    run_trace_tail,
    select_branch,
)

from .corpus import (
    TAIL_TEXTS,
    random_monotone_mealy,
    random_tail_program,
    seeded,
    source_corpus,
    tail_corpus,
)


def drive(machine, word):
    """Reference run of a machine over index-set inputs."""
    q = machine.init
    out = []
    for X in word:
        key = (q, frozenset(X))
        out.append(machine.output[key])
        q = machine.next_state[key]
    return out


def copier():
    """One input wire copied to the single output wire, stateless."""
    states = ("q0",)
    nxt = {("q0", frozenset()): "q0", ("q0", frozenset({1})): "q0"}
    out = {("q0", frozenset()): frozenset(),
           ("q0", frozenset({1})): frozenset({1})}
    return MonotonicMealy(states, "q0", 1, 1, nxt, out)


def latch():
    """Turns on after the first pulse on wire 1 and stays on."""
    nxt = {("off", frozenset()): "off", ("off", frozenset({1})): "on",
           ("on", frozenset()): "on", ("on", frozenset({1})): "on"}
    out = {("off", frozenset()): frozenset(),
           ("off", frozenset({1})): frozenset({1}),
           ("on", frozenset()): frozenset({1}),
           ("on", frozenset({1})): frozenset({1})}
    return MonotonicMealy(("off", "on"), "off", 1, 1, nxt, out)


def test_input_subsets_are_ordered_by_size():
    assert input_subsets(2) == [frozenset(), frozenset({1}), frozenset({2}),
                                frozenset({1, 2})]


def test_validate_accepts_monotone_tables():
    assert validate_mealy(copier()) is None
    assert validate_mealy(latch()) is None


def test_validate_reports_the_first_violation():
    m = copier()
    out = dict(m.output)
    out[("q0", frozenset({1}))] = frozenset()
    out[("q0", frozenset())] = frozenset({1})
    bad = MonotonicMealy(m.states, m.init, 1, 1, m.next_state, out)
    violation = validate_mealy(bad)
    assert violation == MonotonicityViolation(
        frozenset(), frozenset({1}), "q0", 1)


def test_validate_rejects_partial_tables():
    m = copier()
    nxt = dict(m.next_state)
    del nxt[("q0", frozenset({1}))]
    with pytest.raises(ValueError):
        validate_mealy(MonotonicMealy(m.states, m.init, 1, 1, nxt, m.output))


def test_machine_program_copies_the_wire():
    p = mealy_to_program(copier())
    word = [frozenset(), frozenset({"i1"}), frozenset(), frozenset({"i1"})]
    outs = [o for _, o in run_trace_tail(p, word)]
    assert outs == [frozenset(), frozenset({"o1"}), frozenset(),
                    frozenset({"o1"})]


def test_machine_program_latches():
    p = mealy_to_program(latch())
    word = [frozenset(), frozenset({"i1"}), frozenset(), frozenset()]
    outs = [o for _, o in run_trace_tail(p, word)]
    assert outs == [frozenset(), frozenset({"o1"}), frozenset({"o1"}),
                    frozenset({"o1"})]


def test_non_monotone_machine_is_refused():
    m = copier()
    out = dict(m.output)
    out[("q0", frozenset({1}))] = frozenset()
    out[("q0", frozenset())] = frozenset({1})
    bad = MonotonicMealy(m.states, m.init, 1, 1, m.next_state, out)
    with pytest.raises(ValueError):
        mealy_to_program(bad)


def test_extraction_of_a_constant_beat():
    p = parse_tail_program(TAIL_TEXTS["t_beat"])
    machine = program_to_mealy(p)
    assert machine.n == 2 and machine.m == 1
    for q in machine.states:
        for X in input_subsets(2):
            assert machine.output[(q, X)] == frozenset({1})


def test_extraction_refuses_signal_generation():
    p = parse_tail_program(TAIL_TEXTS["t_local"])
    with pytest.raises(HasSignalGenerationError):
        program_to_mealy(p)


def test_extraction_respects_the_state_limit():
    p = parse_tail_program(TAIL_TEXTS["t_alternate"])
    with pytest.raises(StateExplosionError):
        program_to_mealy(p, state_limit=1)


def test_round_trip_small_family():
    for seed in range(6):
        machine = random_monotone_mealy(seeded(seed))
        assert validate_mealy(machine) is None
        back = program_to_mealy(mealy_to_program(machine))
        verdict = mealy_trace_equiv(machine, back)
        assert isinstance(verdict, Equivalent), seed


def test_extraction_agrees_with_the_interpreter():
    rng = seeded(101)
    checks = []
    for _ in range(15):
        p = random_tail_program(rng)
        checks.append((p, [frozenset(x for x in (1, 2) if rng.random() < 0.4)
                           for _ in range(8)]))
    # CPS images also call definitions with signal parameters
    images = [cps_program(p).program for _, p in source_corpus()]
    images = [p for p in images if not p.has_binder]
    assert len(images) == 17
    rng = seeded(17)
    for p in images:
        checks += [(p, [frozenset(x for x in (1, 2) if rng.random() < 0.4)
                        for _ in range(12)]) for _ in range(3)]
    for p, word in checks:
        machine = program_to_mealy(p)
        in_name = {x: s for x, s in enumerate(p.inputs, start=1)}
        out_name = {j: s for j, s in enumerate(p.outputs, start=1)}
        named = [frozenset(in_name[x] for x in X) for X in word]
        direct = [o for _, o in run_trace_tail(p, named)]
        via_machine = [frozenset(out_name[j] for j in O)
                       for O in drive(machine, word)]
        assert direct == via_machine, print_tail_program(p)


def test_trace_equiv_finds_a_separating_word():
    verdict = mealy_trace_equiv(copier(), latch())
    assert isinstance(verdict, Distinguished)
    assert not verdict
    # both agree until the latch remembers a pulse
    assert verdict.word[-1] == frozenset()
    assert frozenset({1}) in verdict.word
    assert "{" in verdict.render()


def test_machine_witnesses_replay():
    # the word of each distinguished verdict, walked through both tables,
    # agrees on every letter but the last, where it gives the two outputs
    pairs = [(copier(), latch())]
    for seed in range(40):
        for n, m in ((1, 1), (2, 2), (3, 2)):
            rng = seeded(seed)
            pairs.append((random_monotone_mealy(rng, n=n, m=m),
                          random_monotone_mealy(rng, n=n, m=m)))
    longer = 0
    for a, b in pairs:
        verdict = mealy_trace_equiv(a, b)
        if verdict:
            continue
        *same_a, last_a = drive(a, verdict.word)
        *same_b, last_b = drive(b, verdict.word)
        assert same_a == same_b
        assert (last_a, last_b) == verdict.outputs
        assert last_a != last_b
        longer += len(verdict.word) > 1
    assert longer >= 10


def test_trace_equiv_requires_matching_arity():
    two = random_monotone_mealy(seeded(0), n=2, m=2)
    with pytest.raises(ValueError):
        mealy_trace_equiv(copier(), two)


def test_text_format_round_trip():
    for seed in range(4):
        machine = random_monotone_mealy(seeded(seed))
        text = print_mealy(machine)
        back = parse_mealy(text)
        assert set(back.states) == set(machine.states)
        assert back.init == machine.init
        assert (back.n, back.m) == (machine.n, machine.m)
        assert back.next_state == machine.next_state
        assert back.output == machine.output


def test_text_format_rejects_gaps():
    text = """mealy n=1 m=1
state q0 init
trans q0 {} -> q0 {}
"""
    with pytest.raises(ParseError):
        parse_mealy(text)


GOOD_TABLE = """mealy n=1 m=1
state q0 init
state q1
trans q0 {} -> q1 {}
trans q0 {1} -> q1 {1}
trans q1 {} -> q0 {}
trans q1 {1} -> q0 {1}
"""


@pytest.mark.parametrize("old, new, error", [
    ("trans q1 {} -> q0 {}", "trans q1 {} -> q9 {}",
     "6:0: undeclared state q9"),
    ("trans q1 {} -> q0 {}", "trans q9 {} -> q0 {}",
     "6:0: undeclared state q9"),
    ("trans q0 {1} -> q1 {1}", "trans q0 {2} -> q1 {1}",
     "5:0: input wire 2 outside 1..1"),
    ("trans q0 {1} -> q1 {1}", "trans q0 {0} -> q1 {1}",
     "5:0: input wire 0 outside 1..1"),
    ("trans q0 {1} -> q1 {1}", "trans q0 {1} -> q1 {7}",
     "5:0: output wire 7 outside 1..1"),
    ("state q1\n", "state q1\nstate q1\n", "4:0: duplicate state q1"),
    ("trans q1 {} -> q0 {}", "trans q1 {} -> q0 {}\ntrans q1 {} -> q1 {1}",
     "7:0: duplicate trans for q1 {}"),
])
def test_text_format_rejects_what_its_tools_cannot_use(old, new, error):
    assert parse_mealy(GOOD_TABLE).states == ("q0", "q1")
    with pytest.raises(ParseError) as e:
        parse_mealy(GOOD_TABLE.replace(old, new))
    assert str(e.value) == error


def test_text_format_rejects_missing_init():
    text = """mealy n=1 m=1
state q0
trans q0 {} -> q0 {}
trans q0 {1} -> q0 {1}
"""
    with pytest.raises(ParseError):
        parse_mealy(text)


def test_twin_guards_extract_the_table_of_one():
    header = "(input s1)\n(output s2)\n"
    guard = "(present s1 (emit! s2 0) 0)"
    single = program_to_mealy(parse_tail_program(
        header + f"(run {guard})"))
    twin = program_to_mealy(parse_tail_program(
        header + f"(run (thread! {guard} {guard}))"))
    assert twin == single
    assert len(single.states) == 2


def test_extraction_names_an_unguarded_call_cycle():
    p = parse_tail_program("""
(input s1)
(output s2)
(def (A) (call B))
(def (B) (call A))
(run (call A))
""")
    chain = r"unguarded call cycle: A\(\) = B\(\) = A\(\)"
    with pytest.raises(SLError, match=chain):
        program_to_mealy(p)


# ---------------------------------------------------------------------------
# extraction against the per-input-set reference loop


def reference_mealy(program, state_limit=DEFAULT_STATE_LIMIT):
    """Extraction as first written: every state's guards closed afresh
    under every input set, `select_branch` on every guard left, and
    boundaries keyed by the identity of their threads."""
    if program.has_binder:
        raise HasSignalGenerationError()
    unfold = mealy._call_bodies(program.defs)
    n = len(program.inputs)
    in_name = {x: s for x, s in enumerate(program.inputs, start=1)}
    out_index = {s: j for j, s in enumerate(program.outputs, start=1)}
    entered, guards_of = {}, {}

    def settle(threads, emitted):
        run = mealy.closure(threads, emitted, unfold)
        return [g for gs in run.waiting.values() for g in gs], run.emitted

    def enter(threads):
        key = frozenset(map(id, threads))
        q = entered.get(key)
        if q is None:
            guards, emitted = settle(threads, ())
            q = entered[key] = (frozenset(map(id, guards)),
                                frozenset(emitted))
            guards_of[q] = guards
        return q

    q0 = enter(program.initial)
    names = {q0: "q0"}
    queue = deque([q0])
    next_state, output = {}, {}
    while queue:
        q = queue.popleft()
        for X in input_subsets(n):
            left, emitted = settle(guards_of[q],
                                   q[1].union(in_name[x] for x in X))
            q2 = enter([select_branch(g.branch, emitted.__contains__)
                        for g in left])
            if q2 not in names:
                if len(names) >= state_limit:
                    raise StateExplosionError(state_limit)
                names[q2] = f"q{len(names)}"
                queue.append(q2)
            next_state[(names[q], X)] = names[q2]
            output[(names[q], X)] = frozenset(
                out_index[s] for s in emitted if s in out_index)
    return MonotonicMealy(tuple(names.values()), "q0", n,
                          len(program.outputs), next_state, output)


def outcome(extract, program, **kwargs):
    """The printed machine, or the type and message of the error."""
    try:
        return print_mealy(extract(program, **kwargs))
    except SLError as e:
        return type(e), str(e)


def oracle_programs():
    yield from ((f"tail {name}", p) for name, p in tail_corpus())
    yield from ((f"cps {name}", cps_program(p).program)
                for name, p in source_corpus())
    for k in range(60):
        yield f"random {k}", random_tail_program(seeded(k))
    for n in range(1, 7):
        for k in range(3):
            machine = random_monotone_mealy(seeded(k), n=n)
            yield f"table n={n} {k}", mealy_to_program(machine)


def test_extraction_prints_what_the_reference_loop_prints():
    extracted = 0
    for name, p in oracle_programs():
        got = outcome(program_to_mealy, p)
        assert got == outcome(reference_mealy, p), name
        extracted += isinstance(got, str)
    assert extracted > 100


def arity_mismatch():
    p = parse_tail_program("""
(input s1)
(output s2)
(def (A x) (present x (emit! s2 0) 0))
(run 0)
""")
    return Program(p.inputs, p.outputs, p.defs, (TCall("A", ()),))


@pytest.mark.parametrize("program, kwargs, error", [
    (lambda: parse_tail_program(TAIL_TEXTS["t_local"]), {},
     HasSignalGenerationError),
    (lambda: parse_tail_program(
        "(input s1)\n(output s2)\n(def (A) (call B))\n(def (B) (call A))\n"
        "(run (present s1 (call A) 0))"), {}, SLError),
    (arity_mismatch, {}, SLError),
    (lambda: parse_tail_program(TAIL_TEXTS["t_alternate"]),
     {"state_limit": 1}, StateExplosionError),
])
def test_extraction_fails_as_the_reference_loop_fails(program, kwargs, error):
    p = program()
    got = outcome(program_to_mealy, p, **kwargs)
    assert got == outcome(reference_mealy, p, **kwargs)
    assert got[0] is error and isinstance(got[1], str)


def test_a_round_trip_closes_each_state_once(monkeypatch):
    machine = random_monotone_mealy(seeded(3), n=6, n_states=2)
    program = mealy_to_program(machine)
    calls = []
    closure = mealy.closure

    def counted(*args):
        calls.append(args)
        return closure(*args)

    monkeypatch.setattr(mealy, "closure", counted)
    back = program_to_mealy(program)
    assert len(back.states) == 2
    assert len(calls) == 2
    assert isinstance(mealy_trace_equiv(machine, back), Equivalent)


def test_at_most_one_run_per_wire_is_alive(monkeypatch):
    live, peak = [0], [0]

    class Counted(mealy._Run):
        def __init__(self, *args):
            super().__init__(*args)
            live[0] += 1
            peak[0] = max(peak[0], live[0])

        def __del__(self):
            live[0] -= 1

    monkeypatch.setattr(mealy, "_Run", Counted)
    wires = range(1, 13)
    body = "0"
    for x in wires:
        body = f"(thread! (present i{x} (emit! o{x} 0) 0) {body})"
    p = parse_tail_program(
        f"(input {' '.join(f'i{x}' for x in wires)})\n"
        f"(output {' '.join(f'o{x}' for x in wires)})\n(run {body})")
    machine = program_to_mealy(p)
    assert len(machine.states) == 2
    assert machine.output[("q0", frozenset(wires))] == frozenset(wires)
    assert peak[0] <= 13


# ---------------------------------------------------------------------------
# monotonicity witnesses


def full_scan_violation(machine):
    """The first failing pair over all pairs X < Y of every state."""
    for q in machine.states:
        for X in input_subsets(machine.n):
            for Y in input_subsets(machine.n):
                missing = machine.output[(q, X)] - machine.output[(q, Y)]
                if X < Y and missing:
                    return MonotonicityViolation(X, Y, q, min(missing))
    return None


def test_validate_reports_the_witness_of_the_full_scan():
    rng = seeded(5)
    found = 0
    for k in range(200):
        n = 1 + k % 4
        machine = random_monotone_mealy(rng, n=n, m=3)
        output = dict(machine.output)
        for key in rng.sample(sorted(output, key=str), rng.randrange(3)):
            output[key] = frozenset(j for j in (1, 2, 3)
                                    if rng.random() < 0.5)
        table = MonotonicMealy(machine.states, machine.init, n, 3,
                               machine.next_state, output)
        witness = validate_mealy(table)
        assert witness == full_scan_violation(table), k
        found += witness is not None
    assert found > 50

import itertools
import random

import pytest

from sltk import semantics, tailcore
from sltk.analysis import check_bounded, check_reactivity
from sltk.cps import cps_program
from sltk.encodings import encode_counter_machine
from sltk._canon import free_signals
from sltk.errors import (
    ArityMismatchError,
    FuelExhaustedError,
    NotSuspendedError,
    StateExplosionError,
    UnboundIdentifierError,
    UnboundSignalError,
)
from sltk.semantics import (
    DEFAULT_FUEL,
    DETERMINISTIC,
    RANDOM,
    CallBodies,
    ConfluenceOk,
    ConfluenceViolation,
    Env,
    Runner,
    can_step,
    check_strong_confluence,
    decompose,
    diamond_walk,
    end_of_instant,
    plug,
    run_trace,
    subsets,
    try_step,
)
from sltk.syntax import (
    NIL,
    PAUSE,
    Await,
    Call,
    Emit,
    New,
    Nil,
    Pause,
    Seq,
    Spawn,
    Watch,
    next_gen_index,
    parse_program,
    print_program,
    print_thread,
    substitute,
)
from sltk.tailcore import (
    PAUSE_SIGNAL,
    TailRunner,
    TNil,
    can_step_tail,
    end_of_instant_tail,
    run_trace_tail,
    tail_substitute,
    try_step_tail,
)

from .corpus import (
    FRESH_CAPTURE,
    SOURCE_TEXTS,
    canonical_residual,
    confluence_corpus,
    random_input_word,
    random_source_program,
    source_corpus,
    tail_corpus,
)
from .test_encodings import LOOPING


def prog(name):
    return parse_program(SOURCE_TEXTS[name])


def outputs_of(name, *input_sets, **kw):
    trace = run_trace(prog(name), [frozenset(s) for s in input_sets], **kw)
    return [out for _, out in trace]


def test_emit_is_visible_in_its_instant():
    assert outputs_of("emit_once", ()) == [frozenset({"s3"})]
    assert outputs_of("emit_both", ()) == [frozenset({"s3", "s4"})]


def test_await_blocks_until_the_signal_arrives():
    assert outputs_of("relay", (), ("s1",), (), ("s1",)) == [
        frozenset(), frozenset({"s3"}), frozenset(), frozenset({"s3"})]


def test_signals_do_not_persist_across_instants():
    assert outputs_of("toggle", (), (), (), (), ()) == [
        frozenset({"s3"}), frozenset(), frozenset({"s3"}), frozenset(),
        frozenset({"s3"})]


def test_watch_kills_only_at_end_of_instant():
    # the body still runs during the instant the kill signal arrives
    assert outputs_of("watchdog", ("s1", "s2")) == [frozenset({"s3"})]
    # without the awaited signal the body dies with nothing to show
    assert outputs_of("watchdog", ("s1",), ("s2",)) == [frozenset(),
                                                        frozenset()]
    assert outputs_of("watchdog", ("s2",)) == [frozenset({"s3"})]


def test_watch_abortion_is_delayed_past_pause():
    assert outputs_of("watch_pause", ("s1",), ()) == [frozenset(), frozenset()]
    assert outputs_of("watch_pause", (), ()) == [frozenset(),
                                                 frozenset({"s3"})]


def test_present_takes_else_branch_one_instant_late():
    assert outputs_of("present_branch", ("s1",)) == [frozenset({"s3"})]
    assert outputs_of("present_branch", (), ()) == [frozenset(),
                                                    frozenset({"s4"})]


def test_spawned_threads_share_the_instant():
    assert outputs_of("spawn_pair", ()) == [frozenset({"s3", "s4"})]
    assert outputs_of("spawn_waiter", ("s1", "s2")) == [
        frozenset({"s3", "s4"})]
    assert outputs_of("spawn_waiter", ("s2",), ("s1",)) == [
        frozenset({"s4"}), frozenset({"s3"})]


def test_local_signal_round_trip_within_one_instant():
    assert outputs_of("local_handshake", ()) == [frozenset({"s3"})]


def test_pause_costs_exactly_one_instant_each():
    assert outputs_of("pause_chain", (), (), ()) == [
        frozenset(), frozenset(), frozenset({"s3"})]


def test_mutual_recursion_alternates():
    assert outputs_of("mutual", (), (), (), ()) == [
        frozenset({"s3"}), frozenset({"s4"}), frozenset({"s3"}),
        frozenset({"s4"})]


def test_emission_reaches_a_watch_in_the_same_instant():
    assert outputs_of("late_emitter", (), (), (), ()) == [
        frozenset(), frozenset({"s3"}), frozenset(), frozenset()]


def test_nested_watch_outer_kill_wins():
    assert outputs_of("nested_watch", (), ("s1", "s2"), ()) == [
        frozenset(), frozenset(), frozenset()]
    assert outputs_of("nested_watch", (), (), ()) == [
        frozenset(), frozenset(), frozenset({"s3"})]


def test_par_joins_before_continuing():
    assert outputs_of("par_join", ("s1",), ("s2",)) == [
        frozenset(), frozenset({"s3"})]
    assert outputs_of("par_join", ("s1", "s2")) == [frozenset({"s3"})]


def test_runner_residual_is_reported_and_kept():
    r = Runner(prog("pause_chain"))
    res = r.run_instant(frozenset())
    assert res.outputs == frozenset()
    assert list(res.residual) == r.threads
    assert r.run_instant(frozenset()).outputs == frozenset()
    assert r.run_instant(frozenset()).outputs == frozenset({"s3"})


def test_undeclared_input_is_rejected():
    r = Runner(prog("emit_once"))
    with pytest.raises(Exception):
        r.run_instant(frozenset({"nope"}))


def test_divergent_instant_exhausts_fuel():
    p = parse_program("""
(input s1)
(output s2)
(def (D) (call D))
(run (call D))
""")
    with pytest.raises(FuelExhaustedError):
        run_trace(p, [frozenset()], fuel=1000)
    with pytest.raises(FuelExhaustedError):
        run_trace(p, [frozenset()], policy=RANDOM, seed=3, fuel=1000)
    image = cps_program(p).program
    for policy in (DETERMINISTIC, RANDOM):
        with pytest.raises(FuelExhaustedError):
            run_trace_tail(image, [frozenset()], policy=policy, fuel=1000)


def test_terminated_threads_leave_the_residual():
    p = prog("emit_once")
    for runner in (Runner(p), TailRunner(cps_program(p).program)):
        res = runner.run_instant(frozenset())
        assert res.outputs == frozenset({"s3"})
        assert res.residual == () and runner.threads == []
        for _ in range(2):
            assert runner.run_instant(frozenset()) == \
                semantics.InstantResult(frozenset(), (), 0)


def test_emit_logs_a_signal_once_and_rejects_unbound_ones():
    env = Env({"s1", "s2"}, 0)
    env.begin({"s2"})
    env.emit("s1")
    env.emit("s1")
    env.emit("s2")
    assert env.emitted == ["s2", "s1"]
    assert env.present("s1") and env.present("s2")
    with pytest.raises(UnboundSignalError):
        env.emit("s9")


def test_end_of_instant_rejects_runnable_threads():
    p = prog("emit_once")
    env = Env(p.interface, 0)
    unfold = CallBodies(p.defs, substitute)
    with pytest.raises(NotSuspendedError):
        end_of_instant([Emit("s3")], env, unfold)
    # without an unfolder too: 0;emit s3 and watch s1 0 can still reduce
    for t in (Seq(NIL, Emit("s3")), Watch("s1", NIL)):
        with pytest.raises(NotSuspendedError):
            end_of_instant([t], env)


def test_end_of_instant_floors_a_deep_watch_nest():
    t = Seq(PAUSE, Emit("o"))
    for _ in range(5000):
        t = Watch("s", t)
    env = Env({"s", "o"}, 0)
    env.begin(())
    (floor,) = end_of_instant([t], env)
    for _ in range(5000):
        assert floor.__class__ is Watch and floor.signal == "s"
        floor = floor.body
    assert floor == Seq(NIL, Emit("o"))
    # the outermost present watch cuts the whole nest
    env.begin(("s",))
    assert end_of_instant([t], env) == (NIL,)


def test_random_policy_matches_deterministic_outputs():
    inputs = [frozenset(), frozenset({"s1"}), frozenset({"s2"}),
              frozenset({"s1", "s2"})]
    for name, p in source_corpus()[:8]:
        base = run_trace(p, inputs)
        for seed in (1, 2, 3):
            alt = run_trace(p, inputs, policy=RANDOM, seed=seed)
            assert [o for _, o in alt] == [o for _, o in base], (name, seed)


def test_residuals_agree_across_schedulers():
    inputs = [frozenset(), frozenset({"s1"})]
    for name, p in source_corpus()[:8]:
        runners = [Runner(p), Runner(p, policy=RANDOM, seed=9)]
        for ins in inputs:
            a = runners[0].run_instant(ins)
            b = runners[1].run_instant(ins)
            assert canonical_residual(p, a.residual) == \
                canonical_residual(p, b.residual), name


def test_confluence_explorer_covers_small_programs():
    for name, p in confluence_corpus()[:4]:
        verdict = check_strong_confluence(p, max_states=5000, max_instants=2)
        assert verdict and verdict.states >= 1, name


def test_confluence_explorer_counts_distinct_states():
    # the empty program's four input subsets, whatever the instants
    p = prog("empty")
    for k in (1, 4):
        assert check_strong_confluence(p, max_instants=k) == ConfluenceOk(4)
    with pytest.raises(ValueError):
        check_strong_confluence(p, max_instants=0)
    with pytest.raises(StateExplosionError):
        check_strong_confluence(p, max_states=3)


def _walk(graph, check=None, budget=5, max_states=None):
    """diamond_walk over a toy system: graph maps a state to its (label,
    target) moves, and each move spends one unit of budget."""
    return diamond_walk(
        [("s", budget)], lambda state: graph.get(state, []),
        lambda state, left, targets: [(t, left - 1) for t in targets]
        if left else [],
        key=lambda state: state, show=str.upper, check=check,
        max_states=max_states)


DIAMOND = {"s": [("a", "x"), ("b", "y")], "x": [("b", "z")],
           "y": [("a", "z")]}


def test_diamond_walk_accepts_a_closed_diamond():
    assert _walk(DIAMOND) == ConfluenceOk(4)
    # the budget bounds the states walked, not the rejoin test
    assert _walk(DIAMOND, budget=1) == ConfluenceOk(3)
    with pytest.raises(StateExplosionError):
        _walk(DIAMOND, max_states=3)


def test_diamond_walk_reports_moves_that_never_rejoin():
    # x and y rejoin, but only by a label neither of the first moves has
    graph = {"s": [("a", "x"), ("b", "y")], "x": [("c", "z")],
             "y": [("c", "z")]}
    assert _walk(graph) == ConfluenceViolation(
        "S", "no rejoin for a to X and b to Y")


def test_diamond_walk_reports_the_first_move_failing_the_check():
    def check(state, label, target):
        return None if state == "s" else f"{label} to {target} refused"

    verdict = _walk(DIAMOND, check=check)
    assert not verdict
    assert verdict == ConfluenceViolation("X", "b to z refused")


def test_generated_programs_observe_one_trace_under_every_schedule():
    # the paper's determinism result on generated programs: the order in
    # which runnable threads move changes no output, in either runner
    rng = random.Random(7)
    for _ in range(60):
        p = random_source_program(rng)
        assert check_reactivity(p) and check_bounded(p), print_program(p)
        image = cps_program(p).program
        word = random_input_word(rng, p.inputs, 8)
        want = run_trace(p, word)
        assert run_trace_tail(image, word) == want, print_program(p)
        for seed in (3, 17, 42):
            assert run_trace(p, word, policy=RANDOM, seed=seed) == want, \
                (print_program(p), seed)
            assert run_trace_tail(image, word, policy=RANDOM,
                                  seed=seed) == want, (print_program(p), seed)


def test_an_unknown_policy_is_refused_when_the_runner_is_built():
    p = prog("emit_once")
    image = cps_program(p).program
    for build in (lambda: Runner(p, policy="bogus"),
                  lambda: TailRunner(image, policy="bogus"),
                  lambda: run_trace(p, [], policy="bogus"),
                  lambda: run_trace_tail(image, [], policy="bogus")):
        with pytest.raises(ValueError, match="unknown policy: bogus"):
            build()


# ---------------------------------------------------------------------------
# the event-driven scheduler against a rescanning reference


def _rescanning_run_threads(threads, policy, rng, fuel, try_step_fn,
                            can_step_fn):
    """Reference driver: after every step, rescan every thread."""
    threads = list(threads)
    steps = 0
    if policy == DETERMINISTIC:
        while True:
            out = None
            for i, t in enumerate(threads):
                out = try_step_fn(t)
                if out:
                    break
            if not out:
                return threads, steps
            if steps >= fuel:
                raise FuelExhaustedError(steps)
            t2, spawned = out
            threads[i] = t2
            threads.extend(spawned)
            steps += 1
    while True:
        runnable = [i for i, t in enumerate(threads) if can_step_fn(t)]
        if not runnable:
            return threads, steps
        if steps >= fuel:
            raise FuelExhaustedError(steps)
        i = runnable[rng.randrange(len(runnable))]
        t2, spawned = try_step_fn(threads[i])
        threads[i] = t2
        threads.extend(spawned)
        steps += 1


def _source_domain(program, threads):
    """The per-instant domain: the interface, the names free in the threads
    and the generated names free in the definition bodies."""
    dom = set(program.inputs) | set(program.outputs)
    for t in threads:
        dom |= free_signals(t)
    for d in program.defs.values():
        dom |= {s for s in free_signals(d.body) - set(d.params)
                if s.startswith("%")}
    return dom


def _tail_domain(program, threads):
    return _source_domain(program, threads) | {PAUSE_SIGNAL}


def _unmemoized(defs, instantiate):
    """An unfolder that instantiates the definition body at every call."""
    def unfold(ident, args):
        dfn = defs.get(ident)
        if dfn is None:
            raise UnboundIdentifierError(ident)
        if len(dfn.params) != len(args):
            raise ArityMismatchError(ident)
        return instantiate(dfn.body, dict(zip(dfn.params, args)))
    return unfold


def _reference_floor(t, env):
    """The end-of-instant rewrite of one suspended source thread, by
    recursion down its spine."""
    if isinstance(t, Nil):
        return NIL
    if isinstance(t, Seq):
        return Seq(_reference_floor(t.first, env), t.rest)
    if isinstance(t, Await):
        return t
    if isinstance(t, Pause):
        return NIL
    if isinstance(t, Watch):
        if env.present(t.signal):
            return NIL
        return Watch(t.signal, _reference_floor(t.body, env))
    raise NotSuspendedError(print_thread(t))


def _reference_end_of_instant(threads, env):
    return tuple(_reference_floor(t, env) for t in threads)


SOURCE_ENGINE = (next_gen_index, _source_domain, try_step, can_step,
                 _reference_end_of_instant, Nil, substitute)
TAIL_ENGINE = (next_gen_index, _tail_domain, try_step_tail,
               can_step_tail, end_of_instant_tail, TNil, tail_substitute)


def _reference_records(program, engine, policy, seed, word):
    """Per-instant (outputs, steps, gen counter, residual) of the rescanning
    driver, with an environment built afresh at every instant over the
    names the threads then mention, and no memo of call bodies. Terminated
    threads are dropped between instants: that removes threads no policy
    can pick and keeps the others in order, so it changes no choice of
    either policy."""
    gen_index, domain, step, can, floor, nil, instantiate = engine
    rng = random.Random(seed)
    gen = gen_index(program)
    threads = list(program.initial)
    unfold = _unmemoized(program.defs, instantiate)
    out = []
    for inputs in word:
        env = Env(domain(program, threads), gen)
        env.begin(inputs)
        threads, steps = _rescanning_run_threads(
            threads, policy, rng, DEFAULT_FUEL,
            lambda t: step(t, env, unfold), lambda t: can(t, env, unfold))
        gen = env.counter
        outputs = frozenset(s for s in program.outputs if env.defined[s])
        threads = [t for t in floor(threads, env) if not isinstance(t, nil)]
        out.append((outputs, steps, gen, tuple(threads)))
    return out


def _runner_records(runner, word, nil):
    """Per-instant records of a runner, and the work it did: its steps plus
    the threads present at the start of each instant."""
    out = []
    work = 0
    for inputs in word:
        work += len(runner.threads)
        res = runner.run_instant(inputs)
        work += res.steps
        assert not any(isinstance(t, nil) for t in res.residual)
        assert list(res.residual) == runner.threads
        out.append((res.outputs, res.steps, runner.gen_counter,
                    res.residual))
    return out, work


SCHEDULES = [(DETERMINISTIC, 0), (RANDOM, 3), (RANDOM, 17), (RANDOM, 42)]


def _engines(p):
    image = cps_program(p).program
    return ((Runner, p, SOURCE_ENGINE, Nil),
            (TailRunner, image, TAIL_ENGINE, TNil))


def _oracle_cases():
    """(name, runner class, program, engine, nil) for every program the
    rescanning reference replays: the source and confluence corpora (the
    latter a subset of the former), FRESH_CAPTURE, the CPS images of all of
    these, and the tail corpus."""
    sources = dict(source_corpus())
    sources.update(confluence_corpus())
    sources["fresh_capture"] = parse_program(FRESH_CAPTURE)
    cases = []
    for name, p in sorted(sources.items()):
        for runner_cls, program, engine, nil in _engines(p):
            cases.append((name, runner_cls, program, engine, nil))
    for name, p in tail_corpus():
        cases.append((name, TailRunner, p, TAIL_ENGINE, TNil))
    return cases


# The probe bound is checked over 100 instants under one schedule of each
# policy; the reference, whose cost grows with every instant, over 60.
PROBED_SCHEDULES = SCHEDULES[:2]
PROBED_INSTANTS = 100
ORACLE_INSTANTS = 60


@pytest.fixture(scope="module")
def looping_runs():
    """The looping machine under each runner and schedule: (program, engine,
    records, probes, work) per run, counting calls of the step and
    runnability probes."""
    probes = [0]

    def counting(fn):
        def wrapper(*args):
            probes[0] += 1
            return fn(*args)
        return wrapper

    p = encode_counter_machine(LOOPING)
    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        for module, name in ((semantics, "try_step"),
                             (semantics, "can_step"),
                             (tailcore, "try_step_tail"),
                             (tailcore, "can_step_tail")):
            mp.setattr(module, name, counting(getattr(module, name)))
        for runner_cls, program, engine, nil in _engines(p):
            for policy, seed in SCHEDULES:
                probed = (policy, seed) in PROBED_SCHEDULES
                word = [frozenset()] * (PROBED_INSTANTS if probed
                                        else ORACLE_INSTANTS)
                probes[0] = 0
                records, work = _runner_records(
                    runner_cls(program, policy=policy, seed=seed), word, nil)
                runs[runner_cls, policy, seed] = (program, engine, records,
                                                  probes[0], work)
    return runs


def test_scheduler_matches_the_rescanning_reference(looping_runs):
    rng = random.Random(11)
    for name, runner_cls, program, engine, nil in _oracle_cases():
        inputs = subsets(program.inputs)
        words = [[inputs[k % len(inputs)] for k in range(6)],
                 [rng.choice(inputs) for _ in range(8)]]
        for policy, seed in SCHEDULES:
            for word in words:
                got, _ = _runner_records(
                    runner_cls(program, policy=policy, seed=seed), word, nil)
                want = _reference_records(program, engine, policy, seed,
                                          word)
                assert got == want, (name, runner_cls.__name__, policy, seed,
                                     word)
    word = [frozenset()] * ORACLE_INSTANTS
    for key, (program, engine, records, _, _) in looping_runs.items():
        _, policy, seed = key
        want = _reference_records(program, engine, policy, seed, word)
        assert records[:ORACLE_INSTANTS] == want, key


def test_probes_stay_within_a_constant_of_the_work(looping_runs):
    for key, (_, _, records, probes, work) in looping_runs.items():
        if key[1:] in PROBED_SCHEDULES:
            assert len(records) == PROBED_INSTANTS
            assert probes <= 3 * work, (key, probes, work)


def test_end_of_instant_matches_the_reference_floor():
    # Runner floors its threads as foci; the same threads, plugged, floor
    # alike through end_of_instant and through the recursive reference
    floored = [0]

    def checking(threads, env, unfold=None, original=end_of_instant):
        plain = [semantics.unfocus(f) for f in threads]
        want = _reference_end_of_instant(plain, env)
        assert original(plain, env) == want
        got = original(threads, env, unfold)
        assert got == want
        floored[0] += len(got)
        return got

    runs = [(encode_counter_machine(LOOPING), [frozenset()] * 400)]
    for _, p in source_corpus():
        ins = subsets(p.inputs)
        runs.append((p, [ins[k % len(ins)] for k in range(30)]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semantics, "end_of_instant", checking)
        for p, word in runs:
            for policy, seed in SCHEDULES[:3]:
                runner = Runner(p, policy=policy, seed=seed)
                for inputs in word:
                    runner.run_instant(inputs)
    assert floored[0] > 10_000


def _counting_try_step(counts):
    """A wrapper of semantics.try_step that counts its calls, the steps
    they take and the threads those steps spawn."""
    def counting(t, env, unfold, original=semantics.try_step):
        out = original(t, env, unfold)
        counts["calls"] += 1
        if out:
            counts["steps"] += 1
            counts["spawned"] += len(out[1])
        return out
    return counting


def _counting_can_step(counts):
    """A wrapper of semantics.can_step that counts its calls, the
    scheduler's probes."""
    def counting(t, env, unfold, original=semantics.can_step):
        counts["probes"] += 1
        return original(t, env, unfold)
    return counting


def test_parked_threads_are_not_probed_again():
    # Most of the looping machine's threads await an absent signal inside
    # a watch. They stay parked across instants, so over 400 instants
    # `Runner` probes about once per step and per spawned thread; probing
    # every thread at every instant costs over three times that.
    counts = dict.fromkeys(("calls", "steps", "spawned", "probes"), 0)
    runner = Runner(encode_counter_machine(LOOPING))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semantics, "try_step", _counting_try_step(counts))
        mp.setattr(semantics, "can_step", _counting_can_step(counts))
        steps = sum(runner.run_instant().steps for _ in range(400))
    assert steps == counts["steps"] == counts["calls"] > 20_000
    assert counts["probes"] <= 1.5 * (steps + counts["spawned"]), counts


@pytest.mark.parametrize("policy, seed", PROBED_SCHEDULES)
def test_a_running_thread_is_decomposed_and_plugged_rarely(policy, seed):
    # A thread is decomposed when it is spawned or first given to the
    # runner and keeps its focus across steps and instants; it is plugged
    # once at the end of an instant in which it changed. Decomposing and
    # plugging at every step and every probe costs one plug per step and,
    # under the random policy, over two decompositions per step.
    counts = dict.fromkeys(("decompose", "Focus", "plug"), 0)

    def counting(name, original):
        def wrapper(*args):
            counts[name] += 1
            return original(*args)
        return wrapper

    runner = Runner(encode_counter_machine(LOOPING), policy=policy,
                    seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        for name in ("decompose", "plug"):
            mp.setattr(semantics, name,
                       counting(name, getattr(semantics, name)))
        mp.setattr(semantics.Focus, "__init__",
                   counting("Focus", semantics.Focus.__init__))
        steps = sum(runner.run_instant().steps for _ in range(400))
    assert steps > 20_000
    assert counts["plug"] <= 0.15 * steps, counts
    assert counts["decompose"] + counts["Focus"] <= 0.3 * steps, counts


def _records(runner, instants):
    """Per-instant (outputs, steps, gen counter, residual), or the error
    that ended the run."""
    out = []
    for _ in range(instants):
        try:
            res = runner.run_instant()
        except UnboundSignalError as e:
            out.append(repr(e))
            break
        out.append((res.outputs, res.steps, runner.gen_counter, res.residual))
    return out


@pytest.mark.parametrize("policy, seed", PROBED_SCHEDULES)
@pytest.mark.parametrize("assign", ["threads", "gen_counter", "rewind"])
def test_assigning_the_state_drops_the_parked_index(policy, seed, assign):
    p = encode_counter_machine(LOOPING)
    runner = Runner(p, policy=policy, seed=seed)
    for _ in range(100):
        runner.run_instant()
    threads, counter = runner.threads, runner.gen_counter
    if assign == "threads":
        runner.threads = threads
    elif assign == "gen_counter":
        runner.gen_counter = counter
    else:
        # generated names at or past the counter are unbound again, so a
        # probe of a thread that awaits one raises
        counter = runner.gen_counter = 0
    fresh = Runner(p, policy=policy, seed=seed)
    fresh.threads, fresh.gen_counter = threads, counter
    fresh.rng.setstate(runner.rng.getstate())
    counts = {"probes": 0}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semantics, "can_step", _counting_can_step(counts))
        got = _records(runner, 1)
    if assign == "rewind":
        assert len(got) == 1 and got[0].startswith("UnboundSignalError")
        assert runner.threads == threads and runner.gen_counter == 0
    else:
        # the first instant probes every thread, parked or not
        assert counts["probes"] >= len(threads) > 50
        got += _records(runner, 19)
    assert got == _records(fresh, 20)


@pytest.mark.parametrize("policy, seed", PROBED_SCHEDULES)
def test_an_instant_that_raises_leaves_the_runner_where_it_was(policy,
                                                              seed):
    p = encode_counter_machine(LOOPING)
    runner = Runner(p, policy=policy, seed=seed)
    for _ in range(30):
        runner.run_instant()
    threads, counter = runner.threads, runner.gen_counter
    runner.fuel = 3
    with pytest.raises(FuelExhaustedError):
        runner.run_instant()
    assert runner.threads == threads and runner.gen_counter == counter
    runner.fuel = DEFAULT_FUEL
    fresh = Runner(p, policy=policy, seed=seed)
    fresh.threads, fresh.gen_counter = threads, counter
    fresh.rng.setstate(runner.rng.getstate())
    assert _records(runner, 20) == _records(fresh, 20)


# ---------------------------------------------------------------------------
# one environment and one call memo per run, counted


class _RecordingUnfolder:
    """Forwards to a runner's unfolder and records the calls of each
    instant."""

    def __init__(self, inner):
        self.inner = inner
        self.instants = [set()]

    def __call__(self, ident, args):
        self.instants[-1].add((ident, args))
        return self.inner(ident, args)

    def end_instant(self):
        self.inner.end_instant()
        self.instants.append(set())


@pytest.mark.parametrize("engine", ["source", "cps"])
def test_environment_and_memo_keep_their_size_over_a_long_run(engine):
    p = parse_program(FRESH_CAPTURE)
    runner = (Runner(p) if engine == "source"
              else TailRunner(cps_program(p).program))
    recording = runner.unfold = _RecordingUnfolder(runner.unfold)
    memo = recording.inner
    sizes = []
    for _ in range(1000):
        runner.run_instant({"s1"})
        sizes.append(len(runner.env.defined))
        last_two = set().union(*recording.instants[-3:-1])
        assert len(memo.current) + len(memo.previous) <= len(last_two)
    assert runner.gen_counter > 1000
    assert max(sizes) <= sizes[0], sizes


def test_tail_runner_reuses_call_bodies_on_the_looping_machine():
    calls = [0]

    def counting(body, mapping, original=tailcore.tail_substitute):
        calls[0] += 1
        return original(body, mapping)

    runner = TailRunner(cps_program(encode_counter_machine(LOOPING)).program)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tailcore, "tail_substitute", counting)
        steps = sum(runner.run_instant().steps for _ in range(100))
    assert calls[0] <= 0.25 * steps, (calls[0], steps)


def test_unbound_names_still_raise():
    p = parse_program(FRESH_CAPTURE)
    for runner in (Runner(p), TailRunner(cps_program(p).program)):
        for _ in range(3):
            runner.run_instant({"s1"})
        env = runner.env
        assert env.counter == runner.gen_counter > 0
        # a generated name is %g and ASCII decimal digits, no leading zero
        for name in ("s9", "x", "%r0", "%g01", f"%g{env.counter}",
                     f"%g{env.counter + 5}", "%g", "%g00", "%g-1", "%g+1",
                     "%g 1", "%g1_0", "%g\u0661", "%g\u00b9", "%G1"):
            with pytest.raises(UnboundSignalError):
                env.present(name)
            with pytest.raises(UnboundSignalError):
                env.emit(name)
        absent = [f"%g{k}" for k in range(env.counter)
                  if f"%g{k}" not in env.defined]
        assert absent and not any(env.present(name) for name in absent)
        assert env.present("s1") is True and env.present("s2") is False


# ---------------------------------------------------------------------------
# unique decomposition, checked against a brute-force search


def _is_redex(t):
    if isinstance(t, Seq):
        return isinstance(t.first, Nil)
    if isinstance(t, Watch):
        return isinstance(t.body, Nil)
    return not isinstance(t, Nil)


def _all_decompositions(t):
    """Every (frames, redex) split admitted by the context grammar."""
    from sltk.semantics import SeqAfter, WatchFrame

    out = []
    if _is_redex(t):
        out.append(((), t))
    if isinstance(t, Seq) and not isinstance(t.first, Nil):
        for frames, r in _all_decompositions(t.first):
            out.append(((SeqAfter(t.rest),) + frames, r))
    if isinstance(t, Watch) and not isinstance(t.body, Nil):
        for frames, r in _all_decompositions(t.body):
            out.append(((WatchFrame(t.signal),) + frames, r))
    return out


def _threads_up_to(depth, signals):
    leaves = [NIL, PAUSE, Call("A", ())]
    for s in signals:
        leaves.append(Emit(s))
        leaves.append(Await(s))
    layers = [list(leaves)]
    for _ in range(depth - 1):
        prev = list(itertools.chain.from_iterable(layers))
        non_seq = [t for t in prev if not isinstance(t, Seq)]
        layer = []
        for t in prev:
            layer.append(Spawn(t))
            layer.append(New("x", t))
            for s in signals:
                layer.append(Watch(s, t))
        for first in non_seq:
            for rest in prev:
                layer.append(Seq(first, rest))
        layers.append(layer)
    return list(itertools.chain.from_iterable(layers))


def _check_unique_decomposition(threads):
    for t in threads:
        splits = _all_decompositions(t)
        got = decompose(t)
        if isinstance(t, Nil):
            assert got is None and splits == []
            continue
        assert len(splits) == 1, t
        frames, redex = splits[0]
        g_frames, g_redex = got
        assert g_redex == redex and tuple(g_frames) == frames, t
        assert plug(g_frames, g_redex) == t, t


def test_decomposition_is_unique_two_signals():
    _check_unique_decomposition(_threads_up_to(3, ("a", "b")))


def test_decomposition_is_unique_one_signal_deeper():
    _check_unique_decomposition(_threads_up_to(4, ("a",)))

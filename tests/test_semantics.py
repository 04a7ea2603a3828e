import itertools
import random

import pytest

from sltk import semantics, tailcore
from sltk.cps import cps_program
from sltk.encodings import encode_counter_machine
from sltk._canon import free_signals
from sltk.errors import (
    ArityMismatchError,
    FuelExhaustedError,
    NotSuspendedError,
    UnboundIdentifierError,
    UnboundSignalError,
)
from sltk.semantics import (
    DEFAULT_FUEL,
    DETERMINISTIC,
    RANDOM,
    CallBodies,
    Env,
    Runner,
    can_step,
    canonical_residual,
    check_strong_confluence,
    decompose,
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
    Seq,
    Spawn,
    Watch,
    next_gen_index,
    parse_program,
    substitute,
)
from sltk.tailcore import (
    PAUSE_SIGNAL,
    TailRunner,
    TNil,
    can_step_tail,
    end_of_instant_tail,
    run_trace_tail,
    tail_next_gen_index,
    tail_substitute,
    try_step_tail,
)

from .corpus import (
    FRESH_CAPTURE,
    SOURCE_TEXTS,
    confluence_corpus,
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
        count = check_strong_confluence(p, max_states=5000, max_instants=2)
        assert count >= 1, name


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
                if out is not None:
                    break
            if out is None:
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


SOURCE_ENGINE = (next_gen_index, _source_domain, try_step, can_step,
                 end_of_instant, Nil, substitute)
TAIL_ENGINE = (tail_next_gen_index, _tail_domain, try_step_tail,
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
        for name in ("s9", "x", "%r0", "%g01", f"%g{env.counter}",
                     f"%g{env.counter + 5}"):
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

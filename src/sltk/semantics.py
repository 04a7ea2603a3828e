"""Small-step semantics for source programs: instants, scheduling, traces.

A thread decomposes uniquely into an evaluation context and a redex. One
reduction rewrites the redex, possibly extending the shared signal
environment (emission, fresh-name allocation) or spawning new threads. An
instant runs threads until all are suspended, then the end-of-instant
rewrite turns the suspended multiset into the next instant's program.

Two drivers serve both languages: `run_threads` runs an instant under a
scheduling policy, and `diamond_walk` checks the one-step diamond over a
`moves` function, here for source programs in `check_strong_confluence`
and in `equiv.confluence_check` for tail programs.
"""

from __future__ import annotations

import bisect
import heapq
import random
import re
from collections import deque
from dataclasses import dataclass

from . import _canon
from .errors import (
    ArityMismatchError,
    FuelExhaustedError,
    InputSetExplosionError,
    NotSuspendedError,
    StateExplosionError,
    UnboundIdentifierError,
    UnboundSignalError,
    UndeclaredSignalError,
)
from .syntax import (
    GENERATED_PREFIX,
    NIL,
    Await,
    Call,
    Emit,
    New,
    Nil,
    Pause,
    Seq,
    Spawn,
    Watch,
    canonicalize,
    canonicalize_with_renaming,
    next_gen_index,
    print_thread,
    seq_of,
    substitute,
)

DETERMINISTIC = "deterministic"
RANDOM = "random"
DEFAULT_FUEL = 10 ** 6


_GENERATED = re.compile(re.escape(GENERATED_PREFIX) + "(0|[1-9][0-9]*)")


class Env:
    """Signal environment of a run: presence over a fixed domain, plus the
    fresh-name counter.

    The domain is fixed when the environment is built: the names a program
    can mention before it generates any. The generated names %g0, %g1, ...
    below the counter are absent unless emitted, so the environment stores
    one only while it is present. Every other name, and a generated name at
    or beyond the counter, raises UnboundSignalError. fresh() hands out the
    next counter name that is not in the domain.

    `emitted` logs, in order, each name set present in the instant: the
    inputs by begin(), then each signal that emit() turns from absent to
    present. The scheduler wakes the threads parked on the names logged
    since it started, and begin() resets presence from the log, so an
    environment keeps a constant size over a whole run.
    """

    __slots__ = ("defined", "domain", "counter", "emitted")

    def __init__(self, domain, counter):
        self.domain = frozenset(domain)
        self.defined = dict.fromkeys(self.domain, False)
        self.counter = counter
        self.emitted = []

    def begin(self, inputs):
        """Start an instant in which exactly the given inputs are present."""
        defined = self.defined
        for s in self.emitted:
            if s in self.domain:
                defined[s] = False
            else:
                del defined[s]
        self.emitted = list(inputs)
        for s in self.emitted:
            defined[s] = True

    def fresh(self):
        name = f"{GENERATED_PREFIX}{self.counter}"
        self.counter += 1
        while name in self.domain:
            name = f"{GENERATED_PREFIX}{self.counter}"
            self.counter += 1
        return name

    def present(self, signal):
        v = self.defined.get(signal)
        if v is None:
            m = _GENERATED.fullmatch(signal)
            if m is None or int(m[1]) >= self.counter:
                raise UnboundSignalError(signal)
            return False
        return v

    def emit(self, signal):
        if not self.present(signal):
            self.defined[signal] = True
            self.emitted.append(signal)

    def copy(self):
        env = Env.__new__(Env)
        env.domain = self.domain
        env.defined = dict(self.defined)
        env.counter = self.counter
        env.emitted = list(self.emitted)
        return env


class CallBodies:
    """The definition bodies a run instantiates, memoized by (identifier,
    arguments); calling it unfolds one call.

    `instantiate(body, mapping)` substitutes the arguments for the
    parameters. An entry lives through the instant that used it and the
    next one: end_instant() drops every entry the ending instant did not
    use, so the memo follows the live calls, not the length of the run. The
    first unfold of a call checks its identifier and its arity.
    """

    __slots__ = ("defs", "instantiate", "current", "previous")

    def __init__(self, defs, instantiate):
        self.defs = defs
        self.instantiate = instantiate
        self.current = {}
        self.previous = {}

    def __call__(self, ident, args):
        key = (ident, args)
        body = self.current.get(key)
        if body is None:
            body = self.previous.get(key)
            if body is None:
                dfn = self.defs.get(ident)
                if dfn is None:
                    raise UnboundIdentifierError(ident)
                if len(dfn.params) != len(args):
                    raise ArityMismatchError(
                        f"{ident} takes {len(dfn.params)} signals")
                body = self.instantiate(dfn.body,
                                        dict(zip(dfn.params, args)))
            self.current[key] = body
        return body

    def end_instant(self):
        self.previous = self.current
        self.current = {}


@dataclass(frozen=True)
class SeqAfter:
    """Context frame [.];rest."""

    rest: object


@dataclass(frozen=True)
class WatchFrame:
    """Context frame watch s [.]."""

    signal: str


def decompose(t):
    """Split a thread into (context frames, redex), or None when terminated.

    Frames are listed outermost first. The split is unique; a sequence whose
    head is itself a sequence is malformed and rejected.
    """
    frames = []
    while True:
        if isinstance(t, Nil):
            if frames:
                raise ValueError("terminated thread under a context")
            return None
        if isinstance(t, Seq):
            first = t.first
            if isinstance(first, Nil):
                return tuple(frames), t
            if isinstance(first, Seq):
                raise ValueError("sequence not right-associated")
            if isinstance(first, Watch) and not isinstance(first.body, Nil):
                frames.append(SeqAfter(t.rest))
                frames.append(WatchFrame(first.signal))
                t = first.body
                continue
            frames.append(SeqAfter(t.rest))
            return tuple(frames), first
        if isinstance(t, Watch):
            if isinstance(t.body, Nil):
                return tuple(frames), t
            frames.append(WatchFrame(t.signal))
            t = t.body
            continue
        return tuple(frames), t


def plug(frames, t):
    """Rebuild a thread from context frames and a hole filler."""
    for f in reversed(frames):
        if isinstance(f, WatchFrame):
            t = Watch(f.signal, t)
        else:
            t = seq_of(t, f.rest)
    return t


def try_step(t, env, unfold):
    """One reduction of a single thread, or None when it cannot move now.

    On success returns (thread', spawned threads); emission and generation
    update env in place. `unfold(ident, args)` gives a call's body.
    """
    d = decompose(t)
    if d is None:
        return None
    frames, redex = d
    if isinstance(redex, Seq):
        return plug(frames, redex.rest), ()
    if isinstance(redex, Emit):
        env.emit(redex.signal)
        return plug(frames, NIL), ()
    if isinstance(redex, Watch):
        return plug(frames, NIL), ()
    if isinstance(redex, New):
        g = env.fresh()
        return plug(frames, substitute(redex.body, {redex.bound: g})), ()
    if isinstance(redex, Call):
        return plug(frames, unfold(redex.ident, redex.args)), ()
    if isinstance(redex, Await):
        if env.present(redex.signal):
            return plug(frames, NIL), ()
        return None
    if isinstance(redex, Spawn):
        return plug(frames, NIL), (redex.body,)
    if isinstance(redex, Pause):
        return None
    raise TypeError(f"not a redex: {redex!r}")


def can_step(t, env, unfold):
    """Pure runnability test: suspended threads are terminated, blocked on an
    absent signal, or paused for the instant."""
    d = decompose(t)
    if d is None:
        return False
    _, redex = d
    if isinstance(redex, Await):
        return env.present(redex.signal)
    if isinstance(redex, Pause):
        return False
    return True


def waits_on(t):
    """The signal a suspended thread awaits, or None when it is paused or
    terminated."""
    d = decompose(t)
    if d is not None and isinstance(d[1], Await):
        return d[1].signal
    return None


def _floor(t, env):
    if isinstance(t, Nil):
        return NIL
    if isinstance(t, Seq):
        return Seq(_floor(t.first, env), t.rest)
    if isinstance(t, Await):
        return t
    if isinstance(t, Pause):
        return NIL
    if isinstance(t, Watch):
        if env.present(t.signal):
            return NIL
        return Watch(t.signal, _floor(t.body, env))
    raise NotSuspendedError(print_thread(t))


def end_of_instant(threads, env, unfold=None):
    """Rewrite a fully suspended multiset into the next instant's program.
    Given the run's unfolder, first check that every thread is suspended."""
    if unfold is not None:
        for t in threads:
            if can_step(t, env, unfold):
                raise NotSuspendedError(print_thread(t))
    return tuple(_floor(t, env) for t in threads)


def run_threads(threads, policy, rng, fuel, try_step_fn, can_step_fn,
                waits_on_fn, env):
    """Drive a thread list to suspension under a scheduling policy.

    The deterministic policy always steps the lowest-index runnable thread;
    the random policy draws uniformly among runnable threads. Spawned
    threads append at the end of the list.

    The driver is event-driven. A thread found unable to step is parked on
    the signal `waits_on_fn` names, or set aside for the instant when that is
    None (paused or terminated). After each step the threads parked on the
    signals `env.emitted` logged since the last step are woken. Presence
    only grows within an instant, so the invariant holds: every runnable
    thread is a candidate, every parked thread awaits an absent signal, and
    every other thread is paused or terminated until the instant ends. An
    instant thus costs a few probes per step and per thread, not a rescan of
    every thread after every step.
    """
    threads = list(threads)
    waiting = {}
    steps = 0
    logged = len(env.emitted)

    def park(i):
        s = waits_on_fn(threads[i])
        if s is not None:
            waiting.setdefault(s, []).append(i)

    def woken():
        nonlocal logged
        out = []
        for s in env.emitted[logged:]:
            out.extend(waiting.pop(s, ()))
        logged = len(env.emitted)
        return out

    if policy == DETERMINISTIC:
        heap = list(range(len(threads)))
        while heap:
            i = heapq.heappop(heap)
            out = try_step_fn(threads[i])
            if out is None:
                park(i)
                continue
            if steps >= fuel:
                raise FuelExhaustedError(steps)
            t2, spawned = out
            threads[i] = t2
            heapq.heappush(heap, i)
            for t in spawned:
                heapq.heappush(heap, len(threads))
                threads.append(t)
            for j in woken():
                heapq.heappush(heap, j)
            steps += 1
        return threads, steps
    if policy == RANDOM:
        runnable = []
        for i, t in enumerate(threads):
            if can_step_fn(t):
                runnable.append(i)
            else:
                park(i)
        while runnable:
            if steps >= fuel:
                raise FuelExhaustedError(steps)
            k = rng.randrange(len(runnable))
            i = runnable[k]
            t2, spawned = try_step_fn(threads[i])
            threads[i] = t2
            if not can_step_fn(t2):
                del runnable[k]
                park(i)
            for t in spawned:
                threads.append(t)
                if can_step_fn(t):
                    runnable.append(len(threads) - 1)
                else:
                    park(len(threads) - 1)
            for j in woken():
                bisect.insort(runnable, j)
            steps += 1
        return threads, steps
    raise ValueError(f"unknown policy: {policy}")


@dataclass(frozen=True)
class ConfluenceOk:
    """The diamond closed at every state walked; `states` counts them."""

    states: int

    def __bool__(self):
        return True


@dataclass(frozen=True)
class ConfluenceViolation:
    """The first state walked whose moves failed the diamond or the check."""

    state: str
    detail: str

    def __bool__(self):
        return False


def diamond_walk(starts, moves, successors, key, show, check=None,
                 max_states=None):
    """Check the one-step diamond on every state a budgeted walk reaches.

    `starts` lists (state, budget) pairs, `moves(state)` a state's (label,
    target) pairs, and `successors(state, budget, targets)` the (state,
    budget) pairs to walk after a state with those move targets. A state
    whose key was walked before with at least its budget is skipped. Every
    two moves of a state whose targets have different keys must rejoin:
    the first target moves by the second label, the second by the first,
    and both reach one key. `check(state, label, target)`, when given,
    returns a failure detail for a move or None. States of one key are one
    state to the walk: it asks `moves` once per key, of the first state
    of that key it meets, and the key of each target once.

    Returns ConfluenceOk counting the distinct keys walked, or the first
    ConfluenceViolation; StateExplosionError when more than max_states
    keys are walked.
    """
    work = deque(starts)
    seen = {}
    expanded = {}

    def expand(state, k):
        hit = expanded.get(k)
        if hit is None:
            succ = moves(state)
            hit = expanded[k] = state, succ, [key(t) for _, t in succ]
        return hit

    def reach(target, k, label):
        _, succ, keys = expand(target, k)
        return {k2 for (a, _), k2 in zip(succ, keys) if a == label}

    while work:
        state, budget = work.popleft()
        k = key(state)
        if seen.get(k, -1) >= budget:
            continue
        seen[k] = budget
        if max_states is not None and len(seen) > max_states:
            raise StateExplosionError(max_states)
        state, succ, keys = expand(state, k)
        for label, target in succ:
            detail = check and check(state, label, target)
            if detail:
                return ConfluenceViolation(show(state), detail)
        for i, (a1, t1) in enumerate(succ):
            for j in range(i + 1, len(succ)):
                a2, t2 = succ[j]
                if keys[i] != keys[j] and not (reach(t1, keys[i], a2)
                                               & reach(t2, keys[j], a1)):
                    return ConfluenceViolation(
                        show(state), f"no rejoin for {a1} to {show(t1)}"
                                     f" and {a2} to {show(t2)}")
        work.extend(successors(state, budget, [t for _, t in succ]))
    return ConfluenceOk(len(seen))


@dataclass(frozen=True)
class InstantResult:
    """One instant's outputs, the next instant's threads and the step count.

    The residual omits terminated threads (`0 | P` is `P`).
    """

    outputs: frozenset
    residual: tuple
    steps: int


def _env_domain(program, threads):
    """The interface, the names free in the threads and the generated names
    free in the definition bodies."""
    dom = set(program.inputs) | set(program.outputs)
    for t in threads:
        dom |= _canon.free_signals(t)
    for d in program.defs.values():
        dom |= {s for s in _canon.free_signals(d.body) - set(d.params)
                if s.startswith("%")}
    return dom


def _checked_inputs(program, inputs):
    """The inputs as a frozenset; UndeclaredSignalError names any that is
    not an input of the program."""
    inputs = frozenset(inputs)
    extra = inputs - set(program.inputs)
    if extra:
        raise UndeclaredSignalError(
            "not input signals: " + " ".join(sorted(extra)))
    return inputs


class Runner:
    """Runs a program instant by instant, carrying the fresh-name counter.

    Each instant is driven by `run_threads`; the threads left after the
    end-of-instant rewrite, less the terminated ones, are the next instant's
    program. One `Env`, whose domain is computed here, and one `CallBodies`
    serve every instant, so an instant costs the threads that run in it and
    not the whole population. `gen_counter` and `threads` are the state
    carried between instants; assigning them moves the runner to another
    state of the same program.
    """

    def __init__(self, program, policy=DETERMINISTIC, seed=0, fuel=DEFAULT_FUEL):
        self.program = program
        self.policy = policy
        self.rng = random.Random(seed)
        self.fuel = fuel
        self.gen_counter = next_gen_index(program)
        self.threads = list(program.initial)
        self.env = Env(_env_domain(program, program.initial),
                       self.gen_counter)
        # substitute is looked up at each call, so that a wrapper put on
        # the module attribute (bench/layers.py counts calls) sees them all
        self.unfold = CallBodies(program.defs,
                                 lambda body, m: substitute(body, m))

    def run_instant(self, inputs=frozenset()):
        env, unfold = self.env, self.unfold
        env.begin(_checked_inputs(self.program, inputs))
        env.counter = self.gen_counter
        threads, steps = run_threads(
            self.threads, self.policy, self.rng, self.fuel,
            lambda t: try_step(t, env, unfold),
            lambda t: can_step(t, env, unfold),
            waits_on, env)
        self.gen_counter = env.counter
        outputs = frozenset(s for s in self.program.outputs
                            if env.defined[s])
        residual = tuple(t for t in end_of_instant(threads, env)
                         if not isinstance(t, Nil))
        unfold.end_instant()
        self.threads = list(residual)
        return InstantResult(outputs, residual, steps)


def run_trace(program, input_sets, policy=DETERMINISTIC, seed=0,
              fuel=DEFAULT_FUEL):
    """Run one instant per input set; return the (inputs, outputs) trace."""
    return _trace(Runner(program, policy=policy, seed=seed, fuel=fuel),
                  input_sets)


def _trace(runner, input_sets):
    """The trace loop of `run_trace` and `tailcore.run_trace_tail`: one
    instant of `runner` per input set, with the failing instant's number
    set on FuelExhaustedError."""
    trace = []
    for k, inputs in enumerate(input_sets):
        try:
            res = runner.run_instant(inputs)
        except FuelExhaustedError as e:
            e.instant = k
            raise
        trace.append((frozenset(inputs), res.outputs))
    return trace


def canonical_residual(program, threads):
    return canonicalize(threads, program.interface)


# ---------------------------------------------------------------------------
# reachable-state exploration and the one-step diamond


def _state_key(program, threads, env):
    canon, m = canonicalize_with_renaming(threads, program.interface)
    live = set(program.interface)
    for t in threads:
        live |= _canon.free_signals(t)
    items = tuple(sorted((m.get(s, s), env.present(s)) for s in live))
    return tuple(print_thread(t) for t in canon), items


def check_strong_confluence(program, max_states=5000, max_instants=2):
    """Check the one-step diamond on every state reachable in max_instants
    instants, over every scheduling choice within an instant and every
    input subset at each instant boundary.

    Every step has the one label "step", so two successors of a state must
    rejoin in one step each, up to renaming. Returns the `diamond_walk`
    verdict, whose count is of distinct states.
    """
    if max_instants < 1:
        raise ValueError("max_instants must be at least 1")
    unfold = CallBodies(program.defs, lambda body, m: substitute(body, m))
    input_subsets = subsets(program.inputs)
    start_counter = next_gen_index(program)

    def boundary_states(threads, instants_left):
        # generated names free in the threads join the domain, so that
        # fresh() restarting from start_counter steps over them
        dom = _env_domain(program, threads)
        out = []
        for inputs in input_subsets:
            env = Env(dom, start_counter)
            env.begin(inputs)
            out.append(((threads, env), instants_left))
        return out

    def moves(state):
        threads, env = state
        out = []
        for i, t in enumerate(threads):
            env2 = env.copy()
            r = try_step(t, env2, unfold)
            if r is not None:
                nxt = list(threads)
                nxt[i] = r[0]
                nxt.extend(r[1])
                out.append(("step", (tuple(nxt), env2)))
        return out

    def successors(state, instants_left, targets):
        if targets:
            return [(t, instants_left) for t in targets]
        if instants_left == 0:
            return []
        threads, env = state
        return boundary_states(end_of_instant(threads, env, unfold),
                               instants_left - 1)

    return diamond_walk(
        boundary_states(tuple(program.initial), max_instants - 1),
        moves, successors,
        key=lambda state: _state_key(program, *state),
        show=lambda state: " | ".join(map(print_thread, state[0])) or "0",
        max_states=max_states)


# Budget of `subsets`: 2**17 sets of up to 17 names take about 100 MB, and
# the trace game and Mealy extraction visit each set at every state.
MAX_ENUMERATED_SIGNALS = 17


def subsets(names):
    """Every subset of names, smallest first, equal sizes in sorted order.
    More than MAX_ENUMERATED_SIGNALS names raise InputSetExplosionError
    before any set is built."""
    if len(names) > MAX_ENUMERATED_SIGNALS:
        raise InputSetExplosionError(MAX_ENUMERATED_SIGNALS, len(names))
    out = [frozenset()]
    for n in names:
        out += [s | {n} for s in out]
    return sorted(out, key=lambda s: (len(s), sorted(s)))

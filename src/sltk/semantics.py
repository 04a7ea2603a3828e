"""Small-step semantics for source programs: instants, scheduling, traces.

A thread decomposes uniquely into an evaluation context and a redex. One
reduction rewrites the redex, possibly extending the shared signal
environment (emission, fresh-name allocation) or spawning new threads. An
instant runs threads until all are suspended, then the end-of-instant
rewrite turns the suspended multiset into the next instant's program.

`try_step` on a thread decomposes it, reduces the redex and plugs the
result back into the context. `Runner` instead keeps every thread
decomposed, as a `Focus`, from when it is given or spawned until it ends:
a step rewrites the hole and descends only into what it put there
(refocusing; Danvy and Nielsen, "Refocusing in reduction semantics", BRICS
RS-04-26, 2004), so a step costs the redex, not the whole thread, and the
end-of-instant rewrite works on the focus too. `decompose` and the focused
step share one descent.

Two drivers serve both languages: `run_threads` runs an instant in one
scheduling loop, in which a policy only chooses which runnable thread
steps next, and `diamond_walk` checks the one-step diamond over a `moves`
function, here for source programs in `check_strong_confluence` and in
`equiv.confluence_check` for tail programs.
"""

from __future__ import annotations

import bisect
import random
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
    canonicalize_with_renaming,
    print_thread,
    seq_of,
    substitute,
)

DETERMINISTIC = "deterministic"
RANDOM = "random"
_PICKS = {DETERMINISTIC: lambda rng, n: 0, RANDOM: random.Random.randrange}
DEFAULT_FUEL = 10 ** 6
# distinct states the diamond check explores before StateExplosionError
DEFAULT_MAX_STATES = 5000
_PREFIX_LENGTH = len(GENERATED_PREFIX)


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
            # absent when it is %gK, with K below the counter and written
            # in ASCII decimal digits without a leading zero
            k = signal[_PREFIX_LENGTH:]
            if (signal[:_PREFIX_LENGTH] != GENERATED_PREFIX
                    or not k.isdigit() or not k.isascii()
                    or (k[0] == "0" and k != "0") or int(k) >= self.counter):
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


class SeqAfter(_canon.Term):
    """Context frame [.];rest."""

    __slots__ = ("rest",)
    SHAPE = (_canon.SUB,)


class WatchFrame(_canon.Term):
    """Context frame watch s [.]."""

    __slots__ = ("signal",)
    SHAPE = (_canon.SIG,)


def _descend(frames, t):
    """Push onto `frames` the context frames of t above its redex, outermost
    first, and return the redex, or t itself when it is terminated (Nil).

    `decompose` descends from an empty context and a focused step from the
    context of the redex it reduced. A sequence whose head is itself a
    sequence is malformed and rejected.
    """
    while True:
        if t.__class__ is Seq:
            first = t.first
            head = first.__class__
            if head is Nil:
                return t
            if head is Seq:
                raise ValueError("sequence not right-associated")
            frames.append(SeqAfter(t.rest))
            if head is not Watch or first.body.__class__ is Nil:
                return first
            t = first
        if t.__class__ is not Watch or t.body.__class__ is Nil:
            return t
        frames.append(WatchFrame(t.signal))
        t = t.body


def decompose(t):
    """Split a thread into (context frames, redex), or None when terminated.

    Frames are listed outermost first. The split is unique.
    """
    frames = []
    redex = _descend(frames, t)
    if redex.__class__ is Nil:
        return None
    return tuple(frames), redex


def plug(frames, t):
    """Rebuild a thread from context frames and a hole filler."""
    for f in reversed(frames):
        if f.__class__ is WatchFrame:
            t = Watch(f.signal, t)
        else:
            t = seq_of(t, f.rest)
    return t


class Blocked:
    """What keeps a thread from moving, as a failed probe reports it.

    `signal` is the absent signal the thread awaits, or None when only the
    end of the instant moves it (it is paused or terminated). `watches`
    lists the signals of the watches around the awaiting redex: the
    end-of-instant rewrite leaves an awaiting thread as it is unless one of
    them is present. A Blocked is false, so a probe's result is true
    exactly when the thread can move.
    """

    __slots__ = ("signal", "watches")

    def __init__(self, signal, watches=()):
        self.signal = signal
        self.watches = watches

    def __bool__(self):
        return False

    def __repr__(self):
        return f"Blocked({self.signal!r}, {self.watches!r})"


NEXT_INSTANT = Blocked(None)


def _awaiting(signal, frames):
    return Blocked(signal, tuple(f.signal for f in frames
                                 if isinstance(f, WatchFrame)))


class Focus:
    """A thread split at its redex, as the runner steps it: `frames`, the
    context frames outermost first, and `hole`, the redex. A step rewrites
    the hole and descends into what it put there, pushing that part's
    frames; the context around the hole is not rebuilt. A NIL hole under
    a frame is the redex that frame makes of its terminated body, 0;rest
    or watch s 0, and reducing it pops the frame. `thread` is the thread
    the focus stands for, or None from a change until `unfocus` plugs it.
    """

    __slots__ = ("frames", "hole", "thread")

    def __init__(self, t):
        self.frames = []
        self.hole = _descend(self.frames, t)
        self.thread = t


def unfocus(f):
    """The thread a `Focus` stands for. A changed focus is plugged once and
    the thread kept in `f.thread`; a focus with no frames is its hole."""
    t = f.thread
    if t is None:
        t = f.thread = plug(f.frames, f.hole) if f.frames else f.hole
    return t


def _step(f, env, unfold):
    """Reduce the hole of a `Focus` in place and return (f, spawned), the
    spawned threads focused, or the Blocked value that keeps it from
    moving now."""
    redex = f.hole
    cls = redex.__class__
    frames = f.frames
    spawned = ()
    if cls is Nil:
        if not frames:
            return NEXT_INSTANT
        frame = frames.pop()
        if frame.__class__ is SeqAfter:
            f.hole = _descend(frames, frame.rest)
    elif cls is Emit:
        env.emit(redex.signal)
        f.hole = NIL
    elif cls is Call:
        f.hole = _descend(frames, unfold(redex.ident, redex.args))
    elif cls is Await:
        if not env.present(redex.signal):
            return _awaiting(redex.signal, frames)
        f.hole = NIL
    elif cls is Pause:
        return NEXT_INSTANT
    elif cls is Seq:
        f.hole = _descend(frames, redex.rest)
    elif cls is Watch:
        f.hole = NIL
    elif cls is Spawn:
        f.hole = NIL
        spawned = (Focus(redex.body),)
    elif cls is New:
        g = env.fresh()
        f.hole = _descend(frames, substitute(redex.body, {redex.bound: g}))
    else:
        raise TypeError(f"not a redex: {redex!r}")
    f.thread = None
    return f, spawned


def try_step(t, env, unfold):
    """One reduction of a single thread, or the Blocked value that keeps
    it from moving now.

    On success returns (thread', spawned threads); emission and generation
    update env in place. `unfold(ident, args)` gives a call's body. A
    plain thread is focused, stepped and plugged; a `Focus` steps in place,
    comes back as thread' and spawns focused threads.
    """
    if t.__class__ is Focus:
        return _step(t, env, unfold)
    f = Focus(t)
    out = _step(f, env, unfold)
    if not out:
        return out
    return unfocus(f), tuple(map(unfocus, out[1]))


def can_step(t, env, unfold):
    """Pure runnability test: True, or the Blocked value of a suspended
    thread, which is terminated, blocked on an absent signal, or paused for
    the instant. A `Focus` is read at its hole."""
    f = t if t.__class__ is Focus else Focus(t)
    redex = f.hole
    cls = redex.__class__
    if cls is Await:
        if env.present(redex.signal):
            return True
        return _awaiting(redex.signal, f.frames)
    if cls is Pause or (cls is Nil and not f.frames):
        return NEXT_INSTANT
    return True


def _floor(f, env):
    """The end-of-instant rewrite of a suspended thread, on its focus in
    place: the frames are cut at the outermost watch on a present signal,
    and the hole, paused or cut, becomes NIL. Returns the thread."""
    frames = f.frames
    for k, frame in enumerate(frames):
        if frame.__class__ is WatchFrame and env.present(frame.signal):
            del frames[k:]
            break
    else:
        cls = f.hole.__class__
        if cls is Await or (cls is Nil and not frames):
            return unfocus(f)
        if cls is not Pause:
            raise NotSuspendedError(print_thread(unfocus(f)))
    f.hole = NIL
    f.thread = None
    return unfocus(f)


def end_of_instant(threads, env, unfold=None):
    """Rewrite a fully suspended multiset into the next instant's program.

    A `Focus` is rewritten in place and a plain thread is focused first;
    either way the rewritten threads are returned plugged. A thread that
    can still step raises NotSuspendedError, unless a present watch cuts
    the part that can; given the run's unfolder, every thread is first
    checked to be suspended."""
    foci = [t if t.__class__ is Focus else Focus(t) for t in threads]
    if unfold is not None:
        for f in foci:
            if can_step(f, env, unfold):
                raise NotSuspendedError(print_thread(unfocus(f)))
    return tuple(_floor(f, env) for f in foci)


class Parking:
    """The threads of a run that await an absent signal, by key.

    `park(key, blocked)` files a thread under the signal it awaits and
    under the signals of the watches around it. `wake(signals)` takes out
    the threads that await one of the signals and `unwatch(signals)` those
    inside a watch on one of them; both return their keys.
    """

    __slots__ = ("blocked", "waiting", "watched")

    def __init__(self):
        self.blocked = {}
        self.waiting = {}
        self.watched = {}

    def park(self, key, blocked):
        self.blocked[key] = blocked
        self.waiting.setdefault(blocked.signal, set()).add(key)
        for s in blocked.watches:
            self.watched.setdefault(s, set()).add(key)

    def wake(self, signals):
        return self._take(self.waiting, signals)

    def unwatch(self, signals):
        return self._take(self.watched, signals)

    def _take(self, index, signals):
        out = []
        for s in signals:
            keys = index.pop(s, None)
            if keys:
                for key in keys:
                    blocked = self.blocked.pop(key)
                    _discard(self.waiting, blocked.signal, key)
                    for w in blocked.watches:
                        _discard(self.watched, w, key)
                out.extend(keys)
        return out


def _discard(index, signal, key):
    keys = index.get(signal)
    if keys is not None:
        keys.discard(key)
        if not keys:
            del index[signal]


def check_policy(policy):
    """The policy, if it is DETERMINISTIC or RANDOM; else ValueError."""
    if policy not in _PICKS:
        raise ValueError(f"unknown policy: {policy}")
    return policy


def run_threads(threads, ready, parking, policy, rng, fuel, try_step_fn,
                can_step_fn, env):
    """Drive threads to suspension under a scheduling policy.

    `threads` maps keys to threads in the order of their keys and is
    updated in place; a spawned thread is added under the next key. One
    loop serves both policies: the keys of the runnable threads are kept
    sorted, and a policy only picks the index that steps next (`_PICKS`),
    the deterministic one the lowest key, the random one a uniform draw.

    Scheduling is event-driven. `ready` lists the keys of the threads not
    parked in `parking`; a parked thread awaits a signal absent when it
    was parked. It probes (`can_step_fn`) the ready threads and the parked
    ones that the signals logged in `env.emitted` wake, the inputs first,
    and each thread after it steps or is spawned; `try_step_fn` only steps.
    A failed probe reports what blocks the thread (`Blocked`): a thread that
    awaits an absent signal is parked on it, and any other, paused or
    terminated, is set aside until the instant ends. After a step that
    logged signals, the threads parked on them are woken.
    Presence only grows within an instant, so the invariant holds: every
    runnable thread is a candidate, every parked thread awaits an absent
    signal, and every other thread is set aside. An instant thus costs a
    few probes per step and per thread it wakes, not a rescan of every
    thread after every step.

    Returns the number of steps and the keys of the threads set aside.
    The threads parked when the instant ends stay in `parking`.
    """
    steps = 0
    stopped = []
    next_key = next(reversed(threads), -1) + 1
    emitted = env.emitted
    logged = 0

    def stop(key, blocked):
        if blocked.signal is None:
            stopped.append(key)
        else:
            parking.park(key, blocked)

    def woken():
        nonlocal logged
        out = parking.wake(emitted[logged:])
        logged = len(emitted)
        return out

    pick = _PICKS[policy]
    runnable = []
    for key in sorted([*ready, *woken()]):
        probe = can_step_fn(threads[key])
        if probe:
            runnable.append(key)
        else:
            stop(key, probe)
    while runnable:
        if steps >= fuel:
            raise FuelExhaustedError(steps)
        k = pick(rng, len(runnable))
        key = runnable[k]
        t2, spawned = try_step_fn(threads[key])
        threads[key] = t2
        probe = can_step_fn(t2)
        if not probe:
            del runnable[k]
            stop(key, probe)
        for t in spawned:
            threads[next_key] = t
            probe = can_step_fn(t)
            if probe:
                runnable.append(next_key)
            else:
                stop(next_key, probe)
            next_key += 1
        if len(emitted) != logged:
            for j in woken():
                bisect.insort(runnable, j)
        steps += 1
    return steps, stopped


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
    program. One `Env`, over the program's `env_domain`, and one `CallBodies`
    serve every instant, so an instant costs the threads that run in it and
    not the whole population.

    A thread that awaits an absent signal stays parked across instants,
    filed in one `Parking` by that signal and by the watches around it. The
    end-of-instant rewrite leaves it as it is unless one of those watches'
    signals is present, so an instant probes and floors only the threads
    that ran, paused or lost a watch, and those that an input or an
    emission wakes.

    Every thread is kept as a `Focus`, from when it is given to the runner
    or spawned until it ends: it steps at its hole, the end-of-instant
    rewrite cuts and fills it in place, and it is plugged once at the end
    of an instant in which it changed, so a thread that runs again, woken
    or in the next instant, does not decompose again.

    `gen_counter` and `threads` are the state carried between instants;
    reading `threads` gives a new list. Assigning either moves the runner
    to another state of the same program and drops the parked index, so
    the next instant probes every thread. An instant that raises leaves
    the runner in the state it started from.
    """

    def __init__(self, program, policy=DETERMINISTIC, seed=0, fuel=DEFAULT_FUEL):
        self.program = program
        self.policy = check_policy(policy)
        self.rng = random.Random(seed)
        self.fuel = fuel
        self._gen_counter = program.next_gen_index
        self.threads = program.initial
        self.env = Env(program.env_domain, self._gen_counter)
        # substitute is looked up at each call, so that a wrapper put on
        # the module attribute (bench/layers.py counts calls) sees them all
        self.unfold = CallBodies(program.defs,
                                 lambda body, m: substitute(body, m))

    @property
    def threads(self):
        return list(self._residual)

    @threads.setter
    def threads(self, threads):
        self._residual = tuple(threads)
        self._threads = {k: Focus(t) for k, t in enumerate(self._residual)}
        self._unpark()

    @property
    def gen_counter(self):
        return self._gen_counter

    @gen_counter.setter
    def gen_counter(self, counter):
        self._gen_counter = counter
        self._unpark()

    def _unpark(self):
        self._ready = list(self._threads)
        self._parking = Parking()

    def run_instant(self, inputs=frozenset()):
        env, unfold, threads = self.env, self.unfold, self._threads
        env.begin(_checked_inputs(self.program, inputs))
        env.counter = self._gen_counter
        try:
            steps, stopped = run_threads(
                threads, self._ready, self._parking, self.policy, self.rng,
                self.fuel, lambda t: try_step(t, env, unfold),
                lambda t: can_step(t, env, unfold), env)
            # a parked thread is its own floor unless a watch around it
            # fires; every signal present now was logged in env.emitted
            stopped += self._parking.unwatch(env.emitted)
            floors = end_of_instant([threads[key] for key in stopped], env)
        except BaseException:
            self.threads = self._residual
            raise
        self._gen_counter = env.counter
        outputs = frozenset(s for s in self.program.outputs
                            if env.defined[s])
        self._ready = []
        for key, t in zip(stopped, floors):
            if t.__class__ is Nil:
                del threads[key]
            else:
                self._ready.append(key)
        unfold.end_instant()
        self._residual = tuple(map(unfocus, threads.values()))
        return InstantResult(outputs, self._residual, steps)


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


# ---------------------------------------------------------------------------
# reachable-state exploration and the one-step diamond


def _state_key(program, threads, env):
    canon, m = canonicalize_with_renaming(threads, program.interface)
    live = set(program.interface)
    for t in threads:
        live |= _canon.free_signals(t)
    items = tuple(sorted((m.get(s, s), env.present(s)) for s in live))
    return tuple(print_thread(t) for t in canon), items


def check_strong_confluence(program, max_states=DEFAULT_MAX_STATES,
                            max_instants=2):
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
    start_counter = program.next_gen_index

    def boundary_states(threads, instants_left):
        # generated names free in the threads join the domain, so that
        # fresh() restarting from start_counter steps over them
        dom = program.env_domain.union(*map(_canon.free_signals, threads))
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
            if r:
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


# Budget of `subsets`: 2**17 sets of up to 17 names take about 100 MB. Mealy
# extraction visits each set per state, the trace game may meet as many input
# set classes, and exact mode numbers a state per set of context markers.
MAX_ENUMERATED_SIGNALS = 17


def check_enumerable(names):
    """Raise InputSetExplosionError for more than MAX_ENUMERATED_SIGNALS
    names."""
    if len(names) > MAX_ENUMERATED_SIGNALS:
        raise InputSetExplosionError(MAX_ENUMERATED_SIGNALS, len(names))


def subsets(names):
    """Every subset of names, smallest first, equal sizes in sorted order.
    More than MAX_ENUMERATED_SIGNALS names raise InputSetExplosionError
    before any set is built."""
    check_enumerable(names)
    out = [frozenset()]
    for n in names:
        out += [s | {n} for s in out]
    return sorted(out, key=lambda s: (len(s), sorted(s)))

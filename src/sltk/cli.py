"""Command line front end.

Exit codes: 0 success / equivalent / accepted; 1 usage or parse problems;
2 analysis rejection or failed precondition; 3 distinguished; 4
inconclusive; 5 runtime limits (fuel, state, index or input-set
explosion, or a program nested deeper than the Python recursion limit).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import analysis, cps, encodings, equiv, mealy, semantics
from .errors import (
    FuelExhaustedError,
    HasSignalGenerationError,
    IndexExplosionError,
    InputSetExplosionError,
    LabellingLimitError,
    NotFiniteStateError,
    ParseError,
    SLError,
    StateExplosionError,
)
from .semantics import DETERMINISTIC, RANDOM
from .syntax import canonicalize, parse_program, print_program, print_thread
from .tailcore import parse_tail_program, print_tail_program, run_trace_tail


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_source(args):
    return parse_program(_read(args.file), pause_mode=args.pause)


def _load_tail_any(path, pause="primitive"):
    """A tail program from a .slt file, or the compiled image of a .sl
    source file."""
    if path.endswith(".slt"):
        return parse_tail_program(_read(path))
    return cps.cps_program(parse_program(_read(path), pause_mode=pause)).program


def _parse_trace_file(path):
    sets = []
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            sets.append(frozenset(line.split()))
    return sets


def _input_sets(args):
    if args.inputs:
        sets = _parse_trace_file(args.inputs)
        if args.instants is not None:
            while len(sets) < args.instants:
                sets.append(frozenset())
            sets = sets[:args.instants]
        return sets
    return [frozenset()] * (args.instants if args.instants is not None else 1)


def _emit_trace(trace, fmt):
    if fmt == "json":
        payload = [{"inputs": sorted(i), "outputs": sorted(o)}
                   for i, o in trace]
        print(json.dumps(payload, indent=2))
    else:
        for i, o in trace:
            print(f"I={mealy.show_set(i)} O={mealy.show_set(o)}")


def _note_seed(args):
    if args.scheduler == RANDOM:
        print(f"scheduler=random seed={args.seed}", file=sys.stderr)


def _count(text):
    """The value of a count flag: a non-negative integer."""
    if not text.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


def _run_flags(sub):
    sub.add_argument("--inputs", help="trace file, one input line per instant")
    sub.add_argument("--instants", type=_count, default=None)
    sub.add_argument("--scheduler", choices=[DETERMINISTIC, RANDOM],
                     default=DETERMINISTIC)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--fuel", type=_count, default=semantics.DEFAULT_FUEL)
    sub.add_argument("--format", choices=["text", "json"], default="text")


def _pause_flag(sub):
    sub.add_argument("--pause", choices=["primitive", "table1"],
                     default="primitive",
                     help="treat pause as primitive or expand it")


# ---------------------------------------------------------------------------
# commands


def _cmd_run(args):
    program = _load_source(args)
    _note_seed(args)
    trace = semantics.run_trace(program, _input_sets(args),
                                policy=args.scheduler, seed=args.seed,
                                fuel=args.fuel)
    _emit_trace(trace, args.format)
    return 0


def _cmd_run_tail(args):
    program = parse_tail_program(_read(args.file))
    _note_seed(args)
    trace = run_trace_tail(program, _input_sets(args),
                           policy=args.scheduler, seed=args.seed,
                           fuel=args.fuel)
    _emit_trace(trace, args.format)
    return 0


def _cmd_step(args):
    program = _load_source(args)
    _note_seed(args)
    runner = semantics.Runner(program, policy=args.scheduler,
                              seed=args.seed, fuel=args.fuel)
    while True:
        try:
            line = input("I> ")
        except EOFError:
            print()
            return 0
        res = runner.run_instant(frozenset(line.split()))
        print(f"O={mealy.show_set(res.outputs)}")
        for t in canonicalize(runner.threads, program.interface):
            print(f"  {print_thread(t)}")


def _report_verdict(verdict, what, fmt):
    if fmt == "json":
        payload = {"check": what, "verdict": "accept" if verdict else "reject"}
        if not verdict:
            payload["cycle"] = list(verdict.cycle)
        print(json.dumps(payload))
    else:
        print("accept" if verdict else f"reject: {verdict.render()}")
    return 0 if verdict else 2


def _cmd_check_reactivity(args):
    program = _load_source(args)
    verdict = analysis.check_reactivity(program,
                                        unfold_depth=args.unfold_depth)
    return _report_verdict(verdict, "reactivity", args.format)


def _cmd_check_bounded(args):
    program = _load_source(args)
    verdict = analysis.check_bounded(program)
    return _report_verdict(verdict, "bounded", args.format)


def _cmd_cps(args):
    program = _load_source(args)
    result = cps.cps_program(program, pause_mode=args.pause_cps,
                             index_limit=args.index_limit)
    _write(args.output, print_tail_program(result.program,
                                           index_notes=result.notes))
    return 0


def _cmd_to_mealy(args):
    tail = _load_tail_any(args.file)
    machine = mealy.program_to_mealy(tail, state_limit=args.state_limit)
    _write(args.output, mealy.print_mealy(machine))
    return 0


def _cmd_from_mealy(args):
    machine = mealy.parse_mealy(_read(args.file))
    program = mealy.mealy_to_program(machine)
    _write(args.output, print_tail_program(program))
    return 0


def _report_equivalence(verdict):
    """Print a verdict of the product search; return its exit code."""
    if verdict:
        print("equivalent")
        return 0
    if isinstance(verdict, mealy.Inconclusive):
        print(f"inconclusive at depth {verdict.depth}")
        return 4
    print(f"distinguished: {verdict.render()}")
    return 3


def _cmd_mealy_equiv(args):
    a = mealy.parse_mealy(_read(args.left))
    b = mealy.parse_mealy(_read(args.right))
    return _report_equivalence(mealy.mealy_trace_equiv(a, b))


def _cmd_equiv(args):
    left = _load_tail_any(args.left)
    right = _load_tail_any(args.right)
    return _report_equivalence(equiv.bisim_check(
        left, right, mode=args.mode, depth=args.depth,
        state_limit=args.state_limit))


def _cmd_encode_cm(args):
    machine = encodings.parse_machine(_read(args.file))
    encode = encodings.encode_pushdown if args.pushdown \
        else encodings.encode_counter_machine
    program = encode(machine, halt_signal=args.halt_signal)
    _write(args.output, print_program(program))
    return 0


def _cmd_confluence(args):
    if args.file.endswith(".slt"):
        verdict = equiv.confluence_check(parse_tail_program(_read(args.file)),
                                         depth=args.depth,
                                         state_limit=args.max_states)
    elif args.depth == 0:
        print("error: --depth counts instants for a .sl file and must be at "
              "least 1", file=sys.stderr)
        return 1
    else:
        verdict = semantics.check_strong_confluence(
            parse_program(_read(args.file)), max_states=args.max_states,
            max_instants=args.depth)
    if verdict:
        print(f"ok: {verdict.states} states explored")
        return 0
    print(f"violation at {verdict.state}: {verdict.detail}")
    return 2


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sl", description="synchronous language toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="run a source program")
    run.add_argument("file")
    _run_flags(run)
    _pause_flag(run)
    run.set_defaults(fn=_cmd_run)

    runt = subs.add_parser("run-tail", help="run a tail program")
    runt.add_argument("file")
    _run_flags(runt)
    runt.set_defaults(fn=_cmd_run_tail)

    step = subs.add_parser("step",
                           help="interactive: one input line per instant")
    step.add_argument("file")
    step.add_argument("--scheduler", choices=[DETERMINISTIC, RANDOM],
                      default=DETERMINISTIC)
    step.add_argument("--seed", type=int, default=0)
    step.add_argument("--fuel", type=_count, default=semantics.DEFAULT_FUEL)
    _pause_flag(step)
    step.set_defaults(fn=_cmd_step)

    cr = subs.add_parser("check-reactivity",
                         help="instantaneous loop analysis")
    cr.add_argument("file")
    cr.add_argument("--unfold-depth", type=_count, default=1)
    cr.add_argument("--format", choices=["text", "json"], default="text")
    _pause_flag(cr)
    cr.set_defaults(fn=_cmd_check_reactivity)

    cb = subs.add_parser("check-bounded",
                         help="evaluation context growth analysis")
    cb.add_argument("file")
    cb.add_argument("--format", choices=["text", "json"], default="text")
    _pause_flag(cb)
    cb.set_defaults(fn=_cmd_check_bounded)

    cp = subs.add_parser("cps", help="compile to the tail core")
    cp.add_argument("file")
    cp.add_argument("-o", "--output")
    cp.add_argument("--pause-cps", choices=[cps.OPTIMIZED, cps.NAIVE],
                    default=cps.OPTIMIZED)
    cp.add_argument("--index-limit", type=_count,
                    default=cps.DEFAULT_INDEX_LIMIT)
    _pause_flag(cp)
    cp.set_defaults(fn=_cmd_cps)

    tm = subs.add_parser("to-mealy",
                         help="extract a monotonic Mealy machine")
    tm.add_argument("file", help=".slt tail program or .sl source")
    tm.add_argument("-o", "--output")
    tm.add_argument("--state-limit", type=_count,
                    default=mealy.DEFAULT_STATE_LIMIT)
    tm.set_defaults(fn=_cmd_to_mealy)

    fm = subs.add_parser("from-mealy",
                         help="compile a Mealy machine to a tail program")
    fm.add_argument("file")
    fm.add_argument("-o", "--output")
    fm.set_defaults(fn=_cmd_from_mealy)

    me = subs.add_parser("mealy-equiv", help="compare two Mealy machines")
    me.add_argument("left")
    me.add_argument("right")
    me.set_defaults(fn=_cmd_mealy_equiv)

    eq = subs.add_parser("equiv", help="decide program equivalence")
    eq.add_argument("left", help=".slt tail program or .sl source")
    eq.add_argument("right")
    eq.add_argument("--mode", choices=[equiv.EXACT, equiv.TRACE,
                                       equiv.BOUNDED], default=equiv.EXACT)
    eq.add_argument("--depth", type=_count, default=8)
    eq.add_argument("--state-limit", type=_count,
                    default=equiv.DEFAULT_STATE_LIMIT)
    eq.set_defaults(fn=_cmd_equiv)

    ec = subs.add_parser("encode-cm",
                         help="encode a counter machine as a program")
    ec.add_argument("file")
    ec.add_argument("-o", "--output")
    ec.add_argument("--halt-signal", default="halt")
    ec.add_argument("--pushdown", action="store_true",
                    help="single stack encoding (counter 1 only)")
    ec.set_defaults(fn=_cmd_encode_cm)

    cf = subs.add_parser("confluence-test",
                         help="one-step diamond check on reachable states")
    cf.add_argument("file")
    cf.add_argument("--depth", type=_count, default=4,
                    help="instants for a .sl file, moves for a .slt file")
    cf.add_argument("--max-states", type=_count,
                    default=semantics.DEFAULT_MAX_STATES)
    cf.set_defaults(fn=_cmd_confluence)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError) as e:
        # a missing file, a directory or a file that is not UTF-8 text
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (FuelExhaustedError, StateExplosionError,
            IndexExplosionError, InputSetExplosionError,
            LabellingLimitError) as e:
        print(f"limit: {e}", file=sys.stderr)
        return 5
    except RecursionError:
        print(f"limit: program nested too deeply for the recursion limit "
              f"({sys.getrecursionlimit()})", file=sys.stderr)
        return 5
    except (HasSignalGenerationError, NotFiniteStateError) as e:
        print(f"not applicable: {e}", file=sys.stderr)
        return 2
    except SLError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

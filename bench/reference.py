"""One-off reference figures quoted in README.md.

    python3 bench/reference.py [--long]

Times single runs of the cases the workloads are scaled down from: the
looping counter machine over 100, 200 (and with --long 400) instants, exact
and trace mode over all 465 pairs of the finite corpus (--long only: exact
mode takes minutes), and the self-check of a one-definition program that
tests every input in turn, as its input count grows (6 inputs with --long
only). Prints one line per figure.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time

import inputs
import run


def timed(fn):
    t0 = time.perf_counter()
    value = fn()
    return time.perf_counter() - t0, value


def looping(sl, instants):
    program = sl.encodings.encode_counter_machine(
        sl.encodings.parse_machine(inputs.LOOPING_MACHINE))
    runner = sl.semantics.Runner(program)
    steps = 0
    for _ in range(instants):
        steps += runner.run_instant().steps
    live = sum(1 for t in runner.threads if not isinstance(t, sl.syntax.Nil))
    return steps, len(runner.threads), live


def corpus_pairs(sl, mode):
    programs = [sl.tailcore.parse_tail_program(inputs.FINITE_HEADER + text)
                for _, text in sorted(inputs.FINITE_TEXTS.items())]
    verdicts = [bool(sl.equiv.bisim_check(a, b, mode=mode)) for a, b in
                itertools.combinations_with_replacement(programs, 2)]
    return len(verdicts), sum(verdicts)


def wide_self_check(sl, width):
    names = [f"i{k}" for k in range(1, width + 1)]
    body = "0"
    for name in reversed(names):
        body = f"(present {name} (emit! o1 0) {body})"
    text = (f"(input {' '.join(names)})\n(output o1)\n"
            f"(def (W) (thread! {body} (present %pause 0 (call W))))\n"
            f"(run (call W))\n")
    program = sl.tailcore.parse_tail_program(text)
    return bool(sl.equiv.bisim_check(program, program))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--long", action="store_true")
    args = parser.parse_args()
    sl = run.import_sltk()
    for instants in (100, 200) + ((400,) if args.long else ()):
        secs, (steps, residual, live) = timed(lambda: looping(sl, instants))
        print(f"looping {instants} instants: {secs:.2f} s, {steps} steps, "
              f"{residual} residual threads, {live} live")
    modes = ("trace", "exact") if args.long else ("trace",)
    for mode in modes:
        secs, (pairs, equal) = timed(lambda: corpus_pairs(sl, mode))
        print(f"finite corpus, {mode} mode: {pairs} pairs in {secs:.2f} s, "
              f"{equal} equivalent")
    for width in (3, 4, 5) + ((6,) if args.long else ()):
        secs, verdict = timed(lambda: wide_self_check(sl, width))
        print(f"wide self-check, {width} inputs: {secs:.2f} s ({verdict})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

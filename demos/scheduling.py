"""Scheduling freedom without observable nondeterminism.

Threads within an instant may run in any order, yet the outputs and the
final thread configuration are always the same. Here a handful of random
schedules all reproduce the deterministic run, and an exhaustive check
confirms the one-step diamond on every reachable state.
"""

from sltk.semantics import RANDOM, Runner, check_strong_confluence
from sltk.syntax import canonicalize, parse_program

CROSS_TALK = """
(input s1 s2)
(output s3 s4)
(run (seq (await s1) (emit s3)))
(run (seq (await s3) (emit s4)))
(run (seq (emit s1) pause (emit s1)))
"""


def outputs_under(program, policy, seed):
    runner = Runner(program, policy=policy, seed=seed)
    trace = [sorted(runner.run_instant(frozenset()).outputs)
             for _ in range(3)]
    return trace, canonicalize(runner.threads, program.interface)


def main():
    program = parse_program(CROSS_TALK)
    reference, residual = outputs_under(program, "deterministic", 0)
    print("deterministic schedule:", reference)

    for seed in range(5):
        trace, res = outputs_under(program, RANDOM, seed)
        agree = (trace, res) == (reference, residual)
        print(f"random seed {seed}: same outputs and residual: {agree}")

    verdict = check_strong_confluence(program, max_states=5000,
                                      max_instants=3)
    print(f"one-step diamond verified on {verdict.states} reachable states")


if __name__ == "__main__":
    main()

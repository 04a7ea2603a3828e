"""Simulate a counter machine with signals and threads.

Each counter becomes a chain of cell threads ending in a bottom thread;
the control program talks to the chain over a private signal bundle.
Running the encoding of a halting machine raises the halt signal after a
handful of instants; a looping machine never does. This is the
construction that makes most questions about these programs undecidable
in general, and it doubles as a stress test for the interpreter.
"""

from sltk.encodings import (
    encode_counter_machine,
    parse_machine,
    print_machine,
    run_machine,
)
from sltk.semantics import Runner

MACHINE = """
init q0
halt qh
state q0: inc c1 -> q1
state q1: inc c1 -> q2
state q2: dec c1 -> q3
state q3: dec c1 -> q4
state q4: tz c1 -> qh q0
"""


def main():
    machine = parse_machine(MACHINE)
    print("machine:\n")
    print(print_machine(machine))

    halted, steps = run_machine(machine)
    print(f"reference interpreter: halted={halted} after {steps} steps\n")

    program = encode_counter_machine(machine)
    runner = Runner(program, fuel=10**6)
    for k in range(200):
        outputs = runner.run_instant(frozenset()).outputs
        if "halt" in outputs:
            print(f"encoding emitted halt at instant {k}")
            break
        # threads= counts live threads only: terminated ones leave the
        # residual at the end of each instant, so it stays small.
        if k < 14:
            print(f"instant {k:2d}: outputs={sorted(outputs)} "
                  f"threads={len(runner.threads)}")
    else:
        print("no halt within 200 instants")


if __name__ == "__main__":
    main()

"""Deciding whether two programs behave the same.

The checker plays a game over canonical states of tail threads. The first pair
here looks interchangeable at a glance but is not: one program reacts to
s2 only when s1 stayed away, the other drops its branch regardless, and
the game finds the separating experiment. Exact mode decides by
partition refinement, and names the same experiment: the game's input
word. The second pair shows a law that does hold: a spawned empty thread
changes nothing.
"""

from sltk.equiv import EXACT, TRACE, bisim_check
from sltk.tailcore import parse_tail_program

SUBTLE_P = """
(input s1 s2)
(output s3)
(run (present s1 0 (ite s2 (emit! s3 0) 0)))
"""

SUBTLE_Q = """
(input s1 s2)
(output s3)
(run (present s2 0 0))
"""

WITH_NIL = """
(input s1 s2)
(output s3)
(run (thread! 0 (present s1 (emit! s3 0) 0)))
"""

WITHOUT_NIL = """
(input s1 s2)
(output s3)
(run (present s1 (emit! s3 0) 0))
"""


def main():
    p = parse_tail_program(SUBTLE_P)
    q = parse_tail_program(SUBTLE_Q)
    exact = bisim_check(p, q, mode=EXACT)
    trace = bisim_check(p, q, mode=TRACE)
    print("exact and trace modes give one witness:", exact == trace)
    print(f"distinguished by {exact.render()}")

    a = parse_tail_program(WITH_NIL)
    b = parse_tail_program(WITHOUT_NIL)
    print("nil thread law holds:", bool(bisim_check(a, b, mode=EXACT)))


if __name__ == "__main__":
    main()

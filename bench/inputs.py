"""Fixed benchmark inputs.

FINITE_TEXTS is the finite tail corpus of the test suite (thirty
call-acyclic, generation-free programs over s1 s2 / s3), copied here so
that edits to the tests cannot shift the benchmark's inputs. The two
counter machines are the halting and looping machines of the encoding
tests, in the text format of `sltk.encodings.parse_machine`.
"""

FINITE_HEADER = "(input s1 s2)\n(output s3)\n"

FINITE_TEXTS = {
    "f_nil": "(run 0)",
    "f_emit": "(run (emit! s3 0))",
    "f_emit_dup": "(run (emit! s3 0))\n(run (emit! s3 0))",
    "f_emit_pad": "(run (emit! s3 0))\n(run 0)",
    "f_present": "(run (present s1 (emit! s3 0) 0))",
    "f_present_pad": "(run (thread! 0 (present s1 (emit! s3 0) 0)))",
    "f_present_ite": "(run (present s1 0 (ite s2 (emit! s3 0) 0)))",
    "f_present_other": "(run (present s2 0 0))",
    "f_present_late": "(run (present s1 (emit! s3 0) (ite s1 0 0)))",
    "f_chain": "(run (present s1 (present s2 (emit! s3 0) 0) 0))",
    "f_chain_swap": "(run (present s2 (present s1 (emit! s3 0) 0) 0))",
    "f_spawn": "(run (thread! (present s1 (emit! s3 0) 0) "
               "(present s2 (emit! s3 0) 0)))",
    "f_spawn_flat": "(run (present s1 (emit! s3 0) 0))\n"
                    "(run (present s2 (emit! s3 0) 0))",
    "f_pause_emit": "(run (present %pause 0 (emit! s3 0)))",
    "f_pause_twice": "(run (present %pause 0 (present %pause 0 "
                     "(emit! s3 0))))",
    "f_pause_branch": "(run (present %pause 0 (ite s1 (emit! s3 0) 0)))",
    "f_pause_branch2": "(run (present %pause 0 (ite s2 0 (emit! s3 0))))",
    "f_both": "(run (present s1 (present s2 (emit! s3 0) 0) "
              "(ite s2 0 (ite s1 0 0))))",
    "f_either": "(run (thread! (present s1 (emit! s3 0) 0) "
                "(present s2 (emit! s3 0) 0)))\n(run (emit! s3 0))",
    "f_now_or_never": "(run (present s1 (emit! s3 0) "
                      "(ite s1 (emit! s3 0) 0)))",
    "f_echo_then_stop": "(run (emit! s3 (present s1 (emit! s3 0) 0)))",
    "f_def_fire": "(def (Fire a) (emit! a 0))\n(run (call Fire s3))",
    "f_def_chain": "(def (Inner a) (emit! a 0))\n"
                   "(def (Outer a) (present s1 (call Inner a) 0))\n"
                   "(run (call Outer s3))",
    "f_def_pad": "(def (Fire a) (emit! a 0))\n(run (call Fire s3))\n(run 0)",
    "f_guarded_pair": "(run (present s1 (emit! s3 (present s2 "
                      "(emit! s3 0) 0)) 0))",
    "f_two_instants": "(run (emit! s3 (present %pause 0 (emit! s3 0))))",
    "f_watchless": "(run (present s2 (thread! (emit! s3 0) 0) 0))",
    "f_s2_relay": "(run (present s2 (emit! s3 0) 0))",
    "f_s2_relay_late": "(run (present s2 (emit! s3 0) (ite s2 "
                       "(emit! s3 0) 0)))",
    "f_three_way": "(run (present s1 0 (ite s1 0 (ite s2 (emit! s3 0) "
                   "0))))",
}


# Two increments, two decrements, then halts on an empty counter: the
# encoding emits halt at instant 13.
HALTING_MACHINE = """\
init q0
halt qh
state q0: inc c1 -> q1
state q1: inc c1 -> q2
state q2: dec c1 -> q3
state q3: dec c1 -> q4
state q4: tz c1 -> qh q0
"""

# Increments forever: the counter's cell chain and the residual thread
# multiset grow with every instant.
LOOPING_MACHINE = """\
init q0
halt qh
state q0: inc c1 -> q1
state q1: tz c1 -> qh q0
"""

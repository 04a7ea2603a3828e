import inspect
import io
import json
import os
import subprocess
import sys

import pytest

import sltk
from sltk import _canon, errors
from sltk.cli import main
from sltk.mealy import MonotonicMealy, input_subsets, parse_mealy, print_mealy
from sltk.syntax import parse_program
from sltk.tailcore import parse_tail_program


PROG_SL = """
(input s1 s2)
(output s3 s4)
(run (seq (await s1) (emit s3) pause (emit s4)))
"""

NON_REACTIVE_SL = """
(input s1)
(output s2)
(def (A a) (seq (await a) (call A a)))
(run (call A s1))
"""

UNBOUNDED_SL = """
(input s1)
(output s2)
(def (A) (seq pause (call A) (call B)))
(def (B) pause)
(run (call A))
"""

INSTANT_LOOP_SL = """
(input s1)
(output s2)
(def (A a) (seq (emit a) (call A a)))
(run (call A s2))
"""

REMARK_P_SLT = """
(input s1 s2)
(output s3)
(run (present s1 0 (ite s2 (emit! s3 0) 0)))
"""

REMARK_Q_SLT = """
(input s1 s2)
(output s3)
(run (present s2 0 0))
"""

COPY_SLT = """
(input s1 s2)
(output s3)
(run (present s1 (emit! s3 0) 0))
"""

GEN_SLT = """
(input s1 s2)
(output s3)
(run (new x (present x (emit! s3 0) 0)))
"""

NU_CYCLE_SLT = """
(input s1 s2)
(output s3)
(def (K x) (present x 0 (call K x)))
(def (G) (new x (thread! (call K x) (present %pause 0 (call G)))))
(run (call G))
"""

# the call loops within the first instant in which s1 is present
DIVERGE_SLT = """
(input s1)
(def (F) (call F))
(run (present s1 (call F) 0))
"""

MACHINE_CM = """
init q0
halt qh
state q0: inc c1 -> q1
state q1: inc c1 -> q2
state q2: dec c1 -> q3
state q3: dec c1 -> q4
state q4: tz c1 -> qh q0
"""

TRACE_FILE = "s1\ns2 s1\n"


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def put(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_run_with_trace_file_pads_missing_instants(tmp_path, capsys):
    prog = put(tmp_path, "prog.sl", PROG_SL)
    trace = put(tmp_path, "t.trace", TRACE_FILE)
    code, out, err = invoke(capsys, "run", prog, "--inputs", trace,
                            "--instants", "3")
    assert code == 0
    assert out == "I={s1} O={s3}\nI={s1,s2} O={s4}\nI={} O={}\n"
    assert err == ""


def test_run_json_format(tmp_path, capsys):
    prog = put(tmp_path, "prog.sl", PROG_SL)
    trace = put(tmp_path, "t.trace", TRACE_FILE)
    code, out, _ = invoke(capsys, "run", prog, "--inputs", trace,
                          "--format", "json")
    assert code == 0
    assert json.loads(out) == [
        {"inputs": ["s1"], "outputs": ["s3"]},
        {"inputs": ["s1", "s2"], "outputs": ["s4"]},
    ]


def test_run_random_scheduler_notes_seed_on_stderr(tmp_path, capsys):
    prog = put(tmp_path, "prog.sl", PROG_SL)
    code, _, err = invoke(capsys, "run", prog, "--scheduler", "random",
                          "--seed", "7", "--instants", "1")
    assert code == 0
    assert err == "scheduler=random seed=7\n"


def test_run_fuel_limit_exits_5(tmp_path, capsys):
    prog = put(tmp_path, "loop.sl", INSTANT_LOOP_SL)
    code, out, err = invoke(capsys, "run", prog, "--fuel", "50")
    assert code == 5
    assert out == ""
    assert err.startswith("limit: fuel exhausted")


def test_cps_table_limit_exits_5_with_the_bounded_verdict(tmp_path,
                                                          capsys):
    prog = put(tmp_path, "grow.sl", UNBOUNDED_SL)
    code, out, err = invoke(capsys, "cps", prog, "--index-limit", "50")
    assert (code, out) == (5, "")
    assert err == ("limit: equation table exceeded 50 entries "
                   "(bounded-context check: reject: A > A)\n")


def test_run_tail_program(tmp_path, capsys):
    prog = put(tmp_path, "copy.slt", COPY_SLT)
    trace = put(tmp_path, "t.trace", TRACE_FILE)
    code, out, _ = invoke(capsys, "run-tail", prog, "--inputs", trace,
                          "--instants", "2")
    assert code == 0
    assert out == "I={s1} O={s3}\nI={s1,s2} O={}\n"


def test_tail_parse_errors_exit_1(tmp_path, capsys):
    dup = put(tmp_path, "dup.slt", "(input s1)\n(output s3)\n"
              "(def (A x x) (emit! x 0))\n(run (call A s1 s3))\n")
    code, _, err = invoke(capsys, "run-tail", dup)
    assert (code, err) == (1, "error: 3:6: duplicate parameter in A\n")
    unknown = put(tmp_path, "unknown.slt", "(run (call B))\n")
    code, _, err = invoke(capsys, "run-tail", unknown)
    assert (code, err) == (1, "error: 1:12: no definition for B\n")
    arity = put(tmp_path, "arity.slt", "(def (A x) 0)\n(run (call A))\n")
    code, _, err = invoke(capsys, "run-tail", arity)
    assert (code, err) == (1, "error: 2:12: A takes 1 signals, got 0\n")


def sltk_env():
    """The environment with the imported sltk first on PYTHONPATH, so a
    child process runs the code under test, installed or not."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(sltk.__file__)))
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + (os.pathsep + rest if rest else "")
    return env


def test_step_mode_reads_stdin_lines(tmp_path):
    prog = put(tmp_path, "prog.sl", PROG_SL)
    proc = subprocess.run([sys.executable, "-m", "sltk.cli", "step", prog],
                          input="s1\ns2\n", capture_output=True, text=True,
                          timeout=60, env=sltk_env())
    assert proc.returncode == 0
    assert "O={s3}" in proc.stdout
    assert "O={s4}" in proc.stdout


# Two residual threads, each waiting on a private signal under a watch on
# one shared local signal: labelling them canonically takes two leaves.
TWIN_WAITERS_SL = """
(input s1)
(output s2)
(run (new h (seq (thread (new p (watch h (await p))))
                 (thread (new p (watch h (await p)))))))
"""


def test_step_mode_reports_the_labelling_budget_as_a_limit(
        tmp_path, capsys, monkeypatch):
    prog = put(tmp_path, "twins.sl", TWIN_WAITERS_SL)
    monkeypatch.setattr("sys.stdin", io.StringIO("\n"))
    code, out, _ = invoke(capsys, "step", prog)
    assert code == 0
    assert "(watch %g0 (await %g1))\n  (watch %g0 (await %g2))" in out
    monkeypatch.setattr(_canon, "LEAF_LIMIT", 1)
    monkeypatch.setattr("sys.stdin", io.StringIO("\n"))
    code, _, err = invoke(capsys, "step", prog)
    assert code == 5
    assert err == "limit: canonical labelling search exceeded 1 leaves\n"


def test_check_reactivity_verdicts(tmp_path, capsys):
    bad = put(tmp_path, "bad.sl", NON_REACTIVE_SL)
    good = put(tmp_path, "prog.sl", PROG_SL)

    code, out, _ = invoke(capsys, "check-reactivity", bad)
    assert (code, out) == (2, "reject: A > A\n")

    code, out, _ = invoke(capsys, "check-reactivity", bad,
                          "--format", "json")
    assert code == 2
    assert json.loads(out) == {"check": "reactivity", "verdict": "reject",
                               "cycle": ["A"]}

    code, out, _ = invoke(capsys, "check-reactivity", good)
    assert (code, out) == (0, "accept\n")

    code, out, _ = invoke(capsys, "check-reactivity", good,
                          "--format", "json")
    assert json.loads(out) == {"check": "reactivity", "verdict": "accept"}


def test_check_bounded_verdicts(tmp_path, capsys):
    bad = put(tmp_path, "unbounded.sl", UNBOUNDED_SL)
    good = put(tmp_path, "prog.sl", PROG_SL)
    code, out, _ = invoke(capsys, "check-bounded", bad)
    assert (code, out) == (2, "reject: A > A\n")
    code, out, _ = invoke(capsys, "check-bounded", good)
    assert (code, out) == (0, "accept\n")


def test_cps_emits_index_notes_and_parseable_output(tmp_path, capsys):
    prog = put(tmp_path, "prog.sl", PROG_SL)
    code, out, _ = invoke(capsys, "cps", prog)
    assert code == 0
    assert "#index" in out
    compiled = parse_tail_program(out)
    assert compiled.inputs == ("s1", "s2")

    out_path = tmp_path / "prog.slt"
    code, _, _ = invoke(capsys, "cps", prog, "-o", str(out_path))
    assert code == 0
    assert parse_tail_program(out_path.read_text()).outputs == ("s3", "s4")


def test_mealy_pipeline_round_trip(tmp_path, capsys):
    copy = put(tmp_path, "copy.slt", COPY_SLT)
    first = tmp_path / "copy.mealy"
    code, _, _ = invoke(capsys, "to-mealy", copy, "-o", str(first))
    assert code == 0
    machine = parse_mealy(first.read_text())
    assert (machine.n, machine.m) == (2, 1)

    back = tmp_path / "copy2.slt"
    assert invoke(capsys, "from-mealy", str(first), "-o", str(back))[0] == 0
    assert parse_tail_program(back.read_text()).inputs == ("i1", "i2")

    second = tmp_path / "copy2.mealy"
    assert invoke(capsys, "to-mealy", str(back), "-o", str(second))[0] == 0

    code, out, _ = invoke(capsys, "mealy-equiv", str(first), str(second))
    assert (code, out) == (0, "equivalent\n")


def test_mealy_equiv_distinguished_exits_3(tmp_path, capsys):
    copy = put(tmp_path, "copy.slt", COPY_SLT)
    silent = put(tmp_path, "silent.slt",
                 "(input s1 s2)\n(output s3)\n(run 0)\n")
    a = tmp_path / "a.mealy"
    b = tmp_path / "b.mealy"
    invoke(capsys, "to-mealy", copy, "-o", str(a))
    invoke(capsys, "to-mealy", silent, "-o", str(b))
    code, out, _ = invoke(capsys, "mealy-equiv", str(a), str(b))
    # the witness text of `equiv`, with wires as numbers
    assert (code, out) == (3, "distinguished: inputs {1} emit {1} versus {}\n")


def test_to_mealy_refuses_signal_generation(tmp_path, capsys):
    gen = put(tmp_path, "gen.slt", GEN_SLT)
    code, _, err = invoke(capsys, "to-mealy", gen)
    assert code == 2
    assert err.startswith("not applicable:")


def test_equiv_distinguishes_the_remark_pair(tmp_path, capsys):
    p = put(tmp_path, "p.slt", REMARK_P_SLT)
    q = put(tmp_path, "q.slt", REMARK_Q_SLT)

    code, out, _ = invoke(capsys, "equiv", p, q, "--mode", "trace")
    assert code == 3
    assert out.startswith("distinguished:")
    assert "s2" in out and "s3" in out

    assert invoke(capsys, "equiv", p, q)[0] == 3

    code, out, _ = invoke(capsys, "equiv", p, q, "--mode", "bounded",
                          "--depth", "1")
    assert (code, out) == (4, "inconclusive at depth 1\n")

    code, out, _ = invoke(capsys, "equiv", p, p)
    assert (code, out) == (0, "equivalent\n")


def test_equiv_mode_limits(tmp_path, capsys):
    nu = put(tmp_path, "nu.slt", NU_CYCLE_SLT)
    code, _, err = invoke(capsys, "equiv", nu, nu)
    assert code == 2
    assert err.startswith("not applicable:")

    code, _, err = invoke(capsys, "equiv", nu, nu, "--mode", "trace",
                          "--state-limit", "200")
    assert code == 5
    assert err.startswith("limit: state space exceeded")


def test_equiv_trace_mode_reports_fuel_as_a_limit(tmp_path, capsys):
    prog = put(tmp_path, "diverge.slt", DIVERGE_SLT)
    code, out, err = invoke(capsys, "equiv", prog, prog, "--mode", "trace")
    assert (code, out) == (5, "")
    assert err.startswith("limit: fuel exhausted")


def test_wide_input_set_enumeration_is_a_limit(tmp_path, capsys,
                                               monkeypatch):
    monkeypatch.setattr(sltk.semantics, "MAX_ENUMERATED_SIGNALS", 4)
    # five inputs and no output: five signals to both commands
    wide = put(tmp_path, "wide.slt", "(input i1 i2 i3 i4 i5)\n"
               "(run (present i1 (emit! i2 0) 0))\n")
    limit = ("limit: input-set enumeration over 5 signals exceeds the bound "
             "of 4 signals\n")
    for argv in (("equiv", wide, wide),
                 ("equiv", wide, wide, "--mode", "trace"),
                 ("to-mealy", wide)):
        assert invoke(capsys, *argv) == (5, "", limit)


def test_mealy_input_sets_have_one_budget(tmp_path, capsys):
    # from-mealy enumerates a machine's input sets under the budget that
    # parsing and comparing use: 13 inputs go through, 18 are a limit
    n = 13
    sets = input_subsets(n)
    machine = MonotonicMealy(
        ("q0",), "q0", n, 1, {("q0", X): "q0" for X in sets},
        {("q0", X): frozenset({1} if len(X) == n else ()) for X in sets})
    wide = put(tmp_path, "wide.mealy", print_mealy(machine))
    out = tmp_path / "wide.slt"
    assert invoke(capsys, "from-mealy", wide, "-o", str(out)) == (0, "", "")
    assert parse_tail_program(out.read_text()).inputs == tuple(
        f"i{x}" for x in range(1, n + 1))
    over = put(tmp_path, "over.mealy", "mealy n=18 m=1\nstate q0 init\n")
    code, _, err = invoke(capsys, "from-mealy", over)
    assert code == 5
    assert err.startswith("limit: input-set enumeration over 18 signals")


def test_from_mealy_compiles_a_table_with_a_thousand_watchers(tmp_path,
                                                              capsys):
    # one state of 11 inputs whose output is {1} on the 1,024 input sets
    # that hold wire 1: one watcher per entry, more than the printer could
    # follow as a chain of spawns
    n = 11
    sets = input_subsets(n)
    machine = MonotonicMealy(
        ("q0",), "q0", n, 1, {("q0", X): "q0" for X in sets},
        {("q0", X): frozenset({1} if 1 in X else ()) for X in sets})
    wide = put(tmp_path, "wide.mealy", print_mealy(machine))
    program = tmp_path / "wide.slt"
    assert invoke(capsys, "from-mealy", wide, "-o", str(program)) == (
        0, "", "")
    back = tmp_path / "back.mealy"
    assert invoke(capsys, "to-mealy", str(program), "-o", str(back))[0] == 0
    assert invoke(capsys, "mealy-equiv", wide, str(back)) == (
        0, "equivalent\n", "")


DEEP = 3000


def test_run_reports_deep_nesting_as_a_limit(tmp_path, capsys):
    # the parser reads nested forms by recursion
    prog = put(tmp_path, "deep.sl", "(input s1) (output o) (run"
               + " (thread" * DEEP + " (emit o)" + ")" * DEEP + ")")
    code, out, err = invoke(capsys, "run", prog)
    assert (code, out) == (5, "")
    assert err.startswith("limit: program nested too deeply")


def test_run_runs_a_long_straight_line_program(tmp_path, capsys):
    prog = put(tmp_path, "long.sl", "(input s1) (output o) (run (seq"
               + " (emit o)" * DEEP + "))")
    assert invoke(capsys, "run", prog) == (0, "I={} O={o}\n", "")


def test_equiv_reports_deep_nesting_as_a_limit(tmp_path, capsys):
    prog = put(tmp_path, "deep.slt", "(input s1) (output o) (run"
               + " (emit! o" * DEEP + " 0" + ")" * DEEP + ")")
    code, out, err = invoke(capsys, "equiv", prog, prog)
    assert (code, out) == (5, "")
    assert err.startswith("limit: program nested too deeply")


def test_encode_cm_writes_valid_source(tmp_path, capsys):
    cm = put(tmp_path, "machine.cm", MACHINE_CM)
    out_path = tmp_path / "enc.sl"
    code, _, _ = invoke(capsys, "encode-cm", cm, "-o", str(out_path))
    assert code == 0
    program = parse_program(out_path.read_text())
    assert program.outputs == ("halt",)
    assert invoke(capsys, "check-bounded", str(out_path))[0] == 0

    pd_path = tmp_path / "enc_pd.sl"
    code, _, _ = invoke(capsys, "encode-cm", cm, "--pushdown",
                        "-o", str(pd_path))
    assert code == 0
    parse_program(pd_path.read_text())

    bad = put(tmp_path, "bad.cm", "init q0\nstate q0: inc c1 -> q0\n")
    assert invoke(capsys, "encode-cm", bad)[0] == 1


def test_confluence_test_on_source_and_tail(tmp_path, capsys):
    prog = put(tmp_path, "prog.sl", PROG_SL)
    code, out, _ = invoke(capsys, "confluence-test", prog)
    assert (code, out) == (0, "ok: 28 states explored\n")

    copy = put(tmp_path, "copy.slt", COPY_SLT)
    code, out, _ = invoke(capsys, "confluence-test", copy)
    assert (code, out) == (0, "ok: 2 states explored\n")

    # --depth counts instants for source, moves for tail: zero instants
    # would check no state
    code, out, err = invoke(capsys, "confluence-test", prog, "--depth", "0")
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "Traceback" not in err
    code, out, _ = invoke(capsys, "confluence-test", copy, "--depth", "0")
    assert (code, out) == (0, "ok: 1 states explored\n")


def test_usage_and_file_errors_exit_1(tmp_path, capsys):
    assert invoke(capsys, "run", str(tmp_path / "missing.sl"))[0] == 1
    assert invoke(capsys)[0] == 1
    assert invoke(capsys, "nonsense")[0] == 1

    broken = put(tmp_path, "broken.sl", "(input s1\n")
    code, _, err = invoke(capsys, "run", broken)
    assert code == 1
    assert err.startswith("error:")


def test_unreadable_files_exit_1(tmp_path, capsys):
    copy = put(tmp_path, "copy.slt", COPY_SLT)
    latin = tmp_path / "latin.slt"
    latin.write_bytes(b"(input s\xe9)\n(run 0)\n")
    for argv in (("run", str(tmp_path)),
                 ("run-tail", copy, "--inputs", str(tmp_path)),
                 ("equiv", copy, str(latin))):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error:") and "Traceback" not in err, argv


@pytest.mark.parametrize("command, flag", [
    ("run", "--instants"), ("run", "--fuel"), ("run-tail", "--instants"),
    ("step", "--fuel"), ("check-reactivity", "--unfold-depth"),
    ("cps", "--index-limit"), ("to-mealy", "--state-limit"),
    ("equiv", "--depth"), ("equiv", "--state-limit"),
    ("confluence-test", "--depth"), ("confluence-test", "--max-states"),
])
def test_count_flags_refuse_negative_values(tmp_path, capsys, command, flag):
    prog = put(tmp_path, "prog.sl", PROG_SL)
    files = (prog, prog) if command == "equiv" else (prog,)
    code, out, err = invoke(capsys, command, *files, flag, "-1")
    assert (code, out) == (1, "")
    assert "expected a non-negative integer, got '-1'" in err
    assert invoke(capsys, command, *files, flag, "x")[0] == 1


def test_run_instants_zero_runs_nothing(tmp_path, capsys):
    prog = put(tmp_path, "prog.sl", PROG_SL)
    trace = put(tmp_path, "t.trace", TRACE_FILE)
    assert invoke(capsys, "run", prog, "--inputs", trace,
                  "--instants", "0") == (0, "", "")


def test_unusable_mealy_table_exits_1(tmp_path, capsys):
    bad = put(tmp_path, "bad.mealy", "mealy n=0 m=0\nstate q0 init\n"
              "trans q0 {} -> q9 {}\n")
    for argv in (("mealy-equiv", bad, bad), ("from-mealy", bad)):
        assert invoke(capsys, *argv) == (
            1, "", "error: 3:0: undeclared state q9\n")


# every error type, the arguments that build one, and the exit code and
# standard-error prefix that `sl` answers it with
ERROR_EXITS = {
    errors.SLError: (("x",), 1, "error:"),
    errors.ParseError: (("x", 1, 0), 1, "error:"),
    errors.UnboundIdentifierError: (("x",), 1, "error:"),
    errors.ArityMismatchError: (("x",), 1, "error:"),
    errors.UndeclaredSignalError: (("x",), 1, "error:"),
    errors.UnboundSignalError: (("x",), 1, "error:"),
    errors.NotSuspendedError: (("x",), 1, "error:"),
    errors.HasSignalGenerationError: ((), 2, "not applicable:"),
    errors.NotFiniteStateError: (("x",), 2, "not applicable:"),
    errors.FuelExhaustedError: ((7,), 5, "limit:"),
    errors.IndexExplosionError: ((7,), 5, "limit:"),
    errors.StateExplosionError: ((7,), 5, "limit:"),
    errors.LabellingLimitError: ((7,), 5, "limit:"),
    errors.InputSetExplosionError: ((7, 9), 5, "limit:"),
}


def test_every_error_type_has_an_exit_code():
    defined = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.SLError)}
    assert defined == set(ERROR_EXITS)


@pytest.mark.parametrize("error", ERROR_EXITS, ids=lambda cls: cls.__name__)
def test_an_error_type_exits_with_its_code(tmp_path, capsys, monkeypatch,
                                           error):
    args, code, prefix = ERROR_EXITS[error]

    def fail(_):
        raise error(*args)

    monkeypatch.setattr(sltk.cli, "_cmd_run", fail)
    got, out, err = invoke(capsys, "run", put(tmp_path, "p.sl", PROG_SL))
    assert (got, out) == (code, "")
    assert err.startswith(f"{prefix} ")

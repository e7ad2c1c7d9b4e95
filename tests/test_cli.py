"""CLI: reports, exit codes, expression round-trips."""

import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import jetcalc
import jetcalc.cli
from jetcalc import parse_expr, parse_problem
from jetcalc.cli import run
from jetcalc.multiindex import all_multiindices, multiindices_up_to
from test_parser import SOUP_HEADERS, TOKEN_SOUP

BEAM = """
base 1;
field u;
order 2;
lagrangian 1/2*u[2]^2;
"""

MECH = """
base 1;
field q;
order 1;
param m;
opaque U(2);
lagrangian m/2*q[1]^2 - U(x1,q);
"""

DIV = """
base 1;
field u;
order 2;
lagrangian 0;
fcomponent u*u[1];
"""

PENDULUM = """
base 1;
field u;
field v;
order 1;
lagrangian 1/2*u[1]^2 + 1/2*v[1]^2;
constraint u^2 + v^2 - 1;
"""

MS_GOOD = BEAM + """
section { u = x1; u[1] = 1; p[u;;1] = 0; p[u;1;1] = 0; }
"""

MS_BAD = BEAM + """
section { u = x1; u[1] = 1; p[u;;1] = 0; p[u;1;1] = 7; }
"""


# a beam Lagrangian at line 6, plus a term from column 25 on
NESTED = """base 1;
field u;
order 2;
param m;
opaque U(1);
lagrangian 1/2*u[2]^2 + {};
"""

CORPUS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "corpus")


@pytest.fixture
def lagfile(tmp_path):
    def write(text, name="prob.lag"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestCommands:
    def test_el_beam(self, capsys, lagfile):
        code, doc = invoke(capsys, "el", lagfile(BEAM))
        assert code == 0
        assert doc["result"]["euler_lagrange"] == {"u": "u[4]"}
        assert doc["problem"] == {"n": 1, "k": 2, "fields": ["u"]}

    def test_galilei(self, capsys):
        code, doc = invoke(capsys, "galilei")
        assert code == 0
        assert doc["result"]["theta-shift"] == "0"
        assert doc["result"]["omega-invariance"] == "0"

    def test_check_divergence(self, capsys, lagfile):
        code, doc = invoke(capsys, "check-divergence", lagfile(DIV))
        assert code == 0
        assert doc["residuals"] == []

    def test_ms_check_exit_codes(self, capsys, lagfile):
        code, _ = invoke(capsys, "ms-check", lagfile(MS_GOOD))
        assert code == 0
        code, doc = invoke(capsys, "ms-check", lagfile(MS_BAD, "bad.lag"))
        assert code == 1
        assert doc["residuals"]

    def test_parse_error_exit_2(self, capsys, lagfile, caplog):
        code = run(["el", lagfile("base 1; field u; order 2; lagrangian u[5];")])
        assert code == 2

    @pytest.mark.parametrize("source,where", [
        ("base x;", "line 1, column 6"),
        ("base 1;\norder x;", "line 2, column 7"),
        ("base 1;\nfield u;\nopaque U(x);", "line 3, column 10"),
    ])
    def test_non_integer_declaration_exit_2(self, capsys, lagfile, source,
                                            where):
        assert run(["el", lagfile(source)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert where in err

    @pytest.mark.parametrize("source,where", [
        ("base 1;\nfield u;\norder 2;\n\nlagrangian\n  u[2]^2\n  + w*u;",
         "unknown identifier 'w' (in lagrangian statement) at line 7, column 5"),
        ("base 1;\nfield u;\norder 2;\nlagrangian u[2]^2;\n"
         "section {\n  u =\n    x1 +;\n}",
         "unexpected token '' (in section statement) at line 7, column 9"),
    ])
    def test_expression_error_at_offending_token(self, capsys, lagfile,
                                                 source, where):
        # a statement spanning lines reports the token, not its first line
        assert run(["el", lagfile(source)]) == 2
        assert capsys.readouterr().err == f"error: {where}\n"

    @pytest.mark.parametrize("source,where", [
        ("base 1;\nfield u;\norder 1;\nlagrangian lam[1,2];",
         "expected ']', found ',' (in lagrangian statement) at line 4, column 17"),
        ("base 1;\nfield 3;\norder 1;\nlagrangian 0;",
         "expected a name, found '3' at line 2, column 7"),
        ("base 1;\nfield u;\nparam (;\norder 1;\nlagrangian 0;",
         "expected a name, found '(' at line 3, column 7"),
        ("base 1;\nfield u;\norder 1;\nlagrangian " + "1" * 5000 + "*u;",
         "integer literal too long (5000 digits) (in lagrangian statement)"
         " at line 4, column 12"),
        ("base 1;\norder 1;\nfield", "expected a name, found '' at line 3, column 6"),
    ], ids=["lam-two-indices", "field-int", "param-paren", "long-literal",
            "field-at-end"])
    def test_input_once_accepted_or_crashing_exit_2(self, capsys, lagfile,
                                                    source, where):
        # each of these exited 0 with a bogus declaration, or 3
        assert run(["el", lagfile(source)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {where}\n"

    @pytest.mark.parametrize("source,digits", [
        ("lagrangian 2^20000*u[1]^2;", {"el": 6021, "momenta": 6021}),
        ("lagrangian (2*u[1])^15000;", {"el": 4524, "momenta": 4520}),
    ], ids=["big-literal-power", "big-expanded-power"])
    @pytest.mark.parametrize("command", ["el", "momenta"])
    @pytest.mark.parametrize("latex", [(), ("--latex",)])
    def test_coefficient_beyond_the_digit_limit_exit_2(
            self, capsys, lagfile, source, digits, command, latex):
        # the input parses, but its result has a coefficient longer than
        # the parser would read back: one error line, not an internal fault
        path = lagfile("base 1;\nfield u;\norder 1;\n" + source)
        assert run([*latex, command, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: coefficient too long to print "
                                f"({digits[command]} digits)\n")

    @pytest.mark.parametrize("source,latex", [
        ("lagrangian u^{N}*u^{N};", ()),
        ("lagrangian u^{N}*u^{N};", ("--latex",)),
        # the LaTeX printer writes a Laurent exponent with its sign
        ("param m;\nlagrangian u[1]^2/m^{N}/m^{N};", ("--latex",)),
    ], ids=["power", "power-latex", "laurent-latex"])
    def test_exponent_beyond_the_digit_limit_exit_2(self, capsys, lagfile,
                                                    source, latex):
        # each exponent reads back, but their sum 2N has 4301 digits; these
        # exited 3 with Python's ValueError for long integer strings
        N = "9" * 4300
        path = lagfile("base 1;\nfield u;\norder 1;\n" + source.format(N=N))
        assert run([*latex, "el", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: exponent too long to print "
                                "(4301 digits)\n")

    @pytest.mark.parametrize("source,message,col", [
        ("lagrangian (u+u[1,0])^100000000;",
         "a sum of 2 terms to the power 100000000 has more than 100000 terms",
         23),
        ("lagrangian 2^99999999999*u;",
         "its coefficients could pass 262144 bits", 14),
        ("lagrangian (3*u[0,1])^100000000;",
         "its coefficients could pass 262144 bits", 23),
    ], ids=["terms", "number-bits", "monomial-bits"])
    def test_power_over_budget_exit_2(self, capsys, lagfile, source, message,
                                      col):
        # refused at the exponent before any multiplication: without the
        # budgets these expand until memory runs out
        path = lagfile("base 2;\nfield u;\norder 1;\n" + source)
        assert run(["el", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: power too large: {message} (in "
                                f"lagrangian statement) at line 4, column {col}\n")

    @pytest.mark.parametrize("source,option,message,where", [
        ("base 1;\nfield u;\norder 2000;\n", (),
         "base 1 and order 2000", " at line 3, column 7"),
        ("order 1;\nfield u;\nbase 2000;\n", (),
         "base 2000 and order 1", " at line 3, column 6"),
        ("base 2;\nfield u;\norder 62;\n", (),
         "base 2 and order 62", " at line 3, column 7"),
        ("base 1;\nfield u;\norder 1;\n", ("--target-order", "2000"),
         "base 1 and target order 2000", ""),
    ], ids=["order", "base", "both", "target-order"])
    def test_jet_grid_over_budget_exit_2(self, capsys, lagfile, source,
                                         option, message, where):
        # one past the budget, so that a command that built the grid anyway
        # would still end at once: 2001, 2001, 2016 and 2001 multi-indices
        path = lagfile(source + "lagrangian u^2;\nvfield u = u;\n")
        assert run(["prolong", path, *option]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: jet grid too large: {message} give "
                                f"more than 2000 multi-indices{where}\n")

    def test_negative_target_order_exit_2(self, capsys, lagfile):
        # no jet has a negative order, so there is nothing to prolong to
        path = lagfile("base 1;\nfield u;\norder 1;\nlagrangian u^2;\n"
                       "vfield u = u;\n")
        assert run(["prolong", path, "--target-order", "-1"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: target order -1 is negative\n")

    @pytest.mark.parametrize("name,command,message", [
        ("beam", "energy", "energy transform is a first-order construction"),
        ("beam", "check-divergence", "problem file has no fcomponent statements"),
        ("mechanics", "ms-check", "problem file has no section block"),
        ("plate", "legendre", "singular Legendre: top Hessian block degenerate"),
        ("plate", "hamilton", "singular Legendre: top Hessian block degenerate"),
        ("plate", "pc-form", "singular Legendre: top Hessian block degenerate"),
        ("plate", "energy", "energy transform is a first-order construction"),
        ("coupled", "prolong", "problem file has no vfield statements"),
        ("vfield_poly", "shift", "problem file has no fcomponent statements"),
    ])
    @pytest.mark.parametrize("latex", [(), ("--latex",)])
    def test_corpus_refusals_keep_their_text(self, capsys, name, command,
                                             message, latex):
        # the refusals of the textbook benchmark workload, stderr pinned
        path = os.path.join(CORPUS, f"{name}.lag")
        assert run([command, path, *latex]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    @pytest.mark.parametrize("cap", [1, 2])
    def test_momentum_order_cap_exit_2(self, capsys, lagfile, cap):
        # V[2] = u[2] passes cap 2 but not 1; V[1] = -u[3] passes neither
        path = lagfile(BEAM)
        assert run(["momenta", path, "--order-cap", str(cap)]) == 2
        assert capsys.readouterr().err == \
            f"error: momentum cascade exceeded the jet order cap {cap}\n"

    def test_momentum_order_cap_3_passes(self, capsys, lagfile):
        code, doc = invoke(capsys, "momenta", lagfile(BEAM), "--order-cap", "3")
        assert code == 0
        assert doc["result"] == {"p[u;0;1]": "-u[3]", "p[u;1;1]": "u[2]"}

    @pytest.mark.parametrize("cap", [2, 3])
    def test_iterated_derivative_cap_exit_2(self, capsys, cap):
        # D_11 of dL/du[2] = u[2] reaches u[3] after one step, u[4] after two
        path = os.path.join(CORPUS, "beam.lag")
        assert run(["el", path, "--order-cap", str(cap)]) == 2
        assert capsys.readouterr().err == (
            f"error: jet order exceeded cap {cap} during iterated total derivative\n")

    def test_iterated_derivative_cap_4_passes(self, capsys):
        code, doc = invoke(capsys, "el", os.path.join(CORPUS, "beam.lag"),
                           "--order-cap", "4")
        assert code == 0
        assert doc["result"] == {"euler_lagrange": {"u": "u[4]"}}

    @pytest.mark.parametrize("command", ["el", "momenta"])
    def test_negative_order_cap_exit_2(self, capsys, lagfile, command):
        # one refusal for every command, before the file is read: el used
        # to exit 0 here, and momenta to refuse in its cascade
        path = lagfile("base 1; field u; order 1; lagrangian x1^2 + u;")
        assert run([command, path, "--order-cap", "-1"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: order cap -1 is negative\n")

    @pytest.mark.parametrize("path", ["/nonexistent.lag",
                                      os.path.join(CORPUS, "beam.lag")])
    @pytest.mark.parametrize("argv", [["galilei"], ["verify-all", "--seed", "1"]])
    def test_command_without_a_file_refuses_one(self, capsys, argv, path):
        assert run([argv[0], path, *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: {argv[0]} takes no problem file\n")

    def test_missing_file_exit_2(self, capsys):
        assert run(["el", "/nonexistent/x.lag"]) == 2

    def test_singular_legendre_exit_2(self, capsys, lagfile):
        path = lagfile("base 1; field u; order 2; lagrangian u[2];")
        assert run(["legendre", path]) == 2

    def test_constrained_cascade(self, capsys, lagfile):
        # the pendulum on the unit circle: each row gains the multiplier
        # term lam[1] * dC/dphi_mu of the constraint C = u^2 + v^2 - 1
        path = lagfile(PENDULUM)
        code, doc = invoke(capsys, "cascade", path)
        assert code == 0
        assert doc["result"] == {
            "u:p[1]": "p[u;0;1] = u[1]",
            "u:euler": "p[u;0;1;1] = 2*u*lam[1]",
            "v:p[1]": "p[v;0;1] = v[1]",
            "v:euler": "p[v;0;1;1] = 2*v*lam[1]",
        }

    @pytest.mark.parametrize("command,message", [
        ("momenta", "problem has constraints; use "
                    "constrained_generating_family"),
        ("legendre", "Legendre transform of a constrained problem is not "
                     "supported"),
    ])
    def test_constrained_problem_refused(self, capsys, lagfile, command,
                                         message):
        assert run([command, lagfile(PENDULUM)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    def test_internal_fault_exit_3(self, capsys, lagfile, monkeypatch):
        def fault(*args, **kwargs):
            raise RuntimeError("boom")
        monkeypatch.setattr("jetcalc.variational.euler_lagrange", fault)
        assert run(["el", lagfile(BEAM)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: RuntimeError: boom\n"

    @pytest.mark.parametrize("error,code,err", [
        (type("FreshError", (jetcalc.JetcalcError,), {})("bad"), 2,
         "error: bad\n"),
        (ValueError("bad"), 3, "error: ValueError: bad\n"),
    ], ids=["jetcalc-error-subclass", "plain-value-error"])
    def test_exit_2_is_exactly_a_jetcalc_error(self, capsys, lagfile,
                                               monkeypatch, error, code, err):
        # exit 2 is the one class JetcalcError, whatever module raises it
        def refuse(*args, **kwargs):
            raise error
        monkeypatch.setattr("jetcalc.variational.euler_lagrange", refuse)
        assert run(["el", lagfile(BEAM)]) == code
        assert capsys.readouterr() == ("", err)

    @pytest.mark.parametrize("argv", [["el"], ["legendre"],
                                      ["--latex", "pc-form"]])
    def test_nesting_at_the_budget_passes(self, capsys, lagfile, argv):
        # 64 nested calls: at the parser's nesting budget, and within the
        # stack of every later recursion over them
        path = lagfile(NESTED.format("U(" * 64 + "u" + ")" * 64))
        assert run([*argv, path]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("body,col", [
        ("U(" * 65 + "u" + ")" * 65, 154),
        ("(" * 3000 + "u" + ")" * 3000, 89),
    ], ids=["65-calls", "3000-parentheses"])
    def test_nesting_past_the_budget_exit_2(self, capsys, lagfile, body, col):
        # these ended in a RecursionError (exit 3), or 65 calls passed
        assert run(["el", lagfile(NESTED.format(body))]) == 2
        assert capsys.readouterr() == ("", (
            "error: nesting deeper than 64 levels of parentheses and calls "
            f"(in lagrangian statement) at line 6, column {col}\n"))

    @pytest.mark.parametrize("key,where", [
        ("x1", "x1 at line 7, column 11"),
        ("m", "m at line 7, column 11"),
        ("lam[1]", "lam [ 1 ] at line 7, column 11"),
        ("U(x1)", "U ( x1 ) at line 7, column 11"),
    ], ids=["base", "parameter", "multiplier", "call"])
    @pytest.mark.parametrize("command", ["ms-check", "el"])
    def test_section_key_that_is_no_slot_exit_2(self, capsys, lagfile, key,
                                                where, command):
        # these ended in an AttributeError (exit 3) in ms-check
        path = lagfile(NESTED.format("0") + f"section {{ {key} = 2; }}\n")
        assert run([command, path]) == 2
        assert capsys.readouterr() == (
            "", f"error: section key must be a single slot: {where}\n")

    @pytest.mark.parametrize("command", ["ms-check", "prolong", "el"])
    @pytest.mark.parametrize("source,message", [
        ("section { u = x1^3; u[1] = 3*x1^2; u = x1; }",
         "duplicate section key: u at line 7, column 36"),
        ("vfield u = u^2;\nvfield u = u;",
         "duplicate 'vfield' statement for 'u' at line 8, column 1"),
    ], ids=["section-key", "vfield"])
    def test_duplicate_value_exit_2(self, capsys, lagfile, source, message,
                                    command):
        # the second value used to replace the first silently
        path = lagfile(NESTED.format("0") + source + "\n")
        assert run([command, path]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_closed_stdout_exit_3(self, lagfile):
        # the reader is gone before the report is written: one error line,
        # no traceback, not even from the flush at interpreter exit; stdout
        # is block-buffered, so this small report reaches the pipe on a flush
        src = os.path.dirname(os.path.dirname(jetcalc.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "jetcalc.cli", "el", lagfile(BEAM)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 3
        assert err.startswith("error:") and err.count("\n") == 1, err

    def test_verify_all(self, capsys):
        code, doc = invoke(capsys, "verify-all", "--seed", "3")
        assert code == 0
        assert doc["result"]["cascade-equivalence"] == "pass"
        assert doc["result"]["seed"] == 3

    def test_energy_defaults_to_last_direction(self, capsys, lagfile):
        path = lagfile("base 1; field q; order 1; lagrangian 1/2*q[1]^2;")
        code, doc = invoke(capsys, "energy", path)
        assert code == 0
        assert doc["result"]["time_direction"] == "1"

    def test_latex_mode(self, capsys, lagfile):
        code, doc = invoke(capsys, "momenta", lagfile(MECH), "--latex")
        assert code == 0
        assert doc["result"]["p[q;0;1]"] == "m\\,q_{(1)}"


class TestOptionsBeforeFile:
    """The file may follow the options: one leftover argument that is not
    an option is the file; anything else left over is refused by argparse."""

    @staticmethod
    def _run(capsys, argv):
        try:
            code = run(argv)
        except SystemExit as exc:           # argparse refusals
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("command,option,name", [
        ("momenta", "--order-cap", "beam.lag"),
        ("prolong", "--target-order", "vfield_poly.lag"),
    ])
    def test_option_first_equals_file_first(self, capsys, command, option,
                                            name):
        path = os.path.join(CORPUS, name)
        first = self._run(capsys, [command, path, option, "3"])
        assert first[0] == 0 and first[1] and not first[2]
        assert self._run(capsys, [command, option, "3", path]) == first

    @pytest.mark.parametrize("argv,rest", [
        ("momenta --order-cap 3 {beam} {beam}", "{beam} {beam}"),
        ("momenta {beam} {beam}", "{beam}"),
        ("momenta {beam} --order-cap 3 {beam}", "{beam}"),
        ("momenta --order-cap 3 --no-such-option {beam}",
         "--no-such-option {beam}"),
    ])
    def test_other_leftovers_exit_2(self, capsys, argv, rest):
        beam = os.path.join(CORPUS, "beam.lag")
        code, out, err = self._run(
            capsys, [a.format(beam=beam) for a in argv.split()])
        assert (code, out) == (2, "")
        assert err.startswith("usage: jetcalc ")
        assert err.endswith("jetcalc: error: unrecognized arguments: "
                            f"{rest.format(beam=beam)}\n")


class TestParserReuse:
    """``run`` builds its argument parser once per process; no call may
    see a trace of an earlier one."""

    ENERGY = "base 2; field u; order 1; lagrangian 1/2*u[1,0]^2 - u[0,1]^2;"

    def test_each_run_matches_a_fresh_process(self, capsys, lagfile):
        beam, energy = lagfile(BEAM), lagfile(self.ENERGY, "energy.lag")
        argvs = [["el", beam, "--latex"], ["el", beam],
                 ["momenta", beam, "--order-cap", "1"], ["momenta", beam],
                 ["no-such-command"],
                 ["energy", energy, "--time", "1"], ["energy", energy]]
        src = os.path.dirname(os.path.dirname(jetcalc.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        seen = []
        for argv in argvs:
            try:
                code = run(argv)
            except SystemExit as exc:       # argparse refusals
                code = exc.code
            captured = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "jetcalc.cli", *argv],
                capture_output=True, text=True, env=env, timeout=60)
            assert (code, captured.out, captured.err) == \
                (fresh.returncode, fresh.stdout, fresh.stderr), argv
            seen.append((code, captured.out, captured.err))
        # the runs differ where their arguments do
        assert [c for c, _, _ in seen] == [0, 0, 2, 0, 2, 0, 0]
        assert seen[0][1] != seen[1][1] and seen[5][1] != seen[6][1]
        assert seen[4][2].startswith("usage: jetcalc ")
        assert seen[2][2] == \
            "error: momentum cascade exceeded the jet order cap 1\n"


POLY_HEAD = "base 1; field u; order 1; lagrangian 0;\n"

POLY2 = """
base 1;
field u;
field v;
order 1;
param a;
lagrangian 0;
poly u^3/a + x1*u*v^2 - 2*v^3;
"""

POLY2_OUT = """{
  "command": "polarize",
  "problem": {
    "n": 1,
    "k": 1,
    "fields": [
      "u",
      "v"
    ]
  },
  "result": {
    "component_u": "%s",
    "component_v": "%s",
    "degree": "3"
  },
  "residuals": []
}
"""


class TestPolarizePins:
    """The polarize report, byte for byte: its refusals and one two-field
    polynomial with a Laurent parameter and a base-coordinate coefficient."""

    @pytest.mark.parametrize("poly,message", [
        ("0", "zero polynomial has no degree"),
        ("5", "polarization needs degree >= 1"),
        ("u^2 + u", "polynomial is not homogeneous"),
        # the variables are the fields' zeroth jets: u[1] is a coefficient
        ("u[1]^2", "polarization needs degree >= 1"),
    ])
    def test_refusals(self, capsys, lagfile, poly, message):
        assert run(["polarize", lagfile(f"{POLY_HEAD}poly {poly};")]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    @pytest.mark.parametrize("latex,components", [
        ((), ("x1*v^2/3 + u^2/a", "2*x1*u*v/3 - 2*v^2")),
        (("--latex",), (r"\\tfrac{1}{3}\\,x^{1}\\,v^{2} + a^{-1}\\,u^{2}",
                        r"\\tfrac{2}{3}\\,x^{1}\\,u\\,v - 2\\,v^{2}")),
    ])
    def test_two_field_report(self, capsys, lagfile, latex, components):
        assert run(["polarize", lagfile(POLY2), *latex]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (POLY2_OUT % components, "")


LEG_HEAD = "base 1; field u; field v; order 1;\n"

# a 1/a diagonal entry and a Fraction cross entry: det = -1/4
LEG_INV = LEG_HEAD + ("param a; lagrangian 1/(2*a)*u[1]^2 + 1/2*u[1]*v[1] "
                      "- u*v[1]/a + x1*u[1] - a*u^2;\n")

LEG_OUT = """{
  "command": "%s",
  "problem": {
    "n": 1,
    "k": 1,
    "fields": [
      "u",
      "v"
    ]
  },
  "result": {
%s
  },
  "residuals": []
}
"""

# the texts as they stand in the JSON report, backslashes escaped
H_DSL = ("-2*x1*u/a - 2*x1*p[v;0;1] + 2*u*p[u;0;1]/a - 4*u*p[v;0;1]/a^2 "
         "- 2*u^2/a^3 + a*u^2 + 2*p[u;0;1]*p[v;0;1] - 2*p[v;0;1]^2/a")
H_TEX = (r"-2\\,a^{-1}\\,x^{1}\\,u - 2\\,x^{1}\\,p_{v}^{(0)\\,1} "
         r"+ 2\\,a^{-1}\\,u\\,p_{u}^{(0)\\,1} - 4\\,a^{-2}\\,u\\,p_{v}^{(0)\\,1} "
         r"- 2\\,a^{-3}\\,u^{2} + a\\,u^{2} "
         r"+ 2\\,p_{u}^{(0)\\,1}\\,p_{v}^{(0)\\,1} - 2\\,a^{-1}\\,p_{v}^{(0)\\,1}^{2}")
U1_DSL = "2*u/a + 2*p[v;0;1]"
U1_TEX = r"2\\,a^{-1}\\,u + 2\\,p_{v}^{(0)\\,1}"
V1_DSL = "-2*x1 - 4*u/a^2 + 2*p[u;0;1] - 4*p[v;0;1]/a"
V1_TEX = (r"-2\\,x^{1} - 4\\,a^{-2}\\,u + 2\\,p_{u}^{(0)\\,1} "
          r"- 4\\,a^{-1}\\,p_{v}^{(0)\\,1}")

LEG_RESULTS = {
    ("legendre", False): (("h", H_DSL), ("H", H_DSL), ("u[1]", U1_DSL),
                          ("v[1]", V1_DSL)),
    ("legendre", True): (("h", H_TEX), ("H", H_TEX), ("u[1]", U1_TEX),
                         ("v[1]", V1_TEX)),
    ("energy", False): (("energy", H_DSL), ("time_direction", "1")),
    ("energy", True): (("energy", H_TEX), ("time_direction", "1")),
    ("hamilton", False): (
        ("u:phi[1]", f"u[1] = {U1_DSL}"),
        ("u:euler", "0 = 2*x1/a + 4*u/a^3 - 2*a*u - 2*p[u;0;1]/a "
                    "- p[u;0;1;1] + 4*p[v;0;1]/a^2"),
        ("v:phi[1]", f"v[1] = {V1_DSL}"),
        ("v:euler", "0 = -p[v;0;1;1]")),
    ("hamilton", True): (
        ("u:phi[1]", f"u_{{(1)}} = {U1_TEX}"),
        ("u:euler", r"0 = 2\\,a^{-1}\\,x^{1} + 4\\,a^{-3}\\,u - 2\\,a\\,u "
                    r"- 2\\,a^{-1}\\,p_{u}^{(0)\\,1} "
                    r"- \\partial_{(1)} p_{u}^{(0)\\,1} "
                    r"+ 4\\,a^{-2}\\,p_{v}^{(0)\\,1}"),
        ("v:phi[1]", f"v_{{(1)}} = {V1_TEX}"),
        ("v:euler", r"0 = -\\partial_{(1)} p_{v}^{(0)\\,1}")),
    ("pc-form", False): (
        ("omega", "(-2*x1/a - 4*u/a^3 + 2*a*u + 2*p[u;0;1]/a - 4*p[v;0;1]/a^2)"
                  " d(x1) ∧ d(u)"
                  f" + ({U1_DSL}) d(x1) ∧ d(p[u;0;1])"
                  f" + ({V1_DSL}) d(x1) ∧ d(p[v;0;1])"
                  " + (-1) d(u) ∧ d(p[u;0;1]) + (-1) d(v) ∧ d(p[v;0;1])"),
        ("theta", "(2*x1*u/a + 2*x1*p[v;0;1] - 2*u*p[u;0;1]/a "
                  "+ 4*u*p[v;0;1]/a^2 + 2*u^2/a^3 - a*u^2 "
                  "- 2*p[u;0;1]*p[v;0;1] + 2*p[v;0;1]^2/a) d(x1)"
                  " + (p[u;0;1]) d(u) + (p[v;0;1]) d(v)"),
        ("H", H_DSL)),
    ("pc-form", True): (
        ("omega", r"\\left(-2\\,a^{-1}\\,x^{1} - 4\\,a^{-3}\\,u + 2\\,a\\,u "
                  r"+ 2\\,a^{-1}\\,p_{u}^{(0)\\,1} "
                  r"- 4\\,a^{-2}\\,p_{v}^{(0)\\,1}\\right) "
                  r"\\mathrm{d}x^{1} \\wedge \\mathrm{d}u"
                  rf" + \\left({U1_TEX}\\right) "
                  r"\\mathrm{d}x^{1} \\wedge \\mathrm{d}p_{u}^{(0)\\,1}"
                  rf" + \\left({V1_TEX}\\right) "
                  r"\\mathrm{d}x^{1} \\wedge \\mathrm{d}p_{v}^{(0)\\,1}"
                  r" + -1\\, \\mathrm{d}u \\wedge \\mathrm{d}p_{u}^{(0)\\,1}"
                  r" + -1\\, \\mathrm{d}v \\wedge \\mathrm{d}p_{v}^{(0)\\,1}"),
        ("theta", r"\\left(2\\,a^{-1}\\,x^{1}\\,u + 2\\,x^{1}\\,p_{v}^{(0)\\,1} "
                  r"- 2\\,a^{-1}\\,u\\,p_{u}^{(0)\\,1} "
                  r"+ 4\\,a^{-2}\\,u\\,p_{v}^{(0)\\,1} + 2\\,a^{-3}\\,u^{2} "
                  r"- a\\,u^{2} - 2\\,p_{u}^{(0)\\,1}\\,p_{v}^{(0)\\,1} "
                  r"+ 2\\,a^{-1}\\,p_{v}^{(0)\\,1}^{2}\\right) \\mathrm{d}x^{1}"
                  r" + p_{u}^{(0)\\,1}\\, \\mathrm{d}u"
                  r" + p_{v}^{(0)\\,1}\\, \\mathrm{d}v"),
        ("H", H_TEX)),
}

LEG_REFUSALS = [
    # the Hessian of LEG_INV with 3/2*v[1]^2: det = -1/4 + 3/a, whose
    # inverse is a rational function of a
    (LEG_HEAD + "param a; lagrangian 1/(2*a)*u[1]^2 + 1/2*u[1]*v[1] "
                "- u*v[1]/a + x1*u[1] + 3/2*v[1]^2;\n",
     "-3*x1 - u/(2*a) + 3*p[u;0;1] - p[v;0;1]/2 by -1/4 + 3/a"),
    # a determinant with parameter content
    (LEG_HEAD + "param a; param b; param c; lagrangian 1/2*a*b*u[1]^2 "
                "+ a*u[1]*v[1] + 1/2*a*c*v[1]^2;\n",
     "a*c*p[u;0;1] - a*p[v;0;1] by -a^2 + a^2*b*c"),
]


class TestLegendrePins:
    """The reports of the four commands that solve the Legendre system,
    byte for byte, on Hessians with Laurent and Fraction entries: one that
    inverts and two whose inverse leaves the parameter-Laurent ring."""

    @pytest.mark.parametrize("command,latex", sorted(LEG_RESULTS))
    def test_inversion(self, capsys, lagfile, command, latex):
        argv = [command, lagfile(LEG_INV)] + ["--latex"] * latex
        assert run(argv) == 0
        captured = capsys.readouterr()
        body = ",\n".join(f'    "{key}": "{text}"'
                          for key, text in LEG_RESULTS[command, latex])
        assert (captured.out, captured.err) == (LEG_OUT % (command, body), "")

    @pytest.mark.parametrize("command",
                             ["legendre", "energy", "hamilton", "pc-form"])
    @pytest.mark.parametrize("source,division", LEG_REFUSALS)
    def test_refusals(self, capsys, lagfile, command, source, division):
        assert run([command, lagfile(source)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: Legendre inversion not representable: "
                f"inexact division: {division}\n")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tokens=TOKEN_SOUP, header=SOUP_HEADERS)
def test_parse_errors_keep_the_exit_code_contract(tmp_path, capsys, tokens,
                                                  header):
    # exit 2 is one error line and no report; exit 0 is a JSON report
    path = tmp_path / "soup.lag"
    for sep in (" ", ""):
        path.write_text(header + sep.join(tokens), encoding="utf-8")
        code = run(["el", str(path)])
        out, err = capsys.readouterr()
        assert code in (0, 2), (code, err)
        if code == 2:
            assert out == "" and err.startswith("error: ") \
                and err.count("\n") == 1 and err.endswith("\n"), err
        else:
            assert err == "" and json.loads(out)["command"] == "el"


FILE_COMMANDS = [c for c in jetcalc.cli.COMMANDS
                 if c not in ("galilei", "verify-all")]


@st.composite
def problem_files(draw):
    """Problem files at base 1-2 and order 1-2 with one or two fields:
    rational coefficients, a parameter in a numerator or a denominator, and
    when drawn an opaque call and the tool blocks (section, fcomponent,
    vfield, poly).  Each top jet appears squared, so that the Legendre
    commands solve some and refuse others."""
    n, k = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    fields = draw(st.sampled_from([("u",), ("u", "v")]))
    params = draw(st.sampled_from([(), ("m",), ("m", "g")]))
    opaque = draw(st.booleans())

    def jet(fld, mi):
        return f"{fld}[{','.join(map(str, mi))}]"

    jets = [jet(f, mi) for f in fields for mi in multiindices_up_to(n, k)]
    xs = [f"x{mu}" for mu in range(1, n + 1)]
    atoms = jets + xs + (["U(x1, u)"] if opaque else [])

    def coeff():
        c = f"{draw(st.integers(-7, 7))}/{draw(st.integers(1, 6))}"
        if params and draw(st.booleans()):
            c += draw(st.sampled_from("*/")) + draw(st.sampled_from(params))
        return f"({c})"

    def poly(pool, max_terms, max_degree):
        return " + ".join(
            coeff() + "".join(f"*{a}" for a in draw(st.lists(
                st.sampled_from(pool), max_size=max_degree)))
            for _ in range(draw(st.integers(1, max_terms))))

    lines = [f"base {n};", *(f"field {f};" for f in fields), f"order {k};",
             *(f"param {p};" for p in params)]
    if opaque:
        lines.append("opaque U(2);")
    top = [jet(f, mi) for f in fields for mi in all_multiindices(n, k)]
    lines.append(f"lagrangian {poly(atoms, 3, 3)} + "
                 + " + ".join(f"{coeff()}*{j}^2" for j in top) + ";")
    if draw(st.booleans()):
        slots = jets + [f"p[{f};{','.join(map(str, mu))};{lam}]"
                        for f in fields for mu in multiindices_up_to(n, k - 1)
                        for lam in range(1, n + 1)]
        lines.append("section { " + " ".join(
            f"{slot} = {poly(xs, 2, 2)};" for slot in slots) + " }")
    if draw(st.booleans()):
        lines += [f"fcomponent {poly(atoms, 2, 2)};" for _ in range(n)]
    if draw(st.booleans()):
        lines += [f"vfield {f} = {poly(atoms, 2, 2)};" for f in fields]
    if draw(st.booleans()):
        lines.append(f"poly {poly(jets, 2, 2)};")
    return "\n".join(lines) + "\n"


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=problem_files())
def test_file_commands_keep_the_exit_code_contract(tmp_path, capsys, text):
    # exit 0 and 1 are a JSON report, 1 exactly when it lists a residual;
    # exit 2 is one error line and no report; an exit 3 is a fault
    path = tmp_path / "random.lag"
    path.write_text(text, encoding="utf-8")
    for command in FILE_COMMANDS:
        for latex in ([], ["--latex"]):
            code = run([command, str(path), *latex])
            out, err = capsys.readouterr()
            assert code in (0, 1, 2), (command, latex, code, err, text)
            if code == 2:
                assert out == "" and err.startswith("error: ") \
                    and err.count("\n") == 1 and err.endswith("\n"), err
            else:
                assert err == ""
                assert bool(json.loads(out)["residuals"]) == (code == 1)


class TestRoundTrip:
    @pytest.mark.parametrize("command,source", [
        ("momenta", BEAM), ("momenta", MECH),
        ("el", BEAM), ("el", MECH),
        ("currents", BEAM), ("legendre", MECH),
    ])
    def test_result_strings_reparse(self, capsys, lagfile, command, source):
        path = lagfile(source)
        code, doc = invoke(capsys, command, path)
        assert code == 0
        problem = parse_problem(source).problem

        def walk(value):
            if isinstance(value, dict):
                for v in value.values():
                    walk(v)
            elif "=" not in value and not value.isdigit():
                e = parse_expr(value, problem, max_jet_order=12)
                assert parse_expr(str(e), problem, max_jet_order=12) == e

        walk(doc["result"])


class TestDensePowersAgainstSympy:
    """``el`` on dense powers (c1*a1 + ... + cm*am)^d, checked against
    sympy's ``euler_equations`` on the printed output: an oracle that
    shares no code with the kernel."""

    @pytest.mark.parametrize("order,body,d", [
        (1, "2*u[1,0] - u[0,1] + 3*u + x1 - 2*x2", 5),
        (2, "u[0,1] - 2*x2 + u[1,0] + 3*u", 6),
        (1, "1/2*u[1,0] - 2/3*u[0,1] + u + 3/4*x1", 7),
    ])
    def test_el_matches_euler_equations(self, capsys, lagfile, order, body, d):
        import sympy
        from sympy.calculus.euler import euler_equations

        code, doc = invoke(capsys, "el", lagfile(
            f"base 2;\nfield u;\norder {order};\nlagrangian ({body})^{d};\n"))
        assert code == 0
        x = sympy.symbols("x1 x2")
        u = sympy.Function("u")(*x)
        jets = {f"u_{a}_{b}": sympy.Symbol(f"u_{a}_{b}")
                for a in range(3) for b in range(3)}

        def jet_symbol(deriv):
            return jets[f"u_{deriv.variables.count(x[0])}_"
                        f"{deriv.variables.count(x[1])}"]

        def to_sympy(dsl):
            text = re.sub(r"u\[(\d),(\d)\]", r"u_\1_\2", dsl)
            text = re.sub(r"\bu\b", "u_0_0", text).replace("^", "**")
            return sympy.sympify(text, locals={**jets, "x1": x[0], "x2": x[1]})

        L = to_sympy(f"({body})^{d}")
        want = euler_equations(L.subs({jets[f"u_{a}_{b}"]: sympy.Derivative(
            u, *[x[0]] * a, *[x[1]] * b) if a or b else u
            for a in range(2) for b in range(2)}), u, x)[0].lhs
        want = want.xreplace({dv: jet_symbol(dv)
                              for dv in want.atoms(sympy.Derivative)})
        want = want.xreplace({u: jets["u_0_0"]})
        got = to_sympy(doc["result"]["euler_lagrange"]["u"])
        assert sympy.expand(want - got) == 0


class TestDeterminism:
    def test_verify_all_replays_identically(self, capsys):
        code1, doc1 = invoke(capsys, "verify-all", "--seed", "5")
        code2, doc2 = invoke(capsys, "verify-all", "--seed", "5")
        assert (code1, doc1) == (code2, doc2)

    def test_stdout_independent_of_hash_seed(self):
        # the kernel keys dicts by identity-hashed atoms; no printed order
        # may depend on that hashing
        argvs = [["verify-all", "--seed", "0"]] + [
            [cmd, os.path.join(CORPUS, name)]
            for name in ("mechanics.lag", "coupled.lag")
            for cmd in ("el", "legendre", "pc-form")]
        snippet = (
            "import contextlib, io, sys\n"
            "from jetcalc.cli import run\n"
            f"for argv in {argvs!r}:\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        code = run(argv)\n"
            "    sys.stdout.write(f'{argv} exit {code}\\n' + out.getvalue())\n")
        src = os.path.dirname(os.path.dirname(jetcalc.__file__))
        outputs = []
        for seed in (0, 1):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed))
            proc = subprocess.run([sys.executable, "-c", snippet],
                                  capture_output=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b" exit 0\n") == len(argvs)

    def test_error_text_independent_of_hash_seed(self, lagfile):
        # every Hessian entry holds several offending coordinates; the
        # refusal must not depend on the iteration order of a set of atoms
        path = lagfile("base 2; field u; order 1; "
                       "lagrangian (u+u[1,0]+u[0,1]+x1)^6;")
        src = os.path.dirname(os.path.dirname(jetcalc.__file__))
        errors = set()
        for seed in range(6):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed))
            proc = subprocess.run(
                [sys.executable, "-m", "jetcalc.cli", "legendre", path],
                capture_output=True, text=True, env=env, timeout=60)
            assert proc.returncode == 2
            errors.add(proc.stderr)
        assert errors == {
            "error: Lagrangian is not quadratic in the top jets\n"}

    def test_named_coordinate_independent_of_hash_seed(self):
        # a section value and a Lagrangian with several offending atoms:
        # each error names the first of them in canonical order
        snippet = (
            "from jetcalc import *\n"
            "u = lambda *mi: Expr.atom(Jet('u', MultiIndex(mi)))\n"
            "p = Expr.atom(Momentum('u', MultiIndex((0,)), 1))\n"
            "for build in (lambda: SectionData({Jet('u', MultiIndex((0,))):"
            " p + u(1) + u(0)}),\n"
            "              lambda: LagrangianProblem(1, ('u',), 1,"
            " p * u(3) + u(2) + p)):\n"
            "    try:\n"
            "        build()\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n")
        src = os.path.dirname(os.path.dirname(jetcalc.__file__))
        outputs = set()
        for seed in range(6):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed))
            proc = subprocess.run([sys.executable, "-c", snippet],
                                  capture_output=True, text=True, env=env,
                                  timeout=60)
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert outputs == {
            "section value for u contains fibre atom u\n"
            "lagrangian depends on jet u[2] beyond order k=1\n"}

    def test_momentum_refusal_independent_of_hash_seed(self):
        # two momenta in one divergence component and in one vertical field
        # coefficient: each refusal names the first in canonical order
        snippet = (
            "from jetcalc import *\n"
            "u = Expr.atom(Jet('u', MultiIndex((0,))))\n"
            "p = lambda *mi: Expr.atom(Momentum('u', MultiIndex(mi), 1))\n"
            "for build in (lambda: divergence_lagrangian([p(1) * u + p(0)]),\n"
            "              lambda: prolong_vertical_field({'u': u * p(1) + p(0)},"
            " 1, 1)):\n"
            "    try:\n"
            "        build()\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n")
        src = os.path.dirname(os.path.dirname(jetcalc.__file__))
        outputs = set()
        for seed in range(6):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed))
            proc = subprocess.run([sys.executable, "-c", snippet],
                                  capture_output=True, text=True, env=env,
                                  timeout=60)
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert outputs == {
            "F^1 contains a momentum atom p[u;0;1]\n"
            "vertical field coefficient for u contains p[u;0;1]\n"}


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # the results are plain values and the records plain __slots__
    # classes, so loading the command line pulls in neither dataclasses
    # nor the inspect module that dataclasses imports; and the engine's
    # rational constants are exact int divisions, so neither fractions nor
    # the decimal module that fractions imports is loaded either
    snippet = ("import sys, jetcalc.cli\n"
               "print(sorted({'dataclasses', 'inspect', 'fractions', "
               "'decimal'} & set(sys.modules)))\n")
    src = os.path.dirname(os.path.dirname(jetcalc.__file__))
    proc = subprocess.run([sys.executable, "-c", snippet],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"

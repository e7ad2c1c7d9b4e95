"""The package namespace: lazy public names, one input-error type, and the
modules that a fresh process loads."""

import os
import subprocess
import sys

import pytest

import jetcalc

# the public names as the package imported them eagerly, before they loaded
# lazily; JetcalcError joined them with the lazy namespace
EAGER_NAMES = {
    "Base", "Jet", "Momentum", "Multiplier", "Parameter",
    "Expr", "ExprError", "OpaqueCall", "divide", "gradient",
    "partial_derivative", "substitute", "to_dsl", "total_derivative",
    "total_derivative_multi",
    "MultiIndex", "all_multiindices", "multiindices_up_to",
    "ParseError", "ProblemFile", "parse_expr", "parse_problem",
    "LagrangianProblem", "ProblemError",
    "ExteriorForm", "FormsError", "SectionData",
    "exterior_derivative", "holonomic_section", "interior_product",
    "pullback_section", "wedge",
    "Equation", "EquationSet", "MomentumAssignment",
    "VariationalError", "apply_momentum_gauge", "canonical_momenta",
    "cascade_equations", "constrained_generating_family", "currents",
    "euler_lagrange", "evaluate_on_momenta", "gauge_part",
    "holonomy_residual", "symmetrize_momenta",
    "LegendreData", "LegendreError", "SingularLegendreError",
    "energy_legendre", "hamilton_equations", "legendre_top",
    "PCForm", "galilei_transform_check",
    "multisymplectic_residuals", "pc_form",
    "DivergenceData", "DivergenceError", "divergence_lagrangian",
    "momentum_shift", "verify_divergence_trivial",
    "ProlongationError", "gram_matrix", "homogeneous_degree",
    "polarize", "prolong_vertical_field", "resymmetrize",
    "form_to_latex", "form_to_str", "to_latex",
}

ERRORS = ["ExprError", "ParseError", "ProblemError", "FormsError",
          "VariationalError", "LegendreError", "SingularLegendreError",
          "DivergenceError", "ProlongationError"]

COMMAND_MODULES = ["verify", "randgen", "variational", "legendre", "poincare",
                   "divergence", "prolongation"]


def _loaded_after(statement: str) -> list:
    """The jetcalc modules loaded in a fresh interpreter after ``statement``."""
    snippet = (f"import sys\n{statement}\n"
               "print(*sorted(m for m in sys.modules if m.startswith('jetcalc')))")
    src = os.path.dirname(os.path.dirname(jetcalc.__file__))
    proc = subprocess.run([sys.executable, "-c", snippet],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_package_import_loads_no_submodule():
    assert _loaded_after("import jetcalc") == ["jetcalc"]


def test_cli_import_loads_no_command_module():
    loaded = _loaded_after("import jetcalc.cli")
    assert "jetcalc.cli" in loaded
    assert not {f"jetcalc.{m}" for m in COMMAND_MODULES} & set(loaded)


def test_public_names_are_the_eager_ones_plus_the_error_type():
    assert len(jetcalc.__all__) == len(set(jetcalc.__all__))
    assert set(jetcalc.__all__) == EAGER_NAMES | {"JetcalcError"}
    assert set(jetcalc.__all__) <= set(dir(jetcalc))


@pytest.mark.parametrize("name", sorted(EAGER_NAMES | {"JetcalcError"}))
def test_name_resolves_to_the_defining_module_object(name):
    obj = getattr(jetcalc, name)
    assert obj.__module__.startswith("jetcalc.")
    assert getattr(sys.modules[obj.__module__], name) is obj


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from jetcalc import *", namespace)
    assert {n for n in namespace if n != "__builtins__"} == \
        set(jetcalc.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        jetcalc.no_such_name
    assert not hasattr(jetcalc, "ALL_CHECKS")


@pytest.mark.parametrize("name", ERRORS)
def test_every_error_class_is_a_jetcalc_error(name):
    assert issubclass(getattr(jetcalc, name), jetcalc.JetcalcError)
    assert issubclass(jetcalc.JetcalcError, ValueError)


def test_a_command_loads_no_argument_parser():
    # the command table reads argv itself: neither argparse nor the
    # gettext and locale modules that argparse loads are imported by a run
    beam = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "corpus", "beam.lag")
    snippet = ("import contextlib, io, sys\n"
               "from jetcalc.cli import run\n"
               "with contextlib.redirect_stdout(io.StringIO()):\n"
               f"    code = run(['el', {beam!r}])\n"
               "print(code, sorted({'argparse', 'gettext', 'locale'}"
               " & set(sys.modules)))\n")
    src = os.path.dirname(os.path.dirname(jetcalc.__file__))
    proc = subprocess.run([sys.executable, "-c", snippet],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 []\n"

"""jetcalc: canonical formalism for higher-order Lagrangian field theories.

Symbolic momenta, currents, Euler-Lagrange cascades, Legendre transforms and
Poincare-Cartan forms on jet bundles, with exact-arithmetic theorem checks.

Each public name is listed once, under the module that defines it, which
is imported on the first use of the name (PEP 562).
"""

import importlib

_NAMES = {
    "coords": "Base Jet Momentum Multiplier Parameter",
    "expr": "Expr ExprError JetcalcError OpaqueCall divide gradient "
            "partial_derivative substitute to_dsl total_derivative "
            "total_derivative_multi",
    "multiindex": "MultiIndex all_multiindices multiindices_up_to",
    "parser": "ParseError ProblemFile parse_expr parse_problem",
    "problem": "LagrangianProblem ProblemError",
    "forms": "ExteriorForm FormsError SectionData exterior_derivative "
             "form_to_str holonomic_section interior_product pullback_section "
             "wedge",
    "variational": "Equation EquationSet MomentumAssignment VariationalError "
                   "apply_momentum_gauge canonical_momenta cascade_equations "
                   "constrained_generating_family currents euler_lagrange "
                   "evaluate_on_momenta gauge_part holonomy_residual "
                   "symmetrize_momenta",
    "legendre": "LegendreData LegendreError SingularLegendreError "
                "energy_legendre hamilton_equations legendre_top",
    "poincare": "PCForm galilei_transform_check multisymplectic_residuals "
                "pc_form",
    "divergence": "DivergenceData DivergenceError divergence_lagrangian "
                  "momentum_shift verify_divergence_trivial",
    "prolongation": "ProlongationError gram_matrix homogeneous_degree "
                    "polarize prolong_vertical_field resymmetrize",
    "printing": "form_to_latex to_latex",
}
_MODULE_OF = {name: module for module, names in _NAMES.items()
              for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
    return getattr(module, name)


def __dir__():
    return sorted([*globals(), *__all__])

"""jetcalc: canonical formalism for higher-order Lagrangian field theories.

Symbolic momenta, currents, Euler-Lagrange cascades, Legendre transforms and
Poincare-Cartan forms on jet bundles, with exact-arithmetic theorem checks.
"""

from .coords import Base, Jet, Momentum, Multiplier, Parameter
from .divergence import (DivergenceData, DivergenceError,
                         divergence_lagrangian, momentum_shift,
                         verify_divergence_trivial)
from .expr import (Expr, ExprError, OpaqueCall, divide, gradient,
                   partial_derivative, substitute, to_dsl, total_derivative,
                   total_derivative_multi)
from .forms import (ExteriorForm, FormsError, SectionData,
                    exterior_derivative, holonomic_section, interior_product,
                    pullback_section, wedge)
from .legendre import (LegendreData, LegendreError, SingularLegendreError,
                       energy_legendre, hamilton_equations, legendre_top)
from .multiindex import MultiIndex, all_multiindices, multiindices_up_to
from .parser import ParseError, ProblemFile, parse_expr, parse_problem
from .poincare import (PCForm, galilei_transform_check,
                       multisymplectic_residuals, pc_form)
from .printing import form_to_latex, form_to_str, to_latex
from .problem import LagrangianProblem, ProblemError
from .prolongation import (ProlongationError, gram_matrix,
                           homogeneous_degree, polarize,
                           prolong_vertical_field, resymmetrize)
from .variational import (Equation, EquationSet,
                          MomentumAssignment, VariationalError,
                          apply_momentum_gauge, canonical_momenta,
                          cascade_equations, constrained_generating_family,
                          currents, euler_lagrange, evaluate_on_momenta,
                          gauge_part, holonomy_residual, symmetrize_momenta)

__all__ = [
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
]

"""The Poincare-Cartan (multi-symplectic) form and field-equation recovery.

The (n+1)-form is assembled verbatim from its displayed coordinate shape:
one dp-block per momentum slot with the field differential sitting in the
slot's last-index place, minus dH wedged onto the volume form.  Contraction
with the vertical basis fields and pullback along a section reproduce the
holonomy constraints and the Hamiltonian cascade.
"""

from __future__ import annotations

from .coords import Base, Jet, Momentum, Parameter
from .expr import Expr, ONE, ZERO, divide
from .forms import (ExteriorForm, SectionData, exterior_derivative,
                    interior_product, pullback_section)
from .legendre import legendre_top
from .multiindex import MultiIndex, multiindices_up_to
from .parser import parse_expr
from .problem import LagrangianProblem
from .variational import Equation, EquationSet, MomentumAssignment


class PCForm:
    """omega of degree n+1 and its primitive theta of degree n."""

    __slots__ = ("omega", "theta", "hamiltonian")

    def __init__(self, omega: ExteriorForm, theta: ExteriorForm,
                 hamiltonian: Expr):
        self.omega = omega
        self.theta = theta
        self.hamiltonian = hamiltonian


def pc_form(problem: LagrangianProblem,
            hamiltonian: Expr | None = None) -> PCForm:
    """Omega = sum dp^{mu lam} ^ dx^1 ^ ... ^ dphi_mu (lam-th place) ^ ...
    ^ dx^n  -  dH ^ d^n x, with H from the top Legendre transform.

    ``hamiltonian`` overrides the Legendre route (e.g. a vanishing H, for
    which Omega consists of the dp-blocks alone)."""
    n, k = problem.n, problem.k
    H = legendre_top(problem).hamiltonian if hamiltonian is None else hamiltonian
    volume = tuple(Base(mu) for mu in range(1, n + 1))
    # dphi_mu in front of d^n x without dx^lam stands lam - 1 places left
    # of the lam-th place: sign (-1)^(lam - 1)
    theta = ExteriorForm.sum(n, [
        ((Jet(fld, mi),) + volume[:lam - 1] + volume[lam:],
         p if lam % 2 else -p)
        for (fld, mi, lam), p in MomentumAssignment.symbolic(
            n, problem.fields, k).slots.items()] + [(volume, -H)])
    return PCForm(exterior_derivative(theta), theta, H)


def multisymplectic_residuals(problem: LagrangianProblem,
                              sigma: SectionData) -> EquationSet:
    """Pull back X -| Omega along the section for every vertical basis field
    X and return the d^n x coefficients; their zero set is holonomy plus the
    Hamiltonian cascade."""
    n, k = problem.n, problem.k
    form = pc_form(problem)
    volume_key = tuple(Base(mu) for mu in range(1, n + 1))
    rows = []

    def coefficient(X) -> Expr:
        contracted = interior_product(X, form.omega)
        pulled = pullback_section(contracted, sigma)
        return pulled.terms.get(volume_key, ZERO)

    for fld in problem.fields:
        for mi in multiindices_up_to(n, k - 1):
            X = {Jet(fld, mi): ONE}
            mi_s = ",".join(map(str, mi))
            rows.append(Equation(f"dphi:{fld}[{mi_s}]", coefficient(X), ZERO))
        for _, mi, lam in MomentumAssignment.grid_keys(n, (fld,), k):
            X = {Momentum(fld, mi, lam): ONE}
            mi_s = ",".join(map(str, mi))
            rows.append(Equation(f"dp:{fld}[{mi_s};{lam}]",
                                 coefficient(X), ZERO))
    return EquationSet(rows)


def galilei_transform_check() -> tuple:
    """The boosted-frame check on the mechanics example: the (label, form)
    rows of residual forms, all of which must vanish.

    In the frame moving with velocity V: Q = q - V t, P = p - m V and
    H' = H - p V + (m/2) V^2.  The primitive shifts by the closed form
    -mV dq + (m/2)V^2 dt while its differential is unchanged; two boosts
    compose additively at the level of the two-form.
    """
    prob = LagrangianProblem(1, ("q",), 1, Expr(), (),
                             ("m", "V", "V1", "V2"), {"U": 2})
    t = Expr.atom(Base(1))
    q = Expr.atom(Jet("q", MultiIndex((0,))))
    p = Expr.atom(Momentum("q", MultiIndex((0,)), 1))
    m = Expr.atom(Parameter("m"))
    U = parse_expr("U(x1, q)", prob)
    H = divide(p ** 2, 2 * m) + U

    def theta_of(position: Expr, momentum: Expr, hamiltonian: Expr) -> ExteriorForm:
        dpos = exterior_derivative(ExteriorForm.scalar(position))
        return dpos.scale(momentum) - \
            ExteriorForm.d_coordinate(Base(1)).scale(hamiltonian)

    def boost(position, momentum, hamiltonian, V: Expr):
        return (position - V * t, momentum - m * V,
                hamiltonian - momentum * V + divide(m, 2) * V ** 2)

    theta = theta_of(q, p, H)
    V = Expr.atom(Parameter("V"))
    Q, P, Ht = boost(q, p, H, V)
    theta_boosted = theta_of(Q, P, Ht)

    shift = ExteriorForm.d_coordinate(Jet("q", MultiIndex((0,)))).scale(-m * V) \
        + ExteriorForm.d_coordinate(Base(1)).scale(divide(m, 2) * V ** 2)
    rows = [
        ("theta-shift", theta_boosted - theta - shift),
        ("omega-invariance",
         exterior_derivative(theta_boosted) - exterior_derivative(theta)),
    ]

    V1, V2 = Expr.atom(Parameter("V1")), Expr.atom(Parameter("V2"))
    state = (q, p, H)
    state = boost(*state, V1)
    state = boost(*state, V2)
    twice = theta_of(*state)
    once = theta_of(*boost(q, p, H, V1 + V2))
    rows.append(("boost-composition",
                 exterior_derivative(twice) - exterior_derivative(once)))
    return tuple(rows)

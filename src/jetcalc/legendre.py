"""Legendre transforms and Hamiltonian cascades.

The top-order transform exchanges the order-k jets for the symmetric top
momenta by solving the top cascade rows, which are linear because the
admissible Lagrangians are quadratic in the top jets with a
parameter-constant Hessian block.  The solve is exact: one fraction-free
Bareiss elimination and back-substitution give the Cramer numerators and
the determinant, with parameter monomials the only permitted denominators.
L is never expanded on the inversion.  Once every Hessian entry is checked
free of the exchanged jets x, L = L0 + b.x + 1/2 x.A x exactly, so
p.x - L = 1/2 (p - b).x - L0.  Since L holds no momenta, H is h with each
top momentum p^sigma replaced by its slot sum sym(sigma), plus the pairing
of the slots of order below k - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .coords import Jet, Momentum, Parameter
from .expr import (Expr, ExprError, ONE, ZERO, _akey, divide,
                   partial_derivative, substitute)
from .multiindex import MultiIndex, all_multiindices
from .problem import LagrangianProblem
from .variational import (Equation, EquationSet, MomentumAssignment,
                          _cascade_row, jet_partial)


class LegendreError(ValueError):
    """Top dependence not quadratic / Hessian not parameter-constant."""


class SingularLegendreError(LegendreError):
    """Degenerate Hessian block: the transform does not exist."""


@dataclass(frozen=True)
class LegendreData:
    """h over (jets < k, symmetric top momenta); H over (jets < k, slot
    momenta); inversion maps each top jet slot to its momentum expression."""

    h: Expr
    hamiltonian: Expr
    inversion: dict


def _eliminate(M) -> int:
    """Fraction-free Gaussian elimination (Bareiss, Math. Comp. 1968) of the
    rows ``M`` in place.  Pivots come from the leading square block; any
    further columns ride along.  Afterwards ``M[i][i]`` is the i-th leading
    minor of the row-permuted block.  Returns the sign of the row
    permutation, or 0 when a column has no pivot."""
    dim = len(M)
    sign = 1
    prev = ONE
    for j in range(dim - 1):
        piv = next((r for r in range(j, dim) if not M[r][j].is_zero()), None)
        if piv is None:
            return 0
        if piv != j:
            M[j], M[piv] = M[piv], M[j]
            sign = -sign
        for r in range(j + 1, dim):
            for c in range(j + 1, len(M[r])):
                M[r][c] = divide(M[r][c] * M[j][j] - M[r][j] * M[j][c], prev)
            M[r][j] = ZERO
        prev = M[j][j]
    return sign


def _bareiss_det(M) -> Expr:
    """Exact determinant of a square Expr matrix (fraction-free Bareiss)."""
    M = [row[:] for row in M]
    return _eliminate(M) * M[-1][-1] if M else ONE


def _clearing_monomial(entries) -> Expr:
    """The least parameter monomial whose product with each of ``entries``
    has no negative power."""
    low: dict = {}
    for e in entries:
        for mon in e._terms:
            for a, x in mon:
                if x < low.get(a, 0):
                    low[a] = x
    return math.prod((Expr.atom(a) ** -x for a, x in low.items()), start=ONE)


def _solve_linear(A, b):
    """Solve A x = b exactly: one Bareiss elimination of [A | b], then
    fraction-free back-substitution for the Cramer numerators det(A) x_i.
    Raises on a singular matrix or a quotient that leaves the
    parameter-Laurent ring."""
    dim = len(A)
    M = [row + [rhs] for row, rhs in zip(A, b)]
    # Scaling by a parameter monomial that clears every negative power
    # makes each division in the elimination and the back-substitution an
    # exact division of polynomials, which ``divide`` always carries out.
    m = _clearing_monomial(e for row in M for e in row)
    M = [[m * e for e in row] for row in M]
    scale = m ** dim
    sign = _eliminate(M)
    # The last diagonal entry: M[-1][-1] is the eliminated b.
    pivot = M[dim - 1][dim - 1]
    det = divide(sign * pivot, scale)
    if det.is_zero():
        raise SingularLegendreError("singular Legendre: top Hessian block degenerate")
    try:
        # y[i] = pivot * x_i, so sign * y[i] / scale = det(A_i).
        y = [ZERO] * (dim - 1) + [M[dim - 1][dim]]
        for i in range(dim - 2, -1, -1):
            y[i] = divide(pivot * M[i][dim] - Expr.sum(
                M[i][c] * y[c] for c in range(i + 1, dim)), M[i][i])
        return [divide(divide(sign * yi, scale), det) for yi in y]
    except ExprError as exc:
        raise LegendreError(
            f"Legendre inversion not representable: {exc}") from None


def _exchange(L: Expr, momenta: dict, check):
    """Exchange the jets x = phi_mu named by the keys (fld, mu) of ``momenta``
    for those momenta p: solve dL/dx = p.  ``check`` vets each entry of the
    Hessian A of L in x; one that passes is free of x, so L = L0 + b.x +
    1/2 x.A x exactly (L0 and b = dL/dx at x = 0), the rows read A x = p - b,
    and p.x - L = 1/2 (p - b).x - L0 on the inversion.  Returns the
    inversion {(fld, mu): Expr} and that value."""
    unknowns = list(momenta)
    kill = {Jet(fld, mi): ZERO for fld, mi in unknowns}
    A = []
    rhs = []
    for fld, mi in unknowns:
        dL = jet_partial(L, fld, mi)
        row = []
        for fld2, mi2 in unknowns:
            entry = partial_derivative(dL, Jet(fld2, mi2))
            check(entry)
            row.append(entry)
        A.append(row)
        rhs.append(momenta[(fld, mi)] - substitute(dL, kill))
    x = _solve_linear(A, rhs)
    return dict(zip(unknowns, x)), (
        Fraction(1, 2) * Expr.sum(r * xi for r, xi in zip(rhs, x))
        - substitute(L, kill))


def _check_hessian_entry(e: Expr, order: int):
    coords = sorted(e.free_coordinates(), key=_akey)
    if any(isinstance(c, Jet) and c.mi.order >= order for c in coords):
        raise LegendreError("Lagrangian is not quadratic in the top jets")
    for c in coords:
        if not isinstance(c, Parameter):
            raise LegendreError(
                "top-jet Hessian must be parameter-constant "
                f"(found {c!r} in an entry)")


def _check_time_entry(e: Expr):
    if any(not isinstance(c, Parameter) for c in e.free_coordinates()):
        raise LegendreError("time-direction Hessian must be parameter-constant")


def legendre_top(problem: LagrangianProblem) -> LegendreData:
    """Exchange the order-k jets for the symmetric top momenta.

    h = sum p^mu phi_mu - L on the inversion;  H = sum over all slots of
    p^{mu lam} phi_{mu+lam} - L on it (the combined velocity pairing
    restricted to holonomic first jets); the slots of order k - 1 pair as
    sum_sigma sym(sigma) phi_sigma, so H = h(p^sigma -> sym(sigma)) + lower.
    """
    if problem.constraints:
        raise LegendreError("Legendre transform of a constrained problem "
                            "is not supported")
    n, k, L = problem.n, problem.k, problem.lagrangian
    sym_atoms = {(fld, mi): Expr.atom(Momentum(fld, mi))
                 for fld in problem.fields for mi in all_multiindices(n, k)}
    inversion, h = _exchange(L, sym_atoms,
                             lambda e: _check_hessian_entry(e, k))

    p = MomentumAssignment.symbolic(n, problem.fields, k)
    lower = Expr.sum(
        p.slot(fld, mi, lam) * Expr.atom(Jet(fld, mi.bump(lam)))
        for fld, mi, lam in MomentumAssignment.grid_keys(
            n, problem.fields, k - 1))
    slot_sym = {Momentum(fld, mi): p.symmetric_part(fld, mi)
                for fld, mi in sym_atoms}
    H = substitute(h, slot_sym) + lower
    return LegendreData(h=h, hamiltonian=H, inversion=inversion)


def hamilton_equations(problem: LagrangianProblem) -> EquationSet:
    """The cascade rewritten through h: the top rows solve for the order-k
    jets, the descending rows pick up a sign, momenta stay symbolic."""
    n, k = problem.n, problem.k
    data = legendre_top(problem)
    h = data.h
    p = MomentumAssignment.symbolic(n, problem.fields, k)
    rows = []
    for fld in problem.fields:
        for mi in all_multiindices(n, k):
            rows.append(Equation(
                f"{fld}:phi[{','.join(map(str, mi))}]",
                Expr.atom(Jet(fld, mi)),
                partial_derivative(h, Momentum(fld, mi))))
        for order in range(k - 1, -1, -1):
            for mi in all_multiindices(n, order):
                rows.append(_cascade_row(
                    p, fld, mi, -partial_derivative(h, Jet(fld, mi))))
    return EquationSet(rows)


def field_hamiltonian_first_order(problem: LagrangianProblem) -> Expr:
    """H(phi, p^mu) with every first jet eliminated (k = 1 only)."""
    if problem.k != 1:
        raise LegendreError("field Hamiltonian is a first-order construction")
    return legendre_top(problem).hamiltonian


def energy_legendre(problem: LagrangianProblem, time_direction: int) -> Expr:
    """Partial (energy) Legendre transform: only the time derivative is
    exchanged for p^time; spatial jets stay as controls."""
    if problem.k != 1:
        raise LegendreError("energy transform is a first-order construction")
    n, L = problem.n, problem.lagrangian
    if not 1 <= time_direction <= n:
        raise LegendreError(f"time direction {time_direction} out of range")
    t_mi = MultiIndex.unit(n, time_direction)
    zero = MultiIndex.zero(n)
    momenta = {(fld, t_mi): Expr.atom(Momentum(fld, zero, time_direction))
               for fld in problem.fields}
    try:
        return _exchange(L, momenta, _check_time_entry)[1]
    except SingularLegendreError:
        raise SingularLegendreError(
            "degenerate time-direction Hessian") from None

"""Legendre transforms and Hamiltonian cascades.

The top-order transform exchanges the order-k jets for the symmetric top
momenta by solving the top cascade rows, which are linear because the
admissible Lagrangians are quadratic in the top jets with a
parameter-constant Hessian block.  The solve is exact: fraction-free
Bareiss determinants plus Cramer quotients, with parameter monomials the
only permitted denominators.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coords import Jet, Momentum, Parameter
from .expr import (Expr, ExprError, ONE, ZERO, divide, partial_derivative,
                   substitute)
from .multiindex import MultiIndex, all_multiindices, multiindices_up_to
from .problem import LagrangianProblem
from .variational import (Equation, EquationSet, _slot_atom, _slot_divergence,
                          _sym_atom, jet_partial)


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


def _bareiss_det(M) -> Expr:
    """Exact determinant of a square Expr matrix (fraction-free Bareiss)."""
    M = [row[:] for row in M]
    dim = len(M)
    if dim == 0:
        return ONE
    sign = 1
    prev = ONE
    for j in range(dim - 1):
        piv = next((r for r in range(j, dim) if not M[r][j].is_zero()), None)
        if piv is None:
            return ZERO
        if piv != j:
            M[j], M[piv] = M[piv], M[j]
            sign = -sign
        for r in range(j + 1, dim):
            for c in range(j + 1, dim):
                M[r][c] = divide(M[r][c] * M[j][j] - M[r][j] * M[j][c], prev)
            M[r][j] = ZERO
        prev = M[j][j]
    det = M[-1][-1]
    return det if sign == 1 else -det


def _solve_linear(A, b):
    """Solve A x = b exactly via Cramer; raises on a singular matrix or a
    quotient that leaves the parameter-Laurent ring."""
    det = _bareiss_det(A)
    if det.is_zero():
        raise SingularLegendreError("singular Legendre: top Hessian block degenerate")
    dim = len(A)
    out = []
    for i in range(dim):
        Ai = [[A[r][c] if c != i else b[r] for c in range(dim)] for r in range(dim)]
        try:
            out.append(divide(_bareiss_det(Ai), det))
        except ExprError as exc:
            raise LegendreError(
                f"Legendre inversion not representable: {exc}") from None
    return out


def _top_unknowns(problem: LagrangianProblem, order: int):
    return [(fld, mi) for fld in problem.fields
            for mi in all_multiindices(problem.n, order)]


def _check_hessian_entry(e: Expr, order: int):
    for c in e.free_coordinates():
        if isinstance(c, Jet) and c.mi.order >= order:
            raise LegendreError("Lagrangian is not quadratic in the top jets")
        if not isinstance(c, Parameter):
            raise LegendreError(
                "top-jet Hessian must be parameter-constant "
                f"(found {c!r} in an entry)")


def _invert_top(problem: LagrangianProblem, order: int, atoms):
    """Solve the order-``order`` cascade rows for the jets of that order.

    ``atoms[(fld, mi)]`` supplies the symbolic momentum each row equates to.
    Returns the inversion map {(fld, mi): Expr}.
    """
    L = problem.lagrangian
    unknowns = _top_unknowns(problem, order)
    A = []
    rhs = []
    kill_top = {Jet(fld, mi): ZERO for fld, mi in unknowns}
    for fld, mi in unknowns:
        dL = jet_partial(L, fld, mi)
        row = []
        for fld2, mi2 in unknowns:
            entry = partial_derivative(dL, Jet(fld2, mi2))
            _check_hessian_entry(entry, order)
            row.append(entry)
        A.append(row)
        rhs.append(atoms[(fld, mi)] - substitute(dL, kill_top))
    xs = _solve_linear(A, rhs)
    return dict(zip(unknowns, xs))


def legendre_top(problem: LagrangianProblem) -> LegendreData:
    """Exchange the order-k jets for the symmetric top momenta.

    h = sum p^mu phi_mu - L on the inversion;  H = sum over all slots of
    p^{mu lam} phi_{mu+lam} - L on the inversion, the combined velocity
    pairing restricted to holonomic first jets.
    """
    if problem.constraints:
        raise LegendreError("Legendre transform of a constrained problem "
                            "is not supported")
    n, k, L = problem.n, problem.k, problem.lagrangian
    sym_atoms = {(fld, mi): Expr.atom(Momentum(fld, mi))
                 for fld, mi in _top_unknowns(problem, k)}
    inversion = _invert_top(problem, k, sym_atoms)

    pairing_sym = Expr.sum(atom * Expr.atom(Jet(fld, mi))
                           for (fld, mi), atom in sym_atoms.items())
    top_subst = {Jet(fld, mi): expr for (fld, mi), expr in inversion.items()}
    h = substitute(pairing_sym - L, top_subst)

    pairing_all = Expr.sum(
        _slot_atom(fld, mi, lam) * Expr.atom(Jet(fld, mi.bump(lam)))
        for fld in problem.fields
        for mi in multiindices_up_to(n, k - 1)
        for lam in range(1, n + 1))
    slot_sym = {Momentum(fld, mi): _sym_atom(fld, mi)
                for fld, mi in sym_atoms}
    slot_inversion = {jet: substitute(e, slot_sym) for jet, e in top_subst.items()}
    H = substitute(pairing_all - L, slot_inversion)
    return LegendreData(h=h, hamiltonian=H, inversion=inversion)


def hamilton_equations(problem: LagrangianProblem) -> EquationSet:
    """The cascade rewritten through h: the top rows solve for the order-k
    jets, the descending rows pick up a sign, momenta stay symbolic."""
    n, k = problem.n, problem.k
    data = legendre_top(problem)
    h = data.h
    rows = []
    for fld in problem.fields:
        for mi in all_multiindices(n, k):
            rows.append(Equation(
                f"{fld}:phi[{','.join(map(str, mi))}]",
                Expr.atom(Jet(fld, mi)),
                partial_derivative(h, Momentum(fld, mi))))
        for order in range(k - 1, 0, -1):
            for mi in all_multiindices(n, order):
                rhs = -partial_derivative(h, Jet(fld, mi)) \
                    - _slot_divergence(fld, mi, n)
                rows.append(Equation(f"{fld}:p[{','.join(map(str, mi))}]",
                                     _sym_atom(fld, mi), rhs))
        zero_mi = MultiIndex.zero(n)
        rhs = -partial_derivative(h, Jet(fld, zero_mi)) \
            - _slot_divergence(fld, zero_mi, n)
        rows.append(Equation(f"{fld}:euler", ZERO, rhs))
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
    unknowns = [(fld, t_mi) for fld in problem.fields]
    zero = MultiIndex.zero(n)
    A = []
    rhs = []
    kill = {Jet(fld, t_mi): ZERO for fld in problem.fields}
    for fld, mi in unknowns:
        dL = jet_partial(L, fld, mi)
        row = []
        for fld2, mi2 in unknowns:
            entry = partial_derivative(dL, Jet(fld2, mi2))
            for c in entry.free_coordinates():
                if not isinstance(c, Parameter):
                    raise LegendreError(
                        "time-direction Hessian must be parameter-constant")
            row.append(entry)
        A.append(row)
        rhs.append(Expr.atom(Momentum(fld, zero, time_direction))
                   - substitute(dL, kill))
    try:
        xs = _solve_linear(A, rhs)
    except SingularLegendreError:
        raise SingularLegendreError(
            "degenerate time-direction Hessian") from None
    pairing = Expr.sum(Expr.atom(Momentum(fld, zero, time_direction))
                       * Expr.atom(Jet(fld, t_mi)) for fld in problem.fields)
    return substitute(pairing - L,
                      {Jet(fld, t_mi): x for (fld, _), x in zip(unknowns, xs)})

"""Jet prolongation of vertical fields and polarization of homogeneous
polynomials (the linear model of embedding holonomic jets in nonholonomic
ones)."""

from __future__ import annotations

from .coords import Jet, Momentum
from .expr import (Expr, JetcalcError, OpaqueCall, ZERO, _akey, divide,
                   gradient, total_derivative_multi)
from .multiindex import multiindices_up_to


class ProlongationError(JetcalcError):
    pass


def prolong_vertical_field(coefficients: dict, n: int, target_order: int,
                           order_cap: int = 12) -> dict:
    """The contact-preserving lift of the vertical field with coefficients
    {field: psi} against d/dphi: the d/dphi_mu coefficient is the iterated
    total derivative D_mu(psi), for 0 <= |mu| <= target_order.  Returns the
    nonzero coefficients {Jet: Expr}.  No psi may depend on momenta, and
    the target order may not be negative."""
    if target_order < 0:
        raise ProlongationError(f"target order {target_order} is negative")
    for fld, psi in coefficients.items():
        for c in sorted(psi.free_coordinates(), key=_akey):
            if isinstance(c, Momentum):
                raise ProlongationError(
                    f"vertical field coefficient for {fld} contains {c!r}")
    lifted = {}
    for fld, psi in coefficients.items():
        for mi in multiindices_up_to(n, target_order):
            d = total_derivative_multi(psi, mi, order_cap=order_cap)
            if not d.is_zero():
                lifted[Jet(fld, mi)] = d
    return lifted


def homogeneous_degree(Q: Expr, variables) -> int:
    """The common degree of the terms of ``Q`` in ``variables``; every other
    atom is part of a coefficient.  Raises unless ``Q`` is a nonzero
    polynomial homogeneous in the variables, which an opaque call of one of
    them is not."""
    want = set(variables)
    degrees = {sum(k for a, k in mon if a in want) for mon in Q.parts()[0]}
    if not degrees:
        raise ProlongationError("zero polynomial has no degree")
    if len(degrees) > 1 or any(
            want & arg.free_coordinates() for a in Q.atoms()
            if isinstance(a, OpaqueCall) for arg in a.args):
        raise ProlongationError("polynomial is not homogeneous")
    return degrees.pop()


def polarize(Q: Expr, variables) -> list:
    """(1/d) dQ/dx_i for the variables x_i in order: the inclusion of the
    symmetric power into symmetric-power-tensor-vector; for d = 2 this is
    the bilinear form of Q."""
    d = homogeneous_degree(Q, variables)
    if d < 1:
        raise ProlongationError("polarization needs degree >= 1")
    dQ = gradient(Q, variables)
    return [divide(dQ.get(x, ZERO), d) for x in variables]


def resymmetrize(B: list, variables) -> Expr:
    """Contract the extra slot back with the variables: sum_i x_i * B_i.
    By the Euler identity this recovers Q from polarize(Q)."""
    return Expr.sum(Expr.atom(x) * b for x, b in zip(variables, B))


def gram_matrix(Q: Expr, variables) -> list:
    """For a quadratic form, the symmetric matrix B with Q(x) = x^T B x;
    entry B_ij is the x_j derivative of the i-th polarization component."""
    if homogeneous_degree(Q, variables) != 2:
        raise ProlongationError("Gram matrix needs a quadratic form")
    rows = (gradient(b, variables) for b in polarize(Q, variables))
    return [[row.get(x, ZERO) for x in variables] for row in rows]

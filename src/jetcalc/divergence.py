"""Total-divergence Lagrangians: triviality and the momentum-shift map."""

from __future__ import annotations

from .coords import Jet, Momentum
from .expr import Expr, JetcalcError, ZERO, _akey, total_divergence
from .multiindex import multiindices_up_to
from .problem import LagrangianProblem
from .variational import (Equation, EquationSet, MomentumAssignment,
                          euler_lagrange, jet_gradient)


class DivergenceError(JetcalcError):
    pass


class DivergenceData:
    """F^lam components, their divergence L0 = sum D_lam F^lam, and the
    order l of the resulting Lagrangian (F lives on jets of order l-1)."""

    __slots__ = ("components", "lagrangian", "order", "fields")

    def __init__(self, components: tuple, lagrangian: Expr, order: int,
                 fields: tuple):
        self.components = components
        self.lagrangian = lagrangian
        self.order = order
        self.fields = fields


def _fields_of(F, fields=None) -> tuple:
    if fields is not None:
        return tuple(fields)
    found = sorted({c.fld for e in F for c in e.free_coordinates()
                    if isinstance(c, Jet)})
    return tuple(found) if found else ("u",)


def _validate(F):
    for lam, e in enumerate(F, start=1):
        for c in sorted(e.free_coordinates(), key=_akey):
            if isinstance(c, Momentum):
                raise DivergenceError(
                    f"F^{lam} contains a momentum atom {c!r}")


def _order_of(F) -> int:
    """The order l of sum_lam D_lam F^lam: one above the highest jet order
    of the components F, so at least 1."""
    return max((e.max_jet_order() for e in F), default=0) + 1


def divergence_lagrangian(F, fields=None) -> DivergenceData:
    """L0 = sum_lam D_lam F^lam; an order-(l) Lagrangian for order-(l-1) F."""
    F = tuple(F)
    _validate(F)
    return DivergenceData(F, total_divergence(F), _order_of(F),
                          _fields_of(F, fields))


def _slot_partials(F, n: int, fields, order: int) -> dict:
    """{(fld, mu, lam): dF^lam/dphi_mu} over the slot grid of ``order``,
    from one jet gradient per field and component."""
    dF = {(fld, lam): jet_gradient(e, fld, n, order - 1)
          for fld in fields for lam, e in enumerate(F, start=1)}
    return {(fld, mi, lam): dF[fld, lam].get(mi, ZERO)
            for fld, mi, lam in MomentumAssignment.grid_keys(n, fields, order)}


def _trivial_momenta(data: DivergenceData) -> MomentumAssignment:
    """The non-symmetric representative p^{mu lam} := dF^lam / dphi_mu."""
    n, l = len(data.components), data.order
    return MomentumAssignment(n, data.fields, l, _slot_partials(
        data.components, n, data.fields, l))


def verify_divergence_trivial(F, fields=None) -> EquationSet:
    """Residual table dL0/dphi_mu - sum_lam D_lam p^{mu lam}: it equals the
    symmetrized trivial momenta entrywise and the eliminated Euler-Lagrange
    residual of L0 vanishes identically; both are returned for inspection."""
    data = divergence_lagrangian(F, fields)
    m = _trivial_momenta(data)
    n, l = len(data.components), data.order
    euler = euler_lagrange(LagrangianProblem(n, data.fields, l,
                                             data.lagrangian))
    rows = []
    for fld in data.fields:
        dL0 = jet_gradient(data.lagrangian, fld, n, l)
        for mi in multiindices_up_to(n, l):
            lhs = dL0.get(mi, ZERO)
            if mi.order <= l - 1:
                lhs = lhs - m.divergence(fld, mi)
            rhs = m.symmetric_part(fld, mi) if mi.order >= 1 else ZERO
            mi_s = ",".join(map(str, mi))
            rows.append(Equation(f"{fld}:residual[{mi_s}]", lhs, rhs))
        rows.append(Equation(f"{fld}:euler", euler[fld], ZERO))
    return EquationSet(rows)


def momentum_shift(m: MomentumAssignment, F,
                   direction: str = "forward") -> MomentumAssignment:
    """The symplectomorphism p^{mu lam} -> p^{mu lam} +/- dF^lam/dphi_mu;
    forward followed by inverse is the identity.  The grid is enlarged with
    zero slots when F raises the order."""
    if direction not in ("forward", "inverse"):
        raise DivergenceError(f"unknown direction {direction!r}")
    F = tuple(F)
    _validate(F)
    if len(F) != m.n:
        raise DivergenceError("F component count differs from base dimension")
    order = max(m.order, _order_of(F))
    partials = _slot_partials(F, m.n, m.fields, order)
    if direction == "inverse":
        partials = {key: -d for key, d in partials.items()}
    slots = {key: m.slots.get(key, ZERO) + d for key, d in partials.items()}
    return MomentumAssignment(m.n, m.fields, order, slots)

"""The canonical cascade: momenta, currents, Euler-Lagrange systems, gauge.

Momentum storage convention.  A slot (field, mu, lam) holds the multi-index
momentum conjugate to phi_mu with free last index lam, for 0 <= |mu| <= k-1.
Multi-index values relate to symmetric-list values by the multinomial weight
of the prefix, which makes the total symmetrization a plain sum:

    S[sigma] = sum_lam slot[sigma - e_lam, lam],      1 <= |sigma| <= k.

``MomentumAssignment`` owns this convention: it walks the slot grid
(``grid_keys``), forms S (``symmetric_part``) and the slot-row divergence
sum_lam D_lam slot[mu, lam] (``divergence``), and ``symbolic`` gives the
slots as the momentum atoms p^{mu|lam} themselves, so the cascade, the
currents and the Legendre and Poincare-Cartan modules never spell out the
storage.  The one weighted descent, slot[nu, lam] = weight(nu) * V[nu + e_lam],
serves both the canonical momenta and the gauge propagation.

The first partials dL/dphi_mu of a problem's Lagrangian, one table
{mu: dL/dphi_mu} per field, are derived once per problem
(``lagrangian_gradient``) and kept on it, tied to the Lagrangian object
they came from: the canonical momenta, the cascade rows, the Euler-Lagrange
operator and the divergence triviality check all read the same table.
"""

from __future__ import annotations

from functools import lru_cache

from .coords import Base, Jet, Momentum, Multiplier
from .expr import (Expr, JetcalcError, ZERO, divide, gradient,
                   partial_derivative, substitute, total_derivative_multi,
                   total_divergence)
from .multiindex import MultiIndex, all_multiindices, multiindices_up_to
from .problem import LagrangianProblem


class VariationalError(JetcalcError):
    pass


class Equation:
    """One labelled equation lhs = rhs."""

    __slots__ = ("label", "lhs", "rhs")

    def __init__(self, label: str, lhs: Expr, rhs: Expr):
        self.label = label
        self.lhs = lhs
        self.rhs = rhs

    def residual(self) -> Expr:
        return self.lhs - self.rhs


class EquationSet:
    """An ordered list of labelled equations lhs = rhs."""

    def __init__(self, rows):
        self.rows = tuple(rows)
        labels = [r.label for r in self.rows]
        if len(set(labels)) != len(labels):
            raise VariationalError("duplicate equation labels")

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, label: str) -> Equation:
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(label)

    def residuals(self):
        """(label, lhs - rhs) for every row but the definitional ``def:`` rows."""
        return [(r.label, r.residual()) for r in self.rows
                if not r.label.startswith("def:")]

    def all_zero(self) -> bool:
        return all(res.is_zero() for _, res in self.residuals())


class MomentumAssignment:
    """Values for every momentum slot of a problem's (n, order) grid."""

    def __init__(self, n: int, fields: tuple, order: int, slots: dict):
        self.n = n
        self.fields = tuple(fields)
        self.order = order
        expected = set(self.grid_keys(n, self.fields, order))
        if set(slots) != expected:
            missing = expected - set(slots)
            extra = set(slots) - expected
            raise VariationalError(
                f"slot grid mismatch (missing {len(missing)}, extra {len(extra)})")
        self.slots = dict(slots)

    @staticmethod
    def grid_keys(n: int, fields, order: int) -> tuple:
        """Every slot key (fld, mu, lam), 0 <= |mu| <= order - 1, in grid
        order."""
        return _grid_keys(n, tuple(fields), order)

    @classmethod
    def zero(cls, n: int, fields, order: int) -> "MomentumAssignment":
        return cls(n, fields, order,
                   {key: ZERO for key in cls.grid_keys(n, fields, order)})

    @classmethod
    def symbolic(cls, n: int, fields, order: int) -> "MomentumAssignment":
        """Every slot (fld, mu, lam) holds the momentum atom p^{mu|lam}."""
        return cls(n, fields, order,
                   {key: Expr.atom(Momentum(*key))
                    for key in cls.grid_keys(n, fields, order)})

    def slot(self, fld: str, mi: MultiIndex, lam: int) -> Expr:
        return self.slots[(fld, mi, lam)]

    def symmetric_part(self, fld: str, mi: MultiIndex) -> Expr:
        """S[mi] = sum_lam slot[mi - e_lam, lam]; the totally symmetric
        multi-index momentum of order |mi| >= 1."""
        if not 1 <= mi.order <= self.order:
            raise VariationalError(f"no momentum of order {mi.order}")
        return Expr.sum(self.slot(fld, mi.drop(lam), lam)
                        for lam in mi.directions())

    def divergence(self, fld: str, mi: MultiIndex) -> Expr:
        """sum_lam D_lam slot[mi, lam], the divergence of the slot row mi."""
        return total_divergence(self.slot(fld, mi, lam)
                                for lam in range(1, self.n + 1))

    def __eq__(self, other):
        return (isinstance(other, MomentumAssignment)
                and (self.n, self.fields, self.order) ==
                    (other.n, other.fields, other.order)
                and self.slots == other.slots)


@lru_cache(maxsize=256)
def _grid_keys(n: int, fields: tuple, order: int) -> tuple:
    # cached: every slot loop walks the grid, and rebuilding its key
    # triples on each walk showed in profiles of the small verify-all draws
    return tuple((fld, mi, lam) for fld in fields
                 for mi in multiindices_up_to(n, order - 1)
                 for lam in range(1, n + 1))


def jet_gradient(L: Expr, fld: str, n: int, order: int) -> dict:
    """{mi: dL/dphi_mi} for the |mi| <= ``order`` at which that derivative
    is not zero, from one pass over the terms of L; read the other
    multi-indices with ``.get(mi, ZERO)``."""
    g = gradient(L, [Jet(fld, mi) for mi in multiindices_up_to(n, order)])
    return {c.mi: d for c, d in g.items()}


def lagrangian_gradient(problem: LagrangianProblem, fld: str) -> dict:
    """``jet_gradient`` of the problem's Lagrangian for the field ``fld`` up
    to order k, derived on first use and kept on the problem until its
    ``lagrangian`` is replaced; shared, so read it and do not change it."""
    L = problem.lagrangian
    source, table = problem._gradients
    if source is not L:
        table = {}
        problem._gradients = (L, table)
    dL = table.get(fld)
    if dL is None:
        dL = table[fld] = jet_gradient(L, fld, problem.n, problem.k)
    return dL


def canonical_momenta(problem: LagrangianProblem,
                      order_cap: int = 12) -> MomentumAssignment:
    """The symmetric representative of the canonical momenta (gauge r = 0):
    the weighted descent from the top order k with source dL/dphi_mu."""
    if problem.constraints:
        raise VariationalError(
            "problem has constraints; use constrained_generating_family")
    n, k = problem.n, problem.k
    # L has jets of order <= k and each level below the top adds one total
    # derivative, so no V passes 2k - 1 and a cap at or above it never fires
    if order_cap is not None and 2 * k - 1 <= order_cap:
        order_cap = None
    slots = {}
    for fld in problem.fields:
        dL = lagrangian_gradient(problem, fld)
        slots.update(_weighted_descent(
            fld, n, k, {}, lambda mi: dL.get(mi, ZERO), order_cap))
    return MomentumAssignment(n, problem.fields, k, slots)


def _weighted_descent(fld: str, n: int, order: int, rows: dict, source,
                      order_cap: int | None = None) -> dict:
    """The slots below prefix order ``order`` from the rows at that order
    (``rows`` maps (fld, mu, lam) with |mu| = order to values; empty when
    there are none).  For |mu| = order down to 1, the common symmetric value

        V[mu] = (source(mu) - sum_lam D_lam row[mu, lam]) / weight(mu)

    fills the rows one order lower, slot[nu, lam] = weight(nu) * V[nu + e_lam].
    A V beyond ``order_cap`` jets (when given) is refused."""
    out = {}
    for level in range(order, 0, -1):
        V = {}
        for mi in all_multiindices(n, level):
            value = source(mi)
            if rows:
                value = value - total_divergence(
                    rows[(fld, mi, lam)] for lam in range(1, n + 1))
            value = divide_weight(value, mi)
            if order_cap is not None and value.max_jet_order() > order_cap:
                raise VariationalError(
                    f"momentum cascade exceeded the jet order cap {order_cap}")
            V[mi] = value
        rows = {(fld, nu, lam): _scaled(V[nu.bump(lam)], nu.weight())
                for nu in all_multiindices(n, level - 1)
                for lam in range(1, n + 1)}
        out.update(rows)
    return out


def divide_weight(e: Expr, mi: MultiIndex) -> Expr:
    """``e / weight(mi)``; ``e`` itself at a unit weight, as ``_scaled``."""
    w = mi.weight()
    return e if w == 1 else divide(e, w)


def _scaled(e: Expr, c: int) -> Expr:
    """``c * e``; ``e`` itself when ``c`` is 1 (the weight of every
    multi-index with one nonzero entry), as ``e * 1`` has the same terms in
    the same order."""
    return e if c == 1 else e * Expr.const(c)


def currents(m: MomentumAssignment) -> dict:
    """The gauge-invariant currents {(fld, mu): j^mu}, 0 <= |mu| <= k: j =
    div p at order 0, j^mu = S[mu] + div p^{mu .} in between, and the bare
    symmetrization at the top; the coordinates of the reduced bundle."""
    n, k = m.n, m.order
    table = {}
    for fld in m.fields:
        for mi in multiindices_up_to(n, k):
            parts = [m.symmetric_part(fld, mi)] if mi.order >= 1 else []
            if mi.order <= k - 1:
                parts.append(m.divergence(fld, mi))
            table[(fld, mi)] = Expr.sum(parts)
    return table


def cascade_equations(problem: LagrangianProblem) -> EquationSet:
    """The first-order system equivalent to the Euler-Lagrange equations:
    one row per symmetric momentum from order k down to 1, then the field
    equation; momentum atoms stay symbolic."""
    if problem.constraints:
        raise VariationalError(
            "problem has constraints; use constrained_generating_family")
    n, k = problem.n, problem.k
    p = MomentumAssignment.symbolic(n, problem.fields, k)
    rows = []
    for fld in problem.fields:
        dL = lagrangian_gradient(problem, fld)
        for order in range(k, -1, -1):
            for mi in all_multiindices(n, order):
                rows.append(_cascade_row(p, fld, mi, dL.get(mi, ZERO)))
    return EquationSet(rows)


def _cascade_row(p: MomentumAssignment, fld: str, mi: MultiIndex,
                 source: Expr) -> Equation:
    """S[mi] = source - p.divergence(mi), the divergence absent at the top
    order; at mi = 0 the field equation 0 = source - p.divergence(0)."""
    rhs = source if mi.order == p.order else source - p.divergence(fld, mi)
    if mi.order == 0:
        return Equation(f"{fld}:euler", ZERO, rhs)
    return Equation(f"{fld}:p[{','.join(map(str, mi))}]",
                    p.symmetric_part(fld, mi), rhs)


def euler_lagrange(problem: LagrangianProblem, order_cap: int = 12) -> dict:
    """The classical eliminated residual per field:
    E(L) = sum_mu (-1)^|mu| D_mu dL/dphi_mu; the equation reads E(L) = 0."""
    out = {}
    for fld in problem.fields:
        dL = lagrangian_gradient(problem, fld)
        terms = []
        for mi in multiindices_up_to(problem.n, problem.k):
            dl = dL.get(mi)
            if dl is None:
                continue
            term = total_derivative_multi(dl, mi, order_cap=order_cap)
            terms.append(term if mi.order % 2 == 0 else -term)
        out[fld] = Expr.sum(terms)
    return out


def evaluate_on_momenta(e: Expr, m: MomentumAssignment) -> Expr:
    """Substitute a momentum assignment for all momentum atoms (symbolic
    slots, symmetrized slots and their base-derivative decorations)."""
    mapping = {}
    for c in e.free_coordinates():
        if not isinstance(c, Momentum):
            continue
        if c.last is None:
            value = m.symmetric_part(c.fld, c.mi)
        else:
            value = m.slot(c.fld, c.mi, c.last)
        value = total_derivative_multi(value, c.derivs)
        mapping[c] = value
    return substitute(e, mapping)


def holonomy_residual(problem: LagrangianProblem, sigma) -> EquationSet:
    """Rows d_lam(slot mu) = slot(mu+lam) for |mu| <= k-2 plus the
    definitional top rows (labelled ``def:``) that set the order-k jets."""
    n, k = problem.n, problem.k
    directions = [Base(lam) for lam in range(1, n + 1)]
    rows = []
    for fld in problem.fields:
        for mi in multiindices_up_to(n, k - 1):
            g = gradient(sigma.value(Jet(fld, mi)), directions)
            for lam, x in enumerate(directions, start=1):
                d = g.get(x, ZERO)
                target = mi.bump(lam)
                if mi.order <= k - 2:
                    rows.append(Equation(
                        f"{fld}:d{lam}:phi[{','.join(map(str, mi))}]",
                        d, sigma.value(Jet(fld, target))))
                else:
                    rows.append(Equation(
                        f"def:{fld}:phi[{','.join(map(str, target))}]:d{lam}",
                        Expr.atom(Jet(fld, target)), d))
    return EquationSet(rows)


def gauge_part(m: MomentumAssignment, level: int) -> dict:
    """The non-symmetric part r of the level's slots: slot minus the
    weighted symmetric-group average; its total symmetrization vanishes."""
    out = {}
    for fld, mi, lam in MomentumAssignment.grid_keys(m.n, m.fields, m.order):
        if mi.order == level - 1:
            target = mi.bump(lam)
            avg = m.symmetric_part(fld, target) * divide(
                mi.weight(), target.weight())
            out[(fld, mi, lam)] = m.slot(fld, mi, lam) - avg
    return out


def symmetrize_momenta(m: MomentumAssignment) -> MomentumAssignment:
    """The totally symmetric representative of the same reduced-bundle point.

    Proceeding from the top level down, each level's gauge part r is
    annihilated through the compensating chain of ``apply_momentum_gauge``:
    the level's slots become their weighted symmetric average and the induced
    iterated divergences land on the lower levels.  Idempotent; for constant
    gauge parts the lower levels are untouched.
    """
    out = m
    for level in range(m.order, 1, -1):
        r = gauge_part(out, level)
        if all(v.is_zero() for v in r.values()):
            continue
        out = apply_momentum_gauge(out, {key: -v for key, v in r.items()})
    return out


def apply_momentum_gauge(m: MomentumAssignment, chi: dict) -> MomentumAssignment:
    """Add a gauge table chi at one momentum level and propagate the
    compensating iterated-divergence modifications to all lower levels, so
    the result represents the same reduced-bundle point.

    ``chi`` maps slot keys (field, prefix, lam), all prefixes of one order,
    to expressions whose total symmetrization vanishes (checked).
    """
    if not chi:
        return MomentumAssignment(m.n, m.fields, m.order, dict(m.slots))
    n = m.n
    prefix_orders = {mi.order for (_, mi, _) in chi}
    if len(prefix_orders) != 1:
        raise VariationalError("gauge table must live at a single level")
    prefix_order = prefix_orders.pop()
    level = prefix_order + 1
    if level > m.order:
        raise VariationalError("gauge level exceeds the momentum grid")
    gauge = MomentumAssignment(
        n, m.fields, m.order,
        {key: chi.get(key, ZERO)
         for key in MomentumAssignment.grid_keys(n, m.fields, m.order)})

    for fld in m.fields:
        for sigma in all_multiindices(n, level):
            if not gauge.symmetric_part(fld, sigma).is_zero():
                raise VariationalError(
                    f"gauge table has nonzero symmetrization at {sigma}")

    slots = dict(m.slots)
    for fld in m.fields:
        top = {key: v for key, v in gauge.slots.items()
               if key[0] == fld and key[1].order == prefix_order}
        # the divergence of each level, distributed symmetrically below
        top.update(_weighted_descent(fld, n, prefix_order, top,
                                     lambda mi: ZERO))
        for key, v in top.items():
            slots[key] = slots[key] + v
    return MomentumAssignment(m.n, m.fields, m.order, slots)


def _with_multipliers(problem: LagrangianProblem, fld: str,
                      mi: MultiIndex) -> Expr:
    """dL/dphi_mu + sum_a lam[a] dC_a/dphi_mu."""
    return Expr.sum(
        [partial_derivative(problem.lagrangian, Jet(fld, mi))]
        + [Expr.atom(Multiplier(a)) * partial_derivative(C, Jet(fld, mi))
           for a, C in enumerate(problem.constraints, start=1)])


def constrained_generating_family(problem: LagrangianProblem) -> EquationSet:
    """First-order generating family with Lagrange multipliers: the momenta
    and the field equation each gain lam[a] * dC_a terms."""
    for a, C in enumerate(problem.constraints, start=1):
        if C.max_jet_order() > 1:
            raise VariationalError(
                f"constraint {a} depends on jets of order > 1")
    if problem.k != 1:
        raise VariationalError("constrained cascade is stated at first order")
    n = problem.n
    p = MomentumAssignment.symbolic(n, problem.fields, 1)
    rows = []
    zero_mi = MultiIndex.zero(n)
    for fld in problem.fields:
        for lam in range(1, n + 1):
            rows.append(Equation(
                f"{fld}:p[{lam}]", p.slot(fld, zero_mi, lam),
                _with_multipliers(problem, fld, MultiIndex.unit(n, lam))))
        rows.append(Equation(f"{fld}:euler", p.divergence(fld, zero_mi),
                             _with_multipliers(problem, fld, zero_mi)))
    return EquationSet(rows)

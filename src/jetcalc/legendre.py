"""Legendre transforms and Hamiltonian cascades.

The top-order transform exchanges the order-k jets for the symmetric top
momenta by solving the top cascade rows, which are linear because the
admissible Lagrangians are quadratic in the top jets with a
parameter-constant Hessian block.

One pass over the terms of L reads off L0 (L at x = 0), b (dL/dx at
x = 0) and the Hessian A in the exchanged jets x by exponent arithmetic
on L's integer numerators, each part over L's one denominator (see
``Expr.parts``); a term whose opaque call has an argument depending on x
is derived with ``gradient`` instead, so every entry is exactly the second
derivative of L.

The solve is exact over the parameter-Laurent ring.  One fraction-free
Bareiss elimination of [A | I] and a back-substitution give det(A) and
pivot * A^-1, every integer entry a Python int and an Expr only where a
parameter or a denominator remains; each Cramer numerator is a row of that
inverse applied to b, multiplied out on integer numerators over the
product of the denominators.  Each Bareiss division is exact in that ring; an
Expr is divided only by ``divide``, the one place that clears negative
parameter powers, so when A^-1 b is no Laurent polynomial the refusal
names the last division, adj(A) b by det(A).

L is never expanded on the inversion.  Once every Hessian entry is checked
free of the exchanged jets x, L = L0 + b.x + 1/2 x.A x exactly, so
p.x - L = 1/2 (p - b).x - L0.  Since L holds no momenta, H is h with each
top momentum p^sigma replaced by its slot sum sym(sigma), plus the pairing
of the slots of order below k - 1.
"""

from __future__ import annotations

from .coords import Jet, Momentum, Parameter
from .expr import (Expr, ExprError, JetcalcError, OpaqueCall, ZERO, _akey,
                   _coerce, _fold_over, _make, _mul_terms, divide, gradient,
                   substitute)
from .multiindex import MultiIndex, all_multiindices, multiindices_up_to
from .problem import LagrangianProblem
from .variational import (Equation, EquationSet, MomentumAssignment,
                          _cascade_row)


class LegendreError(JetcalcError):
    """Top dependence not quadratic / Hessian not parameter-constant."""


class SingularLegendreError(LegendreError):
    """Degenerate Hessian block: the transform does not exist."""


class LegendreData:
    """h over (jets < k, symmetric top momenta); H over (jets < k, slot
    momenta); inversion maps each top jet slot to its momentum expression."""

    __slots__ = ("h", "hamiltonian", "inversion")

    def __init__(self, h: Expr, hamiltonian: Expr, inversion: dict):
        self.h = h
        self.hamiltonian = hamiltonian
        self.inversion = inversion


_HALF = divide(1, 2)


def _entry(e):
    """``e`` as an elimination entry: an integer constant ``Expr`` becomes
    its ``int`` value, anything else is kept.  So a zero entry is the
    number 0 and an ``Expr`` entry is never zero."""
    if e.__class__ is Expr and e.is_constant():
        terms, den = e.parts()
        if den == 1:
            return terms.get((), 0)
    return e


def _quotient(num, den):
    """The exact quotient of two entries, as an entry: ``divmod`` for two
    ints that divide, ``divide`` otherwise."""
    if num.__class__ is int and den.__class__ is int:
        q, r = divmod(num, den)
        if not r:
            return q
    return _entry(divide(num, den))


def _eliminate(M) -> int:
    """Fraction-free Gaussian elimination (Bareiss, Math. Comp. 1968) of the
    rows ``M`` in place.  Every entry is an ``int`` or an ``Expr`` that is
    no integer (see ``_entry``), and the loop runs on ints wherever it
    can.  Pivots come from the leading square block; any further columns
    ride along.  Afterwards ``M[i][i]`` is the i-th leading minor of the
    row-permuted block.  Returns the sign of the row permutation, or 0
    when a column has no pivot."""
    dim = len(M)
    sign = 1
    prev = 1
    for j in range(dim - 1):
        # A zero entry is the number 0; an Expr entry, never zero, is true.
        piv = next((r for r in range(j, dim) if M[r][j]), None)
        if piv is None:
            return 0
        if piv != j:
            M[j], M[piv] = M[piv], M[j]
            sign = -sign
        top = M[j]
        pivot = top[j]
        for row in M[j + 1:]:
            lead = row[j]
            for c in range(j + 1, len(row)):
                row[c] = _quotient(row[c] * pivot - lead * top[c], prev)
            row[j] = 0
        prev = pivot
    return sign


def _row_product(y, b) -> Expr:
    """sum_c y[c] * b[c] for a row of entries ``y`` and Exprs ``b``,
    multiplied and collected term by term."""
    acc: dict = {}
    den = 1
    for v, e in zip(y, b):
        if v:
            vt, vd = v.parts() if v.__class__ is Expr else ({(): v}, 1)
            et, ed = e.parts()
            den = _fold_over(acc, den, _mul_terms(vt, et), vd * ed)
    return _make(acc, den)


def _solve_linear(A, b):
    """Solve A x = b exactly.  One Bareiss elimination of [A | I], on
    ints wherever the entries are integers, and a fraction-free
    back-substitution give Y = pivot * A^-1, so each Cramer numerator
    det(A) x_i is the row Y[i] applied to b.  Raises on a singular matrix or
    a quotient that leaves the parameter-Laurent ring."""
    dim = len(A)
    M = [[_entry(e) for e in row] + [int(c == r) for c in range(dim)]
         for r, row in enumerate(A)]
    sign = _eliminate(M)
    pivot = M[dim - 1][dim - 1]
    det = _coerce(sign * pivot)
    if det.is_zero():
        raise SingularLegendreError("singular Legendre: top Hessian block degenerate")
    try:
        # Y[i] = pivot * (row i of A^-1), so sign * (Y[i].b) = det(A_i).
        Y = [None] * (dim - 1) + [M[dim - 1][dim:]]
        for i in range(dim - 2, -1, -1):
            row = M[i]
            Y[i] = [_quotient(pivot * row[dim + c] - sum(
                row[k] * Y[k][c] for k in range(i + 1, dim)), row[i])
                for c in range(dim)]
        return [divide(sign * _row_product(y, b), det) for y in Y]
    except ExprError as exc:
        raise LegendreError(
            f"Legendre inversion not representable: {exc}") from None


def _quadratic_split(L: Expr, x: dict):
    """Read L0 = L at x = 0, b_i = dL/dx_i at x = 0 and the Hessian
    A_ij = d^2 L/dx_i dx_j off the terms of L in one pass, for the jets
    ``x`` given as {atom: index}.  Each term goes to L0, to one b_i or to
    entries of A by its exponents in x.  The terms whose opaque call has an
    argument depending on x are derived with ``gradient`` and evaluated at
    x = 0 with ``substitute``, so every value equals the one the
    derivatives of all of L give.  Returns L0, the list b and A as a
    list of rows of Exprs."""
    dim = len(x)
    L0: dict = {}
    b = [{} for _ in range(dim)]
    upper: dict = {}        # (i, j) with i <= j -> numerators of A_ij
    through: dict = {}      # the terms with an opaque call depending on x
    seen: dict = {}

    def depends(a) -> bool:
        dep = seen.get(a)
        if dep is None:
            dep = seen[a] = any(y in x for arg in a.args
                                for y in arg.free_coordinates())
        return dep

    terms, den = L.parts()
    for mon, c in terms.items():
        if any(a.__class__ is OpaqueCall and depends(a) for a, _ in mon):
            through[mon] = c
            continue
        # mon is rest * x^alpha with one rest per alpha, so no two terms
        # give the same monomial of L0, of a b_i or of an A_ij
        xf = [f for f in mon if f[0] in x]
        if not xf:
            L0[mon] = c
        elif len(xf) == 1 and xf[0][1] == 1:
            b[x[xf[0][0]]][tuple(f for f in mon if f is not xf[0])] = c
        else:
            for p, (ai, ei) in enumerate(xf):
                for aj, ej in xf[p:]:
                    if aj is not ai:
                        k, drop = ei * ej, {ai: 1, aj: 1}
                    elif ei > 1:
                        k, drop = ei * (ei - 1), {ai: 2}
                    else:
                        continue
                    rest = tuple((a, e - drop.get(a, 0)) for a, e in mon
                                 if e != drop.get(a, 0))
                    i, j = sorted((x[ai], x[aj]))
                    upper.setdefault((i, j), {})[rest] = c * k
    # each part holds some numerators of L over its denominator
    A = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            A[i][j] = A[j][i] = _make(upper.get((i, j), {}), den)
    L0 = _make(L0, den)
    b = [_make(t, den) for t in b]
    if through:
        T = _make(through, den)
        kill = {a: ZERO for a in x}
        g = gradient(T, x)
        dT = [g.get(a, ZERO) for a in x]
        for i, d in enumerate(dT):
            g = gradient(d, x)
            A[i] = [A[i][j] + g.get(a, ZERO) for j, a in enumerate(x)]
        b = [bi + substitute(d, kill) for bi, d in zip(b, dT)]
        L0 = L0 + substitute(T, kill)
    return L0, b, A


def _exchange(L: Expr, momenta: dict, check):
    """Exchange the jets x = phi_mu named by the keys (fld, mu) of ``momenta``
    for those momenta p: solve dL/dx = p.  ``check`` vets each entry of the
    Hessian A of L in x, in row-major order; one that passes is free of x,
    so L = L0 + b.x + 1/2 x.A x exactly (L0 and b = dL/dx at x = 0), the
    rows read A x = p - b, and p.x - L = 1/2 (p - b).x - L0 on the
    inversion.  Returns the inversion {(fld, mu): Expr} and that value."""
    unknowns = list(momenta)
    L0, b, A = _quadratic_split(
        L, {Jet(fld, mi): i for i, (fld, mi) in enumerate(unknowns)})
    for row in A:
        for entry in row:
            check(entry)
    rhs = [momenta[key] - bi for key, bi in zip(unknowns, b)]
    x = _solve_linear(A, rhs)
    return dict(zip(unknowns, x)), (
        _HALF * Expr.sum(r * xi for r, xi in zip(rhs, x)) - L0)


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


def _top_exchange(problem: LagrangianProblem):
    """Exchange the order-k jets for the symmetric top momenta p^sigma:
    the inversion {(fld, sigma): Expr} and h = sum p^sigma phi_sigma - L
    on it."""
    if problem.constraints:
        raise LegendreError("Legendre transform of a constrained problem "
                            "is not supported")
    n, k = problem.n, problem.k
    sym_atoms = {(fld, mi): Expr.atom(Momentum(fld, mi))
                 for fld in problem.fields for mi in all_multiindices(n, k)}
    return _exchange(problem.lagrangian, sym_atoms,
                     lambda e: _check_hessian_entry(e, k))


def legendre_top(problem: LagrangianProblem) -> LegendreData:
    """Exchange the order-k jets for the symmetric top momenta.

    h = sum p^mu phi_mu - L on the inversion;  H = sum over all slots of
    p^{mu lam} phi_{mu+lam} - L on it (the combined velocity pairing
    restricted to holonomic first jets); the slots of order k - 1 pair as
    sum_sigma sym(sigma) phi_sigma, so H = h(p^sigma -> sym(sigma)) + lower.
    """
    inversion, h = _top_exchange(problem)
    n, k = problem.n, problem.k
    p = MomentumAssignment.symbolic(n, problem.fields, k)
    lower = Expr.sum(
        p.slot(fld, mi, lam) * Expr.atom(Jet(fld, mi.bump(lam)))
        for fld, mi, lam in MomentumAssignment.grid_keys(
            n, problem.fields, k - 1))
    slot_sym = {Momentum(fld, mi): p.symmetric_part(fld, mi)
                for fld, mi in inversion}
    H = substitute(h, slot_sym) + lower
    return LegendreData(h, H, inversion)


def hamilton_equations(problem: LagrangianProblem) -> EquationSet:
    """The cascade rewritten through h: the top rows solve for the order-k
    jets, the descending rows pick up a sign, momenta stay symbolic."""
    n, k = problem.n, problem.k
    h = _top_exchange(problem)[1]
    p = MomentumAssignment.symbolic(n, problem.fields, k)
    dh = gradient(h, [Momentum(fld, mi) for fld in problem.fields
                      for mi in all_multiindices(n, k)]
                  + [Jet(fld, mi) for fld in problem.fields
                     for mi in multiindices_up_to(n, k - 1)])
    rows = []
    for fld in problem.fields:
        for mi in all_multiindices(n, k):
            rows.append(Equation(
                f"{fld}:phi[{','.join(map(str, mi))}]",
                Expr.atom(Jet(fld, mi)),
                dh.get(Momentum(fld, mi), ZERO)))
        for order in range(k - 1, -1, -1):
            for mi in all_multiindices(n, order):
                rows.append(_cascade_row(
                    p, fld, mi, -dh.get(Jet(fld, mi), ZERO)))
    return EquationSet(rows)


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

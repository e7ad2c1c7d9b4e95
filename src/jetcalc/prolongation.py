"""Jet prolongation of vertical fields and polarization of homogeneous
polynomials (the linear model of embedding holonomic jets in nonholonomic
ones)."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coords import Jet, Momentum
from .expr import Expr, ZERO, _akey, total_derivative_multi
from .forms import VectorField
from .multiindex import MultiIndex, multiindices_up_to


class ProlongationError(ValueError):
    pass


@dataclass(frozen=True)
class VerticalField:
    """Per-field coefficients psi against d/dphi; no momentum dependence."""

    coefficients: dict

    def __post_init__(self):
        for fld, psi in self.coefficients.items():
            for c in sorted(psi.free_coordinates(), key=_akey):
                if isinstance(c, Momentum):
                    raise ProlongationError(
                        f"vertical field coefficient for {fld} contains {c!r}")


def prolong_vertical_field(X: VerticalField, n: int,
                           target_order: int, order_cap: int = 12) -> VectorField:
    """The contact-preserving lift: the d/dphi_mu coefficient is the
    iterated total derivative D_mu(psi), for 0 <= |mu| <= target_order."""
    comps = {}
    for fld, psi in X.coefficients.items():
        for mi in multiindices_up_to(n, target_order):
            comps[Jet(fld, mi)] = total_derivative_multi(psi, mi,
                                                         order_cap=order_cap)
    return VectorField.of(comps)


@dataclass(frozen=True)
class HomogeneousPoly:
    """Homogeneous degree-d polynomial over an m-variable space, stored as a
    multi-index-keyed coefficient map; coefficients may carry parameters."""

    degree: int
    nvars: int
    coefficients: dict

    def __post_init__(self):
        for mi, c in self.coefficients.items():
            if mi.order != self.degree or mi.n != self.nvars:
                raise ProlongationError(
                    f"coefficient key {mi!r} is not homogeneous of degree "
                    f"{self.degree} in {self.nvars} variables")

    def coefficient(self, mi: MultiIndex) -> Expr:
        return self.coefficients.get(mi, ZERO)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coefficients.values())

    def __eq__(self, other):
        if not isinstance(other, HomogeneousPoly):
            return NotImplemented
        if (self.degree, self.nvars) != (other.degree, other.nvars):
            return False
        keys = set(self.coefficients) | set(other.coefficients)
        return all(self.coefficient(k) == other.coefficient(k) for k in keys)

    @classmethod
    def from_expr(cls, e: Expr, variables) -> "HomogeneousPoly":
        """Split an Expr into variable exponent vectors and parameter
        coefficients; raises unless homogeneous in the given atoms."""
        variables = list(variables)
        index = {v: i for i, v in enumerate(variables)}
        groups: dict = {}
        degree = None
        for mon, c in e._terms.items():
            exps = [0] * len(variables)
            for a, k in mon:
                if a in index:
                    exps[index[a]] = k
            mi = MultiIndex(exps)
            if degree is None:
                degree = mi.order
            elif mi.order != degree:
                raise ProlongationError("polynomial is not homogeneous")
            rest = tuple((a, k) for a, k in mon if a not in index)
            groups.setdefault(mi, []).append(Expr({rest: c}))
        if degree is None:
            raise ProlongationError("zero polynomial has no degree")
        return cls(degree, len(variables),
                   {mi: Expr.sum(parts) for mi, parts in groups.items()})

    def to_expr(self, variables) -> Expr:
        terms = []
        for mi, c in self.coefficients.items():
            term = c
            for v, e in zip(variables, mi):
                term = term * Expr.atom(v) ** e
            terms.append(term)
        return Expr.sum(terms)


def polarize(Q: HomogeneousPoly) -> dict:
    """(1/d) dQ componentwise: the inclusion of the symmetric power into
    symmetric-power-tensor-vector; for d = 2 this is the bilinear form of Q."""
    if Q.degree < 1:
        raise ProlongationError("polarization needs degree >= 1")
    out = {}
    for i in range(1, Q.nvars + 1):
        comp: dict = {}
        for mi, c in Q.coefficients.items():
            below = mi.drop(i)
            if below is None:
                continue
            # mi -> mi - e_i is injective, so each key is written once
            comp[below] = c * Expr.const(Fraction(mi[i - 1], Q.degree))
        out[i] = HomogeneousPoly(Q.degree - 1, Q.nvars, comp)
    return out


def resymmetrize(components: dict, degree: int, nvars: int) -> HomogeneousPoly:
    """Contract the extra slot back with the variables: sum_i x_i * B_i.
    By the Euler identity this recovers Q from polarize(Q)."""
    groups: dict = {}
    for i, poly in components.items():
        for mi, c in poly.coefficients.items():
            groups.setdefault(mi.bump(i), []).append(c)
    return HomogeneousPoly(degree, nvars,
                           {mi: Expr.sum(cs) for mi, cs in groups.items()})


def gram_matrix(Q: HomogeneousPoly) -> list:
    """For a quadratic form, the symmetric matrix B with Q(x) = x^T B x;
    entries B_ij are the e_j coefficients of the polarization components."""
    if Q.degree != 2:
        raise ProlongationError("Gram matrix needs a quadratic form")
    B = polarize(Q)
    return [[B[i + 1].coefficient(MultiIndex.unit(Q.nvars, j + 1))
             for j in range(Q.nvars)] for i in range(Q.nvars)]

"""Exterior algebra on the phase bundle, in coordinates.

Forms are degree-homogeneous sums of wedge monomials in the basis one-forms
dx^mu, dphi_mi, dp^{mi|lam} with Expr coefficients.  Factors are kept
strictly increasing in the coordinate order, signs absorbed into the
coefficients, so equality of forms is equality of coefficient tables.
"""

from __future__ import annotations

from itertools import chain

from .coords import (Base, Coordinate, Jet, Momentum, Multiplier, Parameter,
                     is_fibre)
from .expr import (Expr, JetcalcError, ONE, _akey, _ranked, gradient,
                   partial_derivative, substitute, total_derivative_multi)
from .multiindex import multiindices_up_to


class FormsError(JetcalcError):
    pass


def _check_basis(c: Coordinate):
    if isinstance(c, (Parameter, Multiplier)):
        raise FormsError(f"{c!r} has no basis one-form")
    return c


def _sorted_factors(factors):
    """Sort a factor tuple into canonical order; returns (sign, tuple) with
    sign 0 when a factor repeats."""
    facs = list(factors)
    keys = [f.sort_key() for f in facs]
    sign = 1
    for i in range(1, len(facs)):
        j = i
        while j > 0 and keys[j - 1] > keys[j]:
            keys[j - 1], keys[j] = keys[j], keys[j - 1]
            facs[j - 1], facs[j] = facs[j], facs[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(facs, facs[1:]):
        if a == b:
            return 0, ()
    return sign, tuple(facs)


class ExteriorForm:
    """A homogeneous differential form; immutable."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: dict | None = None):
        """``terms`` maps factor tuples to coefficients; see :meth:`sum`."""
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", ExteriorForm.sum(
            degree, terms.items()).terms if terms else {})

    @staticmethod
    def sum(degree: int, pairs) -> "ExteriorForm":
        """The form of degree ``degree`` summing (factors, coefficient)
        ``pairs``.  Each factor tuple, in any order, is sorted with the sign
        of its permutation (a repeated factor gives zero), and the
        coefficients of one sorted tuple are added by one ``Expr.sum``."""
        groups: dict = {}
        for factors, coeff in pairs:
            for f in factors:
                _check_basis(f)
            if len(factors) != degree:
                raise FormsError("mixed-degree form rejected")
            sign, facs = _sorted_factors(factors)
            if sign:
                groups.setdefault(facs, []).append(coeff if sign == 1 else -coeff)
        form = ExteriorForm(degree)
        terms = {facs: Expr.sum(cs) for facs, cs in groups.items()}
        object.__setattr__(form, "terms",
                           {f: c for f, c in terms.items() if not c.is_zero()})
        return form

    def __setattr__(self, *a):
        raise AttributeError("ExteriorForm is immutable")

    @staticmethod
    def zero(degree: int) -> "ExteriorForm":
        return ExteriorForm(degree)

    @staticmethod
    def scalar(e: Expr) -> "ExteriorForm":
        return ExteriorForm(0, {(): e})

    @staticmethod
    def d_coordinate(c: Coordinate) -> "ExteriorForm":
        return ExteriorForm(1, {(c,): ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, ExteriorForm)
                and self.degree == other.degree and self.terms == other.terms)

    def __hash__(self):
        return hash((self.degree, frozenset(self.terms.items())))

    def __add__(self, other: "ExteriorForm") -> "ExteriorForm":
        if self.degree != other.degree:
            raise FormsError("cannot add forms of different degree")
        return ExteriorForm.sum(self.degree, chain(self.terms.items(),
                                                   other.terms.items()))

    def __neg__(self):
        return ExteriorForm(self.degree, {f: -c for f, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, e) -> "ExteriorForm":
        e = e if isinstance(e, Expr) else Expr.const(e)
        return ExteriorForm(self.degree,
                            {f: c * e for f, c in self.terms.items()})

    def __repr__(self):
        return form_to_str(self)


def _join_form(a: ExteriorForm, render) -> str:
    """The form printers' common core: the terms of ``a`` in factor order,
    each rendered by ``render(factors, coefficient)``, joined by " + ";
    "0" for the zero form.  ``_ranked`` gives the factor order."""
    if a.is_zero():
        return "0"
    return " + ".join(render(facs, coeff)
                      for facs, coeff in _ranked(a.terms, _akey))


def form_to_str(a: ExteriorForm) -> str:
    """Plain-text form rendering for JSON reports."""
    return _join_form(a, _form_term_str)


def _form_term_str(facs, coeff) -> str:
    if not facs:
        return f"({coeff})"
    return f"({coeff}) " + " ∧ ".join(f"d({f._dsl})" for f in facs)


def wedge(a: ExteriorForm, b: ExteriorForm) -> ExteriorForm:
    """Graded-antisymmetric product; degree adds."""
    return ExteriorForm.sum(a.degree + b.degree,
                            ((fa + fb, ca * cb)
                             for fa, ca in a.terms.items()
                             for fb, cb in b.terms.items()))


def exterior_derivative(a: ExteriorForm) -> ExteriorForm:
    """d in coordinates: differentials of every coordinate the coefficients
    actually depend on, wedged in front.  dd = 0."""
    pairs = []
    for facs, coeff in a.terms.items():
        coords = [c for c in coeff.free_coordinates()
                  if not isinstance(c, (Parameter, Multiplier))]
        pairs += [((c,) + facs, dc)
                  for c, dc in gradient(coeff, coords).items()]
    return ExteriorForm.sum(a.degree + 1, pairs)


def interior_product(X: dict, a: ExteriorForm) -> ExteriorForm:
    """Contraction in the first slot with graded signs; degree drops by one.
    The vector field ``X`` maps coordinates to their nonzero components."""
    if a.degree < 1:
        raise FormsError("interior product needs degree >= 1")
    pairs = []
    for facs, coeff in a.terms.items():
        for i, f in enumerate(facs):
            comp = X.get(f)
            if comp is not None:
                c = coeff * comp
                pairs.append((facs[:i] + facs[i + 1:], -c if i % 2 else c))
    return ExteriorForm.sum(a.degree - 1, pairs)


class SectionData:
    """An assignment of base-coordinate expressions to fibre slots.

    Values may depend on base coordinates (and opaque functions of them)
    only.  Derivative-decorated momentum atoms evaluate by differentiating
    the assigned slot expression.
    """

    def __init__(self, assign: dict, n: int | None = None):
        for slot, value in assign.items():
            if not is_fibre(slot):
                raise FormsError(f"section assigns fibre slots only, got {slot!r}")
            bad = sorted(filter(is_fibre, value.free_coordinates()), key=_akey)
            if bad:
                raise FormsError(f"section value for {slot!r} contains fibre atom {bad[0]!r}")
        dims = {slot.mi.n for slot in assign}
        if n is None:
            if len(dims) != 1:
                raise FormsError("cannot infer base dimension; pass n")
            n = dims.pop()
        elif dims - {n}:
            raise FormsError("slot dimension disagrees with n")
        self.n = n
        self.assign = dict(assign)

    def value(self, atom) -> Expr:
        if isinstance(atom, Momentum) and atom.derivs.order:
            base_atom = Momentum(atom.fld, atom.mi, atom.last)
            if base_atom not in self.assign:
                raise FormsError(f"missing assignment for {base_atom!r}")
            v = self.assign[base_atom]
            for direction, count in enumerate(atom.derivs, start=1):
                for _ in range(count):
                    v = partial_derivative(v, Base(direction))
            return v
        if atom not in self.assign:
            raise FormsError(f"missing assignment for {atom!r}")
        return self.assign[atom]

    def evaluate(self, e: Expr) -> Expr:
        fibre = sorted(filter(is_fibre, e.free_coordinates()), key=_akey)
        return substitute(e, {c: self.value(c) for c in fibre})


def pullback_section(a: ExteriorForm, sigma: SectionData) -> ExteriorForm:
    """sigma^* a: substitute fibre atoms and expand fibre differentials as
    sum_lam d_lam(value) dx^lam; the result lives over the base."""
    directions = [Base(mu) for mu in range(1, sigma.n + 1)]
    pairs = []
    for facs, coeff in a.terms.items():
        # the expanded wedge of the factors, a repeated dx^mu left out
        products = [((), sigma.evaluate(coeff))]
        for f in facs:
            if isinstance(f, Base):
                one_form = [(f, ONE)]
            else:
                g = gradient(sigma.value(f), directions)
                one_form = [(b, g[b]) for b in directions if b in g]
            products = [(bases + (b,), c * dv) for bases, c in products
                        for b, dv in one_form if b not in bases]
        pairs += products
    return ExteriorForm.sum(a.degree, pairs)


def holonomic_section(problem, profiles: dict, jet_order: int,
                      momenta: dict | None = None) -> SectionData:
    """Prolong base-coordinate field profiles into a holonomic SectionData
    assigning every jet slot up to ``jet_order``; extra momentum-slot
    assignments may be supplied alongside."""
    assign: dict = {}
    for fld in problem.fields:
        f = profiles[fld]
        for mi in multiindices_up_to(problem.n, jet_order):
            assign[Jet(fld, mi)] = total_derivative_multi(f, mi)
    if momenta:
        assign.update(momenta)
    return SectionData(assign)

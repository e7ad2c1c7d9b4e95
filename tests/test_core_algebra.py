"""Core algebra: multi-indices, expressions, derivatives, parsing."""

import copy
import functools
import itertools
import math
import operator
import pickle
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from jetcalc import (
    Base, Expr, ExprError, Jet, LagrangianProblem, Momentum, MultiIndex,
    Multiplier, OpaqueCall, Parameter, ParseError, divide, gradient,
    parse_expr, partial_derivative, substitute, to_dsl, total_derivative,
    total_derivative_multi,
)
from jetcalc.expr import (ONE, ZERO, _akey, _atom_partial, _atom_total,
                          _digits, _display_sorted, _mul_monomials,
                          total_divergence)
from jetcalc.forms import ExteriorForm
from jetcalc.multiindex import all_multiindices, multiindices_up_to
from jetcalc.printing import (_coeff_latex, atom_latex, form_to_latex,
                              form_to_str, to_latex)
from jetcalc.variational import divide_weight


def problem(n=1, k=2, fields=("u",), params=(), opaques=None, L=None):
    return LagrangianProblem(n, tuple(fields), k, L if L is not None else Expr(),
                             (), tuple(params), dict(opaques or {}))


MECH = LagrangianProblem(1, ("q",), 1, Expr(), (), ("m",), {"U": 2})


def jet(fld, *mi):
    return Expr.atom(Jet(fld, MultiIndex(mi)))


def mom(fld, mi, last=None, derivs=None):
    n = len(mi)
    return Expr.atom(Momentum(fld, MultiIndex(mi), last,
                              MultiIndex(derivs) if derivs else None))


def _reference_grid(n, order):
    """The multi-indices of n entries and total ``order`` as plain tuples,
    highest first entry first; none for a negative order, and only the
    empty tuple for n = 0 and order 0."""
    if order < 0:
        return []
    if n == 0:
        return [()] if order == 0 else []
    if n == 1:
        return [(order,)]
    return [(head,) + tail for head in range(order, -1, -1)
            for tail in _reference_grid(n - 1, order - head)]


def collapse(indices, n):
    """The multi-index of a symmetric index list (1-based entries)."""
    return functools.reduce(MultiIndex.bump, indices, MultiIndex.zero(n))


class TestMultiIndex:
    def test_factor_single_arrangement(self):
        mi = collapse((1, 1), n=2)
        w = mi.weight()
        assert mi == MultiIndex((2, 0)) and w == 1

    def test_factor_two_arrangements_brute_force(self):
        mi = collapse((1, 2), n=2)
        w = mi.weight()
        assert mi == MultiIndex((1, 1))
        # oracle: enumerate the arrangements of the index list directly
        arrangements = {perm for perm in itertools.permutations((1, 2))}
        assert w == len(arrangements) == 2

    def test_factor_empty(self):
        mi = collapse((), n=2)
        w = mi.weight()
        assert mi == MultiIndex((0, 0)) and w == 1

    @pytest.mark.parametrize("n,l", [(1, 3), (2, 3), (3, 2), (2, 4)])
    def test_weights_sum_to_n_power_l(self, n, l):
        total = sum(mi.weight() for mi in all_multiindices(n, l))
        assert total == n ** l

    def test_bump_adds_a_unit_and_checks_the_direction(self):
        mi = MultiIndex((1, 0, 2))
        assert mi.bump(2) == (1, 1, 2) and type(mi.bump(2)) is MultiIndex
        assert mi.bump(3).order == 4
        for bad in (0, 4):
            with pytest.raises(ValueError, match="out of range"):
                mi.bump(bad)

    def test_drop_removes_a_unit_and_checks_the_direction(self):
        mi = MultiIndex((1, 0, 2))
        assert mi.drop(3) == (1, 0, 1) and type(mi.drop(3)) is MultiIndex
        assert mi.drop(2) is None
        for bad in (0, 4):
            with pytest.raises(ValueError, match="out of range"):
                mi.drop(bad)

    @pytest.mark.parametrize("n", [-1, 0, 1, 2, 3, 4])
    def test_grids_match_reference_recursion(self, n):
        if n < 0:
            for order in range(-1, 3):
                with pytest.raises(ValueError, match="base directions"):
                    all_multiindices(n, order)
            return
        for order in range(-1, 7):
            grid = all_multiindices(n, order)
            assert type(grid) is tuple
            assert [tuple(mi) for mi in grid] == _reference_grid(n, order)
            assert all(type(mi) is MultiIndex for mi in grid)
            # memoized: a repeat call returns the same shared tuple
            assert all_multiindices(n, order) is grid
        assert list(multiindices_up_to(n, 3)) == [
            mi for order in range(4) for mi in all_multiindices(n, order)]

    def test_weight_matches_enumeration(self):
        for mi in all_multiindices(2, 3):
            listing = []
            for tup in itertools.product((1, 2), repeat=3):
                if collapse(tup, 2) == mi:
                    listing.append(tup)
            assert mi.weight() == len(listing)

    def test_weight_is_the_factorial_quotient(self):
        for n in range(5):
            for mi in multiindices_up_to(n, 6):
                want = math.factorial(mi.order)
                for e in mi:
                    want //= math.factorial(e)
                assert mi.weight() == want, mi
        assert MultiIndex((1999,)).weight() == 1
        assert MultiIndex((1999, 1)).weight() == 2000

    def test_divide_weight_skips_only_a_unit_weight(self):
        e = jet("u", 1, 0) * 3 + Expr.atom(Parameter("m")) / 2
        for mi in all_multiindices(2, 3):
            got = divide_weight(e, mi)
            want = e * Expr.const(Fraction(1, mi.weight()))
            assert got == want and list(got._terms) == list(want._terms)


class TestExprAlgebra:
    def test_binomial_identity_normalizes_to_zero(self):
        q = jet("q", 0)
        e = (q + 1) ** 2 - q ** 2 - 2 * q - 1
        assert e.is_zero()

    def test_commutativity(self):
        m = Expr.atom(Parameter("m"))
        assert (jet("q", 1) * m - m * jet("q", 1)).is_zero()

    def test_fraction_reduction(self):
        u = jet("u", 0)
        assert Expr.const(Fraction(2, 4)) * u == Expr.const(Fraction(1, 2)) * u

    def test_parameter_laurent(self):
        m = Expr.atom(Parameter("m"))
        assert divide(Expr.const(1), m) * m == Expr.const(1)
        with pytest.raises(ExprError):
            divide(Expr.const(1), jet("u", 1))

    def test_multiterm_exact_division(self):
        m = Expr.atom(Parameter("m"))
        num = m ** 2 - Expr.const(1)
        den = m - Expr.const(1)
        assert divide(num, den) == m + 1
        with pytest.raises(ExprError):
            divide(m ** 2 + 1, den)

    def test_constructor_rejects_negative_jet_power(self):
        with pytest.raises(ExprError, match="negative power"):
            Expr({((Jet("u", MultiIndex((1,))), -1),): 1})


class TestDerivatives:
    def test_power_rule(self):
        m = Expr.atom(Parameter("m"))
        L = divide(m, 2) * jet("q", 1) ** 2
        assert partial_derivative(L, Jet("q", MultiIndex((1,)))) == m * jet("q", 1)

    def test_opaque_chain_rule(self):
        U = Expr.atom(OpaqueCall("U", (0, 0),
                                 (Expr.atom(Base(1)), jet("q", 0))))
        dU = partial_derivative(U, Jet("q", MultiIndex((0,))))
        assert dU == Expr.atom(OpaqueCall("U", (0, 1),
                                          (Expr.atom(Base(1)), jet("q", 0))))

    def test_atom_independence(self):
        e = Expr.const(Fraction(1, 2)) * jet("u", 2) ** 2 + jet("u", 1)
        assert partial_derivative(e, Jet("u", MultiIndex((2,)))) == jet("u", 2)

    def test_total_leibniz(self):
        e = jet("u", 0) * jet("u", 1)
        assert total_derivative(e, 1) == jet("u", 1) ** 2 + jet("u", 0) * jet("u", 2)

    def test_total_of_constant(self):
        assert total_derivative(Expr.const(5), 1).is_zero()
        assert total_derivative(Expr.atom(Parameter("m")), 1).is_zero()

    def test_total_opaque(self):
        F = Expr.atom(OpaqueCall("F", (0, 0),
                                 (Expr.atom(Base(1)), jet("u", 0))))
        got = total_derivative(F, 1)
        want = (Expr.atom(OpaqueCall("F", (1, 0), (Expr.atom(Base(1)), jet("u", 0))))
                + jet("u", 1) * Expr.atom(OpaqueCall("F", (0, 1),
                                                     (Expr.atom(Base(1)), jet("u", 0)))))
        assert got == want

    def test_momentum_jet_decoration(self):
        p = mom("u", (0,), 1)
        dp = total_derivative(p, 1)
        assert dp == mom("u", (0,), 1, derivs=(1,))

    def test_commutator_identity(self):
        # shadow of the delta-d commutation: d/dphi_sigma D_lam - D_lam d/dphi_sigma
        # equals d/dphi_{sigma-lam}, randomized over small polynomials
        import random
        rng = random.Random(7)
        n = 2
        jets = [Jet("u", mi) for o in range(3) for mi in all_multiindices(n, o)]
        for _ in range(25):
            e = Expr.const(0)
            for _ in range(4):
                mon = Expr.const(rng.randint(-3, 3))
                for _ in range(rng.randint(0, 2)):
                    mon = mon * Expr.atom(rng.choice(jets))
                e = e + mon
            lam = rng.randint(1, n)
            sigma = rng.choice(jets).mi
            c = Jet("u", sigma)
            lhs = partial_derivative(total_derivative(e, lam), c) \
                - total_derivative(partial_derivative(e, c), lam)
            below = sigma.drop(lam)
            rhs = partial_derivative(e, Jet("u", below)) if below is not None else Expr.const(0)
            assert (lhs - rhs).is_zero()

    def test_total_derivatives_commute(self):
        e = jet("u", 1, 0) ** 2 * jet("u", 0, 1) + Expr.atom(Base(2)) * jet("u", 0, 0)
        d12 = total_derivative(total_derivative(e, 1), 2)
        d21 = total_derivative(total_derivative(e, 2), 1)
        assert d12 == d21

    def test_order_cap(self):
        with pytest.raises(ExprError):
            total_derivative_multi(jet("u", 1), MultiIndex((9,)), order_cap=5)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-4, 4),
                          st.lists(st.integers(0, 2), min_size=1, max_size=3)),
                max_size=5),
       st.integers(1, 2), st.integers(1, 2))
def test_total_derivatives_commute_hypothesis(shape, lam, nu):
    e = Expr.const(0)
    for coeff, orders in shape:
        mon = Expr.const(coeff)
        for o in orders:
            mon = mon * Expr.atom(Jet("u", MultiIndex((o, 0))))
        e = e + mon
    assert total_derivative(total_derivative(e, lam), nu) == \
        total_derivative(total_derivative(e, nu), lam)


# -- kernel properties: the one-dict accumulator against plain references

_U = OpaqueCall("U", (0, 0), (Expr.atom(Base(1)),
                              Expr.atom(Jet("u", MultiIndex((0, 0))))))
_ATOMS = (Jet("u", MultiIndex((0, 0))), Jet("u", MultiIndex((1, 0))),
          Jet("u", MultiIndex((0, 1))), Base(1), _U)
_MASS = Expr.atom(Parameter("m"))


@st.composite
def small_exprs(draw):
    """Sums of up to five monomials over jets, x1, an opaque call and a
    parameter with a Laurent exponent; coefficients may be zero."""
    parts = []
    for _ in range(draw(st.integers(0, 5))):
        term = Expr.const(draw(st.fractions(-3, 3, max_denominator=4)))
        for a in _ATOMS:
            term = term * Expr.atom(a) ** draw(st.integers(0, 2))
        m_exp = draw(st.integers(-2, 2))
        term = term * _MASS ** m_exp if m_exp >= 0 else \
            divide(term, _MASS ** -m_exp)
        parts.append(term)
    return functools.reduce(operator.add, parts, ZERO)


def _coefficients(e: Expr) -> dict:
    """The coefficient of each monomial of ``e`` as a ``Fraction``, read
    through ``Expr.parts``: the per-term form that the references compute
    in."""
    terms, den = e.parts()
    return {mon: Fraction(c, den) for mon, c in terms.items()}


def _assert_canonical(e: Expr):
    terms, den = e.parts()
    # integer numerators over one positive denominator prime to all of them
    # (so 1 for an integral or zero expression)
    assert type(den) is int and den >= 1, den
    assert math.gcd(den, *terms.values()) == 1, (den, terms)
    for mon, c in terms.items():
        assert type(c) is int and c != 0, (mon, c)
        assert all(x != 0 for _, x in mon), mon
        assert all(x > 0 or isinstance(a, Parameter) for a, x in mon), mon
        keys = [_akey(a) for a, _ in mon]
        assert keys == sorted(keys) and len(set(keys)) == len(keys), mon


_KERNEL = settings(max_examples=80, deadline=None)


@_KERNEL
@given(st.lists(small_exprs(), max_size=6))
def test_sum_matches_pairwise_addition(xs):
    got = Expr.sum(xs)
    assert got == functools.reduce(operator.add, xs, ZERO)
    merged: dict = {}
    for x in xs:
        for mon, c in _coefficients(x).items():
            merged[mon] = merged.get(mon, 0) + c
    assert got == Expr(merged)
    _assert_canonical(got)


# Monomials that collide under products: u * u[1,0] is also a product of
# the first two, u^2 a square of the first, and m, 1/m and m^2 cancel into
# each other and into the constant.
_U0, _U1 = Jet("u", MultiIndex((0, 0))), Jet("u", MultiIndex((1, 0)))
_M = Parameter("m")
_COLLIDING = ((), ((_U0, 1),), ((_U1, 1),), ((_U0, 1), (_U1, 1)),
              ((_U0, 2),), ((_M, 1),), ((_M, -1),), ((_M, 2),),
              ((_U0, 1), (_M, -1)), ((Base(1), 1),))


@st.composite
def colliding_sums(draw):
    """Sums of up to five terms over monomials that collide in powers,
    Laurent parameter terms among them, with negative and Fraction
    coefficients."""
    mons = draw(st.lists(st.sampled_from(_COLLIDING), max_size=5, unique=True))
    return Expr({mon: draw(st.fractions(-3, 3, max_denominator=3))
                 for mon in mons})


def _atom_order(factor):
    return _akey(factor[0])


def _reference_monomial_product(m1, m2):
    """The product of two monomials from a dict of summed exponents: the
    zero exponents dropped, the atoms sorted by their keys."""
    exps: dict = {}
    for a, e in m1 + m2:
        exps[a] = exps.get(a, 0) + e
    return tuple(sorted(((a, e) for a, e in exps.items() if e),
                        key=_atom_order))


def _reference_product(x, y):
    """``x * y`` term by term on Fraction coefficients, each product of
    monomials formed by ``_reference_monomial_product``."""
    acc: dict = {}
    for m1, c1 in _coefficients(x).items():
        for m2, c2 in _coefficients(y).items():
            m = _reference_monomial_product(m1, m2)
            acc[m] = acc.get(m, 0) + c1 * c2
    return Expr(acc)


_J00, _J01, _J10 = (Jet("u", MultiIndex(mi))
                    for mi in ((0, 0), (0, 1), (1, 0)))
_N_PARAM = Parameter("n")
# one atom of each kind and more than one of some, in their stored order
_MONOMIAL_ATOMS = tuple(sorted(
    [Base(1), Base(2), _J00, _J01, _J10, Jet("v", MultiIndex((0, 0))),
     Momentum("u", MultiIndex((0, 0)), 1), Multiplier(1), _M, _N_PARAM, _U],
    key=_akey))


def _exponents(a):
    """1 to 3, and -3 to 3 but not 0 for a parameter."""
    return st.integers(-3, 3).filter(bool) if isinstance(a, Parameter) \
        else st.integers(1, 3)


@st.composite
def monomials(draw, atoms=_MONOMIAL_ATOMS):
    """A sorted monomial over up to five of ``atoms``."""
    chosen = draw(st.lists(st.sampled_from(atoms), unique=True,
                           max_size=5)) if atoms else []
    return tuple(sorted(((a, draw(_exponents(a))) for a in chosen),
                        key=_atom_order))


@st.composite
def monomial_pairs(draw):
    """Two monomials, in either order, in each shape the product treats
    apart: an empty one, atom ranges that do not overlap, one factor (an
    atom of the other monomial or any atom), one parameter factor that
    cancels a power of the other, and a general overlap."""
    shape = draw(st.sampled_from(("empty", "disjoint", "one", "cancel",
                                  "general")))
    m1 = draw(monomials())
    if shape == "empty":
        m2 = ()
    elif shape == "disjoint":
        cut = draw(st.integers(0, len(_MONOMIAL_ATOMS)))
        m1 = draw(monomials(_MONOMIAL_ATOMS[:cut]))
        m2 = draw(monomials(_MONOMIAL_ATOMS[cut:]))
    elif shape == "one":
        held = [a for a, _ in m1]
        a = draw(st.sampled_from(held if held and draw(st.booleans())
                                 else _MONOMIAL_ATOMS))
        m2 = ((a, draw(_exponents(a))),)
    elif shape == "cancel":
        p = draw(st.sampled_from((_M, _N_PARAM)))
        e = draw(_exponents(p))
        m1 = tuple(sorted([f for f in m1 if f[0] is not p] + [(p, e)],
                          key=_atom_order))
        m2 = ((p, -e),)
    else:
        m2 = draw(monomials())
    return (m2, m1) if draw(st.booleans()) else (m1, m2)


_MONOMIAL_EXAMPLES = [
    ((), ()), (((_J00, 1),), ()),
    # disjoint ranges, either order
    (((Base(1), 1), (_J00, 2)), ((_M, -1), (_U, 1))),
    (((_M, -1), (_U, 1)), ((Base(1), 1), (_J00, 2))),
    # one factor landing first, inside, last, and on atoms it holds
    (((_J00, 1), (_J10, 1), (_M, 1)), ((Base(2), 2),)),
    (((_J01, 1),), ((_J00, 1), (_J10, 1), (_M, 1))),
    (((_J00, 1), (_J10, 1), (_M, 1)), ((_U, 1),)),
    (((_J00, 1), (_J10, 1), (_M, 1)), ((_J10, 2),)),
    (((_J00, 1),), ((_J00, 1), (_J10, 1), (_M, 1))),
    (((_J00, 1), (_J10, 1), (_M, 1)), ((_M, 3),)),
    # a parameter's exponents cancelling to 0
    (((_J00, 1), (_M, 2), (_U, 1)), ((_M, -2),)),
    (((_M, 1),), ((_M, -1),)),
    # a general overlap
    (((_J00, 1), (_J10, 1), (_N_PARAM, -1)),
     ((_J01, 1), (_M, 1), (_N_PARAM, 1))),
]


@pytest.mark.parametrize("m1,m2", _MONOMIAL_EXAMPLES)
def test_monomial_product_shapes_match_the_reference(m1, m2):
    assert _mul_monomials(m1, m2) == _reference_monomial_product(m1, m2)


@_KERNEL
@given(monomial_pairs())
def test_monomial_product_matches_the_reference(pair):
    m1, m2 = pair
    got = _mul_monomials(m1, m2)
    assert type(got) is tuple
    assert got == _reference_monomial_product(m1, m2)


@st.composite
def atom_sums(draw):
    """Sums of distinct single atoms with Fraction coefficients, the terms
    inserted in shuffled order."""
    atoms = draw(st.permutations(_MONOMIAL_ATOMS))[:draw(st.integers(1, 5))]
    return Expr({((a, 1),): draw(st.fractions(-3, 3, max_denominator=4))
                 for a in atoms})


@_KERNEL
@given(st.one_of(small_exprs(), colliding_sums(), atom_sums()),
       st.integers(0, 9), st.data())
def test_power_is_repeated_product(e, n, data):
    # every path of the power: the constant 1, the closed form of one
    # term, the square and the multinomial expansion
    got = e ** n
    assert got == functools.reduce(_reference_product, [e] * n, ONE)
    _assert_canonical(got)
    split = data.draw(st.integers(0, n))
    assert got == e ** split * e ** (n - split)


@_KERNEL
@given(small_exprs())
def test_sum_with_negation_is_zero(e):
    assert Expr.sum([e, -e]).is_zero()
    assert (e - e).is_zero()


@_KERNEL
@given(small_exprs(), small_exprs(), st.integers(1, 2))
def test_no_zero_or_non_fraction_coefficient_stored(a, b, lam):
    # and no negative power of a non-parameter atom; division by each single
    # term of b either succeeds canonically or refuses
    quotients = []
    for mon, c in _coefficients(b).items():
        try:
            quotients.append(divide(a, Expr({mon: c})))
        except ExprError as exc:
            assert "non-constant" in str(exc)
    for e in (Expr.sum([a, b, -a]), a + b, a * b,
              partial_derivative(a, Jet("u", MultiIndex((0, 0)))),
              partial_derivative(a, Base(1)),
              total_derivative(a, lam), *quotients):
        _assert_canonical(e)


_DIRECTIONS = st.lists(st.integers(0, 3), min_size=2, max_size=2)


@st.composite
def jet_polynomials(draw):
    """Up to four monomials in n = 2 over jets of order 0-3, x1 and, when
    drawn, an opaque call whose argument holds a jet of order 0-3."""
    atoms = [Jet("u", MultiIndex(mi)) for o in range(4)
             for mi in all_multiindices(2, o)] + [Base(1)]
    if draw(st.booleans()):
        inner = draw(st.sampled_from(atoms))
        atoms.append(OpaqueCall("U", (0, 0), (Expr.atom(Base(1)),
                                              Expr.atom(inner))))
    parts = []
    for _ in range(draw(st.integers(0, 4))):
        term = Expr.const(draw(st.integers(-3, 3)))
        for a in draw(st.lists(st.sampled_from(atoms), max_size=3)):
            term = term * Expr.atom(a)
        parts.append(term)
    return Expr.sum(parts)


def _reference_multi(e, mi, cap):
    """D_mi step by step, checking the jet order after every step; None
    where the cap is exceeded."""
    out = e
    for direction, count in enumerate(mi, start=1):
        for _ in range(count):
            out = total_derivative(out, direction)
            if out.max_jet_order() > cap:
                return None
    return out


@_KERNEL
@given(jet_polynomials(), _DIRECTIONS, st.integers(0, 7))
def test_iterated_derivative_refuses_exactly_when_a_step_passes_the_cap(
        e, mi, cap):
    want = _reference_multi(e, mi, cap)
    if want is None:
        with pytest.raises(ExprError) as info:
            total_derivative_multi(e, MultiIndex(mi), order_cap=cap)
        assert str(info.value) == (
            f"jet order exceeded cap {cap} during iterated total derivative")
    else:
        assert total_derivative_multi(e, MultiIndex(mi), order_cap=cap) == want


def _leibniz_reference(e, atom_rule):
    """The derivation by the general product rule on per-term Fraction
    coefficients: each atom's rule is multiplied out term by term, one-term
    rules included."""
    acc: dict = {}
    for mon, coeff in _coefficients(e).items():
        for i, (a, exp) in enumerate(mon):
            rest = mon[:i] + ((a, exp - 1),) if exp != 1 else mon[:i]
            for dm, dc in _coefficients(atom_rule(a)).items():
                m = _reference_monomial_product(rest + mon[i + 1:], dm)
                acc[m] = acc.get(m, 0) + coeff * exp * dc
    return Expr(acc)


_DERIVATION_COORDS = [Jet("u", MultiIndex(mi)) for o in range(3)
                      for mi in all_multiindices(2, o)] + [
    Base(1), Base(2), Parameter("m"),
    Momentum("u", MultiIndex((0, 0)), 1),
    Momentum("u", MultiIndex((1, 0)), 2, MultiIndex((0, 1))),
    Momentum("u", MultiIndex((2, 0)), None, MultiIndex((1, 1)))]
# coordinates no draw of ``derivation_inputs`` holds
_ABSENT_COORDS = [Jet("v", MultiIndex((0, 0))), Jet("u", MultiIndex((3, 0))),
                  Base(3), Parameter("n"), Momentum("u", MultiIndex((0, 0)), 2)]


@st.composite
def derivation_inputs(draw):
    """Up to four monomials in n = 2 with Fraction coefficients and
    exponents up to 3 (down to -2 for the parameter), over jets, x1, x2, a
    parameter, momenta with and without base-derivative decorations and an
    opaque call whose arguments hold a jet and x1; and a coordinate among
    those atoms."""
    coords = _DERIVATION_COORDS
    inner = Expr.atom(draw(st.sampled_from(coords[:6])))
    atoms = coords + [OpaqueCall("U", (0, 1), (Expr.atom(Base(1)), inner))]
    parts = []
    for _ in range(draw(st.integers(0, 4))):
        term = Expr.const(draw(st.fractions(-3, 3, max_denominator=4)))
        for a in draw(st.lists(st.sampled_from(atoms), max_size=3)):
            exp = draw(st.integers(-2 if isinstance(a, Parameter) else 1, 3))
            term = term * Expr.atom(a) ** exp if exp >= 0 else \
                divide(term, Expr.atom(a) ** -exp)
        parts.append(term)
    return Expr.sum(parts), draw(st.sampled_from(coords))


@_KERNEL
@given(derivation_inputs(), st.integers(1, 2))
def test_derivations_match_the_general_leibniz_rule(inputs, lam):
    e, c = inputs
    got = total_derivative(e, lam)
    assert got == _leibniz_reference(e, lambda a: _atom_total(a, lam))
    _assert_canonical(got)
    got = partial_derivative(e, c)
    assert got == _leibniz_reference(e, lambda a: _atom_partial(a, c))
    _assert_canonical(got)


@_KERNEL
@given(derivation_inputs())
def test_gradient_matches_the_general_leibniz_rule(inputs):
    # every coordinate the draws can hold, inside opaque arguments too,
    # and coordinates none holds, in one gradient
    e, _ = inputs
    coords = _DERIVATION_COORDS + _ABSENT_COORDS
    got = gradient(e, coords)
    assert set(got) <= e.free_coordinates()
    assert not any(d.is_zero() for d in got.values())
    for c in coords:
        want = _leibniz_reference(e, lambda a: _atom_partial(a, c))
        assert got.get(c, ZERO) == want
        _assert_canonical(got.get(c, ZERO))
    assert gradient(e, []) == {}


def _substitute_reference(e, mapping):
    """``substitute`` as a sum of products: each term is its coefficient
    times the power of every factor's value, an unmapped atom standing for
    itself, and a negative power divides the product so far."""
    def term(mon, coeff):
        t = Expr.const(coeff)
        for a, exp in mon:
            if isinstance(a, OpaqueCall):
                val = Expr.atom(OpaqueCall(a.name, a.derivs, tuple(
                    _substitute_reference(arg, mapping) for arg in a.args)))
            else:
                val = mapping.get(a, Expr.atom(a))
            t = t * val ** exp if exp >= 0 else divide(t, val ** -exp)
        return t
    return Expr.sum(term(mon, coeff)
                    for mon, coeff in _coefficients(e).items())


_N = Expr.atom(Parameter("n"))


@st.composite
def substitutions(draw):
    """A mapping of some atoms of ``small_exprs``: jets and x1 (which the
    opaque call U(x1, u) holds) to sums whose products collide, a value
    and its negative among them so that terms cancel; and the parameter
    m, which those draws raise to negative powers, to a nonzero constant
    or a Laurent monomial in the parameters."""
    v = draw(colliding_sums())
    values = st.one_of(small_exprs(), colliding_sums(), st.just(v),
                       st.just(-v), st.just(Expr.atom(_U0)))
    mapping = {a: draw(values) for a in _ATOMS[:4] if draw(st.booleans())}
    if draw(st.booleans()):
        mapping[_M] = draw(st.sampled_from([
            Expr.const(Fraction(-3, 2)), Expr.const(2), 2 * _N,
            divide(Expr.const(Fraction(1, 3)), _N ** 2), _MASS ** 2,
            _MASS * _N]))
    return mapping


# U(x1, u[1,0]) next to U(x1, u): a substitution can reorder the two calls
# or make them one
_U_OF_U1 = Expr.atom(OpaqueCall("U", (0, 0), (Expr.atom(Base(1)),
                                              Expr.atom(_U1))))


@_KERNEL
@given(st.one_of(small_exprs(), colliding_sums()), st.integers(0, 2),
       substitutions())
def test_substitute_matches_the_product_of_values(e, k, mapping):
    e = e * _U_OF_U1 ** k
    got = substitute(e, mapping)
    assert got == _substitute_reference(e, mapping)
    _assert_canonical(got)


# -- the lazy hash: the hash and the sort key are computed on the first
# hash; equality compares the stored pairs

_BUILDS = {
    "Expr(terms)": lambda a, b: Expr(dict(reversed(list(
        _coefficients(a + b).items())))),
    "Expr.sum": lambda a, b: Expr.sum([a, b]),
    "+": lambda a, b: a + b,
    "*": lambda a, b: a * b,
    "partial_derivative": lambda a, b: partial_derivative(
        a * b, Jet("u", MultiIndex((1, 0)))),
    # x2 is no atom of the draws, so d/dx2 of x2 * (a*b + x2) is never zero
    "gradient": lambda a, b: gradient(
        Expr.atom(Base(2)) * (a * b + Expr.atom(Base(2))), [Base(2)])[Base(2)],
    "substitute": lambda a, b: substitute(a, {Base(1): b}),
    "pickle": lambda a, b: pickle.loads(pickle.dumps(a * b)),
    "deepcopy": lambda a, b: copy.deepcopy(a + b),
}


@_KERNEL
@given(small_exprs(), small_exprs(), st.sampled_from(sorted(_BUILDS)))
def test_lazy_hash_agrees_with_equality(a, b, name):
    build = _BUILDS[name]
    first, second = build(a, b), build(a, b)
    # a fresh expression has no hash yet; pickling it does not compute one
    assert not hasattr(first, "_hash") and not hasattr(first, "_cached_key")
    clone = pickle.loads(pickle.dumps(first))
    assert not hasattr(first, "_hash")
    assert first == second == clone
    assert hash(first) == hash(second) == hash(clone) == hash(first)
    copied = copy.deepcopy(first)
    assert copied == first and hash(copied) == hash(first)
    for x in (first, clone, copied):
        for slot in ("_terms", "_hash", "_cached_key"):
            with pytest.raises(AttributeError, match="Expr is immutable"):
                setattr(x, slot, None)


@_KERNEL
@given(small_exprs(), small_exprs())
def test_equality_is_equality_of_canonical_keys(a, b):
    # the builds of a + b, and those of a * b, are equal values from
    # different routes; the rest mostly differ from them
    values = [a, b, *(build(a, b) for build in _BUILDS.values())]
    for x in values:
        for y in values:
            assert (x == y) is (x._key() == y._key())
            assert (x != y) is (x._key() != y._key())


def test_equality_of_one_value_built_two_ways():
    u = Jet("u", MultiIndex((0, 0)))
    half = divide(Expr.atom(u), 2)
    same = Expr({((u, 1),): Fraction(1, 2)})
    assert half == same and half._key() == same._key()
    assert hash(half) == hash(same)
    for other in (Expr({((u, 1),): Fraction(1, 3)}), Expr.atom(u),
                  Expr.const(Fraction(1, 2))):
        assert half != other and half._key() != other._key()


# -- the representation: interned atoms, coefficients in stored form


@st.composite
def atom_builders(draw):
    """A function of no arguments that builds one atom from fresh values."""
    fld = draw(st.sampled_from(["u", "v"]))
    mi = tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)))
    n = len(mi)
    last = draw(st.integers(1, n))
    derivs = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    mu = draw(st.integers(1, 4))
    return draw(st.sampled_from([
        lambda: Base(mu),
        lambda: Jet(fld, MultiIndex(mi)),
        lambda: Momentum(fld, MultiIndex(mi), last, MultiIndex(derivs)),
        lambda: Momentum(fld, MultiIndex(mi)),
        lambda: Multiplier(mu),
        lambda: Parameter(fld * mu),
        lambda: OpaqueCall("U", (0, mu), (Expr.atom(Base(mu)),
                                          2 * Expr.atom(Jet(fld, MultiIndex(mi))))),
    ]))


@_KERNEL
@given(atom_builders())
def test_equal_construction_gives_one_atom(build):
    a = build()
    assert build() is a
    assert _akey(a) == a.sort_key()
    assert copy.copy(a) is a and copy.deepcopy(a) is a
    assert pickle.loads(pickle.dumps(a)) is a


_ATOM_FIELDS = [
    (Base, {"mu": 2}),
    (Jet, {"fld": "u", "mi": MultiIndex((1, 0))}),
    (Momentum, {"fld": "u", "mi": MultiIndex((1, 1)), "last": 2,
                "derivs": MultiIndex((0, 1))}),
    (Multiplier, {"a": 1}),
    (Parameter, {"name": "m"}),
    (OpaqueCall, {"name": "U", "derivs": (0, 1),
                  "args": (Expr.atom(Base(1)), Expr.const(2))}),
]


@pytest.mark.parametrize("cls,fields", _ATOM_FIELDS,
                         ids=[cls.__name__ for cls, _ in _ATOM_FIELDS])
def test_atom_keyword_construction_and_assignment_refusal(cls, fields):
    atom = cls(**fields)
    assert atom is cls(*fields.values())
    for name, value in fields.items():
        assert getattr(atom, name) == value
        with pytest.raises(AttributeError, match=f"{cls.__name__} is immutable"):
            setattr(atom, name, value)
        with pytest.raises(AttributeError, match=f"{cls.__name__} is immutable"):
            delattr(atom, name)
    with pytest.raises(AttributeError, match=f"{cls.__name__} is immutable"):
        atom.extra = 1
    assert atom._dsl == repr(atom) and atom._sort_key == atom.sort_key()
    with pytest.raises(TypeError):
        cls(*fields.values(), 0)
    with pytest.raises(TypeError):
        cls(*fields.values(), extra=0)


@_KERNEL
@given(st.integers(1, 3), st.data())
def test_order_one_symmetric_momentum_is_the_slot(n, data):
    mu = data.draw(st.integers(1, n))
    e_mu, zero = MultiIndex.unit(n, mu), MultiIndex.zero(n)
    slot = Momentum("u", zero, mu)
    assert Momentum("u", e_mu) is slot
    assert Momentum("u", e_mu, None, zero) is slot
    assert Momentum(fld="u", mi=tuple(e_mu)) is slot
    assert slot.mi == zero and slot.last == mu and slot.derivs == zero


@_KERNEL
@given(small_exprs(), small_exprs())
def test_opaque_call_with_equal_arguments_is_one_atom(e, f):
    def rebuilt(x):
        # an equal expression built afresh, its terms in reverse order
        return Expr(dict(reversed(list(_coefficients(x).items()))))
    a = OpaqueCall("W", (0, 1), (e, f))
    assert OpaqueCall("W", [0, 1], [rebuilt(e), rebuilt(f)]) is a
    assert pickle.loads(pickle.dumps(a)) is a
    assert OpaqueCall("W", (1, 0), (e, f)) is not a


# The printers' factor order as the key sort that the stable partition in
# ``_display_sorted`` replaced: parameters first, then atom kind, then key.
_DISPLAY_RANK = {Parameter: 0, Base: 1, Jet: 2, Momentum: 3, Multiplier: 4,
                 OpaqueCall: 5}


def _display_sorted_by_key(mon):
    return sorted(mon, key=lambda p: (_DISPLAY_RANK[type(p[0])], _akey(p[0])))


@_KERNEL
@given(st.lists(st.tuples(atom_builders(), st.integers(1, 3), st.booleans()),
                max_size=8))
def test_display_order_matches_the_key_sort(factors):
    term = Expr.const(3)
    for build, exp, negative in factors:
        a = build()
        if negative and isinstance(a, Parameter):
            term = divide(term, Expr.atom(a) ** exp)
        else:
            term = term * Expr.atom(a) ** exp
    ((mon, _),) = term._terms.items()
    assert list(_display_sorted(mon)) == _display_sorted_by_key(mon)


# -- printers: the per-call factor table against the term-by-term printers
# it replaced, kept here as references.  Each reference orders the terms by
# nested atom sort keys, puts a monomial's factors in display order by a key
# sort and forms every factor's text where it occurs.

def _reference_join_terms(e, render):
    if e.is_zero():
        return "0"
    out = []
    for mon, coeff in sorted(_coefficients(e).items(), key=lambda mc: tuple(
            (_akey(a), x) for a, x in mc[0])):
        out += [" - " if coeff < 0 else " + ", render(mon, coeff)]
    out[0] = "-" if out[0] == " - " else ""
    return "".join(out)


def _reference_factor_str(a, e):
    return a._dsl if e == 1 else f"{a._dsl}^{_digits(e, 'exponent')}"


def _reference_term_dsl(mon, coeff):
    num_parts, den_parts = [], []
    for a, x in _display_sorted_by_key(mon):
        if x > 0:
            num_parts.append(_reference_factor_str(a, x))
        elif x < 0:
            den_parts.append(_reference_factor_str(a, -x))
    if abs(coeff.numerator) != 1 or not num_parts:
        num_parts.insert(0, _digits(abs(coeff.numerator)))
    if coeff.denominator != 1:
        den_parts.insert(0, _digits(coeff.denominator))
    s = "*".join(num_parts)
    if den_parts:
        s += "/" + (den_parts[0] if len(den_parts) == 1
                    else "(" + "*".join(den_parts) + ")")
    return s


def _reference_dsl(e):
    return _reference_join_terms(e, _reference_term_dsl)


def _reference_atom_latex(a):
    if isinstance(a, OpaqueCall):
        return (f"{a.marked_name()}"
                f"({', '.join(_reference_latex(arg) for arg in a.args)})")
    return atom_latex(a)


def _reference_term_latex(mon, coeff):
    factors = []
    for a, exp in _display_sorted_by_key(mon):
        s = _reference_atom_latex(a)
        if exp != 1:
            s = f"{s}^{{{_digits(exp, 'exponent')}}}"
        factors.append(s)
    body = "\\,".join(factors)
    if abs(coeff) != 1 or not factors:
        body = _coeff_latex(abs(coeff.numerator), coeff.denominator) + (
            "\\," + body if body else "")
    return body


def _reference_latex(e):
    return _reference_join_terms(e, _reference_term_latex)


def _reference_join_form(a, render):
    if a.is_zero():
        return "0"
    return " + ".join(render(facs, coeff) for facs, coeff in sorted(
        a.terms.items(), key=lambda fc: tuple(f.sort_key() for f in fc[0])))


def _reference_form_term_str(facs, coeff):
    if not facs:
        return f"({_reference_dsl(coeff)})"
    return f"({_reference_dsl(coeff)}) " + " ∧ ".join(
        f"d({f!r})" for f in facs)


def _reference_form_term_latex(facs, coeff):
    c = _reference_latex(coeff)
    if not facs:
        return c
    wedge_part = " \\wedge ".join(
        f"\\mathrm{{d}}{_reference_atom_latex(f)}" for f in facs)
    return (f"\\left({c}\\right) {wedge_part}" if " " in c or "+" in c
            else f"{c}\\, {wedge_part}")


_K = Parameter("k")
# a call nested in a call's argument, with a derivative marker, next to a
# parameter
_V = OpaqueCall("V", (1, 0), (Expr.atom(_U) * _MASS + 1,
                              Expr.atom(Base(2))))
_PRINT_ATOMS = (Base(1), Base(2), Jet("u", MultiIndex((0, 0))),
                Jet("u", MultiIndex((1, 1))),
                Momentum("u", MultiIndex((1, 0)), 2, MultiIndex((0, 1))),
                Multiplier(1), _U, _V)


@st.composite
def printed_exprs(draw):
    """Sums of up to six terms over coordinates of every kind, two
    parameters at powers from -3 to 3 and two opaque calls, one nested in
    the other; exponents up to 4 and Fraction coefficients."""
    parts = []
    for _ in range(draw(st.integers(0, 6))):
        term = Expr.const(draw(st.fractions(-40, 40, max_denominator=12)))
        for a in draw(st.lists(st.sampled_from(_PRINT_ATOMS), max_size=4)):
            term = term * Expr.atom(a) ** draw(st.integers(1, 4))
        for p in (_M, _K):
            x = draw(st.integers(-3, 3))
            term = (term * Expr.atom(p) ** x if x >= 0
                    else divide(term, Expr.atom(p) ** -x))
        parts.append(term)
    return Expr.sum(parts)


_PRINT_PROBLEM = problem(n=2, k=2, params=("m", "k"),
                         opaques={"U": 2, "V": 2})


@_KERNEL
@given(st.one_of(printed_exprs(), small_exprs(), colliding_sums()))
def test_printers_match_the_term_by_term_references(e):
    text = to_dsl(e)
    assert text == _reference_dsl(e)
    assert to_latex(e) == _reference_latex(e)
    assert parse_expr(text, _PRINT_PROBLEM, max_jet_order=12) == e


_FORM_FACTORS = (Base(1), Base(2), Jet("u", MultiIndex((0, 0))),
                 Jet("u", MultiIndex((1, 0))),
                 Momentum("u", MultiIndex((0, 0)), 1))


@_KERNEL
@given(st.integers(0, 3), st.lists(st.tuples(
    st.permutations(_FORM_FACTORS), st.one_of(printed_exprs(),
                                              colliding_sums())),
    max_size=5))
def test_form_printers_match_the_term_by_term_references(degree, pairs):
    form = ExteriorForm.sum(degree, [(facs[:degree], c) for facs, c in pairs])
    assert form_to_str(form) == _reference_join_form(
        form, _reference_form_term_str)
    assert form_to_latex(form) == _reference_join_form(
        form, _reference_form_term_latex)


_BIG = 10 ** 4400        # past the interpreter's digit limit


@pytest.mark.parametrize("build", [
    lambda x, u, m: Expr.const(_BIG) * u,
    lambda x, u, m: Expr.const(Fraction(1, _BIG)) * u,
    lambda x, u, m: u ** _BIG,
    lambda x, u, m: divide(u, m ** _BIG),
    # x1 prints before u: the first offending term decides, and in a term
    # the factors in display order (parameters first) before the coefficient
    lambda x, u, m: Expr.const(_BIG) * x + u ** _BIG,
    lambda x, u, m: x ** _BIG + Expr.const(_BIG) * u,
    lambda x, u, m: u ** (_BIG * 10) * m ** _BIG + x,
    lambda x, u, m: Expr.const(_BIG) * u ** (_BIG * 10) * divide(
        x, m ** (_BIG * 100)),
])
def test_digit_limit_errors_match_the_references(build):
    e = build(Expr.atom(Base(1)), Expr.atom(Jet("u", MultiIndex((0, 0)))),
              _MASS)
    for printer, reference in ((to_dsl, _reference_dsl),
                               (to_latex, _reference_latex)):
        with pytest.raises(ExprError) as want:
            reference(e)
        with pytest.raises(ExprError) as got:
            printer(e)
        assert str(got.value) == str(want.value)


def test_coefficients_in_stored_form():
    half = Expr.const(Fraction(1, 2))
    for e, want in ((half + half, 1), (half * 4, 2), (Expr.const(Fraction(6, 3)), 2)):
        terms, den = e.parts()
        ((mon, c),) = terms.items()
        assert mon == () and type(c) is int and c == want and den == 1
    assert half.parts() == ({(): 1}, 2)
    assert type(Expr.const(3).as_fraction()) is Fraction
    assert half.as_fraction() == Fraction(1, 2)
    assert type(ZERO.as_fraction()) is Fraction and ZERO.as_fraction() == 0
    # any numbers.Rational comes in through its numerator and denominator,
    # stored as plain ints in lowest terms
    x = jet("u", 0)
    X = ((Jet("u", MultiIndex((0,))), 1),)
    for value, const, plus_x in (
            (-7, ({(): -7}, 1), ({X: 1, (): -7}, 1)),
            (0, ({}, 1), ({X: 1}, 1)),
            (True, ({(): 1}, 1), ({X: 1, (): 1}, 1)),
            (False, ({}, 1), ({X: 1}, 1)),
            (Fraction(-6, 4), ({(): -3}, 2), ({X: 2, (): -3}, 2)),
            (Fraction(6, 3), ({(): 2}, 1), ({X: 1, (): 2}, 1))):
        for e, want in ((Expr.const(value), const), (x + value, plus_x),
                        (value + x, plus_x)):
            assert e.parts() == want, value
            terms, den = e.parts()
            assert all(type(c) is int for c in terms.values())
            assert type(den) is int
    # a float or a Decimal is refused, as a coefficient and as an operand
    for bad in (0.5, Decimal("0.5")):
        with pytest.raises(TypeError):
            Expr({(): bad})
        with pytest.raises(TypeError):
            Expr.const(bad)
        with pytest.raises(TypeError):
            x + bad
        with pytest.raises(TypeError):
            bad + x
        with pytest.raises(TypeError):
            x * bad


def test_quotient_step_stays_exact():
    # int / int would be a float: a/3 must come out as the int pair (1, 3)
    # from a^2 + a = (a/3)(3a + 3)
    a = Expr.atom(Parameter("a"))
    q = divide(a ** 2 + a, 3 * a + 3)
    assert q == a / 3
    terms, den = q.parts()
    ((mon, c),) = terms.items()
    assert mon == ((Parameter("a"), 1),)
    assert type(c) is int and type(den) is int and (c, den) == (1, 3)


class TestParser:
    def test_mechanics_lagrangian(self):
        e = parse_expr("m/2 * q[1]^2 - U(x1, q)", MECH)
        m = Expr.atom(Parameter("m"))
        U = Expr.atom(OpaqueCall("U", (0, 0), (Expr.atom(Base(1)), jet("q", 0))))
        assert e == divide(m, 2) * jet("q", 1) ** 2 - U

    def test_two_dim_jets(self):
        prob = problem(n=2, k=2)
        e = parse_expr("u[2,0] + u[0,2]", prob)
        assert e == jet("u", 2, 0) + jet("u", 0, 2)

    def test_jet_order_guard(self):
        with pytest.raises(ParseError, match="exceeds k"):
            parse_expr("u[3]", problem(k=2))
        # relaxed bound admits report expressions
        assert parse_expr("u[3]", problem(k=2), max_jet_order=12) == jet("u", 3)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse_expr("w + 1", problem())

    def test_syntax_error_position(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_expr("u[1] + * 2", problem())

    def test_momentum_atoms(self):
        prob = problem(n=2, k=2)
        e = parse_expr("p[u;1,0;2]", prob)
        assert e == mom("u", (1, 0), 2)
        assert parse_expr("p[u;2,0]", prob) == mom("u", (2, 0))
        assert parse_expr("p[u;;1;0,1]", prob) == mom("u", (0, 0), 1, derivs=(0, 1))

    def test_symmetric_order_one_is_slot(self):
        assert parse_expr("p[u;1]", problem(k=1)) == mom("u", (0,), 1)

    def test_multiplier(self):
        e = parse_expr("lam[1] * u", problem())
        assert e == Expr.atom(__import__("jetcalc").Multiplier(1)) * jet("u", 0)

    def test_division_rules(self):
        prob = problem(params=("m",))
        assert parse_expr("u/m", prob) == divide(jet("u", 0), Expr.atom(Parameter("m")))
        with pytest.raises(ParseError):
            parse_expr("1/u", prob)


class TestRoundTrip:
    CASES = [
        ("m/2*q[1]^2 - U(x1,q)", MECH),
        ("1/2*p[q;;1]^2/m + U(x1,q)", MECH),
        ("u[2,0]*u[0,2] - 3*u[1,1]^2 + x2", problem(n=2, k=2)),
        ("p[u;2,0] + p[u;1,0;2;0,1] - lam[2]", problem(n=2, k=2)),
        ("U_{,12}(x1, q) * q[1]", MECH),
        ("0", MECH),
    ]

    @pytest.mark.parametrize("text,prob", CASES)
    def test_print_parse_identity(self, text, prob):
        e = parse_expr(text, prob, max_jet_order=12)
        printed = to_dsl(e)
        assert parse_expr(printed, prob, max_jet_order=12) == e
        # printing is a fixed point on canonical forms
        assert to_dsl(parse_expr(printed, prob, max_jet_order=12)) == printed


class TestSubstitute:
    def test_opaque_args_substituted(self):
        U = Expr.atom(OpaqueCall("U", (0, 0), (Expr.atom(Base(1)), jet("q", 0))))
        got = substitute(U, {Jet("q", MultiIndex((0,))): Expr.atom(Base(1)) ** 2})
        want = Expr.atom(OpaqueCall("U", (0, 0),
                                    (Expr.atom(Base(1)), Expr.atom(Base(1)) ** 2)))
        assert got == want

    def test_polynomial_substitution(self):
        e = jet("u", 1) ** 2 + jet("u", 0)
        got = substitute(e, {Jet("u", MultiIndex((1,))): Expr.const(3),
                             Jet("u", MultiIndex((0,))): Expr.const(2)})
        assert got == Expr.const(11)


class TestDivisionRoundTrip:
    def test_product_divided_by_factor(self):
        # q * den / den == q over random multivariate draws; exercises the
        # graded-lex monomial order used by the division algorithm
        import random
        rng = random.Random(44)
        a, b, c = (Parameter(s) for s in "abc")
        atoms = [a, b, c, Jet("u", MultiIndex((0,))), Jet("u", MultiIndex((1,)))]
        for _ in range(40):
            def rand_poly(terms):
                e = Expr.const(0)
                for _ in range(terms):
                    mon = Expr.const(rng.randint(-4, 4))
                    for _ in range(rng.randint(0, 3)):
                        mon = mon * Expr.atom(rng.choice(atoms))
                    e = e + mon
                return e
            q = rand_poly(3)
            den = rand_poly(3)
            if den.is_zero():
                continue
            assert divide(q * den, den) == q

    def test_inexact_raises(self):
        a, b = Expr.atom(Parameter("a")), Expr.atom(Parameter("b"))
        with pytest.raises(ExprError, match="inexact|non-constant"):
            divide(a ** 2 + b, a + b)
        # every monomial divides, but the lead coefficient 2 does not
        with pytest.raises(ExprError, match="^inexact division: "):
            divide(a, 2 * a + 3)

    def test_laurent_quotients(self):
        # the numerator's negative powers and the divisor's parameter
        # content once made these refuse as inexact, and the divisor's own
        # negative powers as unsupported
        a, w = Expr.atom(Parameter("a")), jet("w", 0)
        assert divide(w + w / a, 1 + a) == w / a
        assert divide(1 + a, a + a ** 2) == ONE / a
        assert divide(w + w / a, 1 + ONE / a) == w


@st.composite
def polynomial_divisors(draw):
    """Sums of up to four terms over jets and x1 with exponents 0-2 and
    the parameters m and a with exponents -2..2, Fraction coefficients
    among them, so that every path of ``divide`` may take them."""
    atoms = (*_ATOMS[:4], Parameter("m"), Parameter("a"))
    low = [0] * 4 + [-2] * 2
    mons = draw(st.lists(st.tuples(*(st.integers(lo, 2) for lo in low)),
                         min_size=1, max_size=4))
    return Expr.sum(Expr.const(draw(st.fractions(-3, 3, max_denominator=3)))
                    * functools.reduce(operator.mul, (
                        Expr.atom(a) ** k if k >= 0
                        else divide(ONE, Expr.atom(a) ** -k)
                        for a, k in zip(atoms, exps)), ONE)
                    for exps in mons)


@_KERNEL
@given(small_exprs(), polynomial_divisors())
def test_product_divided_by_factor_is_the_laurent_factor(q, den):
    if den.is_zero():
        return
    assert divide(q * den, den) == q


_ORACLE_ATOMS = (*_ATOMS[:4], Parameter("m"), Parameter("a"))


def _polynomial_draw(max_terms, min_terms=1):
    """(Fraction coefficient, exponents) pairs over ``_ORACLE_ATOMS``,
    exponents 0-2: a polynomial to build both in the kernel and in sympy."""
    return st.lists(st.tuples(st.fractions(-3, 3, max_denominator=3),
                              st.tuples(*(st.integers(0, 2)
                                          for _ in _ORACLE_ATOMS))),
                    min_size=min_terms, max_size=max_terms)


@st.composite
def _divisor_draw(draw):
    """A draw of two or three terms in which each parameter's exponent is
    0 in one drawn term, chosen per parameter: every divisor whose
    parameters each miss some term is reachable, ``m*u1 + a*x1`` among
    them, and the test's ``assume``s rarely reject."""
    terms = draw(_polynomial_draw(3, 2))
    for p in range(4, len(_ORACLE_ATOMS)):
        i = draw(st.integers(0, len(terms) - 1))
        c, exps = terms[i]
        terms[i] = (c, exps[:p] + (0,) + exps[p + 1:])
    return terms


@_KERNEL
@given(_divisor_draw(), _polynomial_draw(4), st.booleans())
def test_divide_refuses_exactly_when_sympy_leaves_a_remainder(d, n, product):
    """``divide`` by a multi-term polynomial over jets, x1 and two
    parameters against ``sympy.div`` over QQ: refused as inexact exactly
    when sympy leaves a remainder, and otherwise q * D == N.  Every
    parameter is absent from some term of D, so D has no parameter content
    and a Laurent quotient is a polynomial one; N is a random polynomial
    or one times D."""
    import sympy
    syms = sympy.symbols(f"s0:{len(_ORACLE_ATOMS)}")

    def kernel(draw):
        return Expr.sum(Expr.const(c) * functools.reduce(operator.mul, (
            Expr.atom(a) ** k for a, k in zip(_ORACLE_ATOMS, exps)), ONE)
            for c, exps in draw)

    def oracle(draw):
        return sum(sympy.Rational(c.numerator, c.denominator)
                   * sympy.Mul(*(x ** k for x, k in zip(syms, exps)))
                   for c, exps in draw)

    D, Ds = kernel(d), oracle(d)
    terms, _ = D.parts()
    assume(len(terms) >= 2)
    assume(all(any(p not in dict(m) for m in terms)
               for p in _ORACLE_ATOMS[4:]))
    N, Ns = kernel(n), oracle(n)
    if product:
        N, Ns = N * D, sympy.expand(Ns * Ds)
    _, r = sympy.div(Ns, Ds, *syms, domain="QQ")
    if r == 0:
        assert divide(N, D) * D == N
    else:
        with pytest.raises(ExprError, match="^inexact division: "):
            divide(N, D)


# -- the kernel against a per-term Fraction reference.  A reference
# polynomial is a dict {monomial: Fraction} without zeros, combined here
# with no kernel arithmetic; the kernel's results are read back through
# ``Expr.parts`` and must be the same dicts, in lowest terms.

_RA = Parameter("a")
# x1/2 and x1/3 in calls' arguments: a chain rule through them brings a
# denominator, and a derivation's rules meet over the lcm 6
_X1 = Expr.atom(Base(1))
_RAT_CALLS = (OpaqueCall("U", (0, 0), (_X1 / 2, Expr.atom(_U0))),
              OpaqueCall("V", (0,), (_X1 / 3 + Expr.atom(_U1),)))
_RAT_ATOMS = (_U0, _U1, Base(1), Momentum("u", MultiIndex((0, 0)), 1),
              *_RAT_CALLS)
_RAT_COORDS = (_U0, _U1, Base(1), Base(2), _M, _RA,
               Momentum("u", MultiIndex((0, 0)), 1))


def _ref_monomial(*mons):
    """The product of monomials, as a sorted tuple without zero powers."""
    exps: dict = {}
    for mon in mons:
        for a, x in mon:
            exps[a] = exps.get(a, 0) + x
    return tuple(sorted(((a, x) for a, x in exps.items() if x),
                        key=lambda f: _akey(f[0])))


def _ref_sum(*polys):
    acc: dict = {}
    for p in polys:
        for mon, c in p.items():
            acc[mon] = acc.get(mon, 0) + c
    return {mon: c for mon, c in acc.items() if c}


def _ref_mul(p, q):
    return _ref_sum(*({_ref_monomial(m1, m2): c1 * c2}
                      for m1, c1 in p.items() for m2, c2 in q.items()))


def _ref_pow(p, k):
    return functools.reduce(_ref_mul, [p] * k, {(): Fraction(1)})


def _ref_atom(a):
    return {((a, 1),): Fraction(1)}


def _ref_derive(p, rule):
    """Leibniz term by term: c * mon goes to the sum over its factors a^x
    of c * x * (mon / a) * rule(a)."""
    return _ref_sum(*(_ref_mul({_ref_monomial(mon, ((a, -1),)): c * x},
                               rule(a))
                      for mon, c in p.items() for a, x in mon))


def _ref_chain(a, derive):
    """sum_i derive(arg_i) * a_{,i} through the opaque call ``a``."""
    return _ref_sum(*(_ref_mul(derive(_coefficients(arg)),
                               _ref_atom(a.bump(i)))
                      for i, arg in enumerate(a.args)))


def _ref_total_rule(lam):
    def rule(a):
        if isinstance(a, Base):
            return {(): Fraction(1)} if a.mu == lam else {}
        if isinstance(a, Jet):
            return _ref_atom(Jet(a.fld, a.mi.bump(lam)))
        if isinstance(a, Momentum):
            return _ref_atom(Momentum(a.fld, a.mi, a.last, a.derivs.bump(lam)))
        if isinstance(a, OpaqueCall):
            return _ref_chain(a, lambda p: _ref_derive(p, rule))
        return {}
    return rule


def _ref_partial_rule(c):
    def rule(a):
        if a is c:
            return {(): Fraction(1)}
        if isinstance(a, OpaqueCall):
            return _ref_chain(a, lambda p: _ref_derive(p, rule))
        return {}
    return rule


def _ref_substitute(p, mapping):
    """Each term is its coefficient times the power of every factor's
    value; a negative power divides by the value's power, which is one
    term for every parameter the draws map."""
    out = []
    for mon, c in p.items():
        t = {(): c}
        for a, x in mon:
            if isinstance(a, OpaqueCall):
                val = _ref_atom(OpaqueCall(a.name, a.derivs, tuple(
                    Expr(_ref_substitute(_coefficients(arg), mapping))
                    for arg in a.args)))
            else:
                val = mapping.get(a, _ref_atom(a))
            if x >= 0:
                t = _ref_mul(t, _ref_pow(val, x))
            else:
                ((vm, vc),) = _ref_pow(val, -x).items()
                t = _ref_mul(t, {_ref_monomial(tuple((b, -y) for b, y in vm)):
                                 1 / vc})
        out.append(t)
    return _ref_sum(*out)


@st.composite
def rational_polys(draw, max_terms=5):
    """Reference polynomials of up to ``max_terms`` terms over jets, x1, a
    momentum and calls of x1/2 and x1/3, with the parameters m and a at
    powers -2..2 (so in denominators too) and Fraction coefficients whose
    denominators have uneven prime factors."""
    p: dict = {}
    for _ in range(draw(st.integers(0, max_terms))):
        factors = [(a, draw(st.integers(1, 2))) for a in draw(
            st.lists(st.sampled_from(_RAT_ATOMS), max_size=3, unique=True))]
        factors += [(q, draw(st.integers(-2, 2))) for q in (_M, _RA)]
        p = _ref_sum(p, {_ref_monomial(factors):
                         draw(st.fractions(-40, 40, max_denominator=36))})
    return p


@st.composite
def rational_mappings(draw):
    """Values for some of the jets and x1 (x1 and u sit in the call's
    arguments), and for m a nonzero term in a at a power -2..2."""
    mapping = {a: draw(rational_polys(3)) for a in (_U0, _U1, Base(1))
               if draw(st.booleans())}
    if draw(st.booleans()):
        c = draw(st.fractions(-5, 5, max_denominator=6).filter(bool))
        mapping[_M] = {_ref_monomial(((_RA, draw(st.integers(-2, 2))),)): c}
    return mapping


@_KERNEL
@given(rational_polys(), rational_polys(), st.integers(0, 4),
       st.integers(1, 2), rational_mappings(),
       st.sampled_from([{(): Fraction(-3, 4)}, {((_M, 2),): Fraction(5, 6)},
                        {_ref_monomial(((_M, -1), (_RA, 1))): Fraction(-7)}]))
def test_kernel_matches_the_per_term_fraction_reference(p, q, k, lam, mapping,
                                                        r):
    a, b = Expr(p), Expr(q)
    assert _coefficients(a) == p and _coefficients(b) == q
    got = {
        "Expr(terms)": (a, p),
        "+": (a + b, _ref_sum(p, q)),
        "-": (a - b, _ref_sum(p, {m: -c for m, c in q.items()})),
        "Expr.sum": (Expr.sum([a, b, Fraction(1, 3), a]),
                     _ref_sum(p, q, {(): Fraction(1, 3)}, p)),
        "*": (a * b, _ref_mul(p, q)),
        "**": (a ** k, _ref_pow(p, k)),
        "total_derivative": (total_derivative(a, lam),
                             _ref_derive(p, _ref_total_rule(lam))),
        "total_divergence": (total_divergence((a, b)), _ref_sum(
            _ref_derive(p, _ref_total_rule(1)),
            _ref_derive(q, _ref_total_rule(2)))),
        "substitute": (substitute(a, {c: Expr(v) for c, v in mapping.items()}),
                       _ref_substitute(p, mapping)),
        "divide by a term": (divide(a, Expr(r)), _ref_mul(p, {
            _ref_monomial(tuple((x, -y) for x, y in m)): 1 / c
            for m, c in r.items()})),
    }
    # Under D_lam the rule of the call with x1/2 has denominator 2 and the
    # one with x1/3 denominator 3, so deriving their product meets both
    # rules over 6; a rule kept rescaled by it would fail a's second round.
    total_derivative(Expr.atom(_RAT_CALLS[0]) * Expr.atom(_RAT_CALLS[1]), lam)
    got["total_derivative after a denominator grew"] = (
        total_derivative(a, lam), got["total_derivative"][1])
    grad = gradient(a, _RAT_COORDS)
    for c in _RAT_COORDS:
        got[f"gradient {c!r}"] = (grad.get(c, ZERO),
                                  _ref_derive(p, _ref_partial_rule(c)))
    if q:
        got["divide"] = (divide(Expr(_ref_mul(p, q)), b), p)
    for name, (e, want) in got.items():
        assert _coefficients(e) == want, name
        _assert_canonical(e)
        assert to_dsl(e) == _reference_dsl(e), name
        assert to_latex(e) == _reference_latex(e), name
    with pytest.raises(AttributeError, match="Expr is immutable"):
        a._den = 1


@_KERNEL
@given(rational_polys(max_terms=4))
def test_printers_rank_many_terms_like_the_references(p):
    # a cube of a sum of up to eight terms has up to 120, mostly past
    # _RANK_MIN_TERMS, where the printers rank the factors first
    e = Expr(p) + Expr.atom(Base(2)) / 3 + Expr.atom(_U1) * _MASS \
        + Expr.const(Fraction(5, 7)) * Expr.atom(_U0) ** 2 - 1
    e = e ** 3
    assert to_dsl(e) == _reference_dsl(e)
    assert to_latex(e) == _reference_latex(e)

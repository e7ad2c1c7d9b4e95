"""Exterior algebra: wedge, d, contraction, pullback."""

import functools
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from jetcalc import (Base, Expr, Jet, Momentum, MultiIndex, Multiplier,
                     OpaqueCall, Parameter)
from jetcalc.expr import ZERO, divide
from jetcalc.forms import (ExteriorForm, FormsError, SectionData,
                           exterior_derivative, interior_product,
                           pullback_section, wedge)

T = Base(1)
Q = Jet("q", MultiIndex((0,)))
P = Momentum("q", MultiIndex((0,)), 1)


def d(c):
    return ExteriorForm.d_coordinate(c)


def scalar(e):
    return ExteriorForm.scalar(e)


class TestWedge:
    def test_antisymmetry_kills_square(self):
        assert wedge(d(T), d(T)).is_zero()

    def test_sign_rule(self):
        assert wedge(d(P), d(Q)) == -(wedge(d(Q), d(P)))

    def test_bilinearity(self):
        q = Expr.atom(Q)
        lhs = wedge(d(Q).scale(q), d(T))
        rhs = wedge(d(Q), d(T)).scale(q)
        assert lhs == rhs


class TestExteriorDerivative:
    def test_hamiltonian_two_form(self):
        # d(p dq - H dt) = dp ^ dq - dH ^ dt with dH expanded
        m = Expr.atom(Parameter("m"))
        U = Expr.atom(OpaqueCall("U", (0, 0), (Expr.atom(T), Expr.atom(Q))))
        H = divide(Expr.atom(P) ** 2, 2 * m) + U
        theta = d(Q).scale(Expr.atom(P)) - d(T).scale(H)
        got = exterior_derivative(theta)
        dH = ExteriorForm(1, {
            (T,): Expr.atom(OpaqueCall("U", (1, 0), (Expr.atom(T), Expr.atom(Q)))),
            (Q,): Expr.atom(OpaqueCall("U", (0, 1), (Expr.atom(T), Expr.atom(Q)))),
            (P,): divide(Expr.atom(P), m),
        })
        want = wedge(d(P), d(Q)) - wedge(dH, d(T))
        assert got == want

    def test_dd_of_coordinate(self):
        assert exterior_derivative(d(Q)).is_zero()

    def test_d_of_square(self):
        got = exterior_derivative(scalar(Expr.atom(Q) ** 2))
        assert got == d(Q).scale(2 * Expr.atom(Q))

    def test_dd_zero_random(self):
        rng = random.Random(3)
        coords = [T, Q, P, Jet("q", MultiIndex((1,)))]
        for _ in range(20):
            coeff = Expr.const(0)
            for _ in range(3):
                mon = Expr.const(rng.randint(-3, 3))
                for _ in range(rng.randint(0, 2)):
                    mon = mon * Expr.atom(rng.choice(coords))
                coeff = coeff + mon
            deg = rng.randint(0, 2)
            facs = tuple(rng.sample(coords, deg))
            a = ExteriorForm(deg, {facs: coeff})
            assert exterior_derivative(exterior_derivative(a)).is_zero()


class TestInteriorProduct:
    def test_duality(self):
        X = {P: Expr.const(1)}
        assert interior_product(X, wedge(d(P), d(Q))) == d(Q)

    def test_sign(self):
        X = {Q: Expr.const(1)}
        assert interior_product(X, wedge(d(P), d(Q))) == -d(P)

    def test_zero_pairing(self):
        X = {Q: Expr.const(1)}
        assert interior_product(X, d(T)).is_zero()

    def test_double_contraction_vanishes(self):
        rng = random.Random(5)
        coords = [T, Q, P]
        omega = wedge(wedge(d(T), d(Q)), d(P))
        for _ in range(10):
            draws = [(c, rng.randint(-2, 2)) for c in coords]
            X = {c: Expr.const(v) for c, v in draws if v}
            once = interior_product(X, omega)
            assert interior_product(X, once).is_zero()


class TestPullback:
    def test_chain_rule(self):
        sigma = SectionData({Q: Expr.atom(T) ** 2}, n=1)
        assert pullback_section(d(Q), sigma) == d(T).scale(2 * Expr.atom(T))

    def test_constant_section_kills_two_form(self):
        sigma = SectionData({Q: Expr.const(1), P: Expr.const(2)}, n=1)
        assert pullback_section(wedge(d(P), d(Q)), sigma).is_zero()

    def test_base_forms_fixed(self):
        x1, x2 = Base(1), Base(2)
        sigma = SectionData({Jet("u", MultiIndex((0, 0))): Expr.atom(x1) * Expr.atom(x2)},
                            n=2)
        a = wedge(d(x1), d(x2))
        assert pullback_section(a, sigma) == a

    @pytest.mark.parametrize("key", [
        T, Parameter("m"), Multiplier(1), OpaqueCall("U", (0,), (Expr.atom(T),)),
    ], ids=["base", "parameter", "multiplier", "call"])
    def test_key_that_is_no_fibre_slot(self, key):
        # refused before the slot's multi-index is read (an AttributeError)
        with pytest.raises(FormsError, match="fibre slots only"):
            SectionData({key: Expr.const(2)}, n=1)

    def test_missing_assignment(self):
        sigma = SectionData({Q: Expr.atom(T)}, n=1)
        with pytest.raises(FormsError, match="missing assignment"):
            pullback_section(d(P), sigma)

    def test_commutes_with_wedge_and_d(self):
        rng = random.Random(11)
        x1, x2 = Base(1), Base(2)
        u = Jet("u", MultiIndex((0, 0)))
        ux = Jet("u", MultiIndex((1, 0)))
        for _ in range(10):
            def rand_value():
                e = Expr.const(0)
                for _ in range(2):
                    e = e + Expr.const(rng.randint(-2, 2)) * \
                        Expr.atom(x1) ** rng.randint(0, 2) * \
                        Expr.atom(x2) ** rng.randint(0, 1)
                return e

            sigma = SectionData({u: rand_value(), ux: rand_value()}, n=2)
            coeff = Expr.atom(u) * Expr.const(rng.randint(-2, 2)) + Expr.atom(ux)
            a = ExteriorForm(1, {(u,): coeff})
            b = ExteriorForm(1, {(x1,): Expr.atom(ux), (ux,): Expr.const(1)})
            assert pullback_section(wedge(a, b), sigma) == \
                wedge(pullback_section(a, sigma), pullback_section(b, sigma))
            assert pullback_section(exterior_derivative(a), sigma) == \
                exterior_derivative(pullback_section(a, sigma))


class TestConstruction:
    def test_mixed_degree_rejected(self):
        with pytest.raises(FormsError):
            ExteriorForm(1, {(): Expr.const(1)})

    def test_no_parameter_differentials(self):
        with pytest.raises(FormsError):
            d(Parameter("m"))

    def test_repeated_factor_dropped(self):
        assert ExteriorForm(2, {(T, T): Expr.const(5)}).is_zero()


# -- the one form builder against pairwise addition

_FACTORS = (T, Base(2), Q, Jet("q", MultiIndex((1,))), P)
_COEFFS = (Expr.const(1), Expr.const(-1), Expr.const(2), Expr.atom(Q),
           -Expr.atom(Q), Expr.atom(T) * Expr.atom(P))


def _reference_terms(pairs) -> dict:
    """Sort by counting inversions, drop repeats, add coefficients one by one."""
    acc: dict = {}
    for factors, coeff in pairs:
        if len(set(factors)) < len(factors):
            continue
        keys = [f.sort_key() for f in factors]
        inversions = sum(keys[i] > keys[j] for i in range(len(keys))
                         for j in range(i + 1, len(keys)))
        facs = tuple(sorted(factors, key=lambda f: f.sort_key()))
        acc[facs] = acc.get(facs, ZERO) + (-coeff if inversions % 2 else coeff)
    return {f: c for f, c in acc.items() if not c.is_zero()}


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 3), st.data())
def test_sum_matches_pairwise_addition(degree, data):
    pairs = []
    for _ in range(data.draw(st.integers(0, 6))):
        factors = tuple(data.draw(st.lists(st.sampled_from(_FACTORS),
                                           min_size=degree, max_size=degree)))
        coeff = data.draw(st.sampled_from(_COEFFS))
        pairs.append((factors, coeff))
        # the same factors again, permuted, with the opposite coefficient
        if data.draw(st.booleans()):
            pairs.append((tuple(data.draw(st.permutations(factors))), -coeff))
    got = ExteriorForm.sum(degree, pairs)
    assert got == functools.reduce(
        operator.add, (ExteriorForm(degree, {f: c}) for f, c in pairs),
        ExteriorForm.zero(degree))
    assert got.degree == degree
    assert got.terms == _reference_terms(pairs)

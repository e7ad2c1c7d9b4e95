"""Vertical-field prolongation and polynomial polarization."""

import random
from fractions import Fraction

import pytest

from jetcalc import (Base, Expr, Jet, LagrangianProblem, MultiIndex,
                     OpaqueCall, Parameter, partial_derivative, to_dsl,
                     total_derivative_multi)
from jetcalc.expr import ZERO
from jetcalc.forms import holonomic_section
from jetcalc.multiindex import multiindices_up_to
from jetcalc.prolongation import (ProlongationError, gram_matrix,
                                  homogeneous_degree, polarize,
                                  prolong_vertical_field, resymmetrize)
from jetcalc.randgen import (random_polynomial, random_section_profiles,
                             random_vertical_coefficient)

MI = MultiIndex


def jet(fld, *mi):
    return Expr.atom(Jet(fld, MI(mi)))


class TestProlongation:
    def test_quadratic_coefficient(self):
        X = {"u": jet("u", 0) ** 2}
        lifted = prolong_vertical_field(X, n=1, target_order=1)
        assert lifted.get(Jet("u", MI((0,))), ZERO) == jet("u", 0) ** 2
        assert lifted.get(Jet("u", MI((1,))), ZERO) == \
            2 * jet("u", 0) * jet("u", 1)

    def test_constant_field(self):
        X = {"u": Expr.const(1)}
        lifted = prolong_vertical_field(X, n=1, target_order=2)
        assert lifted.get(Jet("u", MI((0,))), ZERO) == Expr.const(1)
        assert lifted.get(Jet("u", MI((1,))), ZERO).is_zero()
        assert lifted.get(Jet("u", MI((2,))), ZERO).is_zero()

    def test_first_jet_coefficient(self):
        X = {"u": jet("u", 1)}
        lifted = prolong_vertical_field(X, n=1, target_order=2)
        assert lifted.get(Jet("u", MI((1,))), ZERO) == jet("u", 2)
        assert lifted.get(Jet("u", MI((2,))), ZERO) == jet("u", 3)

    def test_negative_target_order_rejected(self):
        # order 0 lifts the coefficient itself; below it there is no jet
        X = {"u": jet("u", 1)}
        assert prolong_vertical_field(X, n=1, target_order=0) == \
            {Jet("u", MI((0,))): jet("u", 1)}
        with pytest.raises(ProlongationError, match="target order -1"):
            prolong_vertical_field(X, n=1, target_order=-1)

    def test_truncated_formula_at_first_order(self):
        # for psi = psi(x, phi) the lift coefficient at order one is
        # dpsi/dx^mu + phi_mu dpsi/dphi
        rng = random.Random(8)
        for _ in range(10):
            n = rng.choice((1, 2))
            atoms = [Base(mu) for mu in range(1, n + 1)] + \
                [Jet("u", MI((0,) * n))]
            psi = random_polynomial(rng, atoms, 3, 3)
            lifted = prolong_vertical_field({"u": psi},
                                            n=n, target_order=1)
            for mu in range(1, n + 1):
                truncated = partial_derivative(psi, Base(mu)) + \
                    Expr.atom(Jet("u", MI.unit(n, mu))) * \
                    partial_derivative(psi, Jet("u", MI((0,) * n)))
                assert lifted.get(Jet("u", MI.unit(n, mu)), ZERO) == truncated

    def test_contact_preservation_on_sections(self):
        # D_mu(psi) evaluated on a holonomic jet equals the base derivative
        # of psi composed with the jet: the lift moves prolonged sections to
        # prolonged sections
        rng = random.Random(17)
        for _ in range(10):
            n = rng.choice((1, 2))
            k = rng.choice((1, 2, 3))
            psi = random_vertical_coefficient(rng, n, jet_order=1)
            prob = LagrangianProblem(n, ("u",), max(k, 2), ZERO)
            profiles = random_section_profiles(rng, prob)
            lifted = prolong_vertical_field({"u": psi},
                                            n=n, target_order=k)
            sigma = holonomic_section(prob, profiles, jet_order=k + 1)
            for mi in multiindices_up_to(n, k):
                on_jet = sigma.evaluate(lifted.get(Jet("u", mi), ZERO))
                direct = total_derivative_multi(sigma.evaluate(psi), mi)
                assert on_jet == direct


def poly_vars(m):
    return [Jet(f"v{i}", MI((0,))) for i in range(1, m + 1)]


class TestPolarize:
    def test_quadratic_gram(self):
        a, b, g = (Expr.atom(Parameter(s)) for s in ("alpha", "beta", "gamma"))
        x, y = (Expr.atom(v) for v in poly_vars(2))
        G = gram_matrix(a * x ** 2 + b * x * y + g * y ** 2, poly_vars(2))
        two = Expr.const(2)
        assert [[two * e for e in row] for row in G] == \
            [[two * a, b], [b, two * g]]

    def test_monomial_power(self):
        x = poly_vars(1)[0]
        assert polarize(Expr.atom(x) ** 4, [x]) == [Expr.atom(x) ** 3]

    def test_euler_resymmetrization(self):
        rng = random.Random(12)
        for _ in range(20):
            m = rng.randint(1, 3)
            d = rng.randint(1, 4)
            variables = poly_vars(m)
            e = ZERO
            while e.is_zero():
                e = ZERO
                for _ in range(3):
                    coeff = Expr.const(rng.randint(-3, 3))
                    exps = [0] * m
                    for _ in range(d):
                        exps[rng.randrange(m)] += 1
                    term = coeff
                    for v, p in zip(variables, exps):
                        term = term * Expr.atom(v) ** p
                    e = e + term
            assert resymmetrize(polarize(e, variables), variables) == e

    def test_inhomogeneous_rejected(self):
        x = poly_vars(1)[0]
        with pytest.raises(ProlongationError, match="homogeneous"):
            homogeneous_degree(Expr.atom(x) ** 2 + Expr.atom(x), [x])

    def test_opaque_call_of_a_variable_rejected(self):
        # x*U(x) is no polynomial in x; U(x1) is a coefficient
        x = poly_vars(1)[0]
        U = Expr.atom(OpaqueCall("U", (0,), (Expr.atom(x),)))
        with pytest.raises(ProlongationError, match="not homogeneous"):
            polarize(Expr.atom(x) * U, [x])
        V = Expr.atom(OpaqueCall("V", (0,), (Expr.atom(Base(1)),)))
        assert polarize(Expr.atom(x) ** 2 * V, [x]) == [Expr.atom(x) * V]


def _random_homogeneous(rng, variables, d):
    """A nonzero homogeneous degree-d polynomial in ``variables`` whose
    coefficients are Fractions times a parameter power (1/a among them)."""
    params = [Expr.atom(Parameter(s)) for s in ("a", "b")]
    e = ZERO
    while e.is_zero():
        for _ in range(3):
            coeff = Expr.const(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            p, k = rng.choice(params), rng.randint(-1, 1)
            coeff = coeff * p ** k if k >= 0 else coeff / p
            term = coeff
            for _ in range(d):
                term = term * Expr.atom(rng.choice(variables))
            e = e + term
    return e


class TestPolarizeAgainstSympy:
    """polarize is diff(Q, x_i)/d and the Gram matrix is hessian(Q)/2,
    with sympy's own derivatives as the oracle."""

    def test_components_and_gram(self):
        import sympy
        rng = random.Random(31)
        for _ in range(30):
            m, d = rng.randint(1, 3), rng.randint(1, 3)
            variables = poly_vars(m)
            e = _random_homogeneous(rng, variables, d)
            names = {str(v): sympy.Symbol(str(v)) for v in variables}
            names.update(a=sympy.Symbol("a"), b=sympy.Symbol("b"))
            xs = [names[str(v)] for v in variables]

            def to_sympy(x):
                return sympy.sympify(to_dsl(x), locals=names)

            got = [to_sympy(B) for B in polarize(e, variables)]
            want = [sympy.diff(to_sympy(e), x) / d for x in xs]
            assert [sympy.expand(g - w) for g, w in zip(got, want)] == [0] * m
            if d == 2:
                hess = sympy.hessian(to_sympy(e), xs) / 2
                gram = gram_matrix(e, variables)
                assert all(sympy.expand(to_sympy(gram[i][j]) - hess[i, j]) == 0
                           for i in range(m) for j in range(m))

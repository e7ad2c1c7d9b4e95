"""Divergence Lagrangians: triviality (the residual table identity) and the
momentum-shift symplectomorphism."""

import random
from fractions import Fraction

import pytest

from jetcalc import Expr, Jet, LagrangianProblem, MultiIndex
from jetcalc.divergence import (DivergenceError, divergence_lagrangian,
                                momentum_shift, verify_divergence_trivial)
from jetcalc.expr import ZERO
from jetcalc.randgen import (random_divergence_components,
                             random_quadratic_lagrangian)
from jetcalc.variational import (MomentumAssignment, canonical_momenta,
                                 cascade_equations, euler_lagrange,
                                 evaluate_on_momenta)

MI = MultiIndex


def jet(fld, *mi):
    return Expr.atom(Jet(fld, MI(mi)))


def trivial_momenta(F):
    """The trivial momenta p^{mu lam} = dF^lam/dphi_mu of one field u:
    the zero momenta shifted by F."""
    return momentum_shift(MomentumAssignment.zero(len(F), ("u",), 1), F)


class TestDivergenceLagrangian:
    def test_leibniz(self):
        data = divergence_lagrangian([jet("u", 0) * jet("u", 1)])
        assert data.lagrangian == jet("u", 1) ** 2 + jet("u", 0) * jet("u", 2)
        assert data.order == 2

    def test_constant_component(self):
        data = divergence_lagrangian([Expr.const(5)])
        assert data.lagrangian.is_zero()

    def test_two_dim_chain_rule(self):
        data = divergence_lagrangian([jet("f", 0, 0) ** 2, ZERO], fields=("f",))
        assert data.lagrangian == 2 * jet("f", 0, 0) * jet("f", 1, 0)


class TestTrivialMomenta:
    def test_direct_partials(self):
        m = trivial_momenta([jet("u", 0) * jet("u", 1)])
        assert m.slot("u", MI((0,)), 1) == jet("u", 1)
        assert m.slot("u", MI((1,)), 1) == jet("u", 0)

    def test_constant_gives_zero(self):
        m = trivial_momenta([Expr.const(3)])
        assert all(v.is_zero() for v in m.slots.values())

    def test_linear_gives_constant(self):
        m = trivial_momenta([3 * jet("u", 1)])
        assert m.slot("u", MI((1,)), 1) == Expr.const(3)

    def test_momentum_atoms_rejected(self):
        from jetcalc import Momentum
        with pytest.raises(DivergenceError):
            trivial_momenta([Expr.atom(Momentum("u", MI((0,)), 1))])


class TestTrivialityTheorem:
    def test_hand_example(self):
        eqs = verify_divergence_trivial([jet("u", 0) * jet("u", 1)])
        assert eqs.all_zero()

    def test_residual_table_is_symmetrization(self):
        # the table rows are emitted as lhs = residual, rhs = symmetrized
        # trivial momenta; both must agree exactly on random draws
        for seed in range(20):
            rng = random.Random(seed)
            n = rng.choice((1, 2))
            F = random_divergence_components(rng, n, jet_order=2)
            eqs = verify_divergence_trivial(F)
            assert eqs.all_zero()

    def test_zero_components(self):
        eqs = verify_divergence_trivial([ZERO, ZERO], fields=("u",))
        assert eqs.all_zero()
        for label, _ in eqs.residuals():
            row = eqs[label]
            assert row.lhs.is_zero() and row.rhs.is_zero()


class TestMomentumShift:
    def test_shift_unshift_identity(self):
        rng = random.Random(42)
        prob = random_quadratic_lagrangian(rng, 1, 2)
        m = canonical_momenta(prob)
        F = random_divergence_components(rng, 1, jet_order=1)
        back = momentum_shift(momentum_shift(m, F, "forward"), F, "inverse")
        assert back == momentum_shift(momentum_shift(m, F, "inverse"), F, "forward")
        for key, value in m.slots.items():
            assert back.slots[key] == value

    def test_zero_shifted_is_trivial_momenta(self):
        zero = canonical_momenta(LagrangianProblem(1, ("u",), 2, ZERO))
        F = [jet("u", 0) * jet("u", 1)]
        shifted = momentum_shift(zero, F, "forward")
        assert shifted == trivial_momenta(F)

    def test_solutions_map_on_beam(self):
        # shifted canonical momenta of L solve the cascade of L + div F
        u2 = jet("u", 2)
        L = Expr.const(Fraction(1, 2)) * u2 ** 2
        prob = LagrangianProblem(1, ("u",), 2, L)
        F = [jet("u", 0) * jet("u", 1)]
        data = divergence_lagrangian(F)
        shifted_prob = LagrangianProblem(1, ("u",), 2,
                                         L + data.lagrangian)
        m = canonical_momenta(prob)
        shifted = momentum_shift(m, F, "forward")
        eqs = cascade_equations(shifted_prob)
        for label, res in eqs.residuals():
            value = evaluate_on_momenta(res, shifted)
            if label.endswith(":euler"):
                # the field equation itself is unchanged by the divergence
                assert -value == euler_lagrange(prob)["u"]
            else:
                assert value.is_zero()

    def test_order_raising_extends_grid(self):
        prob = LagrangianProblem(1, ("u",), 1,
                                 Expr.const(Fraction(1, 2)) * jet("u", 1) ** 2)
        m = canonical_momenta(prob)
        F = [jet("u", 1) ** 2]  # order-2 divergence on a k=1 problem
        shifted = momentum_shift(m, F, "forward")
        assert shifted.order == 2
        assert shifted.slot("u", MI((1,)), 1) == 2 * jet("u", 1)
        back = momentum_shift(shifted, F, "inverse")
        assert back.slot("u", MI((0,)), 1) == m.slot("u", MI((0,)), 1)
        assert back.slot("u", MI((1,)), 1).is_zero()

    def test_euler_lagrange_invariance(self):
        for seed in range(10):
            rng = random.Random(seed)
            n = rng.choice((1, 2))
            k = rng.choice((1, 2))
            prob = random_quadratic_lagrangian(rng, n, k)
            F = random_divergence_components(rng, n, jet_order=k)
            data = divergence_lagrangian(F, fields=("u",))
            bigger = LagrangianProblem(n, ("u",), max(k, data.order),
                                       prob.lagrangian + data.lagrangian)
            assert euler_lagrange(bigger)["u"] == euler_lagrange(prob)["u"]

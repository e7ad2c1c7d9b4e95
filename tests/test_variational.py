"""Momenta, currents, cascades, gauge transformations, constrained families."""

import random
from fractions import Fraction

import pytest

from jetcalc import (Base, Expr, Jet, LagrangianProblem, Momentum, MultiIndex,
                     Multiplier, OpaqueCall, Parameter, parse_expr,
                     total_derivative)
from jetcalc.expr import ZERO
from jetcalc.forms import SectionData
from jetcalc.multiindex import multiindices_up_to
from jetcalc import randgen
from jetcalc.randgen import jet_atoms, random_gauge_table, random_lagrangian
from jetcalc.variational import (MomentumAssignment, VariationalError,
                                 apply_momentum_gauge, canonical_momenta,
                                 cascade_equations,
                                 constrained_generating_family, currents,
                                 euler_lagrange, evaluate_on_momenta,
                                 holonomy_residual, symmetrize_momenta)

MI = MultiIndex


def beam() -> LagrangianProblem:
    u2 = Expr.atom(Jet("u", MI((2,))))
    return LagrangianProblem(1, ("u",), 2, Expr.const(Fraction(1, 2)) * u2 ** 2)


def mechanics() -> LagrangianProblem:
    prob = LagrangianProblem(1, ("q",), 1, Expr(), (), ("m",), {"U": 2})
    L = parse_expr("m/2*q[1]^2 - U(x1,q)", prob)
    return LagrangianProblem(1, ("q",), 1, L, (), ("m",), {"U": 2})


def jet(fld, *mi):
    return Expr.atom(Jet(fld, MI(mi)))


class TestCanonicalMomenta:
    def test_beam_cascade(self):
        m = canonical_momenta(beam())
        assert m.slot("u", MI((1,)), 1) == jet("u", 2)      # p^xx
        assert m.slot("u", MI((0,)), 1) == -jet("u", 3)     # p^x
        assert m.symmetric_part("u", MI((2,))) == jet("u", 2)

    def test_mechanics(self):
        m = canonical_momenta(mechanics())
        assert m.slot("q", MI((0,)), 1) == Expr.atom(Parameter("m")) * jet("q", 1)

    def test_constant_lagrangian(self):
        prob = LagrangianProblem(1, ("u",), 2, Expr.const(7))
        m = canonical_momenta(prob)
        assert all(v.is_zero() for v in m.slots.values())


class TestSymbolicSlots:
    """The symbolic assignment against the slot-atom formulas it replaces."""

    @staticmethod
    def slot_atom(fld, mi, lam):
        return Expr.atom(Momentum(fld, mi, lam))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_symmetric_part_and_divergence(self, n, k):
        fields = ("u", "v")
        p = MomentumAssignment.symbolic(n, fields, k)
        assert set(p.slots) == set(MomentumAssignment.grid_keys(n, fields, k))
        for fld in fields:
            for mi in multiindices_up_to(n, k):
                if mi.order >= 1:
                    assert p.symmetric_part(fld, mi) == Expr.sum(
                        self.slot_atom(fld, mi.drop(lam), lam)
                        for lam in mi.directions())
                if mi.order <= k - 1:
                    assert p.divergence(fld, mi) == Expr.sum(
                        total_derivative(self.slot_atom(fld, mi, lam), lam)
                        for lam in range(1, n + 1))


class TestCurrents:
    def test_beam_currents(self):
        prob = beam()
        j = currents(canonical_momenta(prob))
        assert j[("u", MI((2,)))] == jet("u", 2)
        assert j[("u", MI((1,)))].is_zero()
        assert j[("u", MI((0,)))] == -jet("u", 4)

    def test_zero_momenta_zero_currents(self):
        prob = beam()
        j = currents(MomentumAssignment.zero(1, ("u",), 2))
        assert all(v.is_zero() for v in j.values())

    def test_first_order_reduction(self):
        # k = 1: j = D_mu p^mu, j^mu = p^mu
        prob = mechanics()
        m = canonical_momenta(prob)
        j = currents(m)
        p = m.slot("q", MI((0,)), 1)
        assert j[("q", MI((1,)))] == p
        assert j[("q", MI((0,)))] == total_derivative(p, 1)


class TestCascadeEquations:
    def test_mechanics_rows(self):
        eqs = cascade_equations(mechanics())
        p_atom = Expr.atom(Momentum("q", MI((0,)), 1))
        assert eqs["q:p[1]"].lhs == p_atom
        assert eqs["q:p[1]"].rhs == Expr.atom(Parameter("m")) * jet("q", 1)
        assert eqs["q:euler"].lhs.is_zero()
        U2 = Expr.atom(OpaqueCall("U", (0, 1), (Expr.atom(Base(1)), jet("q", 0))))
        got = eqs["q:euler"].rhs
        want = -U2 - total_derivative(p_atom, 1)
        assert got == want

    def test_beam_rows(self):
        eqs = cascade_equations(beam())
        assert len(eqs) == 3
        euler = eqs["u:euler"]
        assert euler.lhs.is_zero()
        assert euler.rhs == -total_derivative(Expr.atom(Momentum("u", MI((0,)), 1)), 1)

    def test_zero_lagrangian(self):
        prob = LagrangianProblem(1, ("u",), 1, ZERO)
        eqs = cascade_equations(prob)
        m = canonical_momenta(prob)
        for label, res in eqs.residuals():
            assert evaluate_on_momenta(res, m).is_zero()


class TestEulerLagrange:
    def test_beam(self):
        assert euler_lagrange(beam())["u"] == jet("u", 4)

    def test_mechanics_sign_convention(self):
        got = euler_lagrange(mechanics())["q"]
        m = Expr.atom(Parameter("m"))
        U2 = Expr.atom(OpaqueCall("U", (0, 1), (Expr.atom(Base(1)), jet("q", 0))))
        assert got == -m * jet("q", 2) - U2

    def test_total_divergence_is_null(self):
        L = jet("u", 1) ** 2 + jet("u", 0) * jet("u", 2)  # D_x(u u_x)
        prob = LagrangianProblem(1, ("u",), 2, L)
        assert euler_lagrange(prob)["u"].is_zero()

    def test_matches_cascade_elimination(self):
        for seed in range(25):
            rng = random.Random(seed)
            n = rng.choice((1, 2))
            k = rng.choice((1, 2, 3))
            prob = random_lagrangian(rng, n, k)
            # the field row of the cascade on the canonical momenta
            residual = -evaluate_on_momenta(
                cascade_equations(prob)["u:euler"].residual(),
                canonical_momenta(prob))
            assert residual == euler_lagrange(prob)["u"]


class TestHolonomy:
    def test_true_prolongation(self):
        x = Expr.atom(Base(1))
        sigma = SectionData({Jet("u", MI((0,))): x ** 2,
                             Jet("u", MI((1,))): 2 * x}, n=1)
        eqs = holonomy_residual(beam(), sigma)
        assert all(r.is_zero() for _, r in eqs.residuals())

    def test_forced_mismatch(self):
        x = Expr.atom(Base(1))
        sigma = SectionData({Jet("u", MI((0,))): x ** 2,
                             Jet("u", MI((1,))): x}, n=1)
        eqs = holonomy_residual(beam(), sigma)
        (label, res), = eqs.residuals()
        assert res == x

    def test_constant_section(self):
        sigma = SectionData({Jet("u", MI((0,))): Expr.const(1),
                             Jet("u", MI((1,))): Expr.const(5)}, n=1)
        eqs = holonomy_residual(beam(), sigma)
        (_, res), = eqs.residuals()
        assert res == Expr.const(-5)


def two_dim_problem(k=2):
    rng = random.Random(99)
    return random_lagrangian(rng, 2, k)


class TestGauge:
    def test_constant_antisymmetric_leaves_lower_momenta(self):
        prob = two_dim_problem()
        m = canonical_momenta(prob)
        chi = {("u", MI((1, 0)), 2): Expr.const(1),
               ("u", MI((0, 1)), 1): Expr.const(-1)}
        for mi in (MI((1, 0)), MI((0, 1))):
            for lam in (1, 2):
                chi.setdefault(("u", mi, lam), ZERO)
        g = apply_momentum_gauge(m, chi)
        zero = MI((0, 0))
        for lam in (1, 2):
            assert g.slot("u", zero, lam) == m.slot("u", zero, lam)

    def test_function_gauge_shifts_lower_momenta_but_not_equations(self):
        prob = two_dim_problem()
        m = canonical_momenta(prob)
        f = Expr.atom(Base(1)) * Expr.atom(Base(2)) ** 2
        chi = {("u", MI((1, 0)), 2): f,
               ("u", MI((0, 1)), 1): -f,
               ("u", MI((1, 0)), 1): ZERO,
               ("u", MI((0, 1)), 2): ZERO}
        g = apply_momentum_gauge(m, chi)
        zero = MI((0, 0))
        d1f = total_derivative(f, 1)
        d2f = total_derivative(f, 2)
        assert (g.slot("u", zero, 1) - m.slot("u", zero, 1) + d2f).is_zero()
        assert (g.slot("u", zero, 2) - m.slot("u", zero, 2) - d1f).is_zero()
        eqs = cascade_equations(prob)
        res_before = evaluate_on_momenta(eqs["u:euler"].rhs, m)
        res_after = evaluate_on_momenta(eqs["u:euler"].rhs, g)
        assert res_before == res_after

    def test_identity_gauge(self):
        prob = two_dim_problem()
        m = canonical_momenta(prob)
        chi = {("u", mi, lam): ZERO for mi in (MI((1, 0)), MI((0, 1)))
               for lam in (1, 2)}
        assert apply_momentum_gauge(m, chi) == m

    def test_nonzero_symmetrization_rejected(self):
        prob = two_dim_problem()
        m = canonical_momenta(prob)
        chi = {("u", MI((1, 0)), 2): Expr.const(1),
               ("u", MI((0, 1)), 1): Expr.const(1),
               ("u", MI((1, 0)), 1): ZERO,
               ("u", MI((0, 1)), 2): ZERO}
        with pytest.raises(VariationalError) as info:
            apply_momentum_gauge(m, chi)
        assert str(info.value) == \
            "gauge table has nonzero symmetrization at MultiIndex((1, 1))"

    @pytest.mark.parametrize("chi,message", [
        ({("u", MI((1, 0)), 1): ZERO, ("u", MI((0, 0)), 1): ZERO},
         "gauge table must live at a single level"),
        ({("u", MI((2, 0)), 1): ZERO},
         "gauge level exceeds the momentum grid"),
    ])
    def test_level_refusals(self, chi, message):
        m = canonical_momenta(two_dim_problem())
        with pytest.raises(VariationalError) as info:
            apply_momentum_gauge(m, chi)
        assert str(info.value) == message

    def test_currents_invariant_under_gauge_and_symmetrization(self):
        rng = random.Random(4)
        prob = two_dim_problem()
        m = canonical_momenta(prob)
        base = currents(m)
        for _ in range(5):
            chi = random_gauge_table(rng, prob)
            g = apply_momentum_gauge(m, chi)
            assert currents(g) == base
            assert currents(symmetrize_momenta(g)) == base


class TestSymmetrize:
    def test_idempotent_on_symmetric(self):
        prob = beam()
        m = canonical_momenta(prob)
        assert symmetrize_momenta(m) == m

    def test_averaging(self):
        a, b = Expr.atom(Parameter("a")), Expr.atom(Parameter("b"))
        slots = {("u", mi, lam): ZERO
                 for mi in (MI((1, 0)), MI((0, 1))) for lam in (1, 2)}
        slots.update({("u", mi, lam): ZERO for mi in (MI((0, 0)),) for lam in (1, 2)})
        slots[("u", MI((1, 0)), 2)] = a
        slots[("u", MI((0, 1)), 1)] = b
        m = MomentumAssignment(2, ("u",), 2, slots)
        s = symmetrize_momenta(m)
        half = Expr.const(Fraction(1, 2))
        assert s.slot("u", MI((1, 0)), 2) == half * (a + b)
        assert s.slot("u", MI((0, 1)), 1) == half * (a + b)

    def test_pure_gauge_maps_to_zero(self):
        c = Expr.const(3)
        slots = {("u", mi, lam): ZERO
                 for mi in (MI((0, 0)), MI((1, 0)), MI((0, 1))) for lam in (1, 2)}
        slots[("u", MI((1, 0)), 2)] = c
        slots[("u", MI((0, 1)), 1)] = -c
        m = MomentumAssignment(2, ("u",), 2, slots)
        s = symmetrize_momenta(m)
        assert all(v.is_zero() for v in s.slots.values())

    def test_idempotent(self):
        rng = random.Random(21)
        prob = two_dim_problem()
        m = apply_momentum_gauge(canonical_momenta(prob),
                                 random_gauge_table(rng, prob))
        s = symmetrize_momenta(m)
        assert symmetrize_momenta(s) == s

    def test_gauge_then_symmetrize_returns_to_symmetric_representative(self):
        rng = random.Random(13)
        prob = two_dim_problem()
        m = canonical_momenta(prob)
        for _ in range(5):
            chi = random_gauge_table(rng, prob)
            assert symmetrize_momenta(apply_momentum_gauge(m, chi)) == m


class TestConstrained:
    def _with_constraint(self, C_text):
        base_prob = LagrangianProblem(2, ("f",), 1, Expr(), (), ("m",))
        L = parse_expr("m/2*(f[1,0]^2 - f[0,1]^2)", base_prob)
        C = parse_expr(C_text, base_prob)
        return LagrangianProblem(2, ("f",), 1, L, (C,), ("m",))

    def test_velocity_constraint_shifts_momentum_row(self):
        prob = self._with_constraint("f[1,0]")
        eqs = constrained_generating_family(prob)
        lam1 = Expr.atom(Multiplier(1))
        m = Expr.atom(Parameter("m"))
        assert eqs["f:p[1]"].rhs == m * Expr.atom(Jet("f", MI((1, 0)))) + lam1
        assert eqs["f:p[2]"].rhs == -m * Expr.atom(Jet("f", MI((0, 1))))

    def test_no_constraints_reduces_to_cascade(self):
        prob = LagrangianProblem(1, ("q",), 1,
                                 Expr.const(Fraction(1, 2)) * jet("q", 1) ** 2)
        family = constrained_generating_family(prob)
        cascade = cascade_equations(prob)
        assert {r.label for r in family} == {r.label for r in cascade}
        for row in family:
            assert row.residual() == cascade[row.label].residual()

    def test_holonomic_constraint_only_hits_field_equation(self):
        prob = self._with_constraint("f")
        eqs = constrained_generating_family(prob)
        lam1 = Expr.atom(Multiplier(1))
        assert not any(Multiplier(1) in eqs[f"f:p[{lam}]"].rhs.atoms()
                       for lam in (1, 2))
        assert Multiplier(1) in eqs["f:euler"].rhs.atoms()

    def test_higher_order_constraint_rejected(self):
        prob = LagrangianProblem(1, ("u",), 2, ZERO,
                                 (Expr.atom(Jet("u", MI((2,)))),))
        with pytest.raises(VariationalError, match="order > 1"):
            constrained_generating_family(prob)


class TestDummyFieldDegeneracy:
    def test_added_field_has_trivial_rows(self):
        u1 = Expr.atom(Jet("u", MI((1,))))
        prob = LagrangianProblem(1, ("u", "psi"), 1,
                                 Expr.const(Fraction(1, 2)) * u1 ** 2)
        m = canonical_momenta(prob)
        assert m.slot("psi", MI((0,)), 1).is_zero()
        eqs = cascade_equations(prob)
        for label, res in eqs.residuals():
            if label.startswith("psi"):
                assert evaluate_on_momenta(res, m).is_zero()
        assert euler_lagrange(prob)["psi"].is_zero()


class TestLevelThreeGauge:
    def test_deep_gauge_chain(self):
        # level-3 tables exercise the weighted iterated-divergence telescoping
        rng = random.Random(1234)
        prob = random_lagrangian(rng, 2, 3)
        m = canonical_momenta(prob)
        checked = 0
        for _ in range(6):
            chi = random_gauge_table(rng, prob, level=3, jet_order=2)
            if not chi or all(v.is_zero() for v in chi.values()):
                continue
            checked += 1
            g = apply_momentum_gauge(m, chi)
            eqs = cascade_equations(prob)
            assert evaluate_on_momenta(eqs["u:euler"].rhs, g) == \
                evaluate_on_momenta(eqs["u:euler"].rhs, m)
            assert currents(g) == currents(m)
            assert symmetrize_momenta(g) == m
        assert checked >= 3


# -- the seeded draws: each monomial of ``random_polynomial`` is built from
# the atoms it draws; the reference multiplies them out one at a time

def _product_polynomial(rng, atoms, degree, terms):
    monomials = []
    for _ in range(terms):
        mon = Expr.const(rng.randint(-3, 3))
        for _ in range(rng.randint(0, degree)):
            mon = mon * Expr.atom(rng.choice(atoms))
        monomials.append(mon)
    return Expr.sum(monomials)


def _draws(seed):
    """A Lagrangian, a gauge table on it and a polynomial, all built on
    ``random_polynomial`` from one seed, and the state the stream is left
    in."""
    rng = random.Random(seed)
    prob = random_lagrangian(rng, 2, 3, degree=3, terms=6)
    chi = random_gauge_table(rng, prob, jet_order=2)
    poly = randgen.random_polynomial(rng, jet_atoms(1, 2), 4, 5)
    return ([prob.lagrangian.parts(), poly.parts()],
            {key: e.parts() for key, e in chi.items()}, rng.getstate())


def test_random_draws_match_the_product_construction(monkeypatch):
    for seed in range(50):
        got = _draws(seed)
        with monkeypatch.context() as m:
            m.setattr(randgen, "random_polynomial", _product_polynomial)
            want = _draws(seed)
        assert got == want, seed
        assert list(got[1]) == list(want[1]), seed

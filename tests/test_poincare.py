"""Poincare-Cartan forms, multisymplectic field-equation recovery, Galilei."""

import random
from fractions import Fraction

from jetcalc import (Base, Expr, Jet, LagrangianProblem, Momentum, MultiIndex,
                     parse_expr)
from jetcalc.expr import ZERO
from jetcalc.forms import (ExteriorForm, SectionData, exterior_derivative,
                           holonomic_section, wedge)
from jetcalc.legendre import hamilton_equations, legendre_top
from jetcalc.poincare import galilei_transform_check, multisymplectic_residuals, pc_form
from jetcalc.printing import form_to_str
from jetcalc.randgen import random_quadratic_lagrangian, random_section_profiles
from jetcalc.variational import canonical_momenta

MI = MultiIndex


def beam():
    u2 = Expr.atom(Jet("u", MI((2,))))
    return LagrangianProblem(1, ("u",), 2, Expr.const(Fraction(1, 2)) * u2 ** 2)


def mechanics():
    prob = LagrangianProblem(1, ("q",), 1, Expr(), (), ("m",), {"U": 2})
    L = parse_expr("m/2*q[1]^2 - U(x1,q)", prob)
    return LagrangianProblem(1, ("q",), 1, L, (), ("m",), {"U": 2})


class TestPCForm:
    def test_mechanics_shape(self):
        form = pc_form(mechanics())
        q = Jet("q", MI((0,)))
        p = Momentum("q", MI((0,)), 1)
        dp_dq = wedge(ExteriorForm.d_coordinate(p), ExteriorForm.d_coordinate(q))
        dH_dt = wedge(exterior_derivative(ExteriorForm.scalar(form.hamiltonian)),
                      ExteriorForm.d_coordinate(Base(1)))
        assert form.omega == dp_dq - dH_dt

    def test_repr_is_the_report_rendering(self):
        omega = pc_form(beam()).omega
        assert not omega.is_zero()
        assert repr(omega) == form_to_str(omega)

    def test_theta_is_primitive(self):
        for prob in (mechanics(), beam()):
            form = pc_form(prob)
            assert exterior_derivative(form.theta) == form.omega

    def test_omega_closed(self):
        for seed in range(4):
            rng = random.Random(seed)
            n, k = rng.choice(((1, 1), (1, 2), (2, 1)))
            prob = random_quadratic_lagrangian(rng, n, k)
            form = pc_form(prob)
            assert exterior_derivative(form.omega).is_zero()
            assert exterior_derivative(form.theta) == form.omega

    def test_zero_coupling_case(self):
        # L with no lower-order terms: omega consists of the dp-blocks and
        # the dH part coming from the pure momentum square
        prob = LagrangianProblem(1, ("q",), 1,
                                 Expr.const(Fraction(1, 2)) *
                                 Expr.atom(Jet("q", MI((1,)))) ** 2)
        form = pc_form(prob)
        p = Momentum("q", MI((0,)), 1)
        dp_dq = wedge(ExteriorForm.d_coordinate(p),
                      ExteriorForm.d_coordinate(Jet("q", MI((0,)))))
        dH_dt = wedge(exterior_derivative(ExteriorForm.scalar(form.hamiltonian)),
                      ExteriorForm.d_coordinate(Base(1)))
        assert form.omega == dp_dq - dH_dt


class TestMultisymplecticResiduals:
    def test_mechanics_residuals(self):
        prob = mechanics()
        t = Expr.atom(Base(1))
        qfun = t ** 3
        pfun = t ** 2
        sigma = SectionData({Jet("q", MI((0,))): qfun,
                             Momentum("q", MI((0,)), 1): pfun}, n=1)
        eqs = multisymplectic_residuals(prob, sigma)
        data = legendre_top(prob)
        dHdp = sigma.evaluate(
            __import__("jetcalc").partial_derivative(
                data.hamiltonian, Momentum("q", MI((0,)), 1)))
        got = eqs["dp:q[0;1]"].lhs
        want = 3 * t ** 2 - dHdp  # q-dot minus dH/dp on the section
        assert got == want
        dHdq = sigma.evaluate(
            __import__("jetcalc").partial_derivative(
                data.hamiltonian, Jet("q", MI((0,)))))
        # -p-dot - dH/dq, with the opaque potential evaluated on the section
        assert eqs["dphi:q[0]"].lhs == -2 * t - dHdq
        from jetcalc import OpaqueCall
        marker = OpaqueCall("U", (0, 1), (t, t ** 3))
        assert dHdq == Expr.atom(marker)

    def test_beam_reproduces_holonomy_and_cascade(self):
        prob = beam()
        x = Expr.atom(Base(1))
        u, u1 = Jet("u", MI((0,))), Jet("u", MI((1,)))
        p0, p1 = Momentum("u", MI((0,)), 1), Momentum("u", MI((1,)), 1)
        a = {u: x ** 3, u1: Expr.const(5) * x,
             p0: x ** 2, p1: -x}
        sigma = SectionData(a, n=1)
        eqs = multisymplectic_residuals(prob, sigma)
        # dp rows are the holonomy constraint / top inversion rows
        assert eqs["dp:u[0;1]"].lhs == 3 * x ** 2 - 5 * x
        # u[2] = p^{xx} on the section: d_x u1 - p1
        assert eqs["dp:u[1;1]"].lhs == Expr.const(5) + x
        # dphi rows are the descending cascade rows
        assert eqs["dphi:u[1]"].lhs == -(-Expr.const(1)) - x ** 2  # -d_x p1 - p0
        assert eqs["dphi:u[0]"].lhs == -2 * x  # -d_x p0 - dH/du

    def test_exact_solution_annihilates_residuals(self):
        prob = beam()
        x = Expr.atom(Base(1))
        sigma = SectionData({Jet("u", MI((0,))): x,
                             Jet("u", MI((1,))): Expr.const(1),
                             Momentum("u", MI((0,)), 1): ZERO,
                             Momentum("u", MI((1,)), 1): ZERO}, n=1)
        eqs = multisymplectic_residuals(prob, sigma)
        assert eqs.all_zero()

    def test_corrupted_momentum_breaks_a_residual(self):
        prob = beam()
        x = Expr.atom(Base(1))
        sigma = SectionData({Jet("u", MI((0,))): x,
                             Jet("u", MI((1,))): Expr.const(1),
                             Momentum("u", MI((0,)), 1): ZERO,
                             Momentum("u", MI((1,)), 1): Expr.const(1)}, n=1)
        eqs = multisymplectic_residuals(prob, sigma)
        assert not eqs.all_zero()

    def test_solutions_of_hamilton_equations_pass(self):
        # prolong a field profile, take canonical momenta on it: every
        # residual reduces to the euler one, which vanishes iff on-shell
        rng = random.Random(5)
        prob = random_quadratic_lagrangian(rng, 1, 2)
        profiles = random_section_profiles(rng, prob, degree=2)
        m = canonical_momenta(prob)
        jets = holonomic_section(prob, profiles, jet_order=4)
        assign = {}
        for (fld, mi, lam), value in m.slots.items():
            assign[Momentum(fld, mi, lam)] = jets.evaluate(value)
        sigma = holonomic_section(prob, profiles, jet_order=prob.k - 1,
                                  momenta=assign)
        eqs = multisymplectic_residuals(prob, sigma)
        from jetcalc.variational import euler_lagrange
        euler_on_sigma = jets.evaluate(euler_lagrange(prob)["u"])
        for label, res in eqs.residuals():
            if label == "dphi:u[0]":
                assert res == euler_on_sigma
            else:
                assert res.is_zero()


class TestGalilei:
    def test_identities(self):
        report = galilei_transform_check()
        assert all(form.is_zero() for _, form in report)

    def test_row_labels(self):
        report = galilei_transform_check()
        assert [label for label, _ in report] == \
            ["theta-shift", "omega-invariance", "boost-composition"]


class TestStructuralCases:
    def test_zero_hamiltonian_leaves_only_dp_blocks(self):
        prob = LagrangianProblem(1, ("u",), 2, ZERO)
        form = pc_form(prob, hamiltonian=ZERO)
        u, u1 = Jet("u", MI((0,))), Jet("u", MI((1,)))
        p0, p1 = Momentum("u", MI((0,)), 1), Momentum("u", MI((1,)), 1)
        want = wedge(ExteriorForm.d_coordinate(p0), ExteriorForm.d_coordinate(u)) \
            + wedge(ExteriorForm.d_coordinate(p1), ExteriorForm.d_coordinate(u1))
        assert form.omega == want

    def test_first_order_residual_set_is_exactly_h1_h2(self):
        # k = 1: one residual per field slot and per momentum slot, nothing else
        prob = mechanics()
        t = Expr.atom(Base(1))
        sigma = SectionData({Jet("q", MI((0,))): t ** 2,
                             Momentum("q", MI((0,)), 1): t ** 3}, n=1)
        eqs = multisymplectic_residuals(prob, sigma)
        assert {r.label for r in eqs} == {"dphi:q[0]", "dp:q[0;1]"}
        data = legendre_top(prob)
        from jetcalc import partial_derivative
        dHdp = sigma.evaluate(partial_derivative(
            data.hamiltonian, Momentum("q", MI((0,)), 1)))
        dHdq = sigma.evaluate(partial_derivative(
            data.hamiltonian, Jet("q", MI((0,)))))
        assert eqs["dp:q[0;1]"].lhs == 2 * t - dHdp        # (H-1) on sigma
        assert eqs["dphi:q[0]"].lhs == -3 * t ** 2 - dHdq  # (H-2) on sigma


class TestTwoDimensionalRecovery:
    def test_random_quadratic_problem_n2(self):
        # the vector-density sign conventions in two base dimensions:
        # canonical momenta on a prolonged profile annihilate every residual
        # except the field equation, which reduces to the eliminated operator
        rng = random.Random(31)
        prob = random_quadratic_lagrangian(rng, 2, 2)
        m = canonical_momenta(prob)
        profiles = random_section_profiles(rng, prob, degree=2)
        jets = holonomic_section(prob, profiles, jet_order=6)
        assign = {Momentum(f, mi, lam): jets.evaluate(v)
                  for (f, mi, lam), v in m.slots.items()}
        sigma = holonomic_section(prob, profiles, jet_order=prob.k - 1,
                                  momenta=assign)
        eqs = multisymplectic_residuals(prob, sigma)
        from jetcalc.variational import euler_lagrange
        el = jets.evaluate(euler_lagrange(prob)["u"])
        for label, res in eqs.residuals():
            if label == "dphi:u[0,0]":
                assert res == el
            else:
                assert res.is_zero(), label

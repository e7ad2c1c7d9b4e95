"""Legendre transforms and Hamiltonian cascades."""

import collections
import functools
import itertools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jetcalc import (Base, Expr, Jet, LagrangianProblem, Momentum, MultiIndex,
                     OpaqueCall, Parameter, parse_expr, partial_derivative,
                     substitute)
from jetcalc.expr import ONE, ZERO, ExprError, _coerce, divide
from jetcalc.legendre import (LegendreError, SingularLegendreError,
                              _check_hessian_entry, _check_time_entry,
                              _eliminate, _entry, _quadratic_split,
                              _solve_linear, energy_legendre,
                              hamilton_equations, legendre_top)
from jetcalc.multiindex import all_multiindices, multiindices_up_to
from jetcalc.randgen import (_int_det, jet_atoms, random_polynomial,
                             random_quadratic_lagrangian)
from jetcalc.variational import (canonical_momenta, cascade_equations,
                                 evaluate_on_momenta)

MI = MultiIndex


def _bareiss_det(M) -> Expr:
    """Exact determinant of a square matrix of Exprs or numbers by the
    solver's fraction-free elimination, on a copy; 1 for an empty one."""
    M = [[_entry(e) for e in row] for row in M]
    return _coerce(_eliminate(M) * M[-1][-1] if M else 1)


def _slot_atom(fld, mi, lam):
    """Reference: the symbolic slot p^{mi|lam}."""
    return Expr.atom(Momentum(fld, mi, lam))


def _sym_atom(fld, mi):
    """Reference: the symbolic symmetric momentum S[mi] as a slot-atom sum."""
    return Expr.sum(_slot_atom(fld, mi.drop(lam), lam)
                    for lam in mi.directions())


def beam():
    u2 = Expr.atom(Jet("u", MI((2,))))
    return LagrangianProblem(1, ("u",), 2, Expr.const(Fraction(1, 2)) * u2 ** 2)


def mechanics():
    prob = LagrangianProblem(1, ("q",), 1, Expr(), (), ("m",), {"U": 2})
    L = parse_expr("m/2*q[1]^2 - U(x1,q)", prob)
    return LagrangianProblem(1, ("q",), 1, L, (), ("m",), {"U": 2})


def wave():
    prob = LagrangianProblem(2, ("f",), 1, Expr())
    L = parse_expr("1/2*f[1,0]^2 - 1/2*f[0,1]^2", prob)
    return LagrangianProblem(2, ("f",), 1, L)


class TestLegendreTop:
    def test_beam_inversion_and_h(self):
        data = legendre_top(beam())
        pxx = Expr.atom(Momentum("u", MI((2,))))
        assert data.inversion[("u", MI((2,)))] == pxx
        assert data.h == Expr.const(Fraction(1, 2)) * pxx ** 2

    def test_mechanics_hamiltonian(self):
        data = legendre_top(mechanics())
        p = Expr.atom(Momentum("q", MI((0,)), 1))
        m = Expr.atom(Parameter("m"))
        U = Expr.atom(OpaqueCall("U", (0, 0),
                                 (Expr.atom(Base(1)),
                                  Expr.atom(Jet("q", MI((0,)))))))
        assert data.hamiltonian == divide(p ** 2, 2 * m) + U
        assert data.h == data.hamiltonian  # k = 1: no intermediate pairing

    def test_linear_top_is_singular(self):
        prob = LagrangianProblem(1, ("u",), 2, Expr.atom(Jet("u", MI((2,)))))
        with pytest.raises(SingularLegendreError):
            legendre_top(prob)

    def test_cubic_top_rejected(self):
        prob = LagrangianProblem(1, ("u",), 2, Expr.atom(Jet("u", MI((2,)))) ** 3)
        with pytest.raises(LegendreError, match="quadratic"):
            legendre_top(prob)

    def test_state_dependent_hessian_rejected(self):
        u = Expr.atom(Jet("u", MI((0,))))
        u2 = Expr.atom(Jet("u", MI((2,))))
        prob = LagrangianProblem(1, ("u",), 2, u * u2 ** 2)
        with pytest.raises(LegendreError, match="parameter-constant"):
            legendre_top(prob)

    def test_back_substitution_identity(self):
        # substituting the momenta definitions into h reproduces
        # sum p phi - L with p = dL/dphi_top
        for seed in range(8):
            rng = random.Random(seed)
            n, k = rng.choice(((1, 2), (2, 1), (2, 2), (1, 3)))
            prob = random_quadratic_lagrangian(rng, n, k)
            data = legendre_top(prob)
            m = canonical_momenta(prob)
            h_on_shell = evaluate_on_momenta(data.h, m)
            want = ZERO
            for (fld, mi), _ in data.inversion.items():
                x = Jet(fld, mi)
                want = want + partial_derivative(prob.lagrangian, x) * \
                    Expr.atom(x)
            assert h_on_shell == want - prob.lagrangian

    def test_inversion_is_h_gradient(self):
        for seed in range(8):
            rng = random.Random(100 + seed)
            prob = random_quadratic_lagrangian(rng, rng.choice((1, 2)), 2)
            data = legendre_top(prob)
            for (fld, mi), inv in data.inversion.items():
                assert partial_derivative(data.h, Momentum(fld, mi)) == inv

    def test_double_legendre_is_identity(self):
        # re-transforming h with respect to the top momenta returns L
        for seed in range(8):
            rng = random.Random(200 + seed)
            n, k = rng.choice(((1, 2), (2, 1), (1, 3)))
            prob = random_quadratic_lagrangian(rng, n, k)
            data = legendre_top(prob)
            mapping = {}
            pairing = ZERO
            for fld, mi in data.inversion:
                atom = Momentum(fld, mi)
                mapping[atom] = partial_derivative(prob.lagrangian, Jet(fld, mi))
                pairing = pairing + Expr.atom(atom) * Expr.atom(Jet(fld, mi))
            # L = sum p phi - h with p substituted by dL/dphi_top
            recovered = substitute(pairing - data.h, mapping)
            assert recovered == prob.lagrangian


class TestHamiltonEquations:
    def test_mechanics(self):
        eqs = hamilton_equations(mechanics())
        p = Expr.atom(Momentum("q", MI((0,)), 1))
        m = Expr.atom(Parameter("m"))
        assert eqs["q:phi[1]"].lhs == Expr.atom(Jet("q", MI((1,))))
        assert eqs["q:phi[1]"].rhs == divide(p, m)
        U2 = Expr.atom(OpaqueCall("U", (0, 1),
                                  (Expr.atom(Base(1)),
                                   Expr.atom(Jet("q", MI((0,)))))))
        from jetcalc import total_derivative
        assert eqs["q:euler"].rhs == -U2 - total_derivative(p, 1)

    def test_beam(self):
        eqs = hamilton_equations(beam())
        pxx = Expr.atom(Momentum("u", MI((2,))))
        assert eqs["u:phi[2]"].rhs == pxx
        # p^x = -d h/d u[1] - D_x p^{xx}: h is u[1]-free here
        from jetcalc import total_derivative
        slot_top = Expr.atom(Momentum("u", MI((1,)), 1))
        assert eqs["u:p[1]"].rhs == -total_derivative(slot_top, 1)

    def test_h_independent_of_field(self):
        eqs = hamilton_equations(beam())
        from jetcalc import total_derivative
        p = Expr.atom(Momentum("u", MI((0,)), 1))
        assert eqs["u:euler"].rhs == -total_derivative(p, 1)

    def test_same_euler_residual_as_cascade(self):
        for seed in range(10):
            rng = random.Random(300 + seed)
            n, k = rng.choice(((1, 1), (1, 2), (2, 1), (2, 2)))
            prob = random_quadratic_lagrangian(rng, n, k)
            m = canonical_momenta(prob)
            ham = hamilton_equations(prob)
            cas = cascade_equations(prob)
            for fld in prob.fields:
                rh = evaluate_on_momenta(ham[f"{fld}:euler"].rhs, m)
                rc = evaluate_on_momenta(cas[f"{fld}:euler"].rhs, m)
                assert rh == rc
                # every hamilton row closes on the canonical momenta
            for row in ham:
                if not row.label.endswith(":euler"):
                    res = evaluate_on_momenta(row.residual(), m)
                    assert res.is_zero()


class TestFieldHamiltonian:
    def test_wave(self):
        H = legendre_top(wave()).hamiltonian
        pt = Expr.atom(Momentum("f", MI((0, 0)), 1))
        px = Expr.atom(Momentum("f", MI((0, 0)), 2))
        half = Expr.const(Fraction(1, 2))
        assert H == half * pt ** 2 - half * px ** 2

    def test_unit_mass(self):
        prob = LagrangianProblem(1, ("q",), 1,
                                 Expr.const(Fraction(1, 2)) *
                                 Expr.atom(Jet("q", MI((1,)))) ** 2)
        H = legendre_top(prob).hamiltonian
        p = Expr.atom(Momentum("q", MI((0,)), 1))
        assert H == Expr.const(Fraction(1, 2)) * p ** 2

    def test_indefinite_but_invertible(self):
        prob0 = LagrangianProblem(2, ("f",), 1, Expr())
        L = parse_expr("f[1,0]*f[0,1]", prob0)
        prob = LagrangianProblem(2, ("f",), 1, L)
        H = legendre_top(prob).hamiltonian
        pt = Expr.atom(Momentum("f", MI((0, 0)), 1))
        px = Expr.atom(Momentum("f", MI((0, 0)), 2))
        assert H == pt * px


class TestEnergyLegendre:
    def test_wave_energy(self):
        E = energy_legendre(wave(), time_direction=1)
        pt = Expr.atom(Momentum("f", MI((0, 0)), 1))
        fx = Expr.atom(Jet("f", MI((0, 1))))
        half = Expr.const(Fraction(1, 2))
        assert E == half * pt ** 2 + half * fx ** 2

    def test_mechanics_energy_equals_hamiltonian(self):
        prob = mechanics()
        assert energy_legendre(prob, 1) == legendre_top(prob).hamiltonian

    def test_no_time_dependence(self):
        prob0 = LagrangianProblem(2, ("f",), 1, Expr())
        L = parse_expr("1/2*f[0,1]^2", prob0)
        prob = LagrangianProblem(2, ("f",), 1, L)
        with pytest.raises(SingularLegendreError, match="time-direction"):
            energy_legendre(prob, time_direction=1)


class TestThetaTableIdentity:
    @pytest.mark.parametrize("n,k", [(1, 1), (1, 2), (2, 2), (2, 3)])
    def test_theta_I_minus_theta_H_is_pairing_gradient(self, n, k):
        # The delta-phi / delta-p coefficient tables of theta^I and theta^H
        # differ exactly by the vertical gradient of the top pairing sum.
        from jetcalc.multiindex import all_multiindices
        from jetcalc import total_derivative

        fld = "u"
        zero = MI((0,) * n)
        theta_I = {}
        div0 = ZERO
        for lam in range(1, n + 1):
            div0 = div0 + total_derivative(_slot_atom(fld, zero, lam), lam)
        theta_I[zero] = div0
        for order in range(1, k + 1):
            for mi in all_multiindices(n, order):
                j = _sym_atom(fld, mi)
                if order <= k - 1:
                    for lam in range(1, n + 1):
                        j = j + total_derivative(_slot_atom(fld, mi, lam), lam)
                theta_I[mi] = j
        # theta^H keeps the lower delta-phi coefficients and trades the top
        # block: coefficient -phi_mu against the top momentum differentials
        theta_H_phi = {mi: v for mi, v in theta_I.items() if mi.order < k}
        theta_H_top = {mi: -Expr.atom(Jet(fld, mi))
                       for mi in all_multiindices(n, k)}

        pairing = ZERO
        for mi in all_multiindices(n, k):
            pairing = pairing + _sym_atom(fld, mi) * Expr.atom(Jet(fld, mi))

        for mi in theta_I:
            diff = theta_I[mi] - theta_H_phi.get(mi, ZERO)
            assert diff == partial_derivative(pairing, Jet(fld, mi))
        for mi, coeff in theta_H_top.items():
            # gradient against any slot representative of the symmetric top
            lam = mi.directions()[0]
            grad = partial_derivative(pairing,
                                      Momentum(fld, mi.drop(lam), lam))
            assert ZERO - coeff == grad


class TestMultiField:
    def test_coupled_two_field_transform(self):
        # L = 1/2 qdot^2 + rdot^2 + qdot rdot: Hessian [[1,1],[1,2]], det 1
        prob0 = LagrangianProblem(1, ("q", "r"), 1, Expr())
        L = parse_expr("1/2*q[1]^2 + r[1]^2 + q[1]*r[1]", prob0)
        prob = LagrangianProblem(1, ("q", "r"), 1, L)
        data = legendre_top(prob)
        pq = Expr.atom(Momentum("q", MI((0,)), 1))
        pr = Expr.atom(Momentum("r", MI((0,)), 1))
        # p_q = qdot + rdot, p_r = 2 rdot + qdot  =>  qdot = 2 p_q - p_r
        assert data.inversion[("q", MI((1,)))] == 2 * pq - pr
        assert data.inversion[("r", MI((1,)))] == pr - pq
        # double transform closes
        m = canonical_momenta(prob)
        back = evaluate_on_momenta(data.hamiltonian, m)
        want = ZERO
        for fld in ("q", "r"):
            want = want + partial_derivative(L, Jet(fld, MI((1,)))) * \
                Expr.atom(Jet(fld, MI((1,))))
        assert back == want - L

    def test_constrained_problem_rejected(self):
        prob0 = LagrangianProblem(1, ("q",), 1, Expr())
        L = parse_expr("1/2*q[1]^2", prob0)
        C = parse_expr("q", prob0)
        prob = LagrangianProblem(1, ("q",), 1, L, (C,))
        with pytest.raises(LegendreError, match="constrained"):
            legendre_top(prob)


class TestEnergyCrossTerms:
    def test_mixed_time_space_coupling(self):
        # L = 1/2 f_t^2 - 1/2 f_x^2 + f_t f_x: only f_t is eliminated,
        # E = 1/2 p_t^2 - p_t f_x + f_x^2 by a single-variable solve
        prob0 = LagrangianProblem(2, ("f",), 1, Expr())
        L = parse_expr("1/2*f[1,0]^2 - 1/2*f[0,1]^2 + f[1,0]*f[0,1]", prob0)
        prob = LagrangianProblem(2, ("f",), 1, L)
        E = energy_legendre(prob, time_direction=1)
        pt = Expr.atom(Momentum("f", MI((0, 0)), 1))
        fx = Expr.atom(Jet("f", MI((0, 1))))
        half = Expr.const(Fraction(1, 2))
        assert E == half * pt ** 2 - pt * fx + fx ** 2


class TestExactSolver:
    def test_determinant_matches_rational_evaluation(self):
        # independent oracle: evaluate the symbolic matrix at random rational
        # parameter values and compare with fraction arithmetic
        from jetcalc import substitute
        rng = random.Random(6)
        a, b = Parameter("a"), Parameter("b")
        for _ in range(15):
            dim = rng.randint(1, 4)
            M = [[Expr.const(rng.randint(-3, 3))
                  + Expr.const(rng.randint(-1, 1)) * Expr.atom(a)
                  + Expr.const(rng.randint(-1, 1)) * Expr.atom(b)
                  for _ in range(dim)] for _ in range(dim)]
            det = _bareiss_det(M)
            va, vb = Fraction(rng.randint(1, 5), rng.randint(1, 5)), \
                Fraction(rng.randint(-5, -1), rng.randint(1, 4))
            point = {a: Expr.const(va), b: Expr.const(vb)}

            def laplace(rows):
                if len(rows) == 1:
                    return rows[0][0]
                total = Fraction(0)
                for j in range(len(rows)):
                    minor = [r[:j] + r[j + 1:] for r in rows[1:]]
                    total += (-1) ** j * rows[0][j] * laplace(minor)
                return total

            numeric = [[substitute(entry, point).as_fraction() for entry in row]
                       for row in M]
            assert substitute(det, point).as_fraction() == laplace(numeric)


    def test_solver_matches_cramer_reference(self):
        # differential test: one elimination of [A | b] against dim + 1
        # separate determinants (Cramer), on symmetric parametric systems
        rng = random.Random(11)
        a, b = Expr.atom(Parameter("a")), Expr.atom(Parameter("b"))
        u, x = Expr.atom(Jet("u", MI((0,)))), Expr.atom(Base(1))
        agreed = 0
        for draw in range(200):
            dim = rng.randint(1, 4)
            A = [[None] * dim for _ in range(dim)]
            for r in range(dim):
                for c in range(r, dim):
                    A[r][c] = A[c][r] = (Expr.const(rng.randint(-2, 2))
                                         + rng.choice((-1, 0, 0, 0, 0, 1))
                                         * rng.choice((a, b)))
            rhs = [Expr.atom(Momentum("u", MI((i,)))) + rng.randint(-1, 1) * a * u
                   + rng.randint(-1, 1) * x for i in range(dim)]
            assert _outcome(_solve_linear, A, rhs) == \
                _outcome(_cramer_reference, A, rhs), f"draw {draw}"
            agreed += 1
        assert agreed == 200

    def test_solver_matches_cramer_reference_beyond_dim_4(self):
        # dims 5-10, integer entries, with some halves and thirds in every
        # other group of four draws.  Every fourth draw is numeric; the
        # others scale a row by a (solvable: det(A) is a times a number),
        # add a or -a to one entry (det(A) then rarely divides the
        # numerators) or repeat a row (singular).  Right-hand sides mix
        # momenta, u[1], x1, a*u and u/a.
        rng = random.Random(13)
        a = Expr.atom(Parameter("a"))
        inv_a = divide(ONE, a)
        u, u1, x = (Expr.atom(Jet("u", MI((0,)))),
                    Expr.atom(Jet("u", MI((1,)))), Expr.atom(Base(1)))
        outcomes = collections.Counter()
        for draw in range(100):
            dim = rng.randint(5, 10)
            dens = (1, 1, 1, 2, 3) if draw // 4 % 2 else (1,)
            A = [[Expr.const(Fraction(rng.randint(-3, 3), rng.choice(dens)))
                  for _ in range(dim)] for _ in range(dim)]
            kind = draw % 4
            if kind == 1:
                r = rng.randrange(dim)
                A[r] = [a * e for e in A[r]]
            elif kind == 2:
                r, c = rng.randrange(dim), rng.randrange(dim)
                A[r][c] = A[r][c] + rng.choice((-1, 1)) * a
            elif kind == 3:
                A[-1] = list(A[rng.randrange(dim - 1)])
            rhs = [Expr.atom(Momentum("u", MI((i,))))
                   + rng.randint(-1, 1) * u1 + rng.randint(-1, 1) * x
                   + rng.randint(-1, 1) * a * u + rng.randint(-1, 1) * inv_a * u
                   for i in range(dim)]
            got = _outcome(_solve_linear, A, rhs)
            assert got == _outcome(_cramer_reference, A, rhs), f"draw {draw}"
            outcomes[got[0] if got[0] == "ok" else got[0].__name__] += 1
        assert sum(outcomes.values()) == 100
        assert outcomes["ok"] >= 40
        assert outcomes["LegendreError"] >= 15
        assert outcomes["SingularLegendreError"] >= 25

    def test_solver_on_laurent_systems(self):
        # entries and right-hand sides with 1/a: whenever the Cramer
        # reference finds the solution, the solver finds the same one, and
        # whatever it returns solves the system
        rng = random.Random(12)
        a, b = Expr.atom(Parameter("a")), Expr.atom(Parameter("b"))
        inv_a = divide(Expr.const(1), a)
        u, x = Expr.atom(Jet("u", MI((0,)))), Expr.atom(Base(1))
        solved = 0
        for draw in range(150):
            dim = rng.randint(1, 3)
            A = [[None] * dim for _ in range(dim)]
            for r in range(dim):
                for c in range(r, dim):
                    A[r][c] = A[c][r] = (Expr.const(rng.randint(-2, 2))
                                         + rng.choice((-1, 0, 0, 1))
                                         * rng.choice((a, b, inv_a)))
            rhs = [Expr.atom(Momentum("u", MI((i,))))
                   + rng.randint(-1, 1) * inv_a * u + rng.randint(-1, 1) * x
                   for i in range(dim)]
            got = _outcome(_solve_linear, A, rhs)
            try:
                want = _outcome(_cramer_reference, A, rhs)
            except ExprError:   # a determinant the reference cannot form
                want = None
            if want is not None and want[0] == "ok":
                assert got == want, f"draw {draw}"
            if got[0] == "ok":
                solved += 1
                for r in range(dim):
                    assert Expr.sum(A[r][c] * got[1][c]
                                    for c in range(dim)) == rhs[r]
        assert solved > 30


def _cramer_reference(A, b):
    """x_i = det(A_i) / det(A), each det(A_i) expanded along its column b:
    sum_r (-1)^(r+i) b_r det(A without row r and column i).  Each
    determinant of A or of a minor is taken as det(m M) / m^size, m the
    product of the least powers of the parameters that clear every negative
    exponent in A, so that no elimination divides by a Laurent polynomial."""
    low: dict = {}
    for e in itertools.chain(*A):
        for mon in e._terms:
            for atom, x in mon:
                low[atom] = min(low.get(atom, 0), x)
    m = functools.reduce(operator.mul,
                         (Expr.atom(atom) ** -x for atom, x in low.items()), ONE)
    mA = [[m * e for e in row] for row in A]

    def determinant(M):   # det(M / m) for a square part M of mA
        return divide(_bareiss_det(M), m ** len(M))

    det = determinant(mA)
    if det.is_zero():
        raise SingularLegendreError(
            "singular Legendre: top Hessian block degenerate")
    out = []
    for i in range(len(A)):
        numerator = Expr.sum(
            (-1) ** (r + i) * b[r] * determinant(
                [row[:i] + row[i + 1:] for k, row in enumerate(mA) if k != r])
            for r in range(len(A)))
        try:
            out.append(divide(numerator, det))
        except ExprError as exc:
            raise LegendreError(
                f"Legendre inversion not representable: {exc}") from None
    return out


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except LegendreError as exc:
        return (type(exc), str(exc))

def test_int_det_matches_sympy():
    import sympy
    rng = random.Random(7)
    for dim in range(1, 13):
        for _ in range(6):
            H = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
            if rng.random() < 0.3:
                H[-1] = list(H[0])  # a singular draw now and then
            assert _int_det(H) == int(sympy.Matrix(H).det())


def test_solve_divides_only_for_the_cramer_quotients(monkeypatch):
    # An integer Hessian of dim 10: the elimination and the back-substitution
    # run on ints, so ``divide`` runs once for det(A) and twice for each of
    # the dim unknowns, and no Expr division comes back into the loop.
    import jetcalc.legendre as legendre
    calls = []
    real = legendre.divide

    def counted(num, den):
        calls.append(1)
        return real(num, den)

    problem = random_quadratic_lagrangian(random.Random(4), 3, 3)
    dim = len(all_multiindices(3, 3))
    assert dim == 10
    monkeypatch.setattr(legendre, "divide", counted)
    legendre_top(problem)
    assert len(calls) <= 2 * dim + 1


# -- the transforms by substitution, the reference for the identities -------

def _reference_exchange(L, momenta, check):
    """Solve dL/dphi_mu = p for the exchanged jets and evaluate
    sum p phi_mu - L on the inversion by substituting it into L."""
    unknowns = list(momenta)
    kill = {Jet(fld, mi): ZERO for fld, mi in unknowns}
    A, rhs = [], []
    for fld, mi in unknowns:
        dL = partial_derivative(L, Jet(fld, mi))
        row = []
        for fld2, mi2 in unknowns:
            entry = partial_derivative(dL, Jet(fld2, mi2))
            check(entry)
            row.append(entry)
        A.append(row)
        rhs.append(momenta[(fld, mi)] - substitute(dL, kill))
    inversion = dict(zip(unknowns, _solve_linear(A, rhs)))
    pairing = Expr.sum(p * Expr.atom(Jet(fld, mi))
                       for (fld, mi), p in momenta.items())
    return inversion, substitute(pairing - L, {
        Jet(fld, mi): x for (fld, mi), x in inversion.items()})


def _reference_top(problem):
    """(inversion, h, H): H = the full slot pairing - L on the inversion
    with every top momentum replaced by its slot sum."""
    n, k, L = problem.n, problem.k, problem.lagrangian
    sym = {(fld, mi): Expr.atom(Momentum(fld, mi))
           for fld in problem.fields for mi in all_multiindices(n, k)}
    inversion, h = _reference_exchange(
        L, sym, lambda e: _check_hessian_entry(e, k))
    pairing_all = Expr.sum(
        _slot_atom(fld, mi, lam) * Expr.atom(Jet(fld, mi.bump(lam)))
        for fld in problem.fields
        for mi in multiindices_up_to(n, k - 1)
        for lam in range(1, n + 1))
    slot_sym = {Momentum(fld, mi): _sym_atom(fld, mi) for fld, mi in sym}
    slot_inversion = {Jet(fld, mi): substitute(e, slot_sym)
                      for (fld, mi), e in inversion.items()}
    return inversion, h, substitute(pairing_all - L, slot_inversion)


def _reference_energy(problem, t):
    n = problem.n
    t_mi, zero = MI.unit(n, t), MI.zero(n)
    momenta = {(fld, t_mi): Expr.atom(Momentum(fld, zero, t))
               for fld in problem.fields}
    try:
        return _reference_exchange(problem.lagrangian, momenta,
                                   _check_time_entry)[1]
    except SingularLegendreError:
        raise SingularLegendreError(
            "degenerate time-direction Hessian") from None


def _top(problem):
    data = legendre_top(problem)
    return data.inversion, data.h, data.hamiltonian


TWO_FIELD = [
    # parameters in the Hessian, 1/a in the terms linear in the top jets
    "1/2*a*u[1]^2 + 1/2*a*v[1]^2 + u*v[1]/a + x1*u[1] - v^2/a",
    "1/2*u[1]^2 + 1/2*v[1]^2 + u*u[1]/a + 1/2*u[1]*v[1] + a*v*v[1] + u*v",
    # the coupling c*u[1]*v[1]: det -c^2 solves, det a*b - c^2 is refused
    "1/2*a*u[1]^2 + c*u[1]*v[1] + u*v[1]/a + x1*u[1] + a*c*u*v",
    "1/2*a*u[1]^2 + 1/2*b*v[1]^2 + c*u[1]*v[1] + u*v[1]",
    "1/2*a*u[1]^2 + 1/2*v[1]^2 + u*u[1]/a + u[1]*v[1] - v^2/a",
    # refused before the solve
    "u*u[1]^2 + v[1]^2",
    "u[1]^3 + v[1]^2",
]

TWO_FIELD_2D = [
    "1/2*a*u[1,0]^2 - 1/2*u[0,1]^2 + c*u[1,0]*v[1,0] + v[0,1]^2"
    " + u[0,1]*v[0,1] + u*v[0,1]/a + x2*u[1,0]*v",
    "1/2*u[1,0]^2/a + 1/2*u[0,1]^2 + v[1,0]^2 + u[1,0]*v[0,1] + u*u[0,1]"
    " + v*v[0,1]/a",
]


def _two_field(source, n, k=1):
    prob0 = LagrangianProblem(n, ("u", "v"), k, Expr(), (), ("a", "b", "c"))
    L = parse_expr(source, prob0)
    return LagrangianProblem(n, ("u", "v"), k, L, (), ("a", "b", "c"))


class TestIdentityAgainstSubstitution:
    """h = 1/2 (p - b).x - L0 and H = h(p -> sym) + lower pairing give
    exactly what substituting the inversion into L gives."""

    @pytest.mark.parametrize("n,k", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 2)])
    def test_random_quadratic(self, n, k):
        for seed in range(3):
            rng = random.Random(500 + 10 * n + k + 100 * seed)
            prob = random_quadratic_lagrangian(rng, n, k)
            # terms linear in the top jets with state coefficients make
            # b = dL/dx at x = 0 nonzero
            L = prob.lagrangian + Expr.sum(
                Expr.atom(Jet("u", mi))
                * random_polynomial(rng, jet_atoms(n, k - 1), 2, 2)
                for mi in all_multiindices(n, k) if rng.random() < 0.5)
            for lag in (prob.lagrangian, L):
                p = LagrangianProblem(n, ("u",), k, lag)
                got = _outcome(_top, p)
                assert got[0] == "ok"
                assert got == _outcome(_reference_top, p), (n, k, seed)

    def test_two_field_parametric(self):
        problems = [_two_field(s, 1) for s in TWO_FIELD]
        problems += [_two_field(s, 2) for s in TWO_FIELD_2D]
        problems.append(_two_field(
            "1/2*a*u[2]^2 + c*u[2]*v[2] + u[1]*v[2]/a + u*v*u[2] + v[1]^2",
            1, 2))
        outcomes = [_outcome(_top, p) for p in problems]
        assert outcomes == [_outcome(_reference_top, p) for p in problems]
        assert sum(o[0] == "ok" for o in outcomes) >= 5

    def test_energy_two_field(self):
        solved = 0
        for source in TWO_FIELD_2D + [
                "1/2*u[1,0]^2 - 1/2*u[0,1]^2 + v[1,0]^2 + u[1,0]*v[1,0]"
                " + 1/2*v[0,1]^2 + a*u[1,0]*v[0,1] + u*v*v[1,0]/a"]:
            prob = _two_field(source, 2)
            for t in (1, 2):
                got = _outcome(energy_legendre, prob, t)
                assert got == _outcome(_reference_energy, prob, t), (source, t)
                solved += got[0] == "ok"
        assert solved >= 5


# -- the Hessian split against the derivatives of all of L -------------------

def _reference_split(L, unknowns):
    """(L0, b, A) the way the exchange assembled them before the split:
    one derivative of L per unknown, one more per entry, and x = 0
    substituted into L and each row."""
    kill = {Jet(fld, mi): ZERO for fld, mi in unknowns}
    A, b = [], []
    for fld, mi in unknowns:
        dL = partial_derivative(L, Jet(fld, mi))
        A.append([partial_derivative(dL, Jet(fld2, mi2))
                  for fld2, mi2 in unknowns])
        b.append(substitute(dL, kill))
    return substitute(L, kill), b, A


def _split(L, unknowns):
    return _quadratic_split(
        L, {Jet(fld, mi): i for i, (fld, mi) in enumerate(unknowns)})


def _tops(n, k, fields=("u",)):
    return [(fld, mi) for fld in fields for mi in all_multiindices(n, k)]


def _time_jets(n, t, fields=("u",)):
    return [(fld, MI.unit(n, t)) for fld in fields]


@pytest.mark.parametrize("n,k", [(1, 2), (2, 2), (2, 3), (3, 2)])
def test_split_of_random_quadratics(n, k):
    for seed in range(4):
        rng = random.Random(900 + 10 * n + k + 100 * seed)
        prob = random_quadratic_lagrangian(rng, n, k)
        lower = random_polynomial(rng, jet_atoms(n, k - 1), 2, 3)
        L = prob.lagrangian + Expr.sum(
            Expr.atom(Jet("u", mi)) * lower
            for mi in all_multiindices(n, k) if rng.random() < 0.5)
        for lag in (prob.lagrangian, L):
            assert _split(lag, _tops(n, k)) == _reference_split(lag, _tops(n, k))


def test_split_of_cubic_and_quartic_polynomials():
    for seed in range(12):
        rng = random.Random(1200 + seed)
        n, k = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2)])
        degree = 3 + seed % 2
        L = random_polynomial(rng, jet_atoms(n, k), degree, 8)
        for unknowns in (_tops(n, k), _time_jets(n, n)):
            assert _split(L, unknowns) == _reference_split(L, unknowns)


_PROB = LagrangianProblem(2, ("u", "v"), 2, Expr(), (), ("a", "b"),
                          {"U": 2, "F": 1})
_ATOMS_TOP = ["u[2,0]", "u[1,1]", "v[0,2]", "u[1,0]", "v[0,1]", "F(u[2,0])"]
_ATOMS_LOW = ["u", "v", "x1", "x2", "a", "1/a", "b^2/a", "F(x1)"]


@st.composite
def _lagrangians(draw):
    """Sums of up to six terms of degree up to four in top and lower jets,
    parameters with negative powers, and opaque calls whose arguments do or
    do not hold a top jet, some of them inside another call."""
    def polynomial(atoms, terms, degree):
        out = []
        for _ in range(draw(st.integers(1, terms))):
            factors = draw(st.lists(st.sampled_from(atoms), max_size=degree))
            out.append("*".join([str(draw(st.integers(-3, 3)))] + factors))
        return " + ".join(out)

    atoms = _ATOMS_TOP + _ATOMS_LOW
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        factors = draw(st.lists(st.sampled_from(atoms), max_size=4))
        if draw(st.booleans()):
            arg_atoms = draw(st.sampled_from([_ATOMS_LOW, atoms]))
            name, marker = draw(st.sampled_from(
                [("U", ""), ("U", "_{,1}"), ("U", "_{,12}"), ("F", "")]))
            args = [polynomial(arg_atoms, 2, 2)
                    for _ in range(_PROB.opaques[name])]
            factors.append(f"{name}{marker}({', '.join(args)})")
        terms.append("*".join([f"{draw(st.integers(-4, 4))}/"
                               f"{draw(st.integers(1, 3))}"] + factors))
    return parse_expr(" + ".join(terms), _PROB)


@settings(max_examples=120, deadline=None)
@given(_lagrangians())
def test_split_matches_the_derivatives_of_all_of_L(L):
    for unknowns in (_tops(2, 2, ("u", "v")), _time_jets(2, 1, ("u", "v")),
                     _time_jets(2, 2, ("u", "v"))):
        assert _split(L, unknowns) == _reference_split(L, unknowns)


@settings(max_examples=60, deadline=None)
@given(_lagrangians(), st.booleans())
def test_transforms_match_the_reference_on_any_lagrangian(L, first_order):
    # mostly refusals (cubic terms, state-dependent or opaque entries): the
    # same text, from the check on the same entries in the same order
    if first_order:
        L = substitute(L, {Jet(f, mi): ZERO for f in ("u", "v")
                           for mi in all_multiindices(2, 2)})
        prob = LagrangianProblem(2, ("u", "v"), 1, L, (), ("a", "b"),
                                 {"U": 2, "F": 1})
        for t in (1, 2):
            assert _outcome(energy_legendre, prob, t) == \
                _outcome(_reference_energy, prob, t)
    else:
        prob = LagrangianProblem(2, ("u", "v"), 2, L, (), ("a", "b"),
                                 {"U": 2, "F": 1})
    assert _outcome(_top, prob) == _outcome(_reference_top, prob)


def test_transforms_through_opaque_calls_match_the_reference():
    # an opaque call without a top-jet argument is a coefficient; with one,
    # the check refuses with the text of its first entry in row-major order
    sources = [
        ("1/2*u[1,0]^2 + 1/2*v[1,0]^2 - 1/2*u[0,1]^2 + v[0,1]^2"
         " + u[0,1]*v[1,0] + U(u, x1)*u[1,0] + F(a*x1)*v[0,1] + u*v[0,1]/a",
         "ok"),
        ("1/2*F(a)*u[1,0]^2 + 1/2*v[1,0]^2 - 1/2*u[0,1]^2 + v[0,1]^2",
         "not representable"),
        ("1/2*u[1,0]^2 + v[1,0]^2 - 1/2*u[0,1]^2 + v[0,1]^2 + U(u[1,0], v)",
         "not quadratic"),
        ("1/2*u[1,0]^2 + 1/2*v[1,0]^2 + U_{,1}(u, u[0,1]*v[0,1])",
         "not quadratic"),
        ("u[1,0]*U(u, x1)^2 + 1/2*u[1,0]^2*F(u) + v[1,0]^2 + u[0,1]^2"
         " + v[0,1]^2", "parameter-constant (found u in an entry)"),
    ]
    declared = LagrangianProblem(2, ("u", "v"), 1, Expr(), (), ("a", "b"),
                                 {"U": 2, "F": 1})
    for source, outcome in sources:
        prob = LagrangianProblem(2, ("u", "v"), 1, parse_expr(source, declared),
                                 (), ("a", "b"), {"U": 2, "F": 1})
        got = _outcome(_top, prob)
        assert got == _outcome(_reference_top, prob), source
        assert got[0] == "ok" if outcome == "ok" else outcome in got[1], \
            (source, got)
        for t in (1, 2):
            assert _outcome(energy_legendre, prob, t) == \
                _outcome(_reference_energy, prob, t), (source, t)

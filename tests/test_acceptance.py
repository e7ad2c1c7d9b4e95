"""Acceptance suite: one test per criterion, exact tolerances, stated
runtime bounds.  Each test prints a single pass/fail line (run with -s to
see them live; they are also in the captured output)."""

import random
import time
import numpy as np
import pytest

from jetcalc import (Base, Expr, Jet, Momentum, MultiIndex, OpaqueCall,
                     Parameter)
from jetcalc.cli import run
from jetcalc.expr import ZERO, divide, partial_derivative
from jetcalc.forms import SectionData
from jetcalc.legendre import legendre_top
from jetcalc.poincare import galilei_transform_check, multisymplectic_residuals
from jetcalc.prolongation import polarize
from jetcalc.variational import canonical_momenta, euler_lagrange
from jetcalc.verify import (beam_problem, check_cascade_equivalence,
                            check_divergence_triviality,
                            check_gauge_invariance, check_momentum_shift,
                            check_polarization, check_prolongation,
                            mechanics_problem)

MI = MultiIndex


class _Criterion:
    """Times a criterion, asserts its runtime bound, prints one line."""

    def __init__(self, name: str, limit_s: float):
        self.name = name
        self.limit = limit_s

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} {self.name} ({elapsed:.2f}s, limit {self.limit}s)")
        if exc_type is None:
            assert elapsed < self.limit, \
                f"{self.name} exceeded its runtime bound: {elapsed:.2f}s"
        return False


def test_criterion_1_mechanics_reproduction():
    with _Criterion("criterion-1 mechanics reproduction", 1.0):
        prob = mechanics_problem()
        m = canonical_momenta(prob)
        mass = Expr.atom(Parameter("m"))
        qdot = Expr.atom(Jet("q", MI((1,))))
        assert m.slot("q", MI((0,)), 1) == mass * qdot
        H = legendre_top(prob).hamiltonian
        p = Expr.atom(Momentum("q", MI((0,)), 1))
        U = Expr.atom(OpaqueCall("U", (0, 0),
                                 (Expr.atom(Base(1)),
                                  Expr.atom(Jet("q", MI((0,)))))))
        assert H == divide(p ** 2, 2 * mass) + U


def test_criterion_2_galilei():
    with _Criterion("criterion-2 Galilei check", 1.0):
        report = galilei_transform_check()
        rows = dict(report)
        # theta-shift row already subtracts -mV dq + (m/2)V^2 dt
        assert rows["theta-shift"].is_zero()
        assert rows["omega-invariance"].is_zero()
        assert rows["boost-composition"].is_zero()


def test_criterion_3_divergence_triviality():
    with _Criterion("criterion-3 divergence triviality (50 seeded F)", 10.0):
        result = check_divergence_triviality(seed=0, count=50)
        assert result.ok, result.failures[:3]


def test_criterion_4_momentum_shift():
    with _Criterion("criterion-4 momentum-shift equivalence (20 seeded)", 10.0):
        result = check_momentum_shift(seed=0, count=20)
        assert result.ok, result.failures[:3]


def test_criterion_5_cascade_equivalence():
    with _Criterion("criterion-5 cascade/classical equivalence (50 seeded)", 30.0):
        result = check_cascade_equivalence(seed=0, count=50)
        assert result.ok, result.failures[:3]


def test_criterion_6_gauge_invariance():
    with _Criterion("criterion-6 gauge invariance (20 seeded tables)", 10.0):
        result = check_gauge_invariance(seed=0, count=20)
        assert result.ok, result.failures[:3]


def test_criterion_7_multisymplectic_recovery():
    with _Criterion("criterion-7 multisymplectic recovery", 5.0):
        prob = beam_problem()
        x = Expr.atom(Base(1))
        u, u1 = Jet("u", MI((0,))), Jet("u", MI((1,)))
        p0, p1 = Momentum("u", MI((0,)), 1), Momentum("u", MI((1,)), 1)

        # structural identification on a generic symbolic section
        a, b, c, d = x ** 3, Expr.const(5) * x, x ** 2, -x
        sigma = SectionData({u: a, u1: b, p0: c, p1: d}, n=1)
        eqs = multisymplectic_residuals(prob, sigma)
        dx = lambda e: __import__("jetcalc").partial_derivative(e, Base(1))
        # holonomy constraint and top inversion (Hamiltonian cascade row 1)
        assert eqs["dp:u[0;1]"].lhs == dx(a) - b
        assert eqs["dp:u[1;1]"].lhs == dx(b) - d      # u[2] = p^{xx}
        # descending Hamiltonian cascade rows
        assert eqs["dphi:u[1]"].lhs == -dx(d) - c     # p^x = -D p^{xx}
        assert eqs["dphi:u[0]"].lhs == -dx(c)         # 0 = -D p^x

        exact = SectionData({u: x, u1: Expr.const(1), p0: ZERO, p1: ZERO}, n=1)
        assert multisymplectic_residuals(prob, exact).all_zero()
        corrupted = SectionData({u: x, u1: Expr.const(1), p0: ZERO,
                                 p1: Expr.const(1)}, n=1)
        assert not multisymplectic_residuals(prob, corrupted).all_zero()


def test_criterion_8_numeric_oracle():
    with _Criterion("criterion-8 numeric finite-difference oracle", 5.0):
        N = 200
        x = np.linspace(0.0, 1.0, N)
        h = x[1] - x[0]
        u = x ** 5

        def action(uu):
            d2 = (uu[2:] - 2 * uu[1:-1] + uu[:-2]) / h ** 2
            return 0.5 * h * np.sum(d2 ** 2)

        eps = 1e-6
        grad = np.zeros(N)
        for j in range(N):
            up, dn = u.copy(), u.copy()
            up[j] += eps
            dn[j] -= eps
            grad[j] = (action(up) - action(dn)) / (2 * eps)

        # symbolic route: E(L) = u[4], evaluated on the prolonged section
        prob = beam_problem()
        el = euler_lagrange(prob)["u"]
        from jetcalc.forms import holonomic_section
        sigma = holonomic_section(prob, {"u": Expr.atom(Base(1)) ** 5},
                                  jet_order=4)
        symbolic = sigma.evaluate(el)
        assert symbolic == 120 * Expr.atom(Base(1))
        values = 120.0 * x

        interior = slice(3, N - 3)
        rel = np.abs(grad[interior] / h - values[interior]) / \
            np.abs(values[interior])
        assert np.max(rel) <= 1e-3, np.max(rel)


def test_criterion_9_polarization():
    with _Criterion("criterion-9 polarization", 2.0):
        result = check_polarization(seed=0, count=20)
        assert result.ok, result.failures[:3]
        # the explicit Gram display once more, directly
        variables = [Jet("v1", MI((0,))), Jet("v2", MI((0,)))]
        al, be, ga = (Expr.atom(Parameter(s))
                      for s in ("alpha", "beta", "gamma"))
        vx, vy = (Expr.atom(v) for v in variables)
        B = polarize(al * vx ** 2 + be * vx * vy + ga * vy ** 2, variables)

        def coefficient(i, j):
            return partial_derivative(B[i - 1], variables[j - 1])

        two = Expr.const(2)
        assert two * coefficient(1, 1) == two * al
        assert two * coefficient(1, 2) == be
        assert two * coefficient(2, 1) == be
        assert two * coefficient(2, 2) == two * ga


def test_criterion_10_prolongation():
    with _Criterion("criterion-10 prolongation", 10.0):
        result = check_prolongation(seed=0, count=20)
        assert result.ok, result.failures[:3]


def test_dense_power_euler_lagrange(tmp_path):
    """A 20th power of a four-term sum (1771 terms) must not blow up: sums
    are collected in one dict, so the cost stays linear in the term count."""
    path = tmp_path / "dense.lag"
    path.write_text("base 2; field u; order 1;\n"
                    "lagrangian (u+u[1,0]+u[0,1]+x1)^20;\n")
    with _Criterion("dense (u+u[1,0]+u[0,1]+x1)^20 el", 30.0):
        assert run(["el", str(path)]) == 0


def _hessian_file(path, d, params, entry):
    """A base-1, order-1 file in the fields u1..ud whose Lagrangian is
    1/2 sum_ij H_ij ui[1] uj[1], with H_ij = entry(i, j) for i <= j."""
    rows = range(1, d + 1)
    terms = [f"1/2*({entry(i, i)})*u{i}[1]^2" for i in rows] + [
        f"({entry(i, j)})*u{i}[1]*u{j}[1]" for i in rows for j in rows if i < j]
    path.write_text("base 1;\norder 1;\n"
                    + "".join(f"field u{i};\n" for i in rows)
                    + "".join(f"param {p};\n" for p in params)
                    + f"lagrangian {' + '.join(terms)};\n")
    return str(path)


@pytest.mark.parametrize("d, limit_s", [(3, 1.0), (4, 1.0), (6, 4.0)])
def test_symbolic_legendre_refusal(tmp_path, capsys, d, limit_s):
    """The fully symbolic top Hessian, one parameter aij per entry: the
    inversion is no Laurent polynomial, which the Bareiss solve finds by
    exact multi-term divisions."""
    rows = range(1, d + 1)
    path = _hessian_file(tmp_path / "symbolic.lag", d,
                         [f"a{i}{j}" for i in rows for j in rows if i <= j],
                         lambda i, j: f"a{i}{j}")
    with _Criterion(f"fully symbolic {d}x{d} legendre refusal", limit_s):
        assert run(["legendre", path]) == 2
        out, err = capsys.readouterr()
    assert out == "" and err.startswith(
        "error: Legendre inversion not representable: inexact division: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("d", [4, 5])
def test_representable_symbolic_legendre(tmp_path, d):
    """H = L L^T with L unit lower-triangular and symbolic lij below the
    diagonal: det H = 1, so the inversion is a polynomial.  Every leading
    minor is 1 too, so every Bareiss pivot is 1 (L^T L is the hard case,
    see ROADMAP item 3)."""
    rows = range(1, d + 1)

    def entry(i, j):
        L = lambda r, k: "1" if r == k else f"l{r}{k}"
        return " + ".join(f"{L(i, k)}*{L(j, k)}"
                          for k in range(1, min(i, j) + 1))

    path = _hessian_file(tmp_path / "llt.lag", d,
                         [f"l{i}{k}" for i in rows for k in range(1, i)],
                         entry)
    with _Criterion(f"L L^T {d}x{d} legendre", 1.0):
        assert run(["legendre", path]) == 0

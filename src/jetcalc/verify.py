"""The bundled theorem-verification suites.

Each check returns a ``CheckResult``.  Each of the six seeded checks draws
its instances from its own ``random.Random(seed)``, so a failing draw
replays from the seed and its index alone.  Its ``parity`` keyword selects
the draws it verifies: every draw (``None``, the default), or the even (0)
or the odd (1) ones.  Either way it makes every draw, and a draw verifies
only after its last call to the generator, so each draw is the same in
every share.

``run_all``, behind the CLI's ``verify-all``, splits the work between two
processes when it may use two CPUs: a forked child verifies the odd draws,
and this process the even draws, the three unseeded suites and
polarization's Gram check.  The child sends its failures back as plain
data, never an ``Expr`` (atoms are interned by identity), and the merged
report is the one the sequential run gives.  The acceptance test module
drives the same suites at the documented instance counts.
"""

from __future__ import annotations

import marshal
import os
import random
import signal
import sys

from .coords import Base, Jet, Momentum, MultiIndex, Parameter
from .expr import (Expr, ZERO, divide, partial_derivative,
                   total_derivative_multi)
from .forms import SectionData, holonomic_section
from .legendre import legendre_top
from .multiindex import multiindices_up_to
from .parser import parse_expr, parse_problem
from .poincare import galilei_transform_check, multisymplectic_residuals
from .problem import LagrangianProblem
from .prolongation import (gram_matrix, polarize, prolong_vertical_field,
                           resymmetrize)
from .randgen import (random_divergence_components, random_gauge_table,
                      random_lagrangian, random_polynomial,
                      random_quadratic_lagrangian, random_section_profiles,
                      random_vertical_coefficient)
from .variational import (apply_momentum_gauge, canonical_momenta,
                          cascade_equations, currents, euler_lagrange,
                          evaluate_on_momenta, symmetrize_momenta)
from .divergence import (divergence_lagrangian, momentum_shift,
                         verify_divergence_trivial)


class CheckResult:
    """One suite's outcome: ``ok`` until a failure is recorded.  A failure
    is plain data, (draw index or None, label, residual text)."""

    __slots__ = ("name", "failures")

    def __init__(self, name: str):
        self.name = name
        self.failures = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, label: str, residual, draw: int | None = None):
        """Record a failure; one in a draw is labelled ``draw i: label``."""
        if draw is not None:
            label = f"draw {draw}: {label}" if label else f"draw {draw}"
        self.failures.append((draw, label, repr(residual)))

    def merge(self, failures) -> None:
        """Add the failures of the other share of the draws, in the order
        of a sequential run: those outside any draw first, then by draw,
        and within a draw in check order."""
        self.failures = sorted(self.failures + failures,
                               key=lambda f: -1 if f[0] is None else f[0])


def _skipped(i: int, parity) -> bool:
    """True when draw ``i`` is not in the share ``parity`` selects."""
    return parity is not None and i % 2 != parity


def mechanics_problem() -> LagrangianProblem:
    return parse_problem("base 1; field q; order 1; param m; opaque U(2);"
                         " lagrangian m/2*q[1]^2 - U(x1,q);").problem


def beam_problem() -> LagrangianProblem:
    return parse_problem("base 1; field u; order 2;"
                         " lagrangian 1/2*u[2]^2;").problem


def check_mechanics() -> CheckResult:
    """p = m q-dot and H = p^2/(2m) + U(t, q), exactly."""
    out = CheckResult("mechanics-reproduction")
    prob = mechanics_problem()
    m = canonical_momenta(prob)
    p_atom = Momentum("q", MultiIndex((0,)), 1)
    mass = Expr.atom(Parameter("m"))
    want_p = mass * Expr.atom(Jet("q", MultiIndex((1,))))
    got_p = m.slot("q", MultiIndex((0,)), 1)
    if got_p != want_p:
        out.fail("p", got_p - want_p)
    H = legendre_top(prob).hamiltonian
    want_H = divide(Expr.atom(p_atom) ** 2, 2 * mass) + \
        parse_expr("U(x1,q)", prob)
    if H != want_H:
        out.fail("H", H - want_H)
    return out


def check_galilei() -> CheckResult:
    """Boosted-frame primitive shift and two-form invariance."""
    out = CheckResult("galilei")
    for label, form in galilei_transform_check():
        if not form.is_zero():
            out.fail(label, form)
    return out


def check_divergence_triviality(seed: int = 0, count: int = 50,
                                parity: int | None = None) -> CheckResult:
    """Theorem: divergence Lagrangians have vanishing Euler-Lagrange
    residual and the residual table equals the symmetrized momenta."""
    out = CheckResult("divergence-triviality")
    rng = random.Random(seed)
    for i in range(count):
        n = rng.choice((1, 2))
        F = random_divergence_components(rng, n, jet_order=2)
        if _skipped(i, parity):
            continue
        eqs = verify_divergence_trivial(F)
        for label, res in eqs.residuals():
            if not res.is_zero():
                out.fail(label, res, i)
    return out


def check_momentum_shift(seed: int = 0, count: int = 20,
                         parity: int | None = None) -> CheckResult:
    """Adding a divergence leaves the Euler-Lagrange residual unchanged and
    the momentum shift maps cascade solutions to cascade solutions."""
    out = CheckResult("momentum-shift")
    rng = random.Random(seed)
    for i in range(count):
        n = rng.choice((1, 2))
        k = rng.choice((1, 2))
        prob = random_quadratic_lagrangian(rng, n, k)
        F = random_divergence_components(rng, n, jet_order=k, degree=2)
        if _skipped(i, parity):
            continue
        data = divergence_lagrangian(F, fields=("u",))
        total = LagrangianProblem(n, ("u",), max(k, data.order),
                                  prob.lagrangian + data.lagrangian)
        el0 = euler_lagrange(prob)["u"]
        el1 = euler_lagrange(total)["u"]
        if el0 != el1:
            out.fail("euler-lagrange", el1 - el0, i)
        shifted = momentum_shift(canonical_momenta(prob), F, "forward")
        eqs = cascade_equations(total)
        for label, res in eqs.residuals():
            value = evaluate_on_momenta(res, shifted)
            if label.endswith(":euler"):
                # residual of the euler row is minus the eliminated operator
                if not (value + el0).is_zero():
                    out.fail(label, value + el0, i)
            elif not value.is_zero():
                out.fail(label, value, i)
    return out


def check_cascade_equivalence(seed: int = 0, count: int = 50,
                              parity: int | None = None) -> CheckResult:
    """Eliminating the cascade reproduces the classical Euler-Lagrange
    operator exactly."""
    out = CheckResult("cascade-equivalence")
    rng = random.Random(seed)
    for i in range(count):
        n = rng.choice((1, 2))
        k = rng.choice((1, 2, 3))
        prob = random_lagrangian(rng, n, k)
        if _skipped(i, parity):
            continue
        m = canonical_momenta(prob)
        eqs = cascade_equations(prob)
        residual = -evaluate_on_momenta(eqs["u:euler"].residual(), m)
        if residual != euler_lagrange(prob)["u"]:
            out.fail("", residual - euler_lagrange(prob)["u"], i)
        for label, res in eqs.residuals():
            if label != "u:euler" and not evaluate_on_momenta(res, m).is_zero():
                out.fail(label, res, i)
    return out


def check_gauge_invariance(seed: int = 0, count: int = 20,
                           parity: int | None = None) -> CheckResult:
    """The field-equation residual and the current table survive a gauge
    modification followed by symmetrization."""
    out = CheckResult("gauge-invariance")
    rng = random.Random(seed)
    for i in range(count):
        k = rng.choice((2, 3))
        prob = random_lagrangian(rng, 2, k)
        chi = random_gauge_table(rng, prob)
        if _skipped(i, parity):
            continue
        m = canonical_momenta(prob)
        gauged = apply_momentum_gauge(m, chi)
        sym = symmetrize_momenta(gauged)
        eqs = cascade_equations(prob)
        base = evaluate_on_momenta(eqs["u:euler"].rhs, m)
        for tag, mm in (("gauged", gauged), ("symmetrized", sym)):
            res = evaluate_on_momenta(eqs["u:euler"].rhs, mm)
            if res != base:
                out.fail(f"euler {tag}", res - base, i)
        c0 = currents(m)
        for tag, mm in (("gauged", gauged), ("symmetrized", sym)):
            if currents(mm) != c0:
                out.fail(f"currents {tag}", ZERO, i)
    return out


def check_multisymplectic() -> CheckResult:
    """Beam recovery: the residual set is holonomy plus the Hamiltonian
    cascade; the exact solution passes, a corrupted momentum fails."""
    out = CheckResult("multisymplectic")
    prob = beam_problem()
    x = Expr.atom(Base(1))
    u, u1 = Jet("u", MultiIndex((0,))), Jet("u", MultiIndex((1,)))
    p0, p1 = Momentum("u", MultiIndex((0,)), 1), Momentum("u", MultiIndex((1,)), 1)
    exact = SectionData({u: x, u1: Expr.const(1), p0: ZERO, p1: ZERO}, n=1)
    eqs = multisymplectic_residuals(prob, exact)
    for label, res in eqs.residuals():
        if not res.is_zero():
            out.fail(f"exact: {label}", res)
    bad = SectionData({u: x, u1: Expr.const(1), p0: ZERO,
                       p1: Expr.const(1)}, n=1)
    eqs_bad = multisymplectic_residuals(prob, bad)
    if eqs_bad.all_zero():
        out.fail("corrupted section passes", ZERO)
    # structural comparison on a generic symbolic section
    generic = SectionData({u: x ** 3, u1: Expr.const(5) * x,
                           p0: x ** 2, p1: -x}, n=1)
    eqs_gen = multisymplectic_residuals(prob, generic)
    want = {
        "dp:u[0;1]": 3 * x ** 2 - 5 * x,
        "dp:u[1;1]": Expr.const(5) + x,
        "dphi:u[1]": Expr.const(1) - x ** 2,
        "dphi:u[0]": -2 * x,
    }
    for label, expect in want.items():
        got = eqs_gen[label].lhs
        if got != expect:
            out.fail(f"generic: {label}", got - expect)
    return out


def check_polarization(seed: int = 0, count: int = 20,
                       parity: int | None = None) -> CheckResult:
    """Quadratic Gram matrix and Euler re-symmetrization; the Gram check
    belongs to the even share."""
    out = CheckResult("polarization")
    if parity != 1:
        _check_gram(out)
    rng = random.Random(seed)
    for i in range(count):
        nv = rng.randint(1, 3)
        d = rng.randint(1, 4)
        vs = [Jet(f"v{i+1}", MultiIndex((0,))) for i in range(nv)]
        e = ZERO
        while e.is_zero():
            terms = []
            for _ in range(3):
                exps = [0] * nv
                for _ in range(d):
                    exps[rng.randrange(nv)] += 1
                term = Expr.const(rng.randint(-3, 3))
                for v, p in zip(vs, exps):
                    term = term * Expr.atom(v) ** p
                terms.append(term)
            e = Expr.sum(terms)
        if _skipped(i, parity):
            continue
        if resymmetrize(polarize(e, vs), vs) != e:
            out.fail("euler identity", e, i)
    return out


def _check_gram(out: CheckResult) -> None:
    """The Gram matrix of a generic binary quadratic form."""
    variables = [Jet("v1", MultiIndex((0,))), Jet("v2", MultiIndex((0,)))]
    a, b, g = (Expr.atom(Parameter(s)) for s in ("alpha", "beta", "gamma"))
    x, y = (Expr.atom(v) for v in variables)
    gram = gram_matrix(a * x ** 2 + b * x * y + g * y ** 2, variables)
    two = Expr.const(2)
    want = [[two * a, b], [b, two * g]]
    for i in range(2):
        for j in range(2):
            if two * gram[i][j] != want[i][j]:
                out.fail(f"gram[{i}][{j}]", two * gram[i][j] - want[i][j])


def check_prolongation(seed: int = 0, count: int = 20,
                       parity: int | None = None) -> CheckResult:
    """First-order lift formula and contact preservation at orders <= 3."""
    out = CheckResult("prolongation")
    rng = random.Random(seed)
    for i in range(count):
        n = rng.choice((1, 2))
        zero = MultiIndex((0,) * n)
        atoms = [Base(mu) for mu in range(1, n + 1)] + [Jet("u", zero)]
        psi = random_polynomial(rng, atoms, 3, 3)
        k = rng.choice((1, 2, 3))
        psi2 = random_vertical_coefficient(rng, n, jet_order=1)
        prob = LagrangianProblem(n, ("u",), max(k, 2), ZERO)
        profiles = random_section_profiles(rng, prob, degree=2)
        if _skipped(i, parity):
            continue
        lift = prolong_vertical_field({"u": psi}, n=n, target_order=1)
        for mu in range(1, n + 1):
            truncated = partial_derivative(psi, Base(mu)) + \
                Expr.atom(Jet("u", MultiIndex.unit(n, mu))) * \
                partial_derivative(psi, Jet("u", zero))
            got = lift.get(Jet("u", MultiIndex.unit(n, mu)), ZERO)
            if got != truncated:
                out.fail(f"lift formula mu={mu}", got - truncated, i)
        sigma = holonomic_section(prob, profiles, jet_order=k + 1)
        lift2 = prolong_vertical_field({"u": psi2}, n=n, target_order=k)
        for mi in multiindices_up_to(n, k):
            on_jet = sigma.evaluate(lift2.get(Jet("u", mi), ZERO))
            direct = total_derivative_multi(sigma.evaluate(psi2), mi)
            if on_jet != direct:
                out.fail(f"contact at {tuple(mi)}", on_jet - direct, i)
    return out


def _verify(seed: int, parity: int | None):
    """The suites' results in report order.  With ``parity`` 1 only the six
    seeded suites run, on their odd draws."""
    share = {"seed": seed, "parity": parity}
    suites = ((check_mechanics, {}), (check_galilei, {}),
              (check_divergence_triviality, share),
              (check_momentum_shift, share),
              (check_cascade_equivalence, share),
              (check_gauge_invariance, share),
              (check_multisymplectic, {}),
              (check_polarization, share),
              (check_prolongation, share))
    return [check(**kw) for check, kw in suites if kw or parity != 1]


def _odd_failures(seed: int) -> dict:
    """The failures of the odd draws, by suite name."""
    return {r.name: r.failures for r in _verify(seed, 1)}


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_odd_draws(seed: int):
    """Fork a child that writes ``_odd_failures(seed)`` to a pipe, as
    marshal data; returns (pid, the pipe's read end), or None without fork,
    a second CPU or a process to spare.  On one CPU the child's replay of
    every draw costs more than its share saves.  Nor does a process that
    runs other threads fork: the child would hold none of them, nor any
    lock they hold."""
    threading = sys.modules.get("threading")
    if (not hasattr(os, "fork") or _cpus() < 2
            or threading is not None and threading.active_count() > 1):
        return None
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(r)
            with open(w, "wb") as fh:
                fh.write(marshal.dumps(_odd_failures(seed)))
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, open(r, "rb")


def run_all(seed: int = 0):
    """Every suite in report order; the seeded ones draw from ``seed``.

    With fork and two CPUs, a child verifies the odd draws while this
    process verifies the rest; its failures merge into the results in
    sequential order.  When the child does not answer in full, this
    process verifies the odd draws itself, so the results, and an internal
    fault raised while computing them, are those of the sequential run."""
    child = _fork_odd_draws(seed)
    if child is None:
        return _verify(seed, None)
    pid, reader = child
    try:
        with reader:
            results = _verify(seed, 0)
            # to EOF before the wait: a long answer overflows the pipe
            answer = reader.read()
    except BaseException as exc:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        if not isinstance(exc, Exception):
            raise
        # A fault in this share.  One in the child's share may come first
        # in report order, so the sequential run decides which is raised.
        return _verify(seed, None)
    status = os.waitpid(pid, 0)[1]
    try:
        odd = marshal.loads(answer) if status == 0 else None
    except (EOFError, ValueError):
        odd = None
    if odd is None:
        odd = _odd_failures(seed)
    for r in results:
        if r.name in odd:
            r.merge(odd[r.name])
    return results

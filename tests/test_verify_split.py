"""verify-all split over two processes: a forked child verifies the odd
draws of the seeded suites.  The report, the exit code and an internal
fault's error line must be those of the sequential run, and no child may
outlive a run."""

import os
import signal

import pytest

from jetcalc import verify
from jetcalc.cli import run
from jetcalc.coords import Base
from jetcalc.expr import Expr
from jetcalc.problem import LagrangianProblem

SEEDED = ["divergence_triviality", "momentum_shift", "cascade_equivalence",
          "gauge_invariance", "polarization", "prolongation"]


def _terms(e) -> int:
    return len(e._terms)


@pytest.fixture
def two_cpus(monkeypatch):
    """The split runs whatever the host's CPU count; each test checks
    afterwards that no child is left, running or unreaped."""
    monkeypatch.setattr(verify, "_cpus", lambda: 2)
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    yield forks
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _invoke(capsys, seed):
    code = run(["verify-all", "--seed", str(seed)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _sequential(capsys, monkeypatch, seed):
    """The same run without fork."""
    with monkeypatch.context() as m:
        m.delattr(os, "fork")
        return _invoke(capsys, seed)


@pytest.fixture
def faults(monkeypatch):
    """Wrong results in every seeded suite, keyed on the input or the
    result of the patched stage, never on the order of calls.  The
    divergence fault's residual is long, so that the child's answer
    overflows a pipe buffer."""
    x = Expr.atom(Base(1))
    one = Expr.const(1)
    long_residual = Expr.sum(x ** j for j in range(1, 1500))

    def faulty_el(el, extra):
        def wrapped(prob, *args, **kwargs):
            out = el(prob, *args, **kwargs)
            if _terms(prob.lagrangian) % 3 == 0:
                out = {fld: e + extra for fld, e in out.items()}
            return out
        return wrapped

    import jetcalc.divergence
    monkeypatch.setattr(jetcalc.divergence, "euler_lagrange",
                        faulty_el(jetcalc.divergence.euler_lagrange,
                                  long_residual))
    monkeypatch.setattr(verify, "euler_lagrange",
                        faulty_el(verify.euler_lagrange, one))

    currents = verify.currents

    def faulty_currents(m):
        out = currents(m)
        if sum(map(_terms, m.slots.values())) % 2:
            out = {key: e + one for key, e in out.items()}
        return out
    monkeypatch.setattr(verify, "currents", faulty_currents)

    def keyed(fn, modulus):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            return out + one if _terms(out) % modulus == 0 else out
        return wrapped
    monkeypatch.setattr(verify, "resymmetrize", keyed(verify.resymmetrize, 2))
    monkeypatch.setattr(verify, "total_derivative_multi",
                        keyed(verify.total_derivative_multi, 3))

    gram_matrix = verify.gram_matrix

    def faulty_gram(*args):
        gram = gram_matrix(*args)
        gram[0][0] = gram[0][0] + one
        return gram
    monkeypatch.setattr(verify, "gram_matrix", faulty_gram)


@pytest.mark.parametrize("seed", [0, 1, 2, 7])
def test_faulty_report_equals_the_sequential_one(capsys, monkeypatch,
                                                 two_cpus, faults, seed):
    split = _invoke(capsys, seed)
    assert two_cpus, "verify-all did not fork"
    assert split == _sequential(capsys, monkeypatch, seed)
    code, out, _ = split
    assert code == 1
    for suite in SEEDED:
        assert f'"{suite.replace("_", "-")}": "fail"' in out
    assert '"polarization: gram[0][0]"' in out
    assert len(out) > 2 * 65536


@pytest.mark.parametrize("seed", [0, 3])
def test_passing_report_equals_the_sequential_one(capsys, monkeypatch,
                                                  two_cpus, seed):
    split = _invoke(capsys, seed)
    assert two_cpus
    assert split[0] == 0
    assert split == _sequential(capsys, monkeypatch, seed)


def _render(obj) -> str:
    """A text of a stage's argument that depends on its value only."""
    if isinstance(obj, Expr):
        return repr(obj)
    if isinstance(obj, LagrangianProblem):
        return (f"problem({obj.n}, {obj.fields}, {obj.k}, "
                f"{obj.lagrangian!r})")
    if hasattr(obj, "slots"):
        return "momenta" + _render(obj.slots)
    if isinstance(obj, dict):
        return "{" + ", ".join(sorted(f"{_render(k)}: {_render(v)}"
                                      for k, v in obj.items())) + "}"
    if isinstance(obj, (list, tuple)):
        return "(" + ", ".join(map(_render, obj)) + ")"
    return repr(obj)


# per seeded suite: the stages that take each verified draw's instances
DRAW_STAGES = {
    "divergence_triviality": ["verify_divergence_trivial"],
    "momentum_shift": ["euler_lagrange", "momentum_shift"],
    "cascade_equivalence": ["cascade_equations", "canonical_momenta"],
    "gauge_invariance": ["apply_momentum_gauge", "cascade_equations"],
    "polarization": ["polarize"],
    "prolongation": ["prolong_vertical_field", "holonomic_section"],
}


@pytest.mark.parametrize("suite", SEEDED)
def test_halves_verify_the_draws_of_the_whole(monkeypatch, suite):
    # The two shares make the same generator calls as the whole run, so
    # together they verify the very draws it verifies, argument for
    # argument; a draw that moved an RNG call below its parity test would
    # shift every later draw of one share.
    calls = []
    for name in DRAW_STAGES[suite]:
        fn = getattr(verify, name)

        def recorded(*args, _fn=fn, _name=name, **kwargs):
            calls.append(f"{_name}{_render(args)}{_render(kwargs)}")
            return _fn(*args, **kwargs)
        monkeypatch.setattr(verify, name, recorded)
    check = getattr(verify, f"check_{suite}")

    def draws(parity):
        calls.clear()
        assert check(seed=11, parity=parity).ok
        return list(calls)

    whole, even, odd = draws(None), draws(0), draws(1)
    assert even and odd
    assert sorted(even + odd) == sorted(whole)


def test_gram_check_belongs_to_the_even_share(monkeypatch):
    shares = []
    real = verify._check_gram
    monkeypatch.setattr(verify, "_check_gram",
                        lambda out: shares.append(parity) or real(out))
    for parity in (None, 0, 1):
        verify.check_polarization(seed=0, count=0, parity=parity)
    assert shares == [None, 0]


def test_merge_keeps_the_sequential_order():
    r = verify.CheckResult("suite")
    r.fail("outside", Expr.const(1))
    r.fail("a", Expr.const(2), 0)
    r.fail("b", Expr.const(3), 0)
    r.fail("c", Expr.const(4), 4)
    r.merge([(1, "draw 1: a", "5"), (1, "draw 1: b", "6"),
             (5, "draw 5", "7")])
    assert [label for _, label, _ in r.failures] == [
        "outside", "draw 0: a", "draw 0: b", "draw 1: a", "draw 1: b",
        "draw 4: c", "draw 5"]
    assert not r.ok


def test_long_answer_is_read_before_the_wait(monkeypatch, two_cpus):
    # far more than a pipe holds: a parent that waited for the child
    # before reading its answer would hang here
    text = "x" * (1 << 20)
    monkeypatch.setattr(verify, "_odd_failures", lambda seed: {
        "prolongation": [(1, "draw 1: long", text)]})
    results = verify.run_all(seed=0)
    assert two_cpus
    prolongation = results[-1]
    assert prolongation.failures == [(1, "draw 1: long", text)]


def _child_dies(how):
    """A suite wrapper that ends the child, not this process, as ``how``
    says, before the child has answered."""
    parent = os.getpid()
    real = verify.check_prolongation

    def wrapped(*args, **kwargs):
        if os.getpid() != parent:
            if how == "exit 0":
                os._exit(0)
            if how == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("child fault")
        return real(*args, **kwargs)
    return wrapped


@pytest.mark.parametrize("how", ["exit 0", "raise", "killed"])
def test_child_without_an_answer_gives_the_same_report(
        capsys, monkeypatch, two_cpus, faults, how):
    monkeypatch.setattr(verify, "check_prolongation", _child_dies(how))
    split = _invoke(capsys, 1)
    assert two_cpus
    assert split[0] == 1
    assert split == _sequential(capsys, monkeypatch, 1)


def _draw_lagrangians(check, seed):
    """The Lagrangian of each draw of ``check``, in draw order, as
    ``cascade_equations`` receives them."""
    seen = []
    real = verify.cascade_equations
    verify.cascade_equations = lambda prob: seen.append(
        repr(prob.lagrangian)) or real(prob)
    try:
        check(seed=seed)
    finally:
        verify.cascade_equations = real
    return seen


@pytest.mark.parametrize("draws", [
    # (suite, draw) pairs whose Lagrangians raise
    [("cascade_equivalence", 1)],             # the child's share only
    [("cascade_equivalence", 2)],             # this process's share only
    [("cascade_equivalence", 3), ("gauge_invariance", 0)],
    [("cascade_equivalence", 4), ("cascade_equivalence", 5)],
])
def test_internal_fault_gives_the_sequential_error_line(
        capsys, monkeypatch, two_cpus, draws):
    # the first fault in report order decides the line, whichever share
    # holds it
    seed = 2
    bad = {}
    for suite, i in draws:
        lagrangian = _draw_lagrangians(getattr(verify, f"check_{suite}"),
                                       seed)[i]
        bad[lagrangian] = f"{suite} draw {i}"
    real = verify.cascade_equations

    def faulty(prob):
        where = bad.get(repr(prob.lagrangian))
        if where:
            raise RuntimeError(f"fault at {where}")
        return real(prob)
    monkeypatch.setattr(verify, "cascade_equations", faulty)
    split = _invoke(capsys, seed)
    assert two_cpus
    assert split == _sequential(capsys, monkeypatch, seed)
    code, out, err = split
    first = min(draws, key=lambda d: (SEEDED.index(d[0]), d[1]))
    assert (code, out) == (3, "")
    assert err == f"error: RuntimeError: fault at {first[0]} draw {first[1]}\n"


def test_one_cpu_runs_sequentially(monkeypatch):
    monkeypatch.setattr(verify, "_cpus", lambda: 1)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked on one CPU"))
    assert all(r.ok for r in verify.run_all(seed=0))


def test_a_process_with_other_threads_runs_sequentially(monkeypatch):
    # a forked child holds only the calling thread, and none of the locks
    # the others may hold
    import threading
    monkeypatch.setattr(verify, "_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork",
                        lambda: pytest.fail("forked with a thread running"))
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(30,))
    waiter.start()
    try:
        assert all(r.ok for r in verify.run_all(seed=0))
    finally:
        release.set()
        waiter.join(30)
    assert not waiter.is_alive()

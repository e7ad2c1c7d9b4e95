"""Command-line front end.

Reports are JSON (``--latex`` switches the expression strings to LaTeX).
Exit status: 0 on success, 1 when a verification command finds a nonzero
residual, 2 on input errors (a ``JetcalcError``: parse failures, singular
transforms, missing blocks), 3 on an internal fault (any other exception,
including stdout closed before the report was written); exit 2 and 3 print
one ``error:`` line on stderr.  Each command imports its own modules.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .coords import Jet, Momentum
from .expr import Expr, JetcalcError, to_dsl
from .forms import SectionData
from .multiindex import MultiIndex
from .printing import form_to_latex, form_to_str, to_latex

COMMANDS = ("el", "cascade", "momenta", "currents", "legendre", "hamilton",
            "energy", "pc-form", "ms-check", "check-divergence", "shift",
            "prolong", "polarize", "galilei", "verify-all")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``run`` in a process and
    reused by every later one.  Building it costs more than parsing a
    small problem file, and the reuse pays only in a process that calls
    ``run`` more than once (a test session, an embedding caller, a
    benchmark loop); a one-command shell process builds it once either
    way.  Reuse is safe because ``parse_args`` keeps no state on the
    parser: each call returns a fresh namespace and writes its usage and
    errors to the ``sys.stdout``/``sys.stderr`` of that moment."""
    ap = argparse.ArgumentParser(
        prog="jetcalc",
        description="canonical formalism for higher-order Lagrangian field theories")
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("file", nargs="?", help="problem file (DSL)")
    ap.add_argument("--latex", action="store_true",
                    help="emit LaTeX expression strings")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed for verify-all")
    ap.add_argument("--order-cap", type=int, default=12,
                    help="cap on jet order growth in iterated derivatives")
    ap.add_argument("--time", type=int, default=None,
                    help="time direction for the energy command (default n)")
    ap.add_argument("--target-order", type=int, default=None,
                    help="prolongation order (default problem order)")
    ap.add_argument("--inverse", action="store_true",
                    help="apply the inverse momentum shift")
    return ap


class Report:
    def __init__(self, command: str, problem=None, latex: bool = False):
        self.doc = {"command": command,
                    "problem": ({"n": problem.n, "k": problem.k,
                                 "fields": list(problem.fields)}
                                if problem else None),
                    "result": {}, "residuals": []}
        self.latex = latex

    def expr(self, e: Expr) -> str:
        return to_latex(e) if self.latex else to_dsl(e)

    def form(self, f) -> str:
        return form_to_latex(f) if self.latex else form_to_str(f)

    def add(self, name: str, value):
        self.doc["result"][name] = value

    def add_residual(self, label: str, value: str):
        self.doc["residuals"].append({"label": label, "expr": value})

    def add_rows(self, eqs) -> None:
        for row in eqs:
            self.add(row.label,
                     f"{self.expr(row.lhs)} = {self.expr(row.rhs)}")

    def add_residuals(self, residuals, render=None) -> bool:
        """Record the nonzero (label, residual) pairs, printed by ``render``
        (``expr`` by default); True if there are none."""
        ok = True
        for label, res in residuals:
            if not res.is_zero():
                ok = False
                self.add_residual(label, (render or self.expr)(res))
        return ok

    def add_slots(self, slots: dict) -> None:
        for key in sorted(slots, key=lambda k: (k[0], tuple(k[1]), k[2])):
            self.add(repr(Momentum(*key)), self.expr(slots[key]))

    def emit(self) -> None:
        # flushed, so that a closed reader fails inside run(), not at exit
        print(json.dumps(self.doc, indent=2, ensure_ascii=False), flush=True)


def _load(path: str | None):
    from .parser import parse_problem
    if path is None:
        raise JetcalcError("this command requires a problem file")
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_problem(fh.read())
    except OSError as exc:
        raise JetcalcError(str(exc)) from None


def _need(block, what: str):
    """A block of the problem file, refused when the file has none."""
    if not block:
        raise JetcalcError(f"problem file has no {what}")
    return block


def _parse_argv(argv):
    """The parsed arguments; the file may come after the options.  The
    optional ``file`` positional is matched, empty, right after the command,
    so a file named after an option is left over: one leftover that is not
    an option is taken as the file when none was given.  Any other leftover
    is refused as ``parse_args`` refuses it (usage, error line, exit 2)."""
    ap = _build_parser()
    args, rest = ap.parse_known_args(argv)
    if args.file is None and len(rest) == 1 and not rest[0].startswith("-"):
        args.file = rest.pop()
    if rest:
        ap.error(f"unrecognized arguments: {' '.join(rest)}")
    return args


def run(argv=None) -> int:
    args = _parse_argv(argv)
    try:
        report, ok = _dispatch(args)
        report.emit()
        return 0 if ok else 1
    except JetcalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:    # a fault of the program, not of the input
        if isinstance(exc, BrokenPipeError):
            # The reader closed stdout: point it at devnull, so that flushing
            # the rest of the report at interpreter exit cannot fail again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _dispatch(args):
    """Compute the command's report; returns (report, no residual found)."""
    cmd = args.command
    if args.order_cap < 0:
        raise JetcalcError(f"order cap {args.order_cap} is negative")
    if cmd in ("galilei", "verify-all") and args.file is not None:
        raise JetcalcError(f"{cmd} takes no problem file")

    if cmd == "galilei":
        from .poincare import galilei_transform_check
        report = Report(cmd, latex=args.latex)
        rows = galilei_transform_check()
        for label, form in rows:
            report.add(label, report.form(form))
        return report, report.add_residuals(rows, report.form)

    if cmd == "verify-all":
        from .verify import run_all
        report = Report(cmd, latex=args.latex)
        results = run_all(seed=args.seed)
        ok = True
        for r in results:
            report.add(r.name, "pass" if r.ok else "fail")
            for label, e in r.failures:
                ok = False
                # plain text in either mode: e is an Expr or a form
                report.add_residual(f"{r.name}: {label}", repr(e))
        report.doc["result"]["seed"] = args.seed
        return report, ok

    pf = _load(args.file)
    prob = pf.problem
    report = Report(cmd, prob, latex=args.latex)

    if cmd == "el":
        from .variational import euler_lagrange
        report.add("euler_lagrange",
                   {fld: report.expr(e)
                    for fld, e in euler_lagrange(prob, order_cap=args.order_cap).items()})
        return report, True

    if cmd == "cascade":
        from .variational import cascade_equations, constrained_generating_family
        eqs = (constrained_generating_family(prob) if prob.constraints
               else cascade_equations(prob))
        report.add_rows(eqs)
        return report, True

    if cmd == "momenta":
        from .variational import canonical_momenta
        m = canonical_momenta(prob, order_cap=args.order_cap)
        report.add_slots(m.slots)
        return report, True

    if cmd == "currents":
        from .variational import canonical_momenta, currents
        tbl = currents(canonical_momenta(prob, order_cap=args.order_cap))
        for (fld, mi), e in sorted(tbl.items(),
                                   key=lambda kv: (kv[0][0], tuple(kv[0][1]))):
            report.add(f"j[{fld};{','.join(map(str, mi))}]", report.expr(e))
        return report, True

    if cmd == "legendre":
        from .legendre import legendre_top
        data = legendre_top(prob)
        report.add("h", report.expr(data.h))
        report.add("H", report.expr(data.hamiltonian))
        for (fld, mi), e in data.inversion.items():
            report.add(f"{fld}[{','.join(map(str, mi))}]", report.expr(e))
        return report, True

    if cmd == "hamilton":
        from .legendre import hamilton_equations
        report.add_rows(hamilton_equations(prob))
        return report, True

    if cmd == "energy":
        from .legendre import energy_legendre
        direction = args.time if args.time is not None else prob.n
        report.add("energy", report.expr(energy_legendre(prob, direction)))
        report.add("time_direction", str(direction))
        return report, True

    if cmd == "pc-form":
        from .poincare import pc_form
        form = pc_form(prob)
        report.add("omega", report.form(form.omega))
        report.add("theta", report.form(form.theta))
        report.add("H", report.expr(form.hamiltonian))
        return report, True

    if cmd == "ms-check":
        from .poincare import multisymplectic_residuals
        from .variational import holonomy_residual
        sigma = SectionData(_need(pf.section, "section block"), n=prob.n)
        eqs = multisymplectic_residuals(prob, sigma)
        hol = holonomy_residual(prob, sigma)
        report.add_rows(eqs)
        return report, report.add_residuals(
            eqs.residuals() + [(f"holonomy:{label}", res)
                               for label, res in hol.residuals()])

    if cmd == "check-divergence":
        from .divergence import divergence_lagrangian, verify_divergence_trivial
        F = _need(pf.fvector, "fcomponent statements")
        data = divergence_lagrangian(F, fields=prob.fields)
        report.add("L0", report.expr(data.lagrangian))
        eqs = verify_divergence_trivial(F, fields=prob.fields)
        report.add_rows(eqs)
        return report, report.add_residuals(eqs.residuals())

    if cmd == "shift":
        from .divergence import momentum_shift
        from .variational import canonical_momenta
        F = _need(pf.fvector, "fcomponent statements")
        m = canonical_momenta(prob, order_cap=args.order_cap)
        shifted = momentum_shift(m, F, "inverse" if args.inverse else "forward")
        report.add_slots(shifted.slots)
        return report, True

    if cmd == "prolong":
        from .parser import grid_refusal
        from .prolongation import prolong_vertical_field
        vfields = _need(pf.vfields, "vfield statements")
        order = args.target_order if args.target_order is not None else prob.k
        refusal = grid_refusal(prob.n, order, "target order")
        if refusal:
            raise JetcalcError(refusal)
        lifted = prolong_vertical_field(vfields, n=prob.n,
                                        target_order=order,
                                        order_cap=args.order_cap)
        for coord, e in lifted.items():
            report.add(f"d/d({coord!r})", report.expr(e))
        return report, True

    if cmd == "polarize":
        from .prolongation import homogeneous_degree, polarize
        poly = _need(pf.poly, "poly statement")
        variables = [Jet(fld, MultiIndex.zero(prob.n)) for fld in prob.fields]
        for fld, comp in zip(prob.fields, polarize(poly, variables)):
            report.add(f"component_{fld}", report.expr(comp))
        report.add("degree", str(homogeneous_degree(poly, variables)))
        return report, True

    raise JetcalcError(f"unhandled command {cmd}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

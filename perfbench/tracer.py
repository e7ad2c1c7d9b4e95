"""Spans around the calls into jetcalc's layers, installed from outside.

``Tracer.install()`` replaces each traced function by a wrapper that records
one span per call: name, start, end, parent span and job id.  Spans are kept
in flat arrays while a round runs; :meth:`Tracer.aggregate` turns them into
per-name call counts, self times and busy times afterwards.  Use one Tracer
per traced round: install, run, uninstall, aggregate.

Three things make the counts repeat exactly:

* ``Expr.__radd__`` and ``Expr.__rmul__`` are aliases of the operators, so
  each class attribute gets its own wrapper, counted under ``expr.add`` and
  ``expr.mul`` (``__sub__`` and ``__pow__`` go through ``+`` and ``*`` and
  are counted there);
* modules bind ``partial_derivative`` and its siblings by name at import, so
  every ``jetcalc`` module attribute (and tuple of functions, such as
  ``verify.ALL_CHECKS``) that holds an original gets the wrapper;
* nothing here depends on hashing or timing.
"""

from __future__ import annotations

import sys
import time
from array import array

# (module, attribute, metric name).  Expr operators are handled separately.
FUNCTIONS = (
    ("parser", "parse_problem", "parser.parse_problem"),
    ("expr", "partial_derivative", "expr.partial_derivative"),
    ("expr", "total_derivative", "expr.total_derivative"),
    ("expr", "substitute", "expr.substitute"),
    ("expr", "divide", "expr.divide"),
    ("expr", "to_dsl", "expr.to_dsl"),
    ("printing", "to_latex", "printing.to_latex"),
    ("printing", "form_to_str", "printing.form_to_str"),
    ("cli", "run", "cli.run"),
    ("legendre", "legendre_top", "legendre.legendre_top"),
    ("legendre", "hamilton_equations", "legendre.hamilton_equations"),
    ("variational", "euler_lagrange", "variational.euler_lagrange"),
    ("variational", "canonical_momenta", "variational.canonical_momenta"),
    ("variational", "currents", "variational.currents"),
    ("variational", "cascade_equations", "variational.cascade_equations"),
    ("variational", "evaluate_on_momenta", "variational.evaluate_on_momenta"),
    ("poincare", "pc_form", "poincare.pc_form"),
    ("poincare", "multisymplectic_residuals",
     "poincare.multisymplectic_residuals"),
    ("forms", "exterior_derivative", "forms.exterior_derivative"),
    ("forms", "interior_product", "forms.interior_product"),
    ("divergence", "verify_divergence_trivial",
     "divergence.verify_divergence_trivial"),
    ("divergence", "momentum_shift", "divergence.momentum_shift"),
    ("prolongation", "prolong_vertical_field",
     "prolongation.prolong_vertical_field"),
)

VERIFY_SUITES = ("mechanics", "galilei", "divergence_triviality",
                 "momentum_shift", "cascade_equivalence", "gauge_invariance",
                 "multisymplectic", "polarization", "prolongation")

STAGES_WITH_TERMS = ("euler_lagrange", "canonical_momenta", "currents",
                     "cascade_equations", "evaluate_on_momenta")


def count_terms(obj) -> int:
    """Total number of terms in a stage result (Expr, dict, table, rows);
    0 for a result of any other shape."""
    if hasattr(obj, "_terms"):
        return len(obj._terms)
    if isinstance(obj, dict):
        return sum(count_terms(v) for v in obj.values())
    if hasattr(obj, "slots"):
        return count_terms(obj.slots)
    if hasattr(obj, "table"):
        return count_terms(obj.table)
    if hasattr(obj, "rows"):
        return sum(count_terms(r.lhs) + count_terms(r.rhs) for r in obj.rows)
    return 0


def _is_zero(e) -> int:
    return 1 if e.is_zero() else 0


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self._patches: list = []    # (owner, attribute, original)
        self.job = 0
        self.name_of = array("i")
        self.parent = array("i")
        self.job_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.post_sum: dict = {}
        self._stack = [-1]          # open spans; -1 is "no parent"

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, post=None):
        nid = self._name_id(name)
        clock = time.perf_counter
        t = self

        def traced(*args, **kwargs):
            stack = t._stack
            idx = len(t.start)
            t.name_of.append(nid)
            t.parent.append(stack[-1])
            t.job_of.append(t.job)
            t.end.append(0.0)
            stack.append(idx)
            t.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t.end[idx] = clock()
                stack.pop()
            if post is not None:
                t.post_sum[nid] = t.post_sum.get(nid, 0) + post(result)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every traced function in every jetcalc module that binds it."""
        import jetcalc.expr
        import jetcalc.verify

        Expr = jetcalc.expr.Expr
        for op, name in (("__add__", "expr.add"), ("__radd__", "expr.add"),
                         ("__mul__", "expr.mul"), ("__rmul__", "expr.mul")):
            if op in vars(Expr):
                self._patch(Expr, op, self.wrap(vars(Expr)[op], name))

        # A function that a later version renames or removes is skipped and
        # reads as zero calls, rather than breaking the traced run.
        replace = {}
        for mod, attr, name in FUNCTIONS:
            fn = getattr(sys.modules.get(f"jetcalc.{mod}"), attr, None)
            post = None
            if attr == "partial_derivative":
                post = _is_zero
            elif attr in STAGES_WITH_TERMS:
                post = count_terms
            if fn is not None:
                replace[id(fn)] = self.wrap(fn, name, post)
        for suite in VERIFY_SUITES:
            fn = getattr(jetcalc.verify, f"check_{suite}", None)
            if fn is not None:
                replace[id(fn)] = self.wrap(fn, f"verify.{suite}")

        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("jetcalc") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in replace:
                    self._patch(mod, attr, replace[id(value)])
                elif isinstance(value, tuple) and any(id(v) in replace
                                                      for v in value):
                    self._patch(mod, attr, tuple(replace.get(id(v), v)
                                                 for v in value))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def aggregate(self) -> dict:
        """Per name: calls, busy seconds (inclusive), self seconds, and the
        sum of its result hook.  Self time is a span's duration minus the
        durations of its direct children (spans nest, never overlap)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "post": 0}
               for name in self.names}
        name_of = self.name_of
        for i in range(n):
            row = out[self.names[name_of[i]]]
            row["calls"] += 1
            row["busy_s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        for nid, total in self.post_sum.items():
            out[self.names[nid]]["post"] = total
        return out

    def write(self, path: str):
        """Write the recorded spans as tab-separated text."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tparent\tjob\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name_of[i]]}\t"
                         f"{self.parent[i]}\t{self.job_of[i]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")

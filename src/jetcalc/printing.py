"""LaTeX emission for expressions and forms (presentation only; the DSL
printer in :mod:`jetcalc.expr` is the canonical, re-parseable format)."""

from __future__ import annotations

from .coords import Base, Jet, Momentum, Multiplier, Parameter
from .expr import Expr, OpaqueCall, _digits, _join_terms
from .forms import ExteriorForm, _join_form, form_to_str  # noqa: F401 (public here)

_GREEK = {"alpha", "beta", "gamma", "delta", "epsilon", "lambda", "mu", "nu",
          "xi", "rho", "sigma", "tau", "phi", "chi", "psi", "omega", "theta"}


def _name_latex(name: str) -> str:
    return f"\\{name}" if name in _GREEK else name


def atom_latex(a) -> str:
    if isinstance(a, Base):
        return f"x^{{{a.mu}}}"
    if isinstance(a, Jet):
        fld = _name_latex(a.fld)
        if a.mi.order == 0:
            return fld
        return f"{fld}_{{({','.join(map(str, a.mi))})}}"
    if isinstance(a, Momentum):
        fld = _name_latex(a.fld)
        if a.last is None:
            head = f"p_{{{fld}}}^{{({','.join(map(str, a.mi))})}}"
        else:
            prefix = ",".join(map(str, a.mi))
            head = f"p_{{{fld}}}^{{({prefix})\\,{a.last}}}"
        if a.derivs.order:
            head = f"\\partial_{{({','.join(map(str, a.derivs))})}} {head}"
        return head
    if isinstance(a, Multiplier):
        return f"\\lambda^{{{a.a}}}"
    if isinstance(a, Parameter):
        return _name_latex(a.name)
    if isinstance(a, OpaqueCall):
        return f"{a.marked_name()}({', '.join(to_latex(arg) for arg in a.args)})"
    raise TypeError(f"unknown atom {a!r}")


def _coeff_latex(n: int, d: int) -> str:
    """The LaTeX of the positive coefficient n/d, in lowest terms."""
    num = _digits(n)
    if d == 1:
        return num
    return f"\\tfrac{{{num}}}{{{_digits(d)}}}"


def to_latex(e: Expr) -> str:
    return _join_terms(e, _LatexTexts, _term_latex)


class _LatexTexts(dict):
    """A factor's LaTeX text, formed on first use."""

    __slots__ = ()

    def __missing__(self, factor):
        a, exp = factor
        s = atom_latex(a)
        text = self[factor] = (s if exp == 1 else
                               f"{s}^{{{_digits(exp, 'exponent')}}}")
        return text


def _term_latex(mon, n, d, texts) -> str:
    body = "\\,".join(map(texts.__getitem__, mon))
    if n != 1 or d != 1 or not body:
        body = _coeff_latex(n, d) + ("\\," + body if body else "")
    return body


def form_to_latex(a: ExteriorForm) -> str:
    return _join_form(a, _form_term_latex)


def _form_term_latex(facs, coeff) -> str:
    c = to_latex(coeff)
    if not facs:
        return c
    wedge_part = " \\wedge ".join(f"\\mathrm{{d}}{atom_latex(f)}" for f in facs)
    return (f"\\left({c}\\right) {wedge_part}" if " " in c or "+" in c
            else f"{c}\\, {wedge_part}")

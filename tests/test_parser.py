"""Parser: differential and fuzz tests against the reference parser.

The reference below is the tokenizer and parser as they were before the
tokenizer became one ``finditer`` pass and numeric literals started to fold
as numbers: a per-token ``match`` loop with line and column counted as it
goes, and every number an ``Expr``.  The parser must give an equal
``ProblemFile`` or the same ``ParseError`` message, line and column.  The
only differences allowed are the inputs the reference let through or
crashed on:

- a declaration whose name is not an identifier (``field 3;``), which the
  reference accepted;
- inputs on which the reference raised something other than ``ParseError``
  or ``ProblemError`` (``lam[1,2]``, an integer literal beyond the
  interpreter's digit limit, a file that ends right after ``field``),
  where the parser must raise a ``ParseError``;
- a power over a budget of ``^``, which the parser refuses with a
  ``ParseError`` at the exponent and the reference computed;
- a ``base``/``order`` pair whose jet grid is over its budget, which the
  parser refuses at the later of the two values before any expression is
  parsed, and the reference accepted;
- a ``(`` nested past the nesting budget, which the reference parsed or
  crashed on with a ``RecursionError``;
- a second ``vfield`` statement for a field, and a section key that is not
  a jet or momentum slot or repeats an earlier key, which the reference
  let through, keeping the last value.
"""

import importlib.util
import math
import os
import re
import string
import sys
from dataclasses import dataclass
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from jetcalc import (Base, Expr, Jet, LagrangianProblem, Momentum, Multiplier,
                     MultiIndex, OpaqueCall, Parameter, ParseError,
                     ProblemError, ProblemFile, divide, parse_expr,
                     parse_problem, to_dsl)
import jetcalc.parser as parser_module

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(ROOT, "perfbench", "corpus")


# -- the reference: tokenizer and parser before the single-pass rewrite -----

_REF_RESERVED = {"p", "lam", "base", "field", "order", "param", "opaque",
                 "lagrangian", "constraint", "section", "fcomponent", "vfield",
                 "poly"}

_REF_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+|\#[^\n]*)
      | (?P<int>\d+)
      | (?P<marker>[A-Za-z_]\w*_\{,\d+\})
      | (?P<ident>[A-Za-z_]\w*)
      | (?P<op>[-+*/^(){};,=\[\]])
    """,
    re.VERBOSE,
)


@dataclass
class _RefToken:
    kind: str
    text: str
    line: int
    col: int


def ref_tokenize(text: str) -> list[_RefToken]:
    tokens = []
    pos, line, col = 0, 1, 1
    while pos < len(text):
        m = _REF_TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        raw = m.group()
        if kind != "ws":
            tokens.append(_RefToken(kind, raw, line, col))
        newlines = raw.count("\n")
        if newlines:
            line += newlines
            col = len(raw) - raw.rfind("\n")
        else:
            col += len(raw)
        pos = m.end()
    tokens.append(_RefToken("eof", "", line, col))
    return tokens


class _RefTokens:
    """A cursor over a token list that ends with an ``eof`` token."""

    def __init__(self, toks: list[_RefToken]):
        self.toks = toks
        self.i = 0

    def peek(self) -> _RefToken:
        return self.toks[self.i]

    def next(self) -> _RefToken:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> _RefToken:
        t = self.next()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return t

    def error(self, message: str):
        t = self.peek()
        raise ParseError(message, t.line, t.col)


class _RefExprParser:
    """Recursive-descent expression parser against a declaration context."""

    def __init__(self, toks: _RefTokens, problem: LagrangianProblem,
                 max_jet_order: int | None):
        self.toks = toks
        self.problem = problem
        self.max_jet = problem.k if max_jet_order is None else max_jet_order

    def parse(self) -> Expr:
        return self._sum()

    def _sum(self) -> Expr:
        terms = [self._term()]
        while self.toks.peek().text in ("+", "-"):
            op = self.toks.next().text
            rhs = self._term()
            terms.append(rhs if op == "+" else -rhs)
        return Expr.sum(terms)

    def _term(self) -> Expr:
        e = self._factor()
        while self.toks.peek().text in ("*", "/"):
            op = self.toks.next().text
            rhs = self._factor()
            if op == "*":
                e = e * rhs
            else:
                t = self.toks.peek()
                try:
                    e = divide(e, rhs)
                except Exception as exc:
                    raise ParseError(str(exc), t.line, t.col) from None
        return e

    def _factor(self) -> Expr:
        sign = 1
        while self.toks.peek().text in ("+", "-"):
            if self.toks.next().text == "-":
                sign = -sign
        e = self._primary()
        if self.toks.peek().text == "^":
            self.toks.next()
            t = self.toks.next()
            if t.kind != "int":
                raise ParseError("exponent must be a non-negative integer",
                                 t.line, t.col)
            e = e ** int(t.text)
        return e * sign

    def _primary(self) -> Expr:
        t = self.toks.peek()
        if t.text == "(":
            self.toks.next()
            e = self._sum()
            self.toks.expect(")")
            return e
        if t.kind == "int":
            self.toks.next()
            return Expr.const(Fraction(t.text))
        if t.kind == "marker":
            return self._opaque_marker()
        if t.kind == "ident":
            return self._atomref()
        self.toks.error(f"unexpected token {t.text!r}")

    # -- atoms ------------------------------------------------------------

    def _intlist(self) -> list[int]:
        out = []
        while True:
            t = self.toks.next()
            if t.kind != "int":
                raise ParseError("expected an integer", t.line, t.col)
            out.append(int(t.text))
            if self.toks.peek().text != ",":
                break
            self.toks.next()
        return out

    def _multiindex(self, entries: list[int], where: _RefToken) -> MultiIndex:
        n = self.problem.n
        if len(entries) != n:
            raise ParseError(
                f"expected {n} multi-index entries, found {len(entries)}",
                where.line, where.col)
        return MultiIndex(entries)

    def _atomref(self) -> Expr:
        t = self.toks.next()
        name = t.text
        nxt = self.toks.peek().text
        if name == "p" and nxt == "[":
            return self._momentum(t)
        if name == "lam" and nxt == "[":
            self.toks.next()
            (a,) = self._intlist()
            self.toks.expect("]")
            return Expr.atom(Multiplier(a))
        if nxt == "(":
            return self._opaque_call(t, ())
        if name in self.problem.fields:
            if nxt == "[":
                self.toks.next()
                mi = self._multiindex(self._intlist(), t)
                self.toks.expect("]")
                if mi.order > self.max_jet:
                    raise ParseError(
                        f"jet order {mi.order} of {name} exceeds k={self.max_jet}",
                        t.line, t.col)
                return Expr.atom(Jet(name, mi))
            return Expr.atom(Jet(name, MultiIndex.zero(self.problem.n)))
        if name in self.problem.params:
            return Expr.atom(Parameter(name))
        m = re.fullmatch(r"x(\d+)", name)
        if m and 1 <= int(m.group(1)) <= self.problem.n:
            return Expr.atom(Base(int(m.group(1))))
        raise ParseError(f"unknown identifier {name!r}", t.line, t.col)

    def _momentum(self, t: _RefToken) -> Expr:
        self.toks.expect("[")
        fld_tok = self.toks.peek()
        if fld_tok.kind != "ident":
            # p[ints] would be a jet of a field named p; no such field here
            raise ParseError("momentum atom expects a field name", fld_tok.line,
                             fld_tok.col)
        fld = self.toks.next().text
        if fld not in self.problem.fields:
            raise ParseError(f"unknown field {fld!r}", fld_tok.line, fld_tok.col)
        segments: list[list[int]] = []
        while self.toks.peek().text == ";":
            self.toks.next()
            if self.toks.peek().text in (";", "]"):
                segments.append([])
            else:
                segments.append(self._intlist())
        self.toks.expect("]")
        n = self.problem.n
        zero = MultiIndex.zero(n)
        if len(segments) == 1:
            mi = self._multiindex(segments[0], t) if segments[0] else zero
            if mi.order < 1:
                raise ParseError("symmetric momentum needs order >= 1", t.line, t.col)
            return Expr.atom(Momentum(fld, mi))
        if len(segments) in (2, 3):
            mi = self._multiindex(segments[0], t) if segments[0] else zero
            last_seg = segments[1]
            last = None
            if last_seg:
                if len(last_seg) != 1 or not 1 <= last_seg[0] <= n:
                    raise ParseError("bad last index", t.line, t.col)
                last = last_seg[0]
            derivs = zero
            if len(segments) == 3 and segments[2]:
                derivs = self._multiindex(segments[2], t)
            if last is None:
                if mi.order < 2:
                    raise ParseError("symmetric momentum needs order >= 2 here",
                                     t.line, t.col)
                return Expr.atom(Momentum(fld, mi, None, derivs))
            return Expr.atom(Momentum(fld, mi, last, derivs))
        raise ParseError("malformed momentum atom", t.line, t.col)

    def _opaque_marker(self) -> Expr:
        t = self.toks.next()
        name, digits = t.text.split("_{,")
        digits = digits[:-1]
        return self._opaque_call(_RefToken("ident", name, t.line, t.col),
                                 tuple(int(d) for d in digits))

    def _opaque_call(self, t: _RefToken, marker: tuple[int, ...]) -> Expr:
        name = t.text
        if name not in self.problem.opaques:
            raise ParseError(f"unknown function {name!r}", t.line, t.col)
        arity = self.problem.opaques[name]
        self.toks.expect("(")
        args = []
        if self.toks.peek().text != ")":
            while True:
                args.append(self._sum())
                if self.toks.peek().text != ",":
                    break
                self.toks.next()
        self.toks.expect(")")
        if len(args) != arity:
            raise ParseError(
                f"{name} takes {arity} argument(s), found {len(args)}",
                t.line, t.col)
        derivs = [0] * arity
        for d in marker:
            if not 1 <= d <= arity:
                raise ParseError(f"marker slot {d} out of range", t.line, t.col)
            derivs[d - 1] += 1
        return Expr.atom(OpaqueCall(name, tuple(derivs), tuple(args)))


def ref_parse_expr(text: str, problem: LagrangianProblem,
               max_jet_order: int | None = None) -> Expr:
    """Parse a single expression against a problem's declarations.

    Jets are bounded by the problem order k unless ``max_jet_order`` lifts
    the bound (reports legitimately contain jets above k, e.g. from total
    derivatives in the cascade).
    """
    return _ref_parse_tokens(ref_tokenize(text), problem, max_jet_order)


def _ref_parse_tokens(tokens: list[_RefToken], problem: LagrangianProblem,
                  max_jet_order: int | None = None) -> Expr:
    toks = _RefTokens(tokens)
    e = _RefExprParser(toks, problem, max_jet_order).parse()
    t = toks.peek()
    if t.kind != "eof":
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    return e


def _ref_parse_stmt_expr(tokens: list[_RefToken], problem: LagrangianProblem,
                     what: str) -> Expr:
    """Parse one statement's token slice; an error keeps the location of
    the offending token and names the statement."""
    try:
        return _ref_parse_tokens(tokens, problem)
    except ParseError as exc:
        raise ParseError(f"{exc.message} (in {what} statement)",
                         exc.line, exc.col) from None


def ref_parse_problem(text: str) -> ProblemFile:
    """Parse a full problem file.  The file is tokenized once: each
    expression statement keeps its token slice, parsed once the
    declarations are known."""
    toks = _RefTokens(ref_tokenize(text))
    n = k = None
    fields: list[str] = []
    params: list[str] = []
    opaques: dict[str, int] = {}
    lagrangian = None
    section_stmts: list[tuple] = []
    deferred: list[tuple] = []
    poly_src = None

    def problem_so_far(L=None, cons=()):
        if n is None:
            toks.error("missing 'base' declaration")
        if k is None:
            toks.error("missing 'order' declaration")
        if not fields:
            toks.error("missing 'field' declaration")
        return LagrangianProblem(n, tuple(fields), k,
                                 L if L is not None else Expr(),
                                 tuple(cons), tuple(params), dict(opaques))

    def read_expr_tokens() -> list[_RefToken]:
        # the tokens up to ';', closed by an eof at the ';', so expressions
        # parse after the headers
        depth = 0
        parts = []
        while True:
            t = toks.peek()
            if t.kind == "eof":
                toks.error("unterminated statement")
            if t.text == ";" and depth == 0:
                break
            if t.text in ("(", "[", "{"):
                depth += 1
            if t.text in (")", "]", "}"):
                depth -= 1
            parts.append(toks.next())
        return parts + [_RefToken("eof", "", t.line, t.col)]

    def read_int(what: str) -> int:
        t = toks.next()
        if t.kind != "int":
            raise ParseError(f"{what} must be an integer, found {t.text!r}",
                             t.line, t.col)
        return int(t.text)

    def declare(name: str, tok):
        if name in _REF_RESERVED or re.fullmatch(r"x\d+", name):
            raise ParseError(f"{name!r} is reserved", tok.line, tok.col)
        if name in fields or name in params or name in opaques:
            raise ParseError(f"{name!r} already declared", tok.line, tok.col)

    while toks.peek().kind != "eof":
        t = toks.next()
        stmt = t.text
        if stmt == "base":
            if n is not None:
                raise ParseError("duplicate 'base' declaration", t.line, t.col)
            n = read_int("base dimension")
            toks.expect(";")
        elif stmt == "order":
            if k is not None:
                raise ParseError("duplicate 'order' declaration", t.line, t.col)
            k = read_int("order")
            toks.expect(";")
        elif stmt == "field":
            name = toks.next()
            declare(name.text, name)
            fields.append(name.text)
            toks.expect(";")
        elif stmt == "param":
            name = toks.next()
            declare(name.text, name)
            params.append(name.text)
            toks.expect(";")
        elif stmt == "opaque":
            name = toks.next()
            declare(name.text, name)
            toks.expect("(")
            arity = read_int("opaque arity")
            toks.expect(")")
            toks.expect(";")
            if not 1 <= arity <= 9:
                raise ParseError("opaque arity must be 1..9", name.line, name.col)
            opaques[name.text] = arity
        elif stmt == "lagrangian":
            if lagrangian is not None:
                raise ParseError("duplicate 'lagrangian' statement", t.line, t.col)
            lagrangian = read_expr_tokens()
            toks.expect(";")
        elif stmt == "constraint":
            deferred.append(("constraint", read_expr_tokens(), t.line, t.col))
            toks.expect(";")
        elif stmt == "fcomponent":
            deferred.append(("fcomponent", read_expr_tokens(), t.line, t.col))
            toks.expect(";")
        elif stmt == "poly":
            if poly_src is not None:
                raise ParseError("duplicate 'poly' statement", t.line, t.col)
            poly_src = read_expr_tokens()
            toks.expect(";")
        elif stmt == "vfield":
            name = toks.next().text
            toks.expect("=")
            deferred.append((f"vfield:{name}", read_expr_tokens(), t.line, t.col))
            toks.expect(";")
        elif stmt == "section":
            toks.expect("{")
            while toks.peek().text != "}":
                start = toks.peek()
                lhs = []
                while toks.peek().text != "=":
                    if toks.peek().kind == "eof":
                        toks.error("unterminated section block")
                    lhs.append(toks.next())
                eq = toks.expect("=")
                lhs.append(_RefToken("eof", "", eq.line, eq.col))
                rhs = read_expr_tokens()
                toks.expect(";")
                section_stmts.append((lhs, rhs, start.line, start.col))
            toks.expect("}")
        else:
            raise ParseError(f"unknown statement {stmt!r}", t.line, t.col)

    bare = problem_so_far()
    L = (_ref_parse_stmt_expr(lagrangian, bare, "lagrangian")
         if lagrangian is not None else Expr())
    cons = [_ref_parse_stmt_expr(src, bare, "constraint")
            for kind, src, line, col in deferred if kind == "constraint"]
    problem = problem_so_far(L, cons)

    pf = ProblemFile(problem=problem)
    for kind, src, line, col in deferred:
        if kind == "fcomponent":
            pf.fvector.append(_ref_parse_stmt_expr(src, problem, "fcomponent"))
        elif kind.startswith("vfield:"):
            fld = kind.split(":", 1)[1]
            if fld not in problem.fields:
                raise ParseError(f"vfield for unknown field {fld!r}", line, col)
            pf.vfields[fld] = _ref_parse_stmt_expr(src, problem, "vfield")
    if poly_src is not None:
        pf.poly = _ref_parse_stmt_expr(poly_src, problem, "poly")
    if section_stmts:
        assign = {}
        for lhs_toks, rhs_toks, line, col in section_stmts:
            lhs = _ref_parse_stmt_expr(lhs_toks, problem, "section")
            atoms = lhs.atoms()
            if len(atoms) != 1 or lhs != Expr.atom(next(iter(atoms))):
                lhs_src = " ".join(t.text for t in lhs_toks[:-1])
                raise ParseError(f"section key must be a single slot: {lhs_src}",
                                 line, col)
            assign[next(iter(atoms))] = _ref_parse_stmt_expr(rhs_toks, problem,
                                                         "section")
        pf.section = assign
    if pf.fvector and len(pf.fvector) != problem.n:
        end = toks.peek()
        raise ParseError(
            f"expected {problem.n} fcomponent statements, found {len(pf.fvector)}",
            end.line, end.col)
    return pf


# -- comparing outcomes --------------------------------------------------------

def _outcome(parse, *args):
    try:
        return ("ok", parse(*args))
    except ParseError as exc:
        return ("ParseError", exc.message, exc.line, exc.col)
    except ProblemError as exc:
        return ("ProblemError", str(exc))
    except Exception as exc:    # a fault, not an input error
        return ("fault", type(exc).__name__)


def _non_identifier_declaration(text, line, col):
    """True when the token at (line, col) is the name of a field, param or
    opaque declaration and not an identifier: the reference took it as a
    name."""
    toks = ref_tokenize(text)
    return any((t.line, t.col) == (line, col) and t.kind != "ident"
               and prev.text in ("field", "param", "opaque")
               for prev, t in zip(toks, toks[1:]))


def _assert_refusal_is_past_a_budget(text, ref, new):
    """A budget refusal may stand where the reference computed the power:
    it parsed the file, or failed at a later token.  The refused power must
    pass a budget by the bounds recomputed here."""
    assert ref[0] == "ok" or (ref[0] == "ParseError"
                              and (ref[2], ref[3]) > (new[2], new[3])), \
        (text, ref, new)
    refused = []
    real = parser_module._power_refusal

    def spy(base, d):
        why = real(base, d)
        if why:
            refused.append((base, d))
        return why

    with mock.patch.object(parser_module, "_power_refusal", spy):
        assert _outcome(parse_problem, text) == new
    # one refusal, seen again where the file is parsed a second time
    (base, d), = set(refused)
    if isinstance(base, Expr):
        terms, den = base.parts()
        coeffs = [Fraction(c, den) for c in terms.values()]
    else:
        coeffs = [base]
    m = len(coeffs)
    terms = math.comb(d + m - 1, m - 1)
    bits = max(math.ceil(math.log2(max(abs(c.numerator), c.denominator)))
               for c in coeffs) + math.ceil(math.log2(m))
    assert terms > parser_module.TERM_BUDGET \
        or terms * d * bits > parser_module.BIT_BUDGET, (text, m, d)


def _assert_grid_is_past_its_budget(text, new):
    """A grid refusal stands at the value of a ``base`` or ``order``
    statement, and the grid C(n+k, n) of the declared pair, recomputed
    here, passes the budget."""
    refused = []
    real = parser_module.grid_refusal

    def spy(n, k):
        why = real(n, k)
        if why:
            refused.append((n, k))
        return why

    with mock.patch.object(parser_module, "grid_refusal", spy):
        assert _outcome(parse_problem, text) == new
    # one refusal, seen again where the file is parsed a second time
    (n, k), = set(refused)
    assert math.comb(n + k, n) > parser_module.GRID_BUDGET, (text, n, k)
    toks = ref_tokenize(text)
    assert any((t.line, t.col) == new[2:] and t.kind == "int"
               and int(t.text) == {"base": n, "order": k}.get(prev.text)
               for prev, t in zip(toks, toks[1:])), (text, new)


def _assert_refusal_of_this_parser(text, ref, new):
    """A nesting refusal stands at a "(" past the budget, counted here; a
    duplicate vfield refusal at a ``vfield`` statement whose field had one
    before; and a section key refusal where the reference went on past the
    key."""
    toks = ref_tokenize(text)
    at = next(i for i, t in enumerate(toks) if (t.line, t.col) == new[2:])
    if new[1].startswith("nesting deeper than "):
        depth = sum((t.text == "(") - (t.text == ")") for t in toks[:at + 1])
        assert toks[at].text == "(" and \
            depth > parser_module.NESTING_BUDGET, (text, new)
    elif new[1].startswith("duplicate 'vfield' statement"):
        name = toks[at + 1].text
        assert toks[at].text == "vfield" and any(
            a.text == "vfield" and b.text == name
            for a, b in zip(toks[:at], toks[1:at])), (text, new)
    else:
        assert ref[0] == "ok" or (ref[0] == "ParseError"
                                  and ref[2:] > new[2:]), (text, ref, new)


_REFUSALS_OF_THIS_PARSER = ("nesting deeper than ",
                            "duplicate 'vfield' statement",
                            "section key must be a single slot: ",
                            "duplicate section key: ")


def _assert_same_or_allowed(text):
    ref = _outcome(ref_parse_problem, text)
    new = _outcome(parse_problem, text)
    assert new[0] != "fault", (text, new)
    if new == ref:
        return
    if ref[0] == "fault":
        assert new[0] == "ParseError", (text, ref, new)
        return
    if new[0] == "ParseError" and new[1].startswith("power too large: "):
        _assert_refusal_is_past_a_budget(text, ref, new)
        return
    if new[0] == "ParseError" and new[1].startswith("jet grid too large: "):
        _assert_grid_is_past_its_budget(text, new)
        return
    if new[0] == "ParseError" and new[1].startswith(_REFUSALS_OF_THIS_PARSER):
        _assert_refusal_of_this_parser(text, ref, new)
        return
    assert new[0] == "ParseError" and new[1].startswith("expected a name, found ") \
        and _non_identifier_declaration(text, new[2], new[3]), (text, ref, new)


def _corpus_texts():
    out = {}
    for name in sorted(os.listdir(CORPUS)):
        with open(os.path.join(CORPUS, name), encoding="utf-8") as fh:
            out[name] = fh.read()
    return out


CORPUS_TEXTS = _corpus_texts()


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


# -- the equality that the differential tests compare with ---------------------

_U = Expr.atom(Jet("u", MultiIndex((1, 0))))
_RECORD = dict(n=2, fields=("u", "v"), k=2, lagrangian=_U ** 2,
               constraints=(_U,), params=("a",), opaques={"U": 2})
_RECORD_CHANGED = dict(n=3, fields=("u",), k=3, lagrangian=_U ** 3,
                       constraints=(), params=("a", "b"), opaques={"U": 1})


def _file(**changes):
    pf = ProblemFile(LagrangianProblem(**_RECORD))
    pf.section = {Jet("u", MultiIndex((0, 0))): Expr.atom(Base(1))}
    pf.fvector = [_U, Expr()]
    pf.vfields = {"u": _U}
    pf.poly = _U ** 2
    for name, value in changes.items():
        setattr(pf, name, value)
    return pf


_FILE_CHANGED = dict(problem=LagrangianProblem(**dict(_RECORD, k=3)),
                     section=None, fvector=[_U], vfields={}, poly=None)


@pytest.mark.parametrize("name", sorted(_RECORD_CHANGED))
def test_problem_equality_covers_every_field(name):
    # every slot but the gradient table, which equality leaves out
    assert set(_RECORD_CHANGED) | {"_gradients"} == \
        set(LagrangianProblem.__slots__)
    assert LagrangianProblem(**_RECORD) == LagrangianProblem(**_RECORD)
    changed = LagrangianProblem(**dict(_RECORD, **{name: _RECORD_CHANGED[name]}))
    assert changed != LagrangianProblem(**_RECORD)


@pytest.mark.parametrize("name", sorted(_FILE_CHANGED))
def test_problem_file_equality_covers_every_field(name):
    assert set(_FILE_CHANGED) == set(ProblemFile.__slots__)
    assert _file() == _file()
    assert _file(**{name: _FILE_CHANGED[name]}) != _file()


# -- fixed inputs --------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(CORPUS_TEXTS))
def test_corpus_parses_as_the_reference(name):
    text = CORPUS_TEXTS[name]
    got = _outcome(parse_problem, text)
    assert got[0] == "ok"
    assert got == _outcome(ref_parse_problem, text)


def test_generated_inputs_parse_as_the_reference(tmp_path):
    workloads = _workloads()
    files = set()
    for seed in (0, 5, 23):
        for make in (workloads.legendre_solve, workloads.dense_el):
            files.update(job.argv[1] for job in make(seed, str(tmp_path)))
    assert len(files) == 14
    for path in sorted(files):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        got = _outcome(parse_problem, text)
        assert got[0] == "ok"
        assert got == _outcome(ref_parse_problem, text), path


@pytest.mark.parametrize("text", [
    "base 1; field u; order 1; lagrangian 2/2*u[1]^2 - -3*u/6 + (1/2)^3*x1;",
    "base 1; field u; order 1; lagrangian 0^0*u + 2^10*u[1] - 3/(1/2)*x1*u;",
    "base 1; field u; order 1; param a; lagrangian 4/a/2*u + a/(2*a)*u[1];",
    "base 1; field u; order 1; lagrangian 1/0*u;",
    "base 1; field u; order 1; lagrangian u/0;",
    "base 1; field u; order 1; lagrangian (1-1)/(2-2)*u;",
    "base 1; field u; order 1; lagrangian 3/u;",
    "base 1; field u; order 1; lagrangian (u^2-1)/(u+1) + u^2/(u+2);",
    "base 1; field u; order 1; lagrangian u^x1;",
    "# head\nbase 1;  # tail\n\tfield u;\r\norder 1;\nlagrangian u\n  + w;",
    "base 1; field u; order 1; lagrangian u; # no newline at the end",
    "base 1; field u; order 1; lagrangian u @ 3;",
    "base 1;\nfield u; é",
    "base 1; field u; order 1; lagrangian u[1]^2",
    "base 1; field u; order 1; section { u = 1; p[u;;1] ",
    "base 1; field u; order 1; section { u = x1; u[1] = 1; p[u;;1] = x1; }",
    "base 1; field u; order 1; section { u + 1 = 2; }",
    "base 1; field u; order 1; lagrangian x01*u + x99999999999999999999;",
    "base 1; field u; order 1; opaque U(2); lagrangian U_{,12}(u, x1) + U_{,3}(u, u);",
    "base 2; field u; order 1; lagrangian 0; fcomponent u;",
    "base 1; field u; order 1; vfield w = u;",
    "base 1; field u; order 1; vfield 3 = u;",
    "base 1; field u; order 1; lagrangian p[3];",
    # at the nesting budget: 64 groups, 64 calls
    "base 1; field u; order 1; lagrangian " + "(" * 64 + "u" + ")" * 64 + ";",
    "base 1; field u; order 1; opaque U(1); lagrangian "
    + "U(" * 64 + "u" + ")" * 64 + ";",
    "",
    "   \n  ",
    # products and quotients of numbers and one-term factors, with repeats
    *(f"base 1; field u; order 1; param m; opaque U(2); lagrangian {e};"
      for e in ["u*u[1]*u", "x1*u*x1^2", "0*u*x1", "u*0", "u*2*x1/3",
                "u/2/3", "m*u/m", "u/m*m^2", "u*(u+x1)*u",
                "U(u,x1)*u*U(u,x1)", "--u*-x1", "u*x1/u", "x1/u*u",
                "u*x1 - 2*u*x1 + x1*u", "(u-u)*x1", "u*(u-u)/x1"]),
    # a name and a bracket without whitespace, where no field's jet within
    # the bound stands: at statement level, before a parameter, base
    # coordinate, opaque or unknown name, and past n entries or k
    "base 2; field u[1]; order 1; lagrangian x1^2;",
    "base 2; field u; order 1; opaque U[1](2);",
    "base 2; field u; order 1; vfield u[1] = u;",
    "base 2; field u; order 1; lagrangian[1] u;",
    "base 2; field u; order 1; param m; lagrangian u[1,0]^2 + m[1]*u;",
    "base 2; field u; order 1; lagrangian (u[1,0] + x1[1])^2;",
    "base 2; field u; order 1; opaque U(1); lagrangian u + U[1];",
    "base 2; field u; order 1; lagrangian u + w[1];",
    "base 2; field u; order 1; lagrangian u[1,0,0]^2;",
    "base 2; field u; order 1; lagrangian u[2,0]^2;",
    "base 2; field u; order 1; poly u[2,0]^2;",
    "base 1; field u; order 1; fcomponent lam[1]*u[1];",
    "base 2; field u; order 1; lagrangian u[ 1, 0 ]^2 + u[1,0]*u[0,1];",
    # a multiplier read on the first pass: repeated, next to a jet, and
    # refused in a Lagrangian or constraint only once the problem is built
    "base 2; field u; order 1; vfield u = lam[1]*u[1,0] - lam[1]^2 + lam[02];",
    "base 1; field u; order 1; lagrangian u[1]^2; poly lam[1]*lam[2]*u;",
    "base 1; field u; order 1; section { u = lam[1]; }",
    "base 1; field u; order 1; lagrangian lam[1]*u[1]^2;",
    "base 1; field u; order 1; constraint lam[1]*u;",
])
def test_edge_inputs_parse_as_the_reference(text):
    got = _outcome(parse_problem, text)
    assert got == _outcome(ref_parse_problem, text)
    _assert_same_or_allowed(text)


def test_a_multiplier_reference_is_parsed_in_one_pass():
    calls = []
    real = parser_module._tokenize

    def spy(*args):
        calls.append(args)
        return real(*args)

    with mock.patch.object(parser_module, "_tokenize", spy):
        pf = parse_problem("base 1; field u; order 1; lagrangian u[1]^2; "
                           "fcomponent lam[1]*u[1];")
    assert len(calls) == 1
    assert pf.fvector == [Expr.atom(Multiplier(1))
                          * Expr.atom(Jet("u", MultiIndex((1,))))]


def test_a_jet_with_spaces_is_the_jet_without():
    head = "base 2; field u; order 1; lagrangian "
    assert parse_problem(head + "u[ 1, 0 ]^2 + u [0 ,1];") == \
        parse_problem(head + "u[1,0]^2 + u[0,1];")


def test_jets_built_in_one_parse_are_not_reused_in_the_next():
    p = LagrangianProblem(1, ("u",), 1)
    assert parse_expr("u[2]*u[2]", p, max_jet_order=2) == \
        Expr.atom(Jet("u", MultiIndex((2,)))) ** 2
    with pytest.raises(ParseError) as info:
        parse_expr("u[2]", p)
    assert (info.value.message, info.value.line, info.value.col) == \
        ("jet order 2 of u exceeds k=1", 1, 1)


@pytest.mark.parametrize("text,message,where", [
    ("base 1; field u; order 1; lagrangian lam[1,2];",
     "expected ']', found ',' (in lagrangian statement)", (1, 43)),
    ("base 1; field u; order 1; poly lam[1,2];",
     "expected ']', found ',' (in poly statement)", (1, 37)),
    ("base 1;\nfield 3;", "expected a name, found '3'", (2, 7)),
    ("base 1;\nparam (;", "expected a name, found '('", (2, 7)),
    ("base 1; order 1; opaque U_{,1}(1);",
     "expected a name, found 'U_{,1}'", (1, 25)),
    ("base 1; order 1; field", "expected a name, found ''", (1, 23)),
    ("base 1; order 1; field u; vfield", "expected '=', found ''", (1, 33)),
    ("base 1; field u; order 1; lagrangian " + "7" * 5000 + "*u;",
     "integer literal too long (5000 digits) (in lagrangian statement)",
     (1, 38)),
    ("base 1; field u; order 1; lagrangian u^" + "7" * 5000 + ";",
     "integer literal too long (5000 digits) (in lagrangian statement)",
     (1, 40)),
    ("base " + "7" * 5000 + ";", "integer literal too long (5000 digits)",
     (1, 6)),
    ("base 1; field u; order 1; lagrangian u[" + "7" * 5000 + "];",
     "integer literal too long (5000 digits) (in lagrangian statement)",
     (1, 40)),
    ("base 1; field u; order 1; poly lam[" + "7" * 5000 + "];",
     "integer literal too long (5000 digits) (in poly statement)",
     (1, 36)),
    # a jet grid over its budget, at the value of the later of `base` and
    # `order`, and before the unknown `w`; no expression mentions a jet,
    # so no grid is built here even without the budget
    ("order 1;\nfield u;\nbase 100000000;", "jet grid too large: base "
     "100000000 and order 1 give more than 2000 multi-indices", (3, 6)),
    ("base 2;\nfield u;\norder 100000000;", "jet grid too large: base 2 "
     "and order 100000000 give more than 2000 multi-indices", (3, 7)),
    ("base 1;\nfield u;\nlagrangian w;\norder 100000000;", "jet grid too "
     "large: base 1 and order 100000000 give more than 2000 multi-indices",
     (4, 7)),
    # past the nesting budget at the 65th "(", of a group or of a call; the
    # reference parsed these, or crashed on the deeper ones
    ("base 1; field u; order 1; lagrangian " + "(" * 65 + "u" + ")" * 65 + ";",
     "nesting deeper than 64 levels of parentheses and calls (in lagrangian "
     "statement)", (1, 102)),
    ("base 1; field u; order 1; opaque U(1); lagrangian "
     + "U(" * 65 + "u" + ")" * 65 + ";",
     "nesting deeper than 64 levels of parentheses and calls (in lagrangian "
     "statement)", (1, 180)),
    ("base 1; field u; order 1; lagrangian " + "(" * 3000 + "u" + ")" * 3000
     + ";", "nesting deeper than 64 levels of parentheses and calls (in "
     "lagrangian statement)", (1, 102)),
    # the reference kept the last of two values, or a key that is no slot
    ("base 1; field u; order 1; vfield u = u;\nvfield u = u^2;",
     "duplicate 'vfield' statement for 'u'", (2, 1)),
    ("base 1; field u; order 1; section { u = x1; u[0] = 2; }",
     "duplicate section key: u [ 0 ]", (1, 45)),
    ("base 1; field u; order 1; section { x1 = 2; }",
     "section key must be a single slot: x1", (1, 37)),
    ("base 1; field u; order 1; param m; section { m = 2; }",
     "section key must be a single slot: m", (1, 46)),
    ("base 1; field u; order 1; section { lam[1] = 2; }",
     "section key must be a single slot: lam [ 1 ]", (1, 37)),
    ("base 1; field u; order 1; opaque U(1); section { U(x1) = 2; }",
     "section key must be a single slot: U ( x1 )", (1, 50)),
], ids=["lam-two-indices", "poly-lam-two-indices", "field-int", "param-paren", "opaque-marker",
        "field-at-end", "vfield-at-end", "long-literal", "long-exponent",
        "long-declaration", "long-index", "long-multiplier", "grid-base", "grid-order",
        "grid-before-expressions", "nested-groups", "nested-calls",
        "nested-3000", "duplicate-vfield", "duplicate-section-key",
        "section-key-base", "section-key-param", "section-key-multiplier",
        "section-key-call"])
def test_input_the_reference_let_through_is_a_parse_error(text, message, where):
    with pytest.raises(ParseError) as info:
        parse_problem(text)
    assert (info.value.message, info.value.line, info.value.col) == \
        (message, *where)
    _assert_same_or_allowed(text)


def _unit_sum(m):
    return Expr.sum(Expr.atom(Jet("u", MultiIndex((j,)))) for j in range(m))


@pytest.mark.parametrize("m", [2, 3, 4, 5, 8])
def test_power_term_budget_refuses_exactly_past_the_bound(m):
    from jetcalc.parser import TERM_BUDGET, _power_refusal
    base = _unit_sum(m)
    d = 1
    while math.comb(d + m - 1, m - 1) <= TERM_BUDGET:
        d += 1
    # d is the least exponent whose expansion may pass the budget
    assert _power_refusal(base, d) == (
        f"power too large: a sum of {m} terms to the power {d} "
        f"has more than {TERM_BUDGET} terms")
    below = _power_refusal(base, d - 1)
    assert below is None or "terms" not in below


@pytest.mark.parametrize("base,d,refused", [
    (2, 262144, False), (2, 262145, True), (-2, 262145, True),
    (Fraction(1, 3), 131072, False), (Fraction(1, 3), 131073, True),
    (1, 10 ** 100, False), (-1, 10 ** 100, False), (0, 10 ** 100, False),
])
def test_power_bit_budget_on_numbers(base, d, refused):
    # 2^d has d + 1 bits and 3^d about 1.58 d: the bound is d times
    # ceil(log2) of the base, and a power of 0 or 1 never grows
    from jetcalc.parser import BIT_BUDGET, _power_refusal
    assert BIT_BUDGET == 262144
    assert (_power_refusal(base, d) is not None) is refused


def test_power_bit_budget_counts_every_term_of_the_expansion():
    # (u + u[1])^d has d + 1 binomial coefficients of up to d bits each:
    # 512 * 511 bits fit the budget, 513 * 512 do not
    from jetcalc.parser import _power_refusal
    assert _power_refusal(_unit_sum(2), 511) is None
    assert _power_refusal(_unit_sum(2), 512).endswith("262144 bits")
    assert _power_refusal(_unit_sum(1), 10 ** 100) is None
    # the largest power of a four-term sum both budgets admit
    assert _power_refusal(_unit_sum(4), 28) is None
    assert _power_refusal(_unit_sum(4), 29) is not None


@pytest.mark.parametrize("text", [
    "lagrangian 2^262145*u;",
    "lagrangian (u+v)^600*u + ;",
], ids=["reference-parses", "reference-fails-later"])
def test_budget_refusal_is_allowed_where_the_reference_computed_the_power(
        text):
    text = _HEADER + text
    _assert_same_or_allowed(text)
    # not where the reference stopped before the exponent
    new = _outcome(parse_problem, text)
    with pytest.raises(AssertionError):
        _assert_refusal_is_past_a_budget(
            text, ("ParseError", "expected an expression", 2, 1), new)


@pytest.mark.parametrize("n,k,refused", [
    (1, 1999, False), (1, 2000, True), (1999, 1, False), (2000, 1, True),
    (2, 61, False), (2, 62, True), (3, 20, False), (3, 21, True),
    (10 ** 8, 10 ** 8, True), (10 ** 8, 0, False), (2, -3, False),
])
def test_grid_budget_refuses_exactly_past_the_bound(n, k, refused):
    # C(n+k, n) multi-indices: 2000 fit, 2001 (and C(64, 2) = 2016) do not
    assert parser_module.GRID_BUDGET == 2000
    assert (parser_module.grid_refusal(n, k) is not None) is refused


def test_capped_binomial_is_exact_up_to_the_cap():
    for a in range(14):
        for b in range(14):
            got = parser_module._capped_binomial(a, b, 300)
            exact = math.comb(a + b, a)
            assert got == exact if exact <= 300 else got > 300, (a, b)


def test_grid_refusal_is_allowed_where_the_reference_parsed():
    text = "base 2; field u; order 62; lagrangian u[62,0]*u;"
    assert _outcome(ref_parse_problem, text)[0] == "ok"
    _assert_same_or_allowed(text)
    new = _outcome(parse_problem, text)
    assert new[:2] == ("ParseError", "jet grid too large: base 2 and "
                       "order 62 give more than 2000 multi-indices")
    # not at a token other than the value of `base` or `order`
    with pytest.raises(AssertionError):
        _assert_grid_is_past_its_budget(text, new[:2] + (1, 1))


def test_base_name_beyond_the_digit_limit_is_unknown():
    name = "x" + "1" * 5000
    with pytest.raises(ParseError) as info:
        parse_problem(f"base 1; field u; order 1; lagrangian {name};")
    assert info.value.message == \
        f"unknown identifier {name!r} (in lagrangian statement)"


def test_tokens_are_texts_with_one_end():
    # a token is its text, the end is one "", and the line and column of
    # every token, the end included, are the reference's
    from jetcalc.parser import _error, _tokenize
    assert _tokenize("a  # c\n u[1]\t+2 ") == \
        ["a", "u", "[", "1", "]", "+", "2", ""]
    for text in ("", "  ", "# only", "u", "u # c", "u\n", "a  # c\n u[1]\t+2 ",
                 "\r\n\tU_{,12}(x1) ;\n\n", "base \u0663; p[u;;1]#x\n",
                 CORPUS_TEXTS["plate.lag"]):
        toks = _tokenize(text)
        ref = ref_tokenize(text)
        assert toks.count("") == 1 == (toks[-1] == "")
        assert toks == [t.text for t in ref]
        assert [(_error(text, "m", i).line, _error(text, "m", i).col)
                for i in range(len(toks))] == [(t.line, t.col) for t in ref]
    for text in ("u @", "u\n  \u00e9 x", "u $ ", "\tx1;\n# c\n\n ~",
                 "\u0660\u00b2"):
        with pytest.raises(ParseError) as got:
            _tokenize(text)
        with pytest.raises(ParseError) as want:
            ref_tokenize(text)
        assert (got.value.message, got.value.line, got.value.col) == \
            (want.value.message, want.value.line, want.value.col)


_STMT_HEAD = "base 2;\nfield u;\norder 1;\nlagrangian u[1,0]^2;\n"


@pytest.mark.parametrize("text,message,where", [
    (_STMT_HEAD + "constraint u[1,0] + w;",
     "unknown identifier 'w' (in constraint statement)", (5, 21)),
    (_STMT_HEAD + "fcomponent u;\nfcomponent u + ;",
     "unexpected token '' (in fcomponent statement)", (6, 16)),
    (_STMT_HEAD + "vfield u = u^x1;",
     "exponent must be a non-negative integer (in vfield statement)",
     (5, 14)),
    (_STMT_HEAD + "section {\n  u = x1;\n  u[1,0] + 1 = 2;\n}",
     "section key must be a single slot: u [ 1 , 0 ] + 1", (7, 3)),
    (_STMT_HEAD + "section {\n  u = x1;\n  u[1,0] = 2*;\n}",
     "unexpected token '' (in section statement)", (7, 14)),
    (_STMT_HEAD + "poly u^2 + v;",
     "unknown identifier 'v' (in poly statement)", (5, 12)),
    (_STMT_HEAD + "constraint u[1,0] + (u",
     "unterminated statement", (5, 23)),
    (_STMT_HEAD + "poly u;   \n  \u00e9  ", "unexpected character '\u00e9'",
     (6, 3)),
], ids=["constraint", "fcomponent", "vfield", "section-key", "section-value",
        "poly", "unterminated", "bad-after-whitespace"])
def test_later_statement_errors_are_the_reference(text, message, where):
    assert _outcome(parse_problem, text) == ("ParseError", message, *where)
    assert _outcome(ref_parse_problem, text) == ("ParseError", message, *where)


@pytest.mark.parametrize("text,outcome", [
    # a Unicode decimal digit is an int, as \d and int() read it
    ("base \u0663; field u; order 1; lagrangian u[1,0,0]^2;", "ok"),
    # a marker is no name: the reference took it as one
    ("base 1; field U_{,1}; order 1;",
     ("ParseError", "expected a name, found 'U_{,1}'", 1, 15)),
    ("base 1; field u; order 1; opaque U(1); lagrangian p[U_{,1}];",
     ("ParseError", "momentum atom expects a field name "
      "(in lagrangian statement)", 1, 53)),
], ids=["unicode-digit", "marker-declared", "marker-momentum"])
def test_token_kind_from_first_character(text, outcome):
    got = _outcome(parse_problem, text)
    assert (got[0] if outcome == "ok" else got) == outcome
    _assert_same_or_allowed(text)


# -- Hypothesis: printer output, token soup, edited corpus files --------------

_PROBLEM = LagrangianProblem(2, ("u", "v"), 3, Expr(), (), ("a", "b"),
                             {"U": 2, "F": 1})
_HEADER = "base 2; field u; field v; order 3; param a; param b; " \
          "opaque U(2); opaque F(1);\n"


@st.composite
def _mis(draw, low=0, high=3):
    return MultiIndex(draw(st.lists(st.integers(0, 2), min_size=2,
                                    max_size=2)
                           .filter(lambda m: low <= sum(m) <= high)))


@st.composite
def _atoms(draw, depth):
    kind = draw(st.sampled_from(
        ["jet", "jet", "base", "param", "momentum", "multiplier", "opaque"]
        if depth else ["jet", "base", "param"]))
    fld = draw(st.sampled_from(["u", "v"]))
    if kind == "jet":
        return Jet(fld, draw(_mis()))
    if kind == "base":
        return Base(draw(st.integers(1, 2)))
    if kind == "param":
        return Parameter(draw(st.sampled_from(["a", "b"])))
    if kind == "momentum":
        form = draw(st.integers(0, 2))
        if form == 0:
            return Momentum(fld, draw(_mis(1)))
        if form == 1:
            return Momentum(fld, draw(_mis(0, 2)), draw(st.integers(1, 2)),
                            draw(_mis(0, 1)))
        return Momentum(fld, draw(_mis(2)), None, draw(_mis(1, 1)))
    if kind == "multiplier":
        return Multiplier(draw(st.integers(1, 3)))
    name = draw(st.sampled_from(["U", "F"]))
    arity = _PROBLEM.opaques[name]
    args = tuple(draw(_exprs(depth - 1)) for _ in range(arity))
    return OpaqueCall(name, tuple(draw(st.lists(st.integers(0, 2),
                                                min_size=arity,
                                                max_size=arity))), args)


@st.composite
def _exprs(draw, depth=1):
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        mon = {}
        for _ in range(draw(st.integers(0, 5))):
            # an atom drawn again multiplies in: its exponents add up
            atom = draw(_atoms(depth))
            low = -2 if atom.__class__ is Parameter else 1
            e = mon.get(atom, 0) + (draw(st.integers(low, 3)) or 1)
            if e:
                mon[atom] = e
            else:
                del mon[atom]
        key = tuple(sorted(mon.items(), key=lambda f: f[0].sort_key()))
        terms[key] = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
    return Expr(terms)


_TOKENS = ["base", "field", "order", "param", "opaque", "lagrangian",
           "constraint", "section", "fcomponent", "vfield", "poly", "p",
           "lam", "u", "v", "w", "a", "x1", "x2", "x0", "U", "F", "U_{,12}",
           "F_{,1}", "0", "1", "2", "3", "12", "007", "+", "-", "*", "/",
           "^", "(", ")", "{", "}", "[", "]", ";", ";", ",", "=", " ", " ",
           "\n", "\t", "# note\n", "@", "é"]

# Factors, as token lists, for products of numbers, one-term factors and
# sums; a product draws from a few of them, so that factors repeat.
_FACTORS = [["u"], ["v", "[", "1", ",", "0", "]"], ["x1"], ["a"], ["b"],
            ["0"], ["2"], ["3"], ["a", "^", "2"], ["u", "^", "3"],
            ["(", "u", "+", "x1", ")"], ["(", "u", "-", "u", ")"],
            ["U", "(", "u", ",", "x1", ")"], ["F_{,1}", "(", "v", ")"]]


@st.composite
def _products(draw):
    """Tokens of one to three products of three to six factors, joined by
    ``+`` and ``-``, and a closing ``;``; a factor may carry signs and a
    product may divide."""
    out = []
    for i in range(draw(st.integers(1, 3))):
        if i:
            out.append(draw(st.sampled_from(["+", "-"])))
        pool = draw(st.lists(st.sampled_from(_FACTORS), min_size=1,
                             max_size=3))
        for j in range(draw(st.integers(3, 6))):
            if j:
                out.append(draw(st.sampled_from(["*", "*", "*", "/"])))
            out += draw(st.lists(st.sampled_from(["-", "+"]), max_size=2))
            out += draw(st.sampled_from(pool))
    return out + [";"]


_EDIT_CHARS = string.digits + "uvxpa;,[](){}+-*/^=# \n\té@_"

_SLOW = settings(max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


@_SLOW
@given(_exprs(depth=2))
def test_printer_output_parses_as_the_reference(e):
    text = to_dsl(e)
    got = _outcome(parse_expr, text, _PROBLEM, 6)
    assert got == ("ok", e)
    assert got == _outcome(ref_parse_expr, text, _PROBLEM, 6)
    for stmt in ("poly", "lagrangian", "constraint"):
        _assert_same_or_allowed(f"{_HEADER}{stmt} {text};")


# Token lists, and the headers they follow; tests/test_cli.py draws them too.
TOKEN_SOUP = st.one_of(st.lists(st.sampled_from(_TOKENS), max_size=40),
                       _products())
SOUP_HEADERS = st.sampled_from(["", _HEADER, _HEADER + "poly "])


@_SLOW
@given(TOKEN_SOUP, SOUP_HEADERS)
def test_token_soup_parses_as_the_reference(tokens, header):
    _assert_same_or_allowed(header + " ".join(tokens))
    _assert_same_or_allowed(header + "".join(tokens))


@_SLOW
@given(st.sampled_from(sorted(CORPUS_TEXTS)), st.data())
def test_edited_corpus_parses_as_the_reference(name, data):
    text = CORPUS_TEXTS[name]
    for _ in range(data.draw(st.integers(1, 3))):
        pos = data.draw(st.integers(0, len(text)))
        if data.draw(st.booleans()) and pos < len(text):
            text = text[:pos] + text[pos + 1:]
        else:
            text = text[:pos] + data.draw(st.sampled_from(_EDIT_CHARS)) + text[pos:]
    _assert_same_or_allowed(text)


@_SLOW
@given(st.one_of(
    st.text(max_size=60),
    st.text(alphabet=_EDIT_CHARS, max_size=60),
    st.lists(st.sampled_from(_TOKENS), max_size=30).map("".join)))
def test_arbitrary_text_is_an_input_error_or_a_problem(text):
    try:
        parse_problem(text)
    except (ParseError, ProblemError):
        pass

"""Parser for the Lagrangian DSL and problem files.

Problem files are sequences of statements::

    base 2;  field u;  order 2;  param m;  opaque U(2);
    lagrangian 1/2*u[2,0]^2 - U(x1, u);
    constraint <expr>;                       # repeatable
    section { u = x1^2; u[1,0] = 2*x1; }     # jet/momentum slot assignments
    fcomponent <expr>;                       # one per base direction, in order
    vfield u = u^2;                          # vertical-field coefficient
    poly <expr>;                             # homogeneous polynomial input

Expressions use ``u[a1,...,an]`` for jets (``u`` alone is the field, and for
n = 1 ``u[j]`` means j derivatives), ``x1..xn`` for base coordinates,
``p[u;1,0;2]`` for momentum slots (field; prefix multi-index; last index;
optional derivative block), ``p[u;2,0]`` for symmetrized momenta,
``lam[a]`` for multipliers and ``U_{,12}(...)`` for opaque derivative
markers.  The printer in :mod:`jetcalc.expr` emits exactly this grammar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .coords import Base, Jet, Momentum, Multiplier, Parameter
from .expr import Expr, OpaqueCall, divide
from .multiindex import MultiIndex
from .problem import LagrangianProblem

_RESERVED = {"p", "lam", "base", "field", "order", "param", "opaque",
             "lagrangian", "constraint", "section", "fcomponent", "vfield",
             "poly"}

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+|\#[^\n]*)
      | (?P<int>\d+)
      | (?P<marker>[A-Za-z_]\w*_\{,\d+\})
      | (?P<ident>[A-Za-z_]\w*)
      | (?P<op>[-+*/^(){};,=\[\]])
    """,
    re.VERBOSE,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at line {line}, column {col}")
        self.message = message
        self.line = line
        self.col = col


@dataclass
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos, line, col = 0, 1, 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        raw = m.group()
        if kind != "ws":
            tokens.append(_Token(kind, raw, line, col))
        newlines = raw.count("\n")
        if newlines:
            line += newlines
            col = len(raw) - raw.rfind("\n")
        else:
            col += len(raw)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Tokens:
    """A cursor over a token list that ends with an ``eof`` token."""

    def __init__(self, toks: list[_Token]):
        self.toks = toks
        self.i = 0

    def peek(self) -> _Token:
        return self.toks[self.i]

    def next(self) -> _Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> _Token:
        t = self.next()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return t

    def error(self, message: str):
        t = self.peek()
        raise ParseError(message, t.line, t.col)


@dataclass
class ProblemFile:
    """A parsed problem file: the problem plus the optional tool blocks."""

    problem: LagrangianProblem
    section: dict | None = None
    fvector: list[Expr] = dc_field(default_factory=list)
    vfields: dict = dc_field(default_factory=dict)
    poly: Expr | None = None


class _ExprParser:
    """Recursive-descent expression parser against a declaration context."""

    def __init__(self, toks: _Tokens, problem: LagrangianProblem,
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

    def _multiindex(self, entries: list[int], where: _Token) -> MultiIndex:
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

    def _momentum(self, t: _Token) -> Expr:
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
        return self._opaque_call(_Token("ident", name, t.line, t.col),
                                 tuple(int(d) for d in digits))

    def _opaque_call(self, t: _Token, marker: tuple[int, ...]) -> Expr:
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


def parse_expr(text: str, problem: LagrangianProblem,
               max_jet_order: int | None = None) -> Expr:
    """Parse a single expression against a problem's declarations.

    Jets are bounded by the problem order k unless ``max_jet_order`` lifts
    the bound (reports legitimately contain jets above k, e.g. from total
    derivatives in the cascade).
    """
    return _parse_tokens(_tokenize(text), problem, max_jet_order)


def _parse_tokens(tokens: list[_Token], problem: LagrangianProblem,
                  max_jet_order: int | None = None) -> Expr:
    toks = _Tokens(tokens)
    e = _ExprParser(toks, problem, max_jet_order).parse()
    t = toks.peek()
    if t.kind != "eof":
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    return e


def _parse_stmt_expr(tokens: list[_Token], problem: LagrangianProblem,
                     what: str) -> Expr:
    """Parse one statement's token slice; an error keeps the location of
    the offending token and names the statement."""
    try:
        return _parse_tokens(tokens, problem)
    except ParseError as exc:
        raise ParseError(f"{exc.message} (in {what} statement)",
                         exc.line, exc.col) from None


def parse_problem(text: str) -> ProblemFile:
    """Parse a full problem file.  The file is tokenized once: each
    expression statement keeps its token slice, parsed once the
    declarations are known."""
    toks = _Tokens(_tokenize(text))
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

    def read_expr_tokens() -> list[_Token]:
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
        return parts + [_Token("eof", "", t.line, t.col)]

    def read_int(what: str) -> int:
        t = toks.next()
        if t.kind != "int":
            raise ParseError(f"{what} must be an integer, found {t.text!r}",
                             t.line, t.col)
        return int(t.text)

    def declare(name: str, tok):
        if name in _RESERVED or re.fullmatch(r"x\d+", name):
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
                lhs.append(_Token("eof", "", eq.line, eq.col))
                rhs = read_expr_tokens()
                toks.expect(";")
                section_stmts.append((lhs, rhs, start.line, start.col))
            toks.expect("}")
        else:
            raise ParseError(f"unknown statement {stmt!r}", t.line, t.col)

    bare = problem_so_far()
    L = (_parse_stmt_expr(lagrangian, bare, "lagrangian")
         if lagrangian is not None else Expr())
    cons = [_parse_stmt_expr(src, bare, "constraint")
            for kind, src, line, col in deferred if kind == "constraint"]
    problem = problem_so_far(L, cons)

    pf = ProblemFile(problem=problem)
    for kind, src, line, col in deferred:
        if kind == "fcomponent":
            pf.fvector.append(_parse_stmt_expr(src, problem, "fcomponent"))
        elif kind.startswith("vfield:"):
            fld = kind.split(":", 1)[1]
            if fld not in problem.fields:
                raise ParseError(f"vfield for unknown field {fld!r}", line, col)
            pf.vfields[fld] = _parse_stmt_expr(src, problem, "vfield")
    if poly_src is not None:
        pf.poly = _parse_stmt_expr(poly_src, problem, "poly")
    if section_stmts:
        assign = {}
        for lhs_toks, rhs_toks, line, col in section_stmts:
            lhs = _parse_stmt_expr(lhs_toks, problem, "section")
            atoms = lhs.atoms()
            if len(atoms) != 1 or lhs != Expr.atom(next(iter(atoms))):
                lhs_src = " ".join(t.text for t in lhs_toks[:-1])
                raise ParseError(f"section key must be a single slot: {lhs_src}",
                                 line, col)
            assign[next(iter(atoms))] = _parse_stmt_expr(rhs_toks, problem,
                                                         "section")
        pf.section = assign
    if pf.fvector and len(pf.fvector) != problem.n:
        end = toks.peek()
        raise ParseError(
            f"expected {problem.n} fcomponent statements, found {len(pf.fvector)}",
            end.line, end.col)
    return pf

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

Legal input is read once.  One ``findall`` gives the tokens as strings,
ending in ``""``; a token's first character tells its kind.  A jet or
multiplier reference without whitespace, ``u[1,0]`` or ``lam[1]``, is one
token there, and each statement keeps a table from such a token to the atom
it built, so a repeated reference is one lookup.  Where that pass fails in
any way, the input is parsed again with ``[``, the name and each entry as
tokens of their own, and the second parse decides the result or the error.
The parser holds token indices, and a ``ParseError`` finds the line and
column of its token by scanning the source again with those plain tokens up
to that index.  Each expression statement is parsed from its slice of the
token list once the declarations are known.  Numeric literals stay Python
ints, as the kernel's coefficients do: a product carries one monomial with
an integer numerator and denominator, and an ``Expr`` is built at the first
factor that is neither a number nor a one-term factor, or at a divisor that
is not a number.  A sum folds its terms into one term dict over the lcm of
their denominators and reduces once, at the end.
"""

from __future__ import annotations

import itertools
import re
from math import gcd

from .coords import Base, Jet, Momentum, Multiplier, Parameter, is_fibre
from .expr import (Expr, JetcalcError, OpaqueCall, _fold_over, _make,
                   _mul_monomials, divide)
from .problem import LagrangianProblem

_RESERVED = {"p", "lam", "base", "field", "order", "param", "opaque",
             "lagrangian", "constraint", "section", "fcomponent", "vfield",
             "poly"}

_TOKENS = r"""\s*(?:\#[^\n]*\s*)*                 # whitespace and comments before it
      ( [-+*/^(){};,=\[\]]                # operator
      | \d+                              # int (\d is str.isdecimal)
      | [A-Za-z_]\w*_\{,\d+\}             # marker
      %s                                 # jet reference (one-token lexing)
      | [A-Za-z_]\w*                      # name
      | \Z                                # the end: ""
      | [\s\S]+                           # a bad character and the rest
      )
    """
_TOKEN_RE = re.compile(_TOKENS % "", re.VERBOSE)
# A whitespace-free jet reference such as u[1,0] is one token here.
_JET_TOKEN_RE = re.compile(_TOKENS % r"| [A-Za-z_]\w*\[\d+(?:,\d+)*\]",
                           re.VERBOSE)
_NAME_START = frozenset("_ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_OPS = frozenset("-+*/^(){};,=[]")

_BASE_NAME = re.compile(r"x(\d+)")

# Budgets on ``^``, checked before any multiplication, so that a short file
# cannot ask for an unbounded expansion or number.  A power of a sum may
# have at most TERM_BUDGET terms, and the coefficients of all its terms
# together at most BIT_BUDGET bits, so the two budgets bound its size
# jointly.  Both admit the benchmark corpus and the tests:
# (u+u[1,0]+u[0,1]+x1)^20 has 1771 terms of at most 40 bits, and 2^20000
# has 20001 bits.
TERM_BUDGET = 100_000
BIT_BUDGET = 1 << 18

# Budget on parenthesised groups and call argument lists nested together:
# the parser, printers and derivatives recurse on them, and 95 nested calls
# still pass every command, so the budget leaves a margin.
NESTING_BUDGET = 64

# Budget on the jet grid: the C(n+k, n) multi-indices of order <= k over n
# base directions, which every command walks per field (a ``u`` alone is a
# tuple of n zeros).  Checked before any expression is parsed, so that a
# short file cannot ask for an unbounded grid.  The corpus, the tests and
# the benchmark inputs need at most C(6, 3) = 20; at the budget a command
# still ends within seconds: n = 1, k = 1999 or n = 5, k = 8.
GRID_BUDGET = 2000


def _capped_binomial(a: int, b: int, cap: int) -> int:
    """C(a+b, a) for a, b >= 0, or a number over ``cap`` when C(a+b, a) is
    over it.  The loop forms C(max(a, b) + j, j) for j = 1..min(a, b),
    which is at least 2^j, so it ends within about log2(cap) steps either
    way."""
    lo, hi = min(a, b), max(a, b)
    c = 1
    for j in range(1, lo + 1):
        c = c * (hi + j) // j
        if c > cap:
            break
    return c


def grid_refusal(n: int, k: int, what: str = "order") -> str | None:
    """Why the jet grid of base dimension ``n`` and order ``k`` is over
    GRID_BUDGET, or None."""
    if _capped_binomial(n, max(k, 0), GRID_BUDGET) <= GRID_BUDGET:
        return None
    return (f"jet grid too large: base {n} and {what} {k} give more than "
            f"{GRID_BUDGET} multi-indices")


def _power_refusal(base, d: int) -> str | None:
    """Why ``base ** d`` is over a budget, or None.  ``base`` is a number
    or an ``Expr`` of m terms."""
    if base.__class__ is Expr:
        terms, den = base.parts()
    else:
        terms, den = {(): base.numerator}, base.denominator
    m = len(terms)
    if d < 2 or not m:
        return None
    # The expansion has at most C(d+m-1, m-1) terms.
    bound = _capped_binomial(d, m - 1, TERM_BUDGET)
    if bound > TERM_BUDGET:
        return (f"power too large: a sum of {m} terms to the power {d} "
                f"has more than {TERM_BUDGET} terms")
    # A term of the expansion has a numerator of at most (m * max|num|)^d
    # and a denominator of at most max(den)^d, so about d times ceil(log2)
    # of those bounds its bits (merging like terms adds few); the term
    # bound times that bounds the bits of all the coefficients, each
    # c/den taken in lowest terms.
    bits = max((max(abs(c), den) // gcd(c, den) - 1).bit_length()
               for c in terms.values())
    if bound * d * (bits + (m - 1).bit_length()) > BIT_BUDGET:
        return (f"power too large: its coefficients could pass "
                f"{BIT_BUDGET} bits")
    return None


class ParseError(JetcalcError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at line {line}, column {col}")
        self.message = message
        self.line = line
        self.col = col


def _error(src: str, message: str, i: int) -> ParseError:
    """A ``ParseError`` at token ``i``, found by scanning ``src`` again: the
    line counts the newlines before it, the column runs from the last."""
    pos = next(itertools.islice(_TOKEN_RE.finditer(src), i, None)).start(1)
    return ParseError(message, src.count("\n", 0, pos) + 1,
                      pos - src.rfind("\n", 0, pos))


def _tokenize(src: str, token_re=_TOKEN_RE) -> list:
    """The tokens of ``src``, ending with one ``""`` for the end."""
    toks = token_re.findall(src)
    # After trailing whitespace the end matches twice, then as an empty match.
    if len(toks) > 1 and not toks[-2]:
        toks.pop()
    if len(toks) > 1:
        c = toks[-2][0]
        if not (c.isdecimal() or c in _NAME_START or c in _OPS):
            raise _error(src, f"unexpected character {c!r}", len(toks) - 2)
    return toks


class _Tokens:
    """A cursor over tokens ``base``, ``base + 1``, ... of ``src``, ending
    with ``""``, which ``next`` never passes."""

    def __init__(self, src: str, toks: list, base: int = 0):
        self.src = src
        self.toks = toks
        self.base = base
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        if t:
            self.i += 1
        return t

    def expect(self, text: str):
        t = self.toks[self.i]
        if t != text:
            raise self.error(f"expected {text!r}, found {t!r}")
        self.i += 1

    def error(self, message: str, i: int | None = None) -> ParseError:
        """A ``ParseError`` at token ``i``, by default the next token."""
        return _error(self.src, message,
                      self.base + (self.i if i is None else i))

    def int_value(self, i: int) -> int:
        t = self.toks[i]
        try:
            return int(t)
        except ValueError:      # beyond the interpreter's digit limit
            raise self.error(f"integer literal too long ({len(t)} digits)",
                             i) from None


class _Relex(ValueError):
    """Raised on a jet reference token that is not a field's jet within
    the bound: the input is parsed again with plain lexing."""


def _lexed_twice(parse, text: str):
    """``parse(tokens)`` on the one-token-jet lexing of ``text``.  On any
    input error there (every ``JetcalcError`` is a ``ValueError``, as are
    ``_Relex`` and ``int`` past the digit limit) the plain lexing decides:
    a ``ParseError`` is located by the index of a plain token, so input
    with an error is parsed twice."""
    try:
        return parse(_tokenize(text, _JET_TOKEN_RE))
    except ValueError:
        return parse(_tokenize(text))


class ProblemFile:
    """A parsed problem file: the problem plus the optional tool blocks,
    which the parser fills in after the problem.  Two files are equal when
    every attribute is."""

    __slots__ = ("problem", "section", "fvector", "vfields", "poly")

    def __init__(self, problem: LagrangianProblem):
        self.problem = problem
        self.section = None
        self.fvector = []
        self.vfields = {}
        self.poly = None

    def __eq__(self, other):
        if other.__class__ is not ProblemFile:
            return NotImplemented
        return all(getattr(self, a) == getattr(other, a)
                   for a in ProblemFile.__slots__)


class _ExprParser(_Tokens):
    """Recursive-descent expression parser against a declaration context.
    A factor is an ``int`` (a literal, its negation or its power) or an
    ``Expr``; ``parse`` returns an ``Expr``."""

    def __init__(self, src: str, toks: list, problem: LagrangianProblem,
                 max_jet_order: int | None, base: int = 0):
        super().__init__(src, toks, base)
        self.problem = problem
        self.max_jet = problem.k if max_jet_order is None else max_jet_order
        self.depth = 0
        self.jets: dict = {}    # reference token -> its atom

    def parse(self) -> Expr:
        e = self._sum()
        t = self.peek()
        if t:
            raise self.error(f"trailing input {t!r}")
        return e

    def _sum(self) -> Expr:
        """Terms joined by ``+`` and ``-``, folded into one term dict; a
        group or call argument nests one level, refused past the budget."""
        if self.depth > NESTING_BUDGET:
            raise self.error(f"nesting deeper than {NESTING_BUDGET} levels of "
                             f"parentheses and calls", self.i - 1)
        self.depth += 1
        acc: dict = {}
        den = 1
        toks = self.toks
        negative = False
        while True:
            items, d = self._term()
            den = _fold_over(acc, den, ((m, -c) for m, c in items)
                             if negative else items, d)
            op = toks[self.i]
            if op != "+" and op != "-":
                self.depth -= 1
                return _make(acc, den)
            self.i += 1
            negative = op == "-"

    def _term(self):
        """Factors joined by ``*`` and ``/``, as the (monomial, numerator)
        pairs of their product and its denominator, not yet reduced.  An
        int literal (or its power) and a one-term factor fold into the one
        pair; the first multi-term factor, or the first divisor that is not
        a number, turns the product into an ``Expr``."""
        mon, num, den = (), 1, 1
        e = None
        toks = self.toks
        op = "*"
        f = self._factor()
        while True:
            if e is not None:
                e = e * f if op == "*" else self._quotient(e, f)
            elif f.__class__ is not Expr:
                if op == "*":
                    num *= f
                elif not f:
                    raise self.error("division by zero")
                else:
                    num, den = (num, den * f) if f > 0 else (-num, -den * f)
            else:
                terms, d = f.parts()
                if op == "*" and len(terms) == 1:
                    (m, c), = terms.items()
                    mon = _mul_monomials(mon, m)
                    num *= c
                    den *= d
                elif op == "*" and not mon and num == den:
                    e = f
                else:
                    e = _make({mon: num} if num else {}, den)
                    e = e * f if op == "*" else self._quotient(e, f)
            op = toks[self.i]
            if op != "*" and op != "/":
                if e is not None:
                    terms, d = e.parts()
                    return terms.items(), d
                return (((mon, num),), den) if num else ((), 1)
            self.i += 1
            f = self._factor()

    def _quotient(self, num: Expr, den):
        """num / den by ``divide``; a failure is reported at the token after
        the divisor."""
        try:
            return divide(num, den)
        except Exception as exc:
            raise self.error(str(exc)) from None

    def _factor(self):
        toks = self.toks
        negative = False
        op = toks[self.i]
        while op == "+" or op == "-":
            negative ^= op == "-"
            self.i += 1
            op = toks[self.i]
        e = self._primary()
        if toks[self.i] == "^":
            i = self.i + 1
            self.i += 2
            if not toks[i].isdecimal():
                raise self.error("exponent must be a non-negative integer", i)
            d = self.int_value(i)
            refusal = _power_refusal(e, d)
            if refusal:
                raise self.error(refusal, i)
            e = e ** d
        return -e if negative else e

    def _primary(self):
        t = self.toks[self.i]
        if t.isdecimal():
            self.i += 1
            return self.int_value(self.i - 1)
        if t[:1] in _NAME_START:
            if t[-1] == "]":
                return self._jetref(t)
            return self._opaque_marker() if t[-1] == "}" else self._atomref()
        if t == "(":
            self.i += 1
            e = self._sum()
            self.expect(")")
            return e
        raise self.error(f"unexpected token {t!r}")

    # -- atoms ------------------------------------------------------------

    def _intlist(self) -> list[int]:
        out = []
        toks, i = self.toks, self.i
        while True:
            if not toks[i].isdecimal():
                raise self.error("expected an integer", i)
            out.append(self.int_value(i))
            if toks[i + 1] != ",":
                self.i = i + 1
                return out
            i += 2

    def _multiindex(self, entries: list[int], where: int) -> tuple[int, ...]:
        """The entries of a multi-index, checked against n; the atoms'
        interning tables know a multi-index by its plain entries too."""
        n = self.problem.n
        if len(entries) != n:
            raise self.error(
                f"expected {n} multi-index entries, found {len(entries)}", where)
        return tuple(entries)

    def _atomref(self) -> Expr:
        t = self.i
        name, nxt = self.toks[t], self.toks[t + 1]
        self.i = t + 1
        if name == "p" and nxt == "[":
            return self._momentum(t)
        if name == "lam" and nxt == "[":
            a = self.i + 1
            if not self.toks[a].isdecimal():
                raise self.error("expected an integer", a)
            self.i += 2
            self.expect("]")
            return Expr.atom(Multiplier(self.int_value(a)))
        if nxt == "(":
            return self._opaque_call(t, name, ())
        problem = self.problem
        if name in problem.fields:
            if nxt == "[":
                self.i += 1
                mi = self._multiindex(self._intlist(), t)
                self.expect("]")
                if sum(mi) > self.max_jet:
                    raise self.error(
                        f"jet order {sum(mi)} of {name} exceeds k={self.max_jet}", t)
                return Expr.atom(Jet(name, mi))
            return Expr.atom(Jet(name, (0,) * problem.n))
        if name in problem.params:
            return Expr.atom(Parameter(name))
        m = _BASE_NAME.fullmatch(name)
        if m:
            try:
                mu = int(m[1])
            except ValueError:  # beyond the digit limit, so not in 1..n
                mu = 0
            if 1 <= mu <= problem.n:
                return Expr.atom(Base(mu))
        raise self.error(f"unknown identifier {name!r}", t)

    def _jetref(self, t: str) -> Expr:
        """A jet reference, or a multiplier ``lam[a]``, lexed as one token
        and built once per statement.  Any other name before the bracket, a
        wrong number of entries, an order over the bound or an entry past
        the digit limit (a ``ValueError``) leaves it to the plain lexing."""
        e = self.jets.get(t)
        if e is None:
            name, entries = t[:-1].split("[")
            mi = tuple(map(int, entries.split(",")))
            if name == "lam" and len(mi) == 1:
                atom = Multiplier(mi[0])
            elif (name not in self.problem.fields
                    or len(mi) != self.problem.n or sum(mi) > self.max_jet):
                raise _Relex
            else:
                atom = Jet(name, mi)
            e = self.jets[t] = Expr.atom(atom)
        self.i += 1
        return e

    def _momentum(self, t: int) -> Expr:
        self.expect("[")
        fld = self.peek()
        if fld[:1] not in _NAME_START or fld[-1] == "}":
            # p[ints] would be a jet of a field named p; no such field here
            raise self.error("momentum atom expects a field name")
        if fld not in self.problem.fields:
            raise self.error(f"unknown field {fld!r}")
        self.i += 1
        segments: list[list[int]] = []
        while self.peek() == ";":
            self.i += 1
            if self.peek() in (";", "]"):
                segments.append([])
            else:
                segments.append(self._intlist())
        self.expect("]")
        n = self.problem.n
        zero = (0,) * n
        if len(segments) == 1:
            mi = self._multiindex(segments[0], t) if segments[0] else zero
            if sum(mi) < 1:
                raise self.error("symmetric momentum needs order >= 1", t)
            return Expr.atom(Momentum(fld, mi))
        if len(segments) in (2, 3):
            mi = self._multiindex(segments[0], t) if segments[0] else zero
            last_seg = segments[1]
            last = None
            if last_seg:
                if len(last_seg) != 1 or not 1 <= last_seg[0] <= n:
                    raise self.error("bad last index", t)
                last = last_seg[0]
            derivs = zero
            if len(segments) == 3 and segments[2]:
                derivs = self._multiindex(segments[2], t)
            if last is None:
                if sum(mi) < 2:
                    raise self.error("symmetric momentum needs order >= 2 here", t)
                return Expr.atom(Momentum(fld, mi, None, derivs))
            return Expr.atom(Momentum(fld, mi, last, derivs))
        raise self.error("malformed momentum atom", t)

    def _opaque_marker(self) -> Expr:
        t = self.i
        name, digits = self.toks[t].split("_{,")
        self.i += 1
        return self._opaque_call(t, name, tuple(int(d) for d in digits[:-1]))

    def _opaque_call(self, t: int, name: str, marker: tuple[int, ...]) -> Expr:
        if name not in self.problem.opaques:
            raise self.error(f"unknown function {name!r}", t)
        arity = self.problem.opaques[name]
        self.expect("(")
        args = []
        if self.peek() != ")":
            while True:
                args.append(self._sum())
                if self.peek() != ",":
                    break
                self.i += 1
        self.expect(")")
        if len(args) != arity:
            raise self.error(
                f"{name} takes {arity} argument(s), found {len(args)}", t)
        derivs = [0] * arity
        for d in marker:
            if not 1 <= d <= arity:
                raise self.error(f"marker slot {d} out of range", t)
            derivs[d - 1] += 1
        return Expr.atom(OpaqueCall(name, tuple(derivs), tuple(args)))


def parse_expr(text: str, problem: LagrangianProblem,
               max_jet_order: int | None = None) -> Expr:
    """Parse a single expression against a problem's declarations.

    Jets are bounded by the problem order k unless ``max_jet_order`` lifts
    the bound (reports legitimately contain jets above k, e.g. from total
    derivatives in the cascade).
    """
    return _lexed_twice(
        lambda toks: _ExprParser(text, toks, problem, max_jet_order).parse(),
        text)


def _parse_stmt_expr(src: str, stmt: tuple, problem: LagrangianProblem,
                     what: str) -> Expr:
    """Parse one statement's (token slice, first index); an error keeps
    the location of the offending token and names the statement."""
    try:
        return _ExprParser(src, stmt[0], problem, None, stmt[1]).parse()
    except ParseError as exc:
        raise ParseError(f"{exc.message} (in {what} statement)",
                         exc.line, exc.col) from None


def parse_problem(text: str) -> ProblemFile:
    """Parse a full problem file.  The file is tokenized once (twice if it
    has an error): each expression statement keeps its token slice, parsed
    once the declarations are known."""
    return _lexed_twice(lambda tokens: _parse_problem(text, tokens), text)


def _parse_problem(text: str, tokens: list) -> ProblemFile:
    toks = _Tokens(text, tokens)
    n = k = None
    n_tok = k_tok = None
    fields: list[str] = []
    params: list[str] = []
    opaques: dict[str, int] = {}
    lagrangian = None
    section_stmts: list[tuple] = []
    deferred: list[tuple] = []
    poly_src = None

    def problem_so_far(L=None, cons=()):
        if n is None:
            raise toks.error("missing 'base' declaration")
        if k is None:
            raise toks.error("missing 'order' declaration")
        if not fields:
            raise toks.error("missing 'field' declaration")
        return LagrangianProblem(n, tuple(fields), k,
                                 L if L is not None else Expr(),
                                 tuple(cons), tuple(params), dict(opaques))

    def slice_to(j: int) -> tuple:
        # the tokens from the cursor up to token j, closed by an end there,
        # and the cursor; the cursor moves to token j
        stmt = tokens[toks.i:j] + [""], toks.i
        toks.i = j
        return stmt

    def read_expr_tokens() -> tuple:
        # up to the first ';' outside brackets, so that expressions parse
        # after the headers
        depth = 0
        seg = j = toks.i
        while True:
            try:
                j = tokens.index(";", j)
            except ValueError:
                raise toks.error("unterminated statement",
                                 len(tokens) - 1) from None
            # a marker's "{" and "}" cancel; no other token holds a bracket
            part = "".join(tokens[seg:j])
            depth += (part.count("(") + part.count("[") + part.count("{")
                      - part.count(")") - part.count("]") - part.count("}"))
            if not depth:
                return slice_to(j)
            seg = j
            j += 1

    def read_int(what: str) -> int:
        if not toks.peek().isdecimal():
            raise toks.error(f"{what} must be an integer, found {toks.peek()!r}")
        toks.i += 1
        return toks.int_value(toks.i - 1)

    def declare() -> str:
        name = toks.peek()
        # a marker or a jet reference is no name
        if name[:1] not in _NAME_START or name[-1] in "]}":
            raise toks.error(f"expected a name, found {name!r}")
        if name in _RESERVED or _BASE_NAME.fullmatch(name):
            raise toks.error(f"{name!r} is reserved")
        if name in fields or name in params or name in opaques:
            raise toks.error(f"{name!r} already declared")
        toks.i += 1
        return name

    while toks.peek():
        t, stmt = toks.i, toks.next()
        if stmt == "base":
            if n is not None:
                raise toks.error("duplicate 'base' declaration", t)
            n_tok = toks.i
            n = read_int("base dimension")
            toks.expect(";")
        elif stmt == "order":
            if k is not None:
                raise toks.error("duplicate 'order' declaration", t)
            k_tok = toks.i
            k = read_int("order")
            toks.expect(";")
        elif stmt == "field":
            fields.append(declare())
            toks.expect(";")
        elif stmt == "param":
            params.append(declare())
            toks.expect(";")
        elif stmt == "opaque":
            name_tok = toks.i
            name = declare()
            toks.expect("(")
            arity = read_int("opaque arity")
            toks.expect(")")
            toks.expect(";")
            if not 1 <= arity <= 9:
                raise toks.error("opaque arity must be 1..9", name_tok)
            opaques[name] = arity
        elif stmt == "lagrangian":
            if lagrangian is not None:
                raise toks.error("duplicate 'lagrangian' statement", t)
            lagrangian = read_expr_tokens()
            toks.expect(";")
        elif stmt == "constraint":
            deferred.append(("constraint", read_expr_tokens(), t))
            toks.expect(";")
        elif stmt == "fcomponent":
            deferred.append(("fcomponent", read_expr_tokens(), t))
            toks.expect(";")
        elif stmt == "poly":
            if poly_src is not None:
                raise toks.error("duplicate 'poly' statement", t)
            poly_src = read_expr_tokens()
            toks.expect(";")
        elif stmt == "vfield":
            name = toks.next()
            toks.expect("=")
            deferred.append((f"vfield:{name}", read_expr_tokens(), t))
            toks.expect(";")
        elif stmt == "section":
            toks.expect("{")
            while toks.peek() != "}":
                start = toks.i
                try:
                    lhs = slice_to(tokens.index("=", toks.i))
                except ValueError:
                    raise toks.error("unterminated section block",
                                     len(tokens) - 1) from None
                toks.expect("=")
                rhs = read_expr_tokens()
                toks.expect(";")
                section_stmts.append((lhs, rhs, start))
            toks.expect("}")
        else:
            raise toks.error(f"unknown statement {stmt!r}", t)

    bare = problem_so_far()
    refusal = grid_refusal(n, k)
    if refusal:
        raise toks.error(refusal, max(n_tok, k_tok))
    L = (_parse_stmt_expr(text, lagrangian, bare, "lagrangian")
         if lagrangian is not None else Expr())
    cons = [_parse_stmt_expr(text, src, bare, "constraint")
            for kind, src, _ in deferred if kind == "constraint"]
    problem = problem_so_far(L, cons)

    pf = ProblemFile(problem=problem)
    for kind, src, t in deferred:
        if kind == "fcomponent":
            pf.fvector.append(_parse_stmt_expr(text, src, problem, "fcomponent"))
        elif kind.startswith("vfield:"):
            fld = kind.split(":", 1)[1]
            if fld not in problem.fields:
                raise toks.error(f"vfield for unknown field {fld!r}", t)
            if fld in pf.vfields:
                raise toks.error(f"duplicate 'vfield' statement for {fld!r}", t)
            pf.vfields[fld] = _parse_stmt_expr(text, src, problem, "vfield")
    if poly_src is not None:
        pf.poly = _parse_stmt_expr(text, poly_src, problem, "poly")
    if section_stmts:
        assign = {}
        for lhs_stmt, rhs_stmt, start in section_stmts:
            lhs = _parse_stmt_expr(text, lhs_stmt, problem, "section")
            atoms = lhs.atoms()
            slot = next(iter(atoms), None)
            lhs_src = " ".join(lhs_stmt[0][:-1])
            if len(atoms) != 1 or lhs != Expr.atom(slot) or not is_fibre(slot):
                raise toks.error(
                    f"section key must be a single slot: {lhs_src}", start)
            if slot in assign:
                raise toks.error(f"duplicate section key: {lhs_src}", start)
            assign[slot] = _parse_stmt_expr(text, rhs_stmt, problem, "section")
        pf.section = assign
    if pf.fvector and len(pf.fvector) != problem.n:
        raise toks.error(
            f"expected {problem.n} fcomponent statements, found {len(pf.fvector)}")
    return pf

"""Exact symbolic expressions over phase-bundle coordinates.

An ``Expr`` is kept permanently in canonical form: an expanded multivariate
polynomial over its atoms with reduced rational coefficients, atoms sorted by
the fixed coordinate order and like terms merged.  Equality of canonical
forms therefore decides equality of the underlying functions, which is what
every theorem check in the package reduces to.

A stored coefficient is a nonzero ``int``, or a ``Fraction`` whose
denominator is not 1: integral results are stored as ``int``, so the common
integer case never pays for ``Fraction`` arithmetic, and every quotient of
coefficients goes through ``Fraction`` (never ``int / int``).

Atoms are the coordinates of :mod:`jetcalc.coords` plus opaque function
applications.  They are interned (one object per value), so monomials
compare atoms by identity, order them by the sort key each atom stored
when it was built and print them with the DSL string stored next to it.
Parameters may carry negative exponents (they are symbolic constants, so
1/m is legal); every other atom is restricted to a plain polynomial role.

Building an ``Expr`` sets only its term dict.  Its canonical sort key and
its hash are computed on first use (the first ``hash`` or ``==``) and kept.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cmp_to_key
from itertools import chain
from numbers import Rational

from .coords import (AtomBase, Base, Coordinate, Jet, Momentum, Multiplier,
                     Parameter)

_RANK_OPAQUE = 5


class ExprError(Exception):
    """Illegal algebraic operation (bad division, bad exponent, ...)."""


class OpaqueCall(AtomBase):
    """An opaque function symbol applied to argument expressions.

    ``derivs[i]`` counts formal derivatives with respect to the i-th argument
    slot; markers are symmetric by construction (only counts are stored).
    Distinct marker/argument combinations are independent atoms; equal
    ones (equal canonical arguments) are one interned object.
    """

    __slots__ = ("name", "derivs", "args")

    @classmethod
    def _canonical(cls, name, derivs, args):
        return name, tuple(derivs), tuple(args)

    def _make_sort_key(self):
        return (
            _RANK_OPAQUE,
            self.name,
            tuple(self.derivs),
            (),
            len(self.args),
            tuple(a._key() for a in self.args),
        )

    def bump(self, slot: int) -> "OpaqueCall":
        """Marker with one more derivative in the (0-based) argument slot."""
        d = list(self.derivs)
        d[slot] += 1
        return OpaqueCall(self.name, tuple(d), self.args)

    def marked_name(self) -> str:
        """The name with its derivative marker: ``U_{,12}`` after one
        derivative in each of the first two arguments."""
        if not any(self.derivs):
            return self.name
        digits = "".join(str(i + 1) * c for i, c in enumerate(self.derivs))
        return f"{self.name}_{{,{digits}}}"

    def __repr__(self):
        return f"{self.marked_name()}({', '.join(map(str, self.args))})"


Atom = Coordinate | OpaqueCall


def _akey(atom):
    """The canonical sort key of an atom, stored when it was interned."""
    return atom._sort_key


def _mul_monomials(m1, m2):
    """Merge two sorted monomials, summing exponents.  A product of valid
    monomials is valid: only a divisor can bring a negative power of an
    atom that is not a parameter, so ``_div_single_term`` checks for it."""
    out = []
    i = j = 0
    while i < len(m1) and j < len(m2):
        a1, e1 = m1[i]
        a2, e2 = m2[j]
        if a1 is a2:
            e = e1 + e2
            if e:
                out.append((a1, e))
            i += 1
            j += 1
        elif a1._sort_key < a2._sort_key:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def _coeff(value):
    """``value`` in stored form: an ``int`` when integral, else a
    ``Fraction``.  A float or any other non-rational type is refused."""
    if value.__class__ is int:
        return value
    if value.__class__ is not Fraction:
        if not isinstance(value, Rational):
            raise TypeError(f"coefficient {value!r} is not an int or a Fraction")
        value = Fraction(value)
    return value if value.denominator != 1 else value.numerator


class Expr:
    """Immutable canonical expression.  Construct via :meth:`const`,
    :meth:`atom` and arithmetic; never mutate ``_terms``."""

    __slots__ = ("_terms", "_hash", "_cached_key")

    def __init__(self, terms: dict | None = None):
        clean = {}
        if terms:
            for mon, coeff in terms.items():
                if any(e < 0 and not isinstance(a, Parameter) for a, e in mon):
                    raise ExprError("negative power of a non-parameter atom")
                c = _coeff(coeff)
                if c:
                    clean[mon] = c
        _set_terms(self, clean)

    @classmethod
    def _trusted(cls, terms: dict) -> "Expr":
        """Adopt ``terms`` as is: every coefficient must already be in stored
        form, a nonzero ``int`` or a ``Fraction`` with denominator other
        than 1, and every monomial a sorted tuple of (interned atom,
        exponent) pairs.  The dict is owned by the new Expr from here on."""
        e = object.__new__(cls)
        _set_terms(e, terms)
        return e

    def __setattr__(self, *a):
        raise AttributeError("Expr is immutable")

    def __reduce__(self):
        return Expr._trusted, (self._terms,)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def sum(items) -> "Expr":
        """The sum of an iterable of expressions (or numbers), collected into
        one term dict: linear in the total number of terms."""
        acc: dict = {}
        for e in items:
            _fold(acc, _coerce(e)._terms.items())
        return Expr._trusted(acc)

    @staticmethod
    def const(value) -> "Expr":
        c = _coeff(value)
        return Expr._trusted({(): c} if c else {})

    @staticmethod
    def atom(a: Atom) -> "Expr":
        return Expr._trusted({((a, 1),): 1})

    # -- canonical identity ------------------------------------------------

    def _key(self):
        try:
            return self._cached_key
        except AttributeError:
            k = tuple(
                sorted(
                    ((tuple((_akey(a), e) for a, e in m),
                      (c.numerator, c.denominator))
                     for m, c in self._terms.items())
                )
            )
            object.__setattr__(self, "_cached_key", k)
            return k

    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash(self._key())
            object.__setattr__(self, "_hash", h)
            return h

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(not m for m in self._terms)

    def as_fraction(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if not self.is_constant():
            raise ExprError(f"not a constant: {self}")
        return Fraction(next(iter(self._terms.values())))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        big, small = self._terms, _coerce(other)._terms
        if len(big) < len(small):
            big, small = small, big
        acc = dict(big)
        _fold(acc, small.items())
        return Expr._trusted(acc)

    __radd__ = __add__

    def __neg__(self):
        return Expr._trusted({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        acc: dict = {}
        _fold(acc, _mul_terms(self._terms, _coerce(other)._terms))
        return Expr._trusted(acc)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ExprError("exponents must be non-negative integers")
        if not exponent:
            return ONE
        terms = self._terms
        # The cost follows the number of terms in the result: a monomial
        # power is one term, a square one product, and a higher power of a
        # sum one pass over its multinomial expansion.  A nonzero stored
        # coefficient to a positive power is again in stored form.
        if len(terms) <= 1:
            return Expr._trusted({tuple((a, e * exponent) for a, e in mon):
                                  c ** exponent for mon, c in terms.items()})
        if exponent <= 2:
            return self if exponent == 1 else self * self
        acc: dict = {}
        _fold(acc, _multinomial_terms(list(terms.items()), exponent))
        return Expr._trusted(acc)

    def __truediv__(self, other):
        return divide(self, _coerce(other))

    def __repr__(self):
        return to_dsl(self)

    # -- structure ---------------------------------------------------------

    def atoms(self) -> set:
        return {a for m in self._terms for a, _ in m}

    def free_coordinates(self) -> set:
        """All coordinate atoms, including those buried in opaque arguments."""
        out: set = set()
        for a in self.atoms():
            if isinstance(a, OpaqueCall):
                for arg in a.args:
                    out |= arg.free_coordinates()
            else:
                out.add(a)
        return out

    def max_jet_order(self) -> int:
        orders = [c.mi.order for c in self.free_coordinates() if isinstance(c, Jet)]
        return max(orders, default=0)


# The slot's own setter, past the immutability guard of ``__setattr__``.
_set_terms = Expr._terms.__set__

ZERO = Expr()
ONE = Expr.const(1)


def _coerce(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction)):
        return Expr.const(v)
    raise TypeError(f"cannot coerce {v!r} to Expr")


def _fold(acc: dict, terms) -> None:
    """Add (monomial, coefficient) pairs into ``acc`` in place.  Monomials
    that cancel are deleted and integral sums stored as ``int``, so ``acc``
    keeps only nonzero coefficients in stored form."""
    for m, c in terms:
        s = acc.get(m)
        if s is None:
            acc[m] = c
        else:
            s += c
            if not s:
                del acc[m]
            elif s.__class__ is int or s.denominator != 1:
                acc[m] = s
            else:
                acc[m] = s.numerator


def _mul_terms(t1: dict, t2: dict):
    """The (monomial, coefficient) pairs of the product of two term dicts,
    like terms not yet merged, coefficients in stored form."""
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            c = c1 * c2
            if c.__class__ is not int and c.denominator == 1:
                c = c.numerator
            yield _mul_monomials(m1, m2), c


def _multinomial_terms(items: list, d: int):
    """The (monomial, coefficient) pairs of ``(c1*m1 + ... + cr*mr)^d``
    for the ``(mi, ci)`` in ``items``, by the multinomial theorem: one pair
    per composition k1 + ... + kr = d, with coefficient
    d!/(k1!...kr!) * prod ci^ki and monomial prod mi^ki.  Like terms are
    not yet merged; coefficients are in stored form.

    Each term's powers are formed once.  The compositions are built one
    term at a time, and the multinomial factor as the product of the
    binomials C(left, ki) of the exponent still left."""
    powers = [[((), 1)] + [(tuple((a, e * k) for a, e in mon), c ** k)
                           for k in range(1, d + 1)]
              for mon, c in items]
    last = powers.pop()
    partial = [(d, (), 1)]          # (exponent left, monomial, coefficient)
    for row in powers:
        grown = []
        for left, mon, coeff in partial:
            binom = 1
            for k in range(left + 1):
                pm, pc = row[k]
                grown.append((left - k, _mul_monomials(mon, pm) if k else mon,
                              coeff * binom * pc))
                binom = binom * (left - k) // (k + 1)
        partial = grown
    for left, mon, coeff in partial:
        pm, pc = last[left]
        c = coeff * pc
        if c.__class__ is not int and c.denominator == 1:
            c = c.numerator
        yield (_mul_monomials(mon, pm) if left else mon), c


# -- differentiation -------------------------------------------------------


def _chain_rule(a: OpaqueCall, derive) -> Expr:
    """sum_i derive(arg_i) * a_{,i}: a derivation through an opaque call."""
    terms = []
    for i, arg in enumerate(a.args):
        d = derive(arg)
        if not d.is_zero():
            terms.append(d * Expr.atom(a.bump(i)))
    return Expr.sum(terms)


def _atom_partial(a: Atom, c: Coordinate) -> Expr:
    if a is c:
        return ONE
    if isinstance(a, OpaqueCall):
        return _chain_rule(a, lambda arg: partial_derivative(arg, c))
    return ZERO


def _atom_total(a: Atom, lam: int) -> Expr:
    if isinstance(a, Base):
        return ONE if a.mu == lam else ZERO
    if isinstance(a, Jet):
        return Expr.atom(Jet(a.fld, a.mi.bump(lam)))
    if isinstance(a, Momentum):
        return Expr.atom(Momentum(a.fld, a.mi, a.last, a.derivs.bump(lam)))
    if isinstance(a, (Parameter,)):
        return ZERO
    if isinstance(a, Multiplier):
        raise ExprError("total derivative of a Lagrange multiplier is undefined")
    if isinstance(a, OpaqueCall):
        return _chain_rule(a, lambda arg: total_derivative(arg, lam))
    raise TypeError(f"unknown atom {a!r}")


def _derive(e: Expr, atom_rule) -> Expr:
    """Extend a derivation defined on atoms to the whole algebra (Leibniz).
    ``atom_rule`` runs once per distinct atom; its results are kept by
    (interned) atom and only looked up, so no order depends on hashing.
    Each term of a rule is folded in with the rest of the monomial as one
    pair, so a rule of one term (a jet or momentum under D_lam, a
    coordinate hit by a partial derivative) costs one product of
    monomials."""
    acc: dict = {}
    rules: dict = {}
    for mon, coeff in e._terms.items():
        for i, (a, exp) in enumerate(mon):
            da = rules.get(a)
            if da is None:
                da = rules[a] = atom_rule(a)._terms
            if not da:
                continue
            rest = mon[:i] + ((a, exp - 1),) if exp != 1 else mon[:i]
            rest += mon[i + 1:]
            ce = coeff * exp
            for dm, dc in da.items():
                c = ce * dc
                if c.__class__ is not int and c.denominator == 1:
                    c = c.numerator
                _fold(acc, ((_mul_monomials(rest, dm) if dm else rest, c),))
    return Expr._trusted(acc)


def gradient(e: Expr, coords) -> dict:
    """Every first partial derivative of ``e`` in ``coords`` from one pass
    over its terms: {c: de/dc} for each c of ``coords`` at which the
    derivative is not zero (read the others with ``.get(c, ZERO)``).

    A term feeds only the coordinates it holds.  For one coordinate,
    lowering its exponent by one is injective on the terms that hold it and
    keeps the factor order, so every entry is written once, with no fold.
    The terms holding an opaque call (which sorts last in a monomial) go
    through the chain rule of ``_derive``, for the coordinates they hold."""
    want = set(coords)
    acc: dict = {}
    through: dict = {}
    for mon, coeff in e._terms.items():
        if mon and mon[-1][0].__class__ is OpaqueCall:
            through[mon] = coeff
            continue
        for i, (a, exp) in enumerate(mon):
            if a in want:
                rest = mon[:i] + ((a, exp - 1),) if exp != 1 else mon[:i]
                c = coeff * exp
                if c.__class__ is not int and c.denominator == 1:
                    c = c.numerator
                terms = acc.get(a)
                if terms is None:
                    terms = acc[a] = {}
                terms[rest + mon[i + 1:]] = c
    if through:
        T = Expr._trusted(through)
        for c in sorted(want & T.free_coordinates(), key=_akey):
            # each monomial of d holds an opaque call and none above does,
            # so the two parts of an entry add without a fold
            d = _derive(T, lambda a: _atom_partial(a, c))._terms
            if d:
                acc.setdefault(c, {}).update(d)
    return {c: Expr._trusted(terms) for c, terms in acc.items()}


def partial_derivative(e: Expr, c: Coordinate) -> Expr:
    """Formal partial derivative; every other coordinate is independent."""
    d = gradient(e, (c,)).get(c)
    # a fresh zero, not the shared ZERO: a derivation builds its result
    return Expr._trusted({}) if d is None else d


def total_derivative(e: Expr, lam: int) -> Expr:
    """Total derivative D_lam: differentiates the explicit base dependence,
    raises jets holonomically and decorates momentum atoms with a base
    derivative."""
    return _derive(e, lambda a: _atom_total(a, lam))


def total_divergence(row) -> Expr:
    """sum_lam D_lam row[lam]: the total divergence of a row of expressions
    given in direction order lam = 1, 2, ..."""
    return Expr.sum(total_derivative(e, lam)
                    for lam, e in enumerate(row, start=1))


def total_derivative_multi(e: Expr, mi, order_cap: int = 12) -> Expr:
    """Composed total derivative D_mi (directions commute, order immaterial).

    Refuses at the first step whose result has a jet above ``order_cap``.
    A step raises no jet order by more than one, opaque arguments included,
    so the order is recomputed only when that bound could pass the cap."""
    if not any(mi):
        return e
    out = e
    bound = e.max_jet_order()
    for direction, count in enumerate(mi, start=1):
        for _ in range(count):
            out = total_derivative(out, direction)
            bound += 1
            if bound > order_cap:
                bound = out.max_jet_order()
                if bound > order_cap:
                    raise ExprError(
                        f"jet order exceeded cap {order_cap} during iterated total derivative"
                    )
    return out


# -- substitution ----------------------------------------------------------


def substitute(e: Expr, mapping: dict) -> Expr:
    """Replace coordinate atoms by expressions (opaque arguments included).

    Each term keeps the factors the mapping leaves alone as one monomial
    and multiplies in only the powers of its mapped values, term by term;
    every expanded pair is folded into one dict for the whole call.  A
    mapped parameter at a negative power divides its term by the value's
    power, with ``divide``."""
    acc: dict = {}
    for mon, coeff in e._terms.items():
        kept = []
        powers = []
        den = None
        for a, exp in mon:
            if a.__class__ is OpaqueCall:
                b = OpaqueCall(a.name, a.derivs, tuple(
                    substitute(arg, mapping) for arg in a.args))
                if b is a:
                    kept.append((a, exp))
                    continue
                # a new call may sort elsewhere or equal another factor
                val = Expr.atom(b)
            elif a in mapping:
                val = _coerce(mapping[a])
            else:
                kept.append((a, exp))
                continue
            if exp > 0:
                powers.append((val if exp == 1 else val ** exp)._terms)
            else:
                den = val ** -exp if den is None else den * val ** -exp
        terms = {tuple(kept): coeff}
        # products of different values can collide, so each is merged
        # before the next; the last one folds straight into acc
        last = powers.pop() if powers and den is None else None
        for p in powers:
            product: dict = {}
            _fold(product, _mul_terms(terms, p))
            terms = product
        if last is not None:
            _fold(acc, _mul_terms(terms, last))
        elif den is not None:
            _fold(acc, divide(Expr._trusted(terms), den)._terms.items())
        else:
            _fold(acc, terms.items())
    return Expr._trusted(acc)


# -- division --------------------------------------------------------------


def _div_single_term(num: Expr, den: Expr) -> Expr:
    """Divide by a one-term divisor: cancellation is strict except that
    parameter atoms may be carried into negative (Laurent) powers."""
    ((dmon, dcoeff),) = den._terms.items()
    neg = tuple((a, -e) for a, e in dmon)
    terms = {}
    for mon, coeff in num._terms.items():
        m = _mul_monomials(mon, neg)
        if any(e < 0 and not isinstance(a, Parameter) for a, e in m):
            raise ExprError(f"division by non-constant expression: {den}")
        terms[m] = _coeff(Fraction(coeff, dcoeff))
    # Distinct monomials stay distinct and no coefficient becomes zero.
    return Expr._trusted(terms)


def _cmp_monomials(m1, m2) -> int:
    """Graded lexicographic comparison (a true monomial order: total degree
    first, then the earliest atom with a differing exponent decides, larger
    exponent winning; absent atoms count as zero)."""
    g1 = sum(e for _, e in m1)
    g2 = sum(e for _, e in m2)
    if g1 != g2:
        return 1 if g1 > g2 else -1
    i = j = 0
    while i < len(m1) or j < len(m2):
        a1 = m1[i] if i < len(m1) else None
        a2 = m2[j] if j < len(m2) else None
        if a1 is not None and a2 is not None and a1[0] is a2[0]:
            if a1[1] != a2[1]:
                return 1 if a1[1] > a2[1] else -1
            i += 1
            j += 1
            continue
        if a2 is None or (a1 is not None and a1[0]._sort_key < a2[0]._sort_key):
            return 1 if a1[1] > 0 else -1
        return -1 if a2[1] > 0 else 1
    return 0


def _lead(e: Expr):
    """Leading term under the graded-lex monomial order."""
    return max(e._terms.items(),
               key=cmp_to_key(lambda x, y: _cmp_monomials(x[0], y[0])))


def _parameter_floor(e: Expr) -> tuple:
    """The monomial of the parameters p of ``e`` to their least exponent
    over its terms (0 in a term without p), the factors at 0 left out."""
    params = sorted({a for mon in e._terms for a, _ in mon
                     if a.__class__ is Parameter}, key=_akey)
    if not params:
        return ()
    exps = [dict(mon) for mon in e._terms]
    floor = ((p, min(x.get(p, 0) for x in exps)) for p in params)
    return tuple((p, k) for p, k in floor if k)


def divide(num: Expr, den: Expr) -> Expr:
    """Exact division.

    Constants and single-term parameter monomials always divide (parameters
    are symbolic constants, so 1/m is legal Laurent data).  A multi-term
    divisor must divide without remainder, with a Laurent quotient allowed:
    the divisor is divided by its parameter-monomial content c, each
    parameter to its least exponent over the terms (so 1/c clears the
    divisor's own negative powers), and the numerator multiplied by the
    least parameter monomial m that clears its negative powers.  No
    parameter then divides the divisor, nor has a negative power in it, so
    the exact multivariate polynomial division that follows fails only
    when no Laurent quotient exists; its quotient is divided by c * m.
    """
    den = _coerce(den)
    num = _coerce(num)
    if den.is_zero():
        raise ExprError("division by zero")
    if den.is_constant():
        return num * Expr.const(1 / den.as_fraction())
    if len(den._terms) == 1:
        return _div_single_term(num, den)
    content = _parameter_floor(den)
    clear = tuple((p, -k) for p, k in _parameter_floor(num) if k < 0)
    divisor = _div_single_term(den, Expr._trusted({content: 1})) \
        if content else den
    lead_mon, lead_coeff = _lead(divisor)
    quotient = ZERO
    rem = num * Expr._trusted({clear: 1}) if clear else num
    steps = 0
    while not rem.is_zero():
        steps += 1
        if steps > 100000:
            raise ExprError(f"division did not terminate: {num} by {den}")
        rmon, rcoeff = _lead(rem)
        qmon = _div_monomials(rmon, lead_mon)
        if qmon is None:
            raise ExprError(f"inexact division: {num} by {den}")
        qterm = Expr({qmon: Fraction(rcoeff, lead_coeff)})
        quotient = quotient + qterm
        rem = rem - qterm * divisor
    shift = _mul_monomials(content, clear)
    return _div_single_term(quotient, Expr._trusted({shift: 1})) \
        if shift else quotient


def _div_monomials(m1, m2):
    """m1 / m2 as a monomial, or None unless every factor of m2 is matched in
    m1 with at least its exponent (no Laurent slack for multi-term divisors)."""
    have = dict(m1)
    for a, e in m2:
        if have.get(a, 0) < e:
            return None
    neg = tuple((a, -e) for a, e in m2)
    return _mul_monomials(m1, neg)


# -- canonical DSL printing -------------------------------------------------

def _display_sorted(mon):
    """The factors of a monomial in display order: the parameters first,
    then the other atoms.  The stored order (Base < Jet < Momentum <
    Multiplier < Parameter < opaque call) is the display order apart from
    the parameters, so a stable partition gives it."""
    params = [f for f in mon if f[0].__class__ is Parameter]
    if not params:
        return mon
    return params + [f for f in mon if f[0].__class__ is not Parameter]


def _factor_key(factor):
    return factor[0]._sort_key, factor[1]


def _ranked(terms: dict, key) -> list:
    """The items of ``terms``, a dict keyed by tuples, in the lexicographic
    order of the tuples with each entry compared by ``key``.  The distinct
    entries are ranked once, so the tuples sort as flat tuples of small
    ints; a single item is not sorted."""
    items = list(terms.items())
    if len(items) < 2:
        return items
    rank = {f: i for i, f in enumerate(
        sorted(set(chain.from_iterable(terms)), key=key))}
    return sorted(items, key=lambda item: tuple(map(rank.__getitem__, item[0])))


_PARAMETER_OR_CALL = (Parameter, OpaqueCall)


def _join_terms(e: Expr, table, render) -> str:
    """The printers' common core: the terms of ``e`` in canonical order,
    each rendered without its sign by ``render(monomial, coefficient,
    texts)``, joined by " + " and " - "; "0" for the zero expression.

    One table per call: the distinct (atom, exponent) factors of ``e`` are
    ranked once to order the terms, and ``texts = table()``, a dict whose
    ``__missing__`` forms a factor's text, holds each factor's text once.
    A text is formed on its first use, in the order the terms print, so a
    number past the digit limit raises where the first offending term
    would.  A monomial reaches ``render`` in display order: a parameter
    sorts after every atom but an opaque call, so only a monomial that
    ends in either can need ``_display_sorted``."""
    terms = e._terms
    if not terms:
        return "0"
    texts = table()
    out = []
    for mon, coeff in _ranked(terms, _factor_key):
        if mon and mon[-1][0].__class__ in _PARAMETER_OR_CALL:
            mon = _display_sorted(mon)
        out.append(" - " if coeff.numerator < 0 else " + ")
        out.append(render(mon, coeff, texts))
    out[0] = "-" if out[0] == " - " else ""
    return "".join(out)


def _digits(n: int, what: str = "coefficient") -> str:
    """The decimal form of ``n``, sign kept.  A number longer than the
    interpreter's digit limit, which bounds the parser's literals as well,
    raises ``ExprError`` naming ``what`` it is and its digit count, so
    printed output always reads back."""
    try:
        return str(n)
    except ValueError:
        n = abs(n)
        d = int(n.bit_length() * math.log10(2)) - 1   # a lower bound
        while n >= 10 ** d:
            d += 1
        raise ExprError(f"{what} too long to print ({d} digits)") from None


def to_dsl(e: Expr) -> str:
    """Canonical textual form; reparsing yields the identical Expr."""
    return _join_terms(e, _DslTexts, _term_dsl)


class _DslTexts(dict):
    """A factor's DSL text, formed on first use, without the sign of its
    exponent: a negative power of a parameter prints in the denominator."""

    __slots__ = ()

    def __missing__(self, factor):
        a, e = factor
        text = self[factor] = (a._dsl if e == 1 or e == -1 else
                               f"{a._dsl}^{_digits(abs(e), 'exponent')}")
        return text


def _term_dsl(mon, coeff, texts) -> str:
    s = "*".join(map(texts.__getitem__, mon))
    den = ()
    # the parameters come first, and only they carry negative powers
    if mon and mon[0][0].__class__ is Parameter and any(x < 0 for _, x in mon):
        s = "*".join([texts[f] for f in mon if f[1] > 0])
        den = [texts[f] for f in mon if f[1] < 0]
    n = abs(coeff.numerator)
    if n != 1 or not s:
        s = f"{_digits(n)}*{s}" if s else _digits(n)
    if coeff.denominator != 1:
        den = (_digits(coeff.denominator), *den)
    if den:
        s += "/" + (den[0] if len(den) == 1 else "(" + "*".join(den) + ")")
    return s

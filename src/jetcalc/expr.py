"""Exact symbolic expressions over phase-bundle coordinates.

An ``Expr`` is kept permanently in canonical form: an expanded multivariate
polynomial over its atoms with rational coefficients, atoms sorted by the
fixed coordinate order and like terms merged.  Equality of canonical forms
therefore decides equality of the underlying functions, which is what every
theorem check in the package reduces to.

The coefficients are stored as FLINT's ``fmpq_poly_t`` stores them: one
nonzero ``int`` numerator per monomial in ``_terms`` and one positive common
denominator ``_den``, with gcd(``_den``, every numerator) = 1, so ``_den``
is 1 exactly when every coefficient is an integer and the pair is unique.
The kernel computes on ints alone: a sum scales its operands to the lcm of
their denominators, and a product multiplies numerators and denominators
after cancelling each denominator against the other factor's integer
content.  A rational constant such as 1/2 is ``divide(1, 2)``.  The
printers reduce each coefficient c/den with one gcd as they print it.
``parts`` hands the pair to the other modules.

At the boundary, a coefficient comes in as any ``numbers.Rational`` (an
int, a bool, a ``Fraction``) through its ``numerator`` and
``denominator``; a float or a ``Decimal`` is refused.  It goes out as a
``Fraction`` only through ``as_fraction``, the one place that imports
``fractions``.

Atoms are the coordinates of :mod:`jetcalc.coords` plus opaque function
applications.  They are interned (one object per value), so monomials
compare atoms by identity, order them by the sort key each atom stored
when it was built and print them with the DSL string stored next to it.
Parameters may carry negative exponents (they are symbolic constants, so
1/m is legal); every other atom is restricted to a plain polynomial role.

A derivation extends its rule on atoms by Leibniz in ``_derive``, which
adds D(e) into numerators over a denominator that its caller owns, scales
both to their lcm as ``_fold_over`` does, and leaves ``_make`` to the
caller; ``total_divergence`` folds every D_lam into one dict.  D_lam(a) is
formed once per direction and interned atom and kept as formed, never
rescaled, in ``_TOTAL_RULES`` for the life of the process; the table grows
with the atoms that total derivatives meet, as the intern tables do.

Building an ``Expr`` sets only its term dict and denominator.  Its
canonical sort key and its hash are computed on first use (the first
``hash`` or ``==``) and kept.
"""

from __future__ import annotations

import math
from functools import cmp_to_key
from itertools import chain, count
from math import gcd
from numbers import Rational

from .coords import (AtomBase, Base, Coordinate, Jet, Momentum, Multiplier,
                     Parameter)

_RANK_OPAQUE = 5


class JetcalcError(ValueError):
    """Bad input to jetcalc; every module's error class derives from it."""


class ExprError(JetcalcError):
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


def _ratio(value):
    """``value`` as a pair (numerator, denominator) of ints in lowest
    terms, the denominator positive: any ``numbers.Rational`` (an int, a
    bool, a ``Fraction``) through its ``numerator`` and ``denominator``.
    A float, a ``Decimal`` or any other type is refused."""
    if value.__class__ is int:
        return value, 1
    if not isinstance(value, Rational):
        raise TypeError(f"coefficient {value!r} is not a rational number")
    return value.numerator, value.denominator


class Expr:
    """Immutable canonical expression.  Construct via :meth:`const`,
    :meth:`atom` and arithmetic; never mutate ``_terms``."""

    __slots__ = ("_terms", "_den", "_hash", "_cached_key")

    def __init__(self, terms: dict | None = None):
        clean = {}
        den = 1
        if terms:
            for mon, coeff in terms.items():
                if any(e < 0 and not isinstance(a, Parameter) for a, e in mon):
                    raise ExprError("negative power of a non-parameter atom")
                n, d = _ratio(coeff)
                if n:
                    clean[mon] = n, d
                    den = den * d // gcd(den, d)
            # every prime of the lcm divides one denominator to its full
            # power, and that term's scaled numerator is prime to it
            clean = {m: n * (den // d) for m, (n, d) in clean.items()}
        _set_terms(self, clean)
        _set_den(self, den)

    def __setattr__(self, *a):
        raise AttributeError("Expr is immutable")

    def __reduce__(self):
        return _trusted, (self._terms, self._den)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def sum(items) -> "Expr":
        """The sum of an iterable of expressions (or numbers), collected into
        one term dict: linear in the total number of terms.  A lone
        expression is returned as it is."""
        if len(items := list(items)) == 1:
            return _coerce(items[0])
        acc: dict = {}
        den = 1
        for e in items:
            if e.__class__ is not Expr:
                e = _coerce(e)
            if e._den == den:
                _fold(acc, e._terms.items())
            else:
                den = _fold_over(acc, den, e._terms.items(), e._den)
        return _make(acc, den)

    @staticmethod
    def const(value) -> "Expr":
        n, d = _ratio(value)
        return _trusted({(): n}, d) if n else _trusted({})

    @staticmethod
    def atom(a: Atom) -> "Expr":
        return _trusted({((a, 1),): 1})

    def parts(self) -> tuple:
        """``(terms, den)``: the integer numerator of each monomial and the
        common denominator, so the coefficient of ``m`` is terms[m] / den.
        The dict is the Expr's own; read it, never change it."""
        return self._terms, self._den

    # -- canonical identity ------------------------------------------------

    def _key(self):
        try:
            return self._cached_key
        except AttributeError:
            # each coefficient as a pair in lowest terms
            den = self._den
            k = tuple(
                sorted(
                    ((tuple((_akey(a), e) for a, e in m),
                      (c, 1) if den == 1 else _lowest(c, den))
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

    def as_fraction(self):
        """The value of a constant as a ``fractions.Fraction``."""
        from fractions import Fraction
        if not self._terms:
            return Fraction(0)
        if not self.is_constant():
            raise ExprError(f"not a constant: {self}")
        return Fraction(self._terms[()], self._den)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not Expr:
            other = _coerce(other)
        big, small = self, other
        if len(big._terms) < len(small._terms):
            big, small = small, big
        acc = dict(big._terms)
        if big._den == small._den == 1:
            _fold(acc, small._terms.items())
            return _trusted(acc)
        return _make(acc, _fold_over(acc, big._den, small._terms.items(),
                                     small._den))

    __radd__ = __add__

    def __neg__(self):
        return _trusted({m: -c for m, c in self._terms.items()}, self._den)

    def __sub__(self, other):
        if other.__class__ is not Expr:
            other = _coerce(other)
        acc = dict(self._terms)
        return _make(acc, _fold_over(acc, self._den, (
            (m, -c) for m, c in other._terms.items()), other._den))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        if other.__class__ is not Expr:
            other = _coerce(other)
        t1, d1, t2, d2 = self._terms, self._den, other._terms, other._den
        # Each denominator is cancelled against the other factor's content
        # first.  Then each is prime to both contents, and the content of a
        # product of integer polynomials is the product of their contents
        # (Gauss), so the product is in lowest terms as it comes.
        if d1 != 1:
            t2, d1 = _cancel(t2, d1)
        if d2 != 1:
            t1, d2 = _cancel(t1, d2)
        acc: dict = {}
        _fold(acc, _mul_terms(t1, t2))
        return _trusted(acc, d1 * d2)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ExprError("exponents must be non-negative integers")
        if not exponent:
            return ONE
        terms = self._terms
        # The cost follows the number of terms in the result: a monomial
        # power is one term, a square one product, and a higher power of a
        # sum one pass over its multinomial expansion.  A power of a content
        # prime to the denominator stays prime to its power.
        if len(terms) <= 1:
            return _trusted({tuple((a, e * exponent) for a, e in mon):
                             c ** exponent for mon, c in terms.items()},
                            self._den ** exponent)
        if exponent <= 2:
            return self if exponent == 1 else self * self
        acc: dict = {}
        _fold(acc, _multinomial_terms(list(terms.items()), exponent))
        return _trusted(acc, self._den ** exponent)

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
            if a.__class__ is OpaqueCall:
                out |= _call_coordinates(a)
            else:
                out.add(a)
        return out

    def max_jet_order(self) -> int:
        orders = [c.mi.order for c in self.free_coordinates() if isinstance(c, Jet)]
        return max(orders, default=0)


# The slots' own setters, past the immutability guard of ``__setattr__``.
_new = object.__new__
_set_terms = Expr._terms.__set__
_set_den = Expr._den.__set__


def _trusted(terms: dict, den: int = 1) -> "Expr":
    """Adopt ``terms`` over ``den`` as they are: every numerator must be a
    nonzero ``int``, ``den`` positive and prime to their gcd, and every
    monomial a sorted tuple of (interned atom, exponent) pairs.  The dict
    is owned by the new Expr from here on."""
    e = _new(Expr)
    _set_terms(e, terms)
    _set_den(e, den)
    return e


ZERO = Expr()
ONE = Expr.const(1)

# The coordinates in the arguments of each opaque call, by interned call.
_CALL_COORDINATES: dict = {}


def _call_coordinates(a: OpaqueCall) -> frozenset:
    """The coordinates the arguments of the opaque call ``a`` hold, nested
    calls included; formed once per call."""
    s = _CALL_COORDINATES.get(a)
    if s is None:
        s = _CALL_COORDINATES[a] = frozenset().union(
            *(arg.free_coordinates() for arg in a.args))
    return s


def _coerce(v) -> Expr:
    """``v`` itself, or the constant of a rational number (see ``_ratio``)."""
    return v if isinstance(v, Expr) else Expr.const(v)


def _lowest(c: int, den: int) -> tuple:
    """The coefficient c/den as a pair in lowest terms."""
    g = gcd(c, den)
    return c // g, den // g


def _make(terms: dict, den: int) -> Expr:
    """The Expr of the numerators ``terms`` over ``den``, reduced by their
    common gcd with ``den``; the dict is owned by the result."""
    if den != 1:
        terms, den = _cancel(terms, den)
    return _trusted(terms, den)


def _cancel(terms: dict, den: int) -> tuple:
    """``(terms / g, den / g)`` for g the gcd of ``den`` and the
    numerators: the terms themselves when g is 1."""
    g = gcd(den, *terms.values())
    if g == 1:
        return terms, den
    return {m: c // g for m, c in terms.items()}, den // g


def _fold(acc: dict, terms) -> None:
    """Add (monomial, numerator) pairs into ``acc`` in place.  Monomials
    that cancel are deleted, so ``acc`` keeps only nonzero numerators."""
    for m, c in terms:
        s = acc.get(m)
        if s is None:
            acc[m] = c
        else:
            s += c
            if s:
                acc[m] = s
            else:
                del acc[m]


def _fold_over(acc: dict, den: int, terms, d: int) -> int:
    """Add the (monomial, numerator) pairs ``terms`` over ``d`` into the
    numerators ``acc`` over ``den``, in place, both scaled to the lcm of
    the two denominators, which is returned.  Equal denominators (1 for
    integer sums) scale nothing.  The sum is not reduced (see ``_make``)."""
    if d != den:
        g = gcd(den, d)
        if d != g:
            s = d // g
            for m in acc:
                acc[m] *= s
            den *= s
        if d != den:
            s = den // d
            terms = ((m, c * s) for m, c in terms)
    _fold(acc, terms)
    return den


def _mul_terms(t1: dict, t2: dict):
    """The (monomial, numerator) pairs of the product of two term dicts,
    like terms not yet merged."""
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            yield _mul_monomials(m1, m2), c1 * c2


def _multinomial_terms(items: list, d: int):
    """The (monomial, numerator) pairs of ``(c1*m1 + ... + cr*mr)^d`` for
    the ``(mi, ci)`` in ``items``, by the multinomial theorem: one pair
    per composition k1 + ... + kr = d, with coefficient
    d!/(k1!...kr!) * prod ci^ki and monomial prod mi^ki.  Like terms are
    not yet merged.

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
        yield (_mul_monomials(mon, pm) if left else mon), coeff * pc


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


class _Rules(dict):
    """``rule(a)`` by interned atom ``a``, formed on first lookup."""

    __slots__ = ("rule",)

    def __init__(self, rule):
        self.rule = rule

    def __missing__(self, a):
        r = self[a] = self.rule(a)
        return r


# D_lam(a) by direction lam and interned atom a (see the module docstring)
_TOTAL_RULES = _Rules(lambda lam: _Rules(lambda a: _atom_total(a, lam)))


def _derive(acc: dict, den: int, e: Expr, rules) -> int:
    """Add D(e) into the numerators ``acc`` over ``den`` by Leibniz from
    the Exprs ``rules[a]`` = D(a), and return the new denominator (see the
    module docstring).  Each term of a rule is folded in with the rest of
    the monomial as one pair, so a rule of one term (a jet or momentum
    under D_lam, a coordinate hit by a partial derivative) costs one
    product of monomials."""
    ed = e._den
    for mon, coeff in e._terms.items():
        for i, (a, exp) in enumerate(mon):
            r = rules[a]
            da = r._terms
            if not da:
                continue
            rest = mon[:i] + ((a, exp - 1),) if exp != 1 else mon[:i]
            rest += mon[i + 1:]
            ce = coeff * exp
            d = ed * r._den
            if d != den:
                den = _fold_over(acc, den, (), d)  # acc over the lcm
                ce *= den // d
            for dm, dc in da.items():
                _fold(acc, ((_mul_monomials(rest, dm) if dm else rest,
                             ce * dc),))
    return den


def gradient(e: Expr, coords) -> dict:
    """Every first partial derivative of ``e`` in ``coords`` from one pass
    over its terms: {c: de/dc} for each c of ``coords`` at which the
    derivative is not zero (read the others with ``.get(c, ZERO)``).

    A term feeds only the coordinates it holds.  For one coordinate,
    lowering its exponent by one is injective on the terms that hold it and
    keeps the factor order, so every entry is written once, with no fold.
    The terms holding an opaque call (which sorts last in a monomial) go
    through the chain rule of ``_derive``, for the coordinates they hold
    as factors or in the arguments of their calls."""
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
                terms = acc.get(a)
                if terms is None:
                    terms = acc[a] = {}
                terms[rest + mon[i + 1:]] = coeff * exp
    den = e._den
    # The terms with a call, over den, are derived into the same dicts.
    # Each monomial they give holds a call and no other term does, so
    # nothing cancels against the exponent arithmetic above.
    T = _trusted(through, den)
    hit = set()
    for mon in through:
        for a, _ in mon:
            if a.__class__ is OpaqueCall:
                hit |= want & _call_coordinates(a)
            elif a in want:
                hit.add(a)
    dens = {c: _derive(acc.setdefault(c, {}), den, T,
                       _Rules(lambda a: _atom_partial(a, c)))
            for c in sorted(hit, key=_akey)}
    return {c: _make(terms, dens.get(c, den))
            for c, terms in acc.items() if terms}


def partial_derivative(e: Expr, c: Coordinate) -> Expr:
    """Formal partial derivative; every other coordinate is independent."""
    d = gradient(e, (c,)).get(c)
    # a fresh zero, not the shared ZERO: a derivation builds its result
    return _trusted({}) if d is None else d


def total_derivative(e: Expr, lam: int) -> Expr:
    """Total derivative D_lam: differentiates the explicit base dependence,
    raises jets holonomically and decorates momentum atoms with a base
    derivative."""
    acc: dict = {}
    return _make(acc, _derive(acc, 1, e, _TOTAL_RULES[lam]))


def total_divergence(row) -> Expr:
    """sum_lam D_lam row[lam]: the total divergence of a row of expressions
    given in direction order lam = 1, 2, ..., every D_lam added into one
    term dict."""
    acc: dict = {}
    den = 1
    for lam, e in enumerate(row, start=1):
        den = _derive(acc, den, e, _TOTAL_RULES[lam])
    return _make(acc, den)


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
    every expanded pair is folded into one dict for the whole call, over
    the lcm of the terms' denominators.  A mapped parameter at a negative
    power divides its term by the value's power, with ``divide``."""
    acc: dict = {}
    den = 1
    for mon, coeff in e._terms.items():
        kept = []
        powers = []
        div = None
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
                powers.append(val if exp == 1 else val ** exp)
            else:
                div = val ** -exp if div is None else div * val ** -exp
        terms = {tuple(kept): coeff}
        # the term's numerators over tden, not reduced until the end
        tden = e._den
        # products of different values can collide, so each is merged
        # before the next; the last one folds straight into acc
        last = powers.pop() if powers and div is None else None
        for p in powers:
            product: dict = {}
            _fold(product, _mul_terms(terms, p._terms))
            terms = product
            tden *= p._den
        if last is not None:
            den = _fold_over(acc, den, _mul_terms(terms, last._terms),
                             tden * last._den)
        elif div is not None:
            q = divide(_make(terms, tden), div)
            den = _fold_over(acc, den, q._terms.items(), q._den)
        else:
            den = _fold_over(acc, den, terms.items(), tden)
    return _make(acc, den)


# -- division --------------------------------------------------------------


def _div_single_term(num: Expr, den: Expr) -> Expr:
    """Divide by a one-term divisor: cancellation is strict except that
    parameter atoms may be carried into negative (Laurent) powers."""
    ((dmon, dcoeff),) = den._terms.items()
    neg = tuple((a, -e) for a, e in dmon)
    # num / (dcoeff/dden * dmon) = num * dden / dcoeff / dmon
    scale = den._den if dcoeff > 0 else -den._den
    terms = {}
    for mon, coeff in num._terms.items():
        m = _mul_monomials(mon, neg)
        if any(e < 0 and not isinstance(a, Parameter) for a, e in m):
            raise ExprError(f"division by non-constant expression: {den}")
        terms[m] = coeff * scale
    # Distinct monomials stay distinct and no coefficient becomes zero.
    return _make(terms, num._den * abs(dcoeff))


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
        # the reciprocal of c/dden is dden/c
        ((_, c),) = den._terms.items()
        return num * _trusted({(): den._den if c > 0 else -den._den}, abs(c))
    if len(den._terms) == 1:
        return _div_single_term(num, den)
    content = _parameter_floor(den)
    clear = tuple((p, -k) for p, k in _parameter_floor(num) if k < 0)
    divisor = _div_single_term(den, _trusted({content: 1})) \
        if content else den
    lead_mon, lead_coeff = _lead(divisor)
    # a quotient term's coefficient is (r/rden) / (lead/dden)
    lead_scale = divisor._den if lead_coeff > 0 else -divisor._den
    lead_coeff = abs(lead_coeff)
    quotient = ZERO
    rem = num * _trusted({clear: 1}) if clear else num
    steps = 0
    while not rem.is_zero():
        steps += 1
        if steps > 100000:
            raise ExprError(f"division did not terminate: {num} by {den}")
        rmon, rcoeff = _lead(rem)
        qmon = _div_monomials(rmon, lead_mon)
        if qmon is None:
            raise ExprError(f"inexact division: {num} by {den}")
        n, d = _lowest(rcoeff * lead_scale, rem._den * lead_coeff)
        qterm = _trusted({qmon: n}, d)
        quotient = quotient + qterm
        rem = rem - qterm * divisor
    shift = _mul_monomials(content, clear)
    return _div_single_term(quotient, _trusted({shift: 1})) \
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


# From this many terms on, ``_ranked`` ranks the distinct entries first;
# below it, sorting by the entries' keys costs less (measured crossover:
# 24 to 28 terms).
_RANK_MIN_TERMS = 24


def _ranked(terms: dict, key) -> list:
    """The items of ``terms``, a dict keyed by tuples, in the lexicographic
    order of the tuples with each entry compared by ``key``: sorted by the
    tuples of the entries' keys.  When there are many terms, which share
    entries, the distinct entries are ranked once and the tuples sort as
    flat tuples of small ints instead.  A single item is not sorted."""
    if len(terms) < 2:
        return list(terms.items())
    rank = key
    if len(terms) >= _RANK_MIN_TERMS:
        rank = dict(zip(sorted(set(chain.from_iterable(terms)), key=key),
                        count())).__getitem__
    return sorted(terms.items(), key=lambda item: tuple(map(rank, item[0])))


_PARAMETER_OR_CALL = (Parameter, OpaqueCall)


def _join_terms(e: Expr, table, render) -> str:
    """The printers' common core: the terms of ``e`` in canonical order,
    each rendered without its sign by ``render(monomial, numerator,
    denominator, texts)``, its coefficient's magnitude reduced to lowest
    terms, joined by " + " and " - "; "0" for the zero expression.

    The terms are ordered by ``_ranked`` on their (atom, exponent)
    factors.  One table per call: ``texts = table()``, a dict whose
    ``__missing__`` forms a factor's text, holds each factor's text once.
    A text is formed on its first use, in the order the terms print, so a
    number past the digit limit raises where the first offending term
    would.  A monomial reaches ``render`` in display order: a parameter
    sorts after every atom but an opaque call, so only a monomial that
    ends in either can need ``_display_sorted``."""
    terms = e._terms
    if not terms:
        return "0"
    den = e._den
    texts = table()
    out = []
    for mon, c in _ranked(terms, _factor_key):
        if mon and mon[-1][0].__class__ in _PARAMETER_OR_CALL:
            mon = _display_sorted(mon)
        if c < 0:
            out.append(" - ")
            c = -c
        else:
            out.append(" + ")
        n, d = (c, 1) if den == 1 else _lowest(c, den)
        out.append(render(mon, n, d, texts))
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


def _term_dsl(mon, n, d, texts) -> str:
    s = "*".join(map(texts.__getitem__, mon))
    den = ()
    # the parameters come first, and only they carry negative powers
    if mon and mon[0][0].__class__ is Parameter and any(x < 0 for _, x in mon):
        s = "*".join([texts[f] for f in mon if f[1] > 0])
        den = [texts[f] for f in mon if f[1] < 0]
    if n != 1 or not s:
        s = f"{_digits(n)}*{s}" if s else _digits(n)
    if d != 1:
        den = (_digits(d), *den)
    if den:
        s += "/" + (den[0] if len(den) == 1 else "(" + "*".join(den) + ")")
    return s

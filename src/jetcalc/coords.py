"""Coordinate atoms of the phase-bundle algebra.

Five coordinate kinds: base points x^mu, jet slots phi_mu, momentum slots
p^{mu|lambda} (optionally decorated with base derivatives, the jets of
momenta), Lagrange multipliers and named parameters.  The fixed total order
Base < Jet < Momentum < Multiplier < Parameter makes canonical forms
deterministic.

Atoms are interned (``AtomBase``): constructing an atom twice gives the
same object, so equality and hashing are the identity versions inherited
from ``object``, and each atom computes its ``sort_key()`` and its DSL
string (``_dsl``, what ``repr`` gives) once, when it is first built.
"""

from __future__ import annotations

from .multiindex import MultiIndex

_RANK_BASE = 0
_RANK_JET = 1
_RANK_MOMENTUM = 2
_RANK_MULTIPLIER = 3
_RANK_PARAMETER = 4

_set = object.__setattr__


class AtomBase:
    """The base of the atom classes, one instance per value.  A subclass
    names its fields in ``__slots__``; ``cls._canonical(*args, **kwargs)``
    maps constructor arguments to the canonical field values.  Each
    subclass has its own table, keyed by those values and, as aliases, by
    the positional arguments as given, so a repeated construction costs one
    dict lookup.  The table grows with the number of distinct atoms built.
    Atoms refuse attribute assignment, and reduce to their field values, so
    copies and pickles return the interned instance."""

    __slots__ = ("_sort_key", "_dsl")

    def __init_subclass__(cls):
        cls._interned = {}

    def __new__(cls, *args, **kwargs):
        table = cls._interned
        if not kwargs:
            try:
                return table[args]
            except (KeyError, TypeError):
                pass
        values = cls._canonical(*args, **kwargs)
        atom = table.get(values)
        if atom is None:
            atom = object.__new__(cls)
            for name, value in zip(cls.__slots__, values):
                _set(atom, name, value)
            _set(atom, "_sort_key", atom._make_sort_key())
            _set(atom, "_dsl", atom.__repr__())
            table[values] = atom
        if not kwargs:
            try:
                table[args] = atom
            except TypeError:
                pass
        return atom

    @classmethod
    def _canonical(cls, *args, **kwargs):
        names = cls.__slots__
        values = args + tuple(kwargs.pop(name) for name in names[len(args):]
                              if name in kwargs)
        if kwargs or len(values) != len(names):
            raise TypeError(f"{cls.__name__} takes {names}")
        return values

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def sort_key(self):
        return self._sort_key

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class Base(AtomBase):
    """Base coordinate x^mu, 1-based direction."""

    __slots__ = ("mu",)

    def _make_sort_key(self):
        return (_RANK_BASE, "", (self.mu,), (), 0, ())

    def __repr__(self):
        return f"x{self.mu}"


class Jet(AtomBase):
    """Jet coordinate phi_mi of a named field; mi = () order means the field."""

    __slots__ = ("fld", "mi")

    @classmethod
    def _canonical(cls, fld, mi):
        return fld, MultiIndex(mi)

    def _make_sort_key(self):
        return (_RANK_JET, self.fld, (self.mi.order,) + tuple(self.mi), (), 0, ())

    def __repr__(self):
        return f"{self.fld}[{','.join(map(str, self.mi))}]" if self.mi.order else self.fld


class Momentum(AtomBase):
    """Momentum slot p^{mi|last} of a field, optionally a symmetrized slot.

    ``last is None`` denotes the totally symmetric representative p^mi (used
    for the top momenta paired with the order-k jets).  ``derivs`` decorates
    the slot with base derivatives: the coordinates p^{mi|last}_{,nu} of the
    jet of a momentum section.  A symmetric slot of total order 1 is
    identified with the plain slot p^{()|mu}.
    """

    __slots__ = ("fld", "mi", "last", "derivs")

    @classmethod
    def _canonical(cls, fld, mi, last=None, derivs=None):
        mi = MultiIndex(mi)
        derivs = MultiIndex.zero(mi.n) if derivs is None else MultiIndex(derivs)
        if last is None and mi.order == 1:
            # p^(mu) at order one is the slot p^{()|mu} itself
            return fld, MultiIndex.zero(mi.n), mi.directions()[0], derivs
        return fld, mi, last, derivs

    def _make_sort_key(self):
        return (
            _RANK_MOMENTUM,
            self.fld,
            (self.mi.order,) + tuple(self.mi),
            (self.last if self.last is not None else -1,) + tuple(self.derivs),
            0,
            (),
        )

    def __repr__(self):
        parts = [self.fld, ",".join(map(str, self.mi))]
        if self.last is not None:
            parts.append(str(self.last))
        if self.derivs.order:
            if self.last is None:
                parts.append("")
            parts.append(",".join(map(str, self.derivs)))
        return "p[" + ";".join(parts) + "]"


class Multiplier(AtomBase):
    """Lagrange multiplier lam[a] attached to the a-th constraint, 1-based."""

    __slots__ = ("a",)

    def _make_sort_key(self):
        return (_RANK_MULTIPLIER, "", (self.a,), (), 0, ())

    def __repr__(self):
        return f"lam[{self.a}]"


class Parameter(AtomBase):
    """A named symbolic constant."""

    __slots__ = ("name",)

    def _make_sort_key(self):
        return (_RANK_PARAMETER, self.name, (), (), 0, ())

    def __repr__(self):
        return self.name


Coordinate = Base | Jet | Momentum | Multiplier | Parameter

def is_fibre(c) -> bool:
    """Jet and momentum coordinates are fibre coordinates; the rest are not."""
    return isinstance(c, (Jet, Momentum))

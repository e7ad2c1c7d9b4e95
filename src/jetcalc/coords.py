"""Coordinate atoms of the phase-bundle algebra.

Five coordinate kinds: base points x^mu, jet slots phi_mu, momentum slots
p^{mu|lambda} (optionally decorated with base derivatives, the jets of
momenta), Lagrange multipliers and named parameters.  The fixed total order
Base < Jet < Momentum < Multiplier < Parameter makes canonical forms
deterministic.

Atoms are interned: constructing an atom twice gives the same object, so
equality and hashing are the identity versions inherited from ``object``,
and each atom computes its ``sort_key()`` and its DSL string (``_dsl``,
what ``repr`` gives) once, when it is first built.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .multiindex import MultiIndex

_RANK_BASE = 0
_RANK_JET = 1
_RANK_MOMENTUM = 2
_RANK_MULTIPLIER = 3
_RANK_PARAMETER = 4


class Interned(type):
    """Metaclass of the atoms: one instance per value.

    ``cls._canonical(*args, **kwargs)`` maps constructor arguments to the
    canonical field values.  The table is keyed by those values and, as
    aliases, by the positional arguments as given, so a repeated
    construction costs one dict lookup.  It grows with the number of
    distinct atoms built.
    """

    def __init__(cls, *args, **kwargs):
        super().__init__(*args, **kwargs)
        cls._interned = {}

    def __call__(cls, *args, **kwargs):
        table = cls._interned
        if not kwargs:
            try:
                return table[args]
            except (KeyError, TypeError):
                pass
        values = cls._canonical(*args, **kwargs)
        atom = table.get(values)
        if atom is None:
            atom = table[values] = super().__call__(*values)
        if not kwargs:
            try:
                table[args] = atom
            except TypeError:
                pass
        return atom


class AtomBase:
    """Behaviour shared by the interned atom classes: the stored sort key
    and DSL string, and a reduction to the canonical field values, so that
    copies and pickles rebuild through the intern table and return the
    interned instance."""

    @classmethod
    def _canonical(cls, *args, **kwargs):
        names = [f.name for f in fields(cls)]
        return args + tuple(kwargs[name] for name in names[len(args):])

    def __post_init__(self):
        object.__setattr__(self, "_sort_key", self._make_sort_key())
        object.__setattr__(self, "_dsl", self.__repr__())

    def sort_key(self):
        return self._sort_key

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True, eq=False)
class Base(AtomBase, metaclass=Interned):
    """Base coordinate x^mu, 1-based direction."""

    mu: int

    def _make_sort_key(self):
        return (_RANK_BASE, "", (self.mu,), (), 0, ())

    def __repr__(self):
        return f"x{self.mu}"


@dataclass(frozen=True, eq=False)
class Jet(AtomBase, metaclass=Interned):
    """Jet coordinate phi_mi of a named field; mi = () order means the field."""

    fld: str
    mi: MultiIndex

    @classmethod
    def _canonical(cls, fld, mi):
        return fld, MultiIndex(mi)

    def _make_sort_key(self):
        return (_RANK_JET, self.fld, (self.mi.order,) + tuple(self.mi), (), 0, ())

    def __repr__(self):
        return f"{self.fld}[{','.join(map(str, self.mi))}]" if self.mi.order else self.fld


@dataclass(frozen=True, eq=False)
class Momentum(AtomBase, metaclass=Interned):
    """Momentum slot p^{mi|last} of a field, optionally a symmetrized slot.

    ``last is None`` denotes the totally symmetric representative p^mi (used
    for the top momenta paired with the order-k jets).  ``derivs`` decorates
    the slot with base derivatives: the coordinates p^{mi|last}_{,nu} of the
    jet of a momentum section.  A symmetric slot of total order 1 is
    identified with the plain slot p^{()|mu}.
    """

    fld: str
    mi: MultiIndex
    last: int | None = None
    derivs: MultiIndex = None  # type: ignore[assignment]

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


@dataclass(frozen=True, eq=False)
class Multiplier(AtomBase, metaclass=Interned):
    """Lagrange multiplier lam[a] attached to the a-th constraint, 1-based."""

    a: int

    def _make_sort_key(self):
        return (_RANK_MULTIPLIER, "", (self.a,), (), 0, ())

    def __repr__(self):
        return f"lam[{self.a}]"


@dataclass(frozen=True, eq=False)
class Parameter(AtomBase, metaclass=Interned):
    """A named symbolic constant."""

    name: str

    def _make_sort_key(self):
        return (_RANK_PARAMETER, self.name, (), (), 0, ())

    def __repr__(self):
        return self.name


Coordinate = Base | Jet | Momentum | Multiplier | Parameter

def is_fibre(c) -> bool:
    """Jet and momentum coordinates are fibre coordinates; the rest are not."""
    return isinstance(c, (Jet, Momentum))

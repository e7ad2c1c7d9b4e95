"""Lagrangian problem data: base dimension, field roster, order, density."""

from __future__ import annotations

from .coords import Jet, Momentum, Multiplier
from .expr import Expr, JetcalcError, ZERO, _akey


class ProblemError(JetcalcError):
    pass


class LagrangianProblem:
    """A variational problem: n base directions, named fields, order k,
    Lagrangian density L and optional configuration constraints C_a.

    L lives on jets of order <= k and never mentions momenta or multipliers;
    the constraints are expressions on the same jet space.  Two problems
    are equal when every public attribute is; ``_gradients`` holds the
    first partials of L that ``variational.lagrangian_gradient`` derives
    once per field, with the L they came from.
    """

    __slots__ = ("n", "fields", "k", "lagrangian", "constraints", "params",
                 "opaques", "_gradients")

    def __init__(self, n: int, fields: tuple, k: int, lagrangian: Expr = ZERO,
                 constraints: tuple = (), params: tuple = (),
                 opaques: dict | None = None):
        if n < 1:
            raise ProblemError("base dimension must be at least 1")
        if k < 1:
            raise ProblemError("order must be at least 1")
        if not fields:
            raise ProblemError("at least one field is required")
        for e, what in [(lagrangian, "lagrangian")] + [
            (c, "constraint") for c in constraints
        ]:
            for a in sorted(e.free_coordinates(), key=_akey):
                if isinstance(a, (Momentum, Multiplier)):
                    raise ProblemError(f"{what} may not contain {a!r}")
                if isinstance(a, Jet) and a.mi.order > k:
                    raise ProblemError(
                        f"{what} depends on jet {a!r} beyond order k={k}"
                    )
        self.n = n
        self.fields = fields
        self.k = k
        self.lagrangian = lagrangian
        self.constraints = constraints
        self.params = params
        self.opaques = {} if opaques is None else opaques
        self._gradients = (lagrangian, {})

    def __eq__(self, other):
        if other.__class__ is not LagrangianProblem:
            return NotImplemented
        # every slot but the last, the gradient table
        return all(getattr(self, a) == getattr(other, a)
                   for a in LagrangianProblem.__slots__[:-1])

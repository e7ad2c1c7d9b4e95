"""Lagrangian problem data: base dimension, field roster, order, density."""

from __future__ import annotations

from dataclasses import dataclass, field

from .coords import Jet, Momentum, Multiplier
from .expr import Expr, ZERO, _akey


class ProblemError(ValueError):
    pass


@dataclass(frozen=True)
class LagrangianProblem:
    """A variational problem: n base directions, named fields, order k,
    Lagrangian density L and optional configuration constraints C_a.

    L lives on jets of order <= k and never mentions momenta or multipliers;
    the constraints are expressions on the same jet space.
    """

    n: int
    fields: tuple[str, ...]
    k: int
    lagrangian: Expr = ZERO
    constraints: tuple[Expr, ...] = ()
    params: tuple[str, ...] = ()
    opaques: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1:
            raise ProblemError("base dimension must be at least 1")
        if self.k < 1:
            raise ProblemError("order must be at least 1")
        if not self.fields:
            raise ProblemError("at least one field is required")
        for e, what in [(self.lagrangian, "lagrangian")] + [
            (c, "constraint") for c in self.constraints
        ]:
            for a in sorted(e.free_coordinates(), key=_akey):
                if isinstance(a, (Momentum, Multiplier)):
                    raise ProblemError(f"{what} may not contain {a!r}")
                if isinstance(a, Jet) and a.mi.order > self.k:
                    raise ProblemError(
                        f"{what} depends on jet {a!r} beyond order k={self.k}"
                    )

    @property
    def directions(self) -> range:
        return range(1, self.n + 1)

"""Multi-indices over the base directions, and the symmetric-list correspondence.

The grids ``all_multiindices(n, order)`` are tuples memoized per (n, order)
and shared by every caller; ``multiindices_up_to`` chains them.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb


class MultiIndex(tuple):
    """An n-tuple of non-negative integers counting derivatives per base direction.

    Immutable; behaves as a tuple.  ``order`` is the total number of
    derivatives (|mu|); the zero multi-index stands for the field itself.
    """

    __slots__ = ()

    def __new__(cls, exponents):
        exps = tuple(int(e) for e in exponents)
        if any(e < 0 for e in exps):
            raise ValueError("multi-index entries must be non-negative")
        return super().__new__(cls, exps)

    @classmethod
    def zero(cls, n: int) -> "MultiIndex":
        return cls((0,) * n)

    @classmethod
    def unit(cls, n: int, direction: int) -> "MultiIndex":
        """Unit multi-index e_direction; directions are 1-based."""
        if not 1 <= direction <= n:
            raise ValueError(f"direction {direction} out of range 1..{n}")
        return cls(tuple(1 if i == direction - 1 else 0 for i in range(n)))

    @property
    def n(self) -> int:
        return len(self)

    @property
    def order(self) -> int:
        return sum(self)

    def bump(self, direction: int) -> "MultiIndex":
        """self + e_direction, built straight from the (valid) entries."""
        if not 1 <= direction <= len(self):
            raise ValueError(f"direction {direction} out of range 1..{len(self)}")
        i = direction - 1
        return tuple.__new__(MultiIndex, self[:i] + (self[i] + 1,) + self[i + 1:])

    def drop(self, direction: int) -> "MultiIndex | None":
        """self - e_direction, or None if the entry is already zero."""
        if not 1 <= direction <= len(self):
            raise ValueError(f"direction {direction} out of range 1..{len(self)}")
        i = direction - 1
        if self[i] == 0:
            return None
        return tuple.__new__(MultiIndex, self[:i] + (self[i] - 1,) + self[i + 1:])

    def weight(self) -> int:
        """Number of distinct index arrangements, |mu|! / (mu_1! ... mu_n!),
        as the product of the binomials C(mu_1 + ... + mu_i, mu_i): no
        factorial of the order is formed, and a one-entry index costs one
        trivial binomial."""
        w, total = 1, 0
        for e in self:
            total += e
            w *= comb(total, e)
        return w

    def directions(self):
        """The 1-based directions with a non-zero entry."""
        return [i + 1 for i, e in enumerate(self) if e > 0]

    def __repr__(self):
        return f"MultiIndex({tuple(self)})"


@lru_cache(maxsize=256)
def all_multiindices(n: int, order: int) -> tuple:
    """All multi-indices with n entries and total order exactly ``order``,
    highest first entry first; empty for a negative order.  With n = 0 the
    one multi-index is the empty one, of order 0.  The tuple is memoized
    per (n, order) and shared by every caller."""
    if n < 0:
        raise ValueError(f"number of base directions must be >= 0, got {n}")
    if order < 0:
        return ()
    if n == 0:
        return (tuple.__new__(MultiIndex, ()),) if order == 0 else ()
    if n == 1:
        # the loop below would try every first entry; only ``order`` fits
        return (tuple.__new__(MultiIndex, (order,)),)
    # (head,) + tail is a plain tuple of valid entries: wrap it unvalidated
    return tuple(tuple.__new__(MultiIndex, (head,) + tail)
                 for head in range(order, -1, -1)
                 for tail in all_multiindices(n - 1, order - head))


def multiindices_up_to(n: int, order: int):
    """All multi-indices with total order 0..order, grouped low to high."""
    return itertools.chain.from_iterable(
        all_multiindices(n, o) for o in range(order + 1)
    )

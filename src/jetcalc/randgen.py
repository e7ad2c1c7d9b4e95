"""Seeded random instances for the property checks.

Everything here draws from a caller-supplied ``random.Random`` so the CLI
``verify-all`` command and the test suite replay identical instances for a
given seed.
"""

from __future__ import annotations

import random
from collections import Counter

from .coords import Base, Jet
from .expr import Expr, ZERO, _factor_key, _fold, _trusted, divide
from .legendre import _eliminate
from .multiindex import all_multiindices, multiindices_up_to
from .problem import LagrangianProblem


def random_polynomial(rng: random.Random, atoms, degree: int,
                      terms: int) -> Expr:
    """Sum of random monomials in the given atoms with integer coefficients
    in [-3, 3]; a monomial's atoms are drawn after its coefficient, even
    when that is 0."""
    acc: dict = {}
    for _ in range(terms):
        coeff = rng.randint(-3, 3)
        mon = Counter(rng.choice(atoms) for _ in range(rng.randint(0, degree)))
        if coeff:
            _fold(acc, ((tuple(sorted(mon.items(), key=_factor_key)), coeff),))
    return _trusted(acc)


def jet_atoms(n: int, order: int):
    """The jets of the field u up to ``order``, then the base coordinates."""
    return ([Jet("u", mi) for mi in multiindices_up_to(n, order)]
            + [Base(mu) for mu in range(1, n + 1)])


def random_lagrangian(rng: random.Random, n: int, k: int,
                      degree: int = 2, terms: int = 4) -> LagrangianProblem:
    """A random polynomial Lagrangian of order exactly <= k on one field."""
    L = random_polynomial(rng, jet_atoms(n, k), degree, terms)
    return LagrangianProblem(n, ("u",), k, L)


def random_divergence_components(rng: random.Random, n: int, jet_order: int,
                                 degree: int = 2, terms: int = 3):
    """n random F^lam components on jets of order <= jet_order."""
    atoms = jet_atoms(n, jet_order)
    return [random_polynomial(rng, atoms, degree, terms) for _ in range(n)]


def random_quadratic_lagrangian(rng: random.Random, n: int, k: int) -> LagrangianProblem:
    """Quadratic in the top jets with an invertible integer Hessian block,
    plus random lower-order polynomial terms."""
    tops = list(all_multiindices(n, k))
    dim = len(tops)
    while True:
        H = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)]
        for i in range(dim):
            for j in range(i):
                H[i][j] = H[j][i]
        if _int_det(H) != 0:
            break
    quadratic = [divide(H[i][j], 2)
                 * Expr.atom(Jet("u", mi)) * Expr.atom(Jet("u", mj))
                 for i, mi in enumerate(tops)
                 for j, mj in enumerate(tops) if H[i][j]]
    lower = random_polynomial(rng, jet_atoms(n, k - 1), 2, 3)
    return LagrangianProblem(n, ("u",), k, Expr.sum(quadratic + [lower]))


def _int_det(H) -> int:
    """Exact determinant of a square integer matrix by the fraction-free
    elimination of the Legendre solver, O(dim^3), which stays on ints."""
    M = [list(row) for row in H]
    return _eliminate(M) * M[-1][-1]


def random_gauge_table(rng: random.Random, problem: LagrangianProblem,
                       level: int | None = None, jet_order: int = 1) -> dict:
    """A level-l slot table with vanishing total symmetrization, built from
    the kernel generators e[sigma-lam, lam] - e[sigma-kap, kap]."""
    n, k = problem.n, problem.k
    if n < 2:
        return {}
    if level is None:
        level = rng.randint(2, k) if k >= 2 else 1
    atoms = jet_atoms(n, jet_order)
    chi: dict = {}
    fld = rng.choice(problem.fields)
    for sigma in all_multiindices(n, level):
        dirs = sigma.directions()
        if len(dirs) < 2:
            continue
        lam, kap = rng.sample(dirs, 2)
        f = random_polynomial(rng, atoms, 2, 2)
        for key, s in (((fld, sigma.drop(lam), lam), 1),
                       ((fld, sigma.drop(kap), kap), -1)):
            # sigma = key prefix + e_lam, so no key is written twice
            chi[key] = f if s == 1 else -f
    for mi in all_multiindices(n, level - 1):
        for lam in range(1, n + 1):
            chi.setdefault((fld, mi, lam), ZERO)
    return chi


def random_section_profiles(rng: random.Random, problem: LagrangianProblem,
                            degree: int = 3) -> dict:
    atoms = [Base(mu) for mu in range(1, problem.n + 1)]
    return {fld: random_polynomial(rng, atoms, degree, 3)
            for fld in problem.fields}


def random_vertical_coefficient(rng: random.Random, n: int,
                                jet_order: int) -> Expr:
    return random_polynomial(rng, jet_atoms(n, jet_order), 2, 3)

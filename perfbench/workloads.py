"""The four benchmark workloads: their inputs and their job lists.

Every workload turns ``--seed`` into ``.lag`` files and a list of jobs (one
round, in run order) before timing starts.  A job is one ``jetcalc`` argv
plus what the oracles need to judge its output.  The generators here are
the benchmark's own (they build problem text directly), so a change to
``jetcalc`` never changes the inputs.

Each workload keeps the *amount* of work fixed and lets the seed choose only
what does not change it (coefficients, which base coordinate, job order), so
that runs with different seeds measure the same thing.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement

CORPUS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus")


@dataclass
class Job:
    """One CLI invocation and what the checks need to judge it."""

    argv: list
    expect_exit: int
    oracle: str = ""           # name of the independent check, if any
    data: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return " ".join(os.path.basename(a) for a in self.argv)


# -- textbook-cli ------------------------------------------------------------

# (file, commands that succeed, commands the program must refuse with exit 2)
TEXTBOOK = (
    ("beam", ("el", "cascade", "momenta", "currents", "legendre", "hamilton",
              "pc-form", "ms-check"),
     ("energy", "check-divergence")),
    ("mechanics", ("el", "cascade", "momenta", "currents", "legendre",
                   "hamilton", "energy", "pc-form"),
     ("ms-check",)),
    ("klein_gordon", ("el", "cascade", "momenta", "currents", "legendre",
                      "hamilton", "energy", "pc-form"),
     ()),
    ("plate", ("el", "cascade", "momenta", "currents", "check-divergence",
               "shift"),
     ("legendre", "hamilton", "pc-form", "energy")),
    ("coupled", ("el", "cascade", "momenta", "currents", "legendre",
                 "hamilton", "energy", "pc-form"),
     ("prolong",)),
    ("vfield_poly", ("el", "momenta", "legendre", "prolong", "polarize"),
     ("shift",)),
)


def textbook_cli(seed: int, workdir: str) -> list:
    jobs = []
    for name, ok_cmds, refused in TEXTBOOK:
        path = os.path.join(workdir, f"{name}.lag")
        with open(os.path.join(CORPUS_DIR, f"{name}.lag"), encoding="utf-8") as src, \
                open(path, "w", encoding="utf-8") as dst:
            dst.write(src.read())
        for cmds, code in ((ok_cmds, 0), (refused, 2)):
            for cmd in cmds:
                for latex in ((), ("--latex",)):
                    jobs.append(Job([cmd, path, *latex], code, oracle="textbook",
                                    data={"file": name, "latex": bool(latex)}))
    for latex in ((), ("--latex",)):
        jobs.append(Job(["galilei", *latex], 0, oracle="textbook",
                        data={"file": None, "latex": bool(latex)}))
    random.Random(seed).shuffle(jobs)
    return jobs


# -- dense-el ----------------------------------------------------------------

# (degree d, order k, extra atoms besides the two first jets).  "x" stands for
# a base coordinate the seed picks; x1 and x2 play mirrored roles, so the
# choice does not change the work, and neither does k (the Lagrangians hold
# first jets only).  The shapes make tight groups: el and currents of the
# first three take about 0.4 s at the seed commit, of the next three about
# 0.15 s.  With complete rounds, the median job always falls in the second
# group and the tail (the 11th-largest job of a run) in the first.
DENSE_SHAPES = (
    (7, 1, ("u", "x")),
    (7, 2, ("u", "x")),
    (7, 1, ("u", "x")),
    (6, 2, ("u", "x")),
    (6, 1, ("u", "x")),
    (6, 2, ("u", "x")),
    (5, 2, ("u", "x1", "x2")),
    (8, 2, ("x",)),
)
DENSE_COMMANDS = ("el", "momenta", "currents")


def dense_el(seed: int, workdir: str) -> list:
    rng = random.Random(seed)
    jobs = []
    for i, (d, k, extras) in enumerate(DENSE_SHAPES):
        atoms = ["u[1,0]", "u[0,1]"] + [
            rng.choice(("x1", "x2")) if a == "x" else a for a in extras]
        rng.shuffle(atoms)
        coeffs = [rng.choice((1, -1, 2, -2, 3)) for _ in atoms]
        path = os.path.join(workdir, f"dense{i}.lag")
        body = " + ".join(f"{c}*{a}" for c, a in zip(coeffs, atoms))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"base 2;\nfield u;\norder {k};\n"
                     f"lagrangian ({body})^{d};\n")
        for cmd in DENSE_COMMANDS:
            jobs.append(Job([cmd, path], 0,
                            oracle="sympy-el" if cmd == "el" else "",
                            data={"atoms": atoms, "coeffs": coeffs,
                                  "degree": d}))
    rng.shuffle(jobs)
    return jobs


# -- legendre-solve -----------------------------------------------------------

# (n, k, problems per round).  The two large sizes are drawn twice, so that
# two thirds of the jobs are large.  A run holds one or two rounds, and with
# this mix both the median and the tail (the 11th-largest job) fall inside
# the large group rather than on the gap below it.
LEGENDRE_SIZES = ((3, 2, 1), (2, 3, 1), (3, 3, 2), (4, 2, 2))
LEGENDRE_COMMANDS = ("legendre", "hamilton", "pc-form")


def multiindices(n: int, order: int):
    """Multi-indices of one order over n base directions."""
    out = []
    for combo in combinations_with_replacement(range(n), order):
        mi = [0] * n
        for d in combo:
            mi[d] += 1
        out.append(tuple(mi))
    return sorted(set(out), reverse=True)


def jet_name(mi) -> str:
    return "u" if not any(mi) else "u[" + ",".join(map(str, mi)) + "]"


def _det(M) -> Fraction:
    """Exact determinant by Gaussian elimination over the rationals."""
    M = [[Fraction(x) for x in row] for row in M]
    dim, det = len(M), Fraction(1)
    for j in range(dim):
        piv = next((r for r in range(j, dim) if M[r][j]), None)
        if piv is None:
            return Fraction(0)
        if piv != j:
            M[j], M[piv] = M[piv], M[j]
            det = -det
        det *= M[j][j]
        for r in range(j + 1, dim):
            f = M[r][j] / M[j][j]
            for c in range(j, dim):
                M[r][c] -= f * M[j][c]
    return det


def quadratic_lagrangian(rng: random.Random, n: int, k: int):
    """Text of L = 1/2 sum H_ij u_i u_j over the order-k jets plus three
    random quadratic monomials in the lower jets and base coordinates.

    H is a random invertible symmetric integer matrix with entries in
    [-2, 2], as in ``jetcalc.randgen.random_quadratic_lagrangian``, except
    that exactly one in five of its upper-triangle entries is zero (there
    each entry is zero with chance one in five), at places fixed for each
    size, and the lower terms have a fixed degree.  The seed chooses the
    nonzero entries and the lower terms, and every draw of one size costs
    about the same."""
    tops = multiindices(n, k)
    dim = len(tops)
    upper = [(i, j) for i in range(dim) for j in range(i, dim)]
    places = random.Random(f"zeros {n} {k}")
    zeros = set(places.sample(upper, round(len(upper) / 5)))
    while True:
        H = [[0] * dim for _ in range(dim)]
        for i, j in upper:
            if (i, j) not in zeros:
                H[i][j] = H[j][i] = rng.choice((-2, -1, 1, 2))
        if _det(H):
            break
    terms = [f"{H[i][j]}/2*{jet_name(tops[i])}*{jet_name(tops[j])}"
             for i in range(dim) for j in range(dim) if H[i][j]]
    lower = [jet_name(mi) for o in range(k) for mi in multiindices(n, o)]
    lower += [f"x{mu}" for mu in range(1, n + 1)]
    for _ in range(3):
        terms.append(f"{rng.choice((-3, -2, -1, 1, 2, 3))}*"
                     f"{rng.choice(lower)}*{rng.choice(lower)}")
    return " + ".join(terms), tops


def legendre_solve(seed: int, workdir: str) -> list:
    rng = random.Random(seed)
    jobs = []
    for n, k, count in LEGENDRE_SIZES:
        for c in range(count):
            text, tops = quadratic_lagrangian(rng, n, k)
            path = os.path.join(workdir, f"quad_n{n}_k{k}_{c}.lag")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f"base {n};\nfield u;\norder {k};\nlagrangian {text};\n")
            for cmd in LEGENDRE_COMMANDS:
                jobs.append(Job([cmd, path], 0, oracle="legendre",
                                data={"lagrangian": text, "n": n,
                                      "tops": [list(mi) for mi in tops]}))
    rng.shuffle(jobs)
    return jobs


# -- verify-sweep -------------------------------------------------------------

VERIFY_SEEDS_PER_ROUND = 12


def verify_sweep(seed: int, workdir: str) -> list:
    rng = random.Random(seed)
    seeds = rng.sample(range(1_000_000), VERIFY_SEEDS_PER_ROUND)
    jobs = [Job(["verify-all", "--seed", str(s)], 0, oracle="verify",
                data={"seed": s}) for s in seeds]
    return jobs


WORKLOADS = {
    "textbook-cli": textbook_cli,
    "dense-el": dense_el,
    "legendre-solve": legendre_solve,
    "verify-sweep": verify_sweep,
}

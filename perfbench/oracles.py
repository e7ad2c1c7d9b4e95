"""Correctness checks on the jobs' outputs, run after the timed region.

Every check returns a list of failure messages (empty when the output is
right).  The independent oracles do not use jetcalc's own parser or kernel:

* ``modp_eval`` evaluates a printed DSL expression modulo a large prime at
  an assignment of the atoms, so two expressions are compared by evaluating
  both at random points (Schwartz-Zippel; a false match has probability
  below degree / 2**61);
* ``dense-el`` compares ``el`` against ``sympy.calculus.euler.euler_equations``
  on the unexpanded Lagrangian;
* ``legendre-solve`` checks the inversion against the top cascade rows and
  the derivative of h, by exact central differences (both L and h are
  quadratic in the variables that are varied).

The round-trip check is the one place that uses jetcalc: every DSL string a
textbook job emits must re-parse and re-print to the same bytes.
"""

from __future__ import annotations

import json
import random
import re

from workloads import jet_name, multiindices

P = (1 << 61) - 1

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_]\w*(?:\[[^\]]*\])?|[-+*/^()])")


def _tokens(text: str):
    pos, out = 0, []
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"cannot read {text[pos:pos + 20]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def modp_eval(text: str, values: dict) -> int:
    """Value of a DSL polynomial modulo P.  ``values`` maps every atom as it
    is printed (``u[1,0]``, ``p[u;2,0]``, ``x1``, ``m``) to an integer; an
    atom without a value raises KeyError.  Opaque calls are not supported."""
    toks = _tokens(text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take():
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def expr():
        v = term()
        while peek() in ("+", "-"):
            v = (v + term()) % P if take() == "+" else (v - term()) % P
        return v

    def term():
        v = unary()
        while peek() in ("*", "/"):
            if take() == "*":
                v = v * unary() % P
            else:
                v = v * pow(unary(), -1, P) % P
        return v

    def unary():
        if peek() == "-":
            take()
            return -unary() % P
        return power()

    def power():
        v = primary()
        if peek() == "^":
            take()
            sign = -1 if peek() == "-" and take() else 1
            v = pow(v, sign * int(take()), P)
        return v

    def primary():
        t = take()
        if t == "(":
            v = expr()
            if take() != ")":
                raise ValueError("unbalanced parentheses")
            return v
        if t.isdigit():
            return int(t) % P
        return values[t] % P

    value = expr()
    if pos != len(toks):
        raise ValueError(f"trailing input in {text[:40]!r}")
    return value


def _jets(n: int, order: int):
    """All jet names of one field up to the given order."""
    return [jet_name(mi) for o in range(order + 1) for mi in multiindices(n, o)]


def _point(rng, names) -> dict:
    return {name: rng.randrange(1, 1 << 31) for name in names}


# -- generic checks -----------------------------------------------------------

def check_exit(job, rc: int, out: str, err: str) -> list:
    if rc != job.expect_exit:
        return [f"exit {rc}, expected {job.expect_exit}: {err.strip()[:200]}"]
    if rc == 2:
        lines = err.strip().splitlines()
        if out or len(lines) != 1 or not lines[0].startswith("error: "):
            return ["a refusal must print one 'error:' line and no report"]
        return []
    try:
        doc = json.loads(out)
    except ValueError:
        return ["stdout is not JSON"]
    if doc.get("command") != job.argv[0]:
        return [f"report names command {doc.get('command')!r}"]
    return []


# -- textbook-cli -------------------------------------------------------------

KLEIN_GORDON_EL = ("-m^2*u - u[0,0,0,2] + u[2,0,0,0] + u[0,2,0,0]"
                   " + u[0,0,2,0]")

# (file, command) -> {result key: exact expected string}, from the README
# and by hand.
TEXTBOOK_EXPECT = {
    ("mechanics", "momenta"): {"p[q;0;1]": "m*q[1]"},
    ("mechanics", "legendre"): {"H": "p[q;0;1]^2/(2*m) + U(x1, q)",
                                "q[1]": "p[q;0;1]/m"},
    ("vfield_poly", "polarize"): {"component_u": "2*u*v + u^2",
                                  "component_v": "u^2 - 2*v^2",
                                  "degree": "3"},
    ("vfield_poly", "prolong"): {"d/d(u)": "x1*v + u^2",
                                 "d/d(u[1])": "x1*v[1] + 2*u*u[1] + v"},
}


def check_textbook(job, doc: dict) -> list:
    name, cmd = job.data["file"], job.argv[0]
    res = doc["result"]
    fails = []
    if cmd in ("ms-check", "check-divergence", "galilei") and doc["residuals"]:
        fails.append(f"residuals found: {doc['residuals'][:2]}")
    if job.data["latex"]:
        return fails
    if (name, cmd) == ("beam", "el") and res != {"euler_lagrange": {"u": "u[4]"}}:
        fails.append(f"beam el gave {res}")
    if (name, cmd) == ("mechanics", "el") and \
            res["euler_lagrange"] != {"q": "-m*q[2] - U_{,2}(x1, q)"}:
        fails.append(f"mechanics el gave {res}")
    if (name, cmd) == ("klein_gordon", "el"):
        got = res["euler_lagrange"]["u"]
        rng = random.Random(0)
        for _ in range(2):
            vals = _point(rng, _jets(4, 2) + ["m"])
            if modp_eval(got, vals) != modp_eval(KLEIN_GORDON_EL, vals):
                fails.append(f"Klein-Gordon el gave {got}")
                break
    if cmd == "galilei" and set(res.values()) != {"0"}:
        fails.append(f"galilei rows not zero: {res}")
    for key, want in TEXTBOOK_EXPECT.get((name, cmd), {}).items():
        if res.get(key) != want:
            fails.append(f"{key} = {res.get(key)!r}, expected {want!r}")
    return fails


def dsl_strings(cmd: str, res: dict):
    """The DSL expression strings in a (non-LaTeX) report's result block."""
    if cmd in ("galilei", "verify-all"):
        return
    for key, value in res.items():
        if isinstance(value, dict):
            yield from value.values()
        elif cmd == "pc-form" and key != "H":
            continue
        elif " = " in value:
            yield from value.split(" = ")
        else:
            yield value


def check_round_trip(problem, cmd: str, res: dict) -> list:
    """Every emitted DSL string re-parses to a form that prints identically."""
    from jetcalc.expr import to_dsl
    from jetcalc.parser import ParseError, parse_expr

    fails = []
    for text in dsl_strings(cmd, res):
        try:
            again = to_dsl(parse_expr(text, problem, max_jet_order=64))
        except ParseError as exc:
            fails.append(f"{text[:60]!r} does not re-parse: {exc}")
            continue
        if again != text:
            fails.append(f"{text[:60]!r} re-prints as {again[:60]!r}")
    return fails


# -- dense-el -----------------------------------------------------------------

class SympyEL:
    """Euler-Lagrange expressions from sympy, for (c1*a1 + ...)^d on n = 2."""

    def __init__(self):
        import sympy
        from sympy.calculus.euler import euler_equations

        self.sympy = sympy
        self.euler_equations = euler_equations
        self.x = sympy.symbols("x1 x2")
        self.u = sympy.Function("u")(*self.x)

    def _atom(self, name: str):
        if name in ("x1", "x2"):
            return self.x[int(name[1]) - 1]
        if name == "u":
            return self.u
        a, b = map(int, name[2:-1].split(","))
        return self.sympy.Derivative(self.u, *([self.x[0]] * a + [self.x[1]] * b))

    def check(self, job, got: str, rng) -> list:
        sp = self.sympy
        L = sp.Add(*[c * self._atom(a) for c, a in
                     zip(job.data["coeffs"], job.data["atoms"])]) ** job.data["degree"]
        lhs = self.euler_equations(L, self.u, self.x)[0].lhs
        derivs = {}
        for d in lhs.atoms(sp.Derivative):
            a, b = (d.variables.count(v) for v in self.x)
            derivs[d] = jet_name((a, b))
        for _ in range(2):
            vals = _point(rng, _jets(2, 4) + ["x1", "x2"])
            num = lhs.xreplace({d: sp.Integer(vals[name])
                                for d, name in derivs.items()})
            num = num.xreplace({self.u: sp.Integer(vals["u"]),
                                self.x[0]: sp.Integer(vals["x1"]),
                                self.x[1]: sp.Integer(vals["x2"])})
            num = sp.Rational(num)
            want = num.p * pow(num.q, -1, P) % P
            if modp_eval(got, vals) != want:
                return [f"el differs from sympy euler_equations at {vals}"]
        return []


# -- legendre-solve -----------------------------------------------------------

def check_legendre(job, res: dict, rng) -> list:
    """The inversion solves the top cascade rows p[u;mu] = dL/du[mu], and
    dh/dp[u;mu] equals the inverted jet u[mu]."""
    n, L = job.data["n"], job.data["lagrangian"]
    tops = [tuple(mi) for mi in job.data["tops"]]
    k = sum(tops[0])
    moms = ["p[u;" + ",".join(map(str, mi)) + "]" for mi in tops]
    base = _point(rng, _jets(n, k - 1) + [f"x{m}" for m in range(1, n + 1)])
    pvals = _point(rng, moms)
    vals = {**base, **pvals}
    inv = [modp_eval(res[jet_name(mi)], vals) for mi in tops]
    fails = []
    for i, mi in enumerate(tops):
        plus = {**base, **{jet_name(m): inv[j] + (i == j) for j, m in enumerate(tops)}}
        minus = {**base, **{jet_name(m): inv[j] - (i == j) for j, m in enumerate(tops)}}
        dL = (modp_eval(L, plus) - modp_eval(L, minus)) * pow(2, -1, P) % P
        if dL != pvals[moms[i]]:
            fails.append(f"top row {jet_name(mi)}: dL/du differs from {moms[i]}")
        hp = modp_eval(res["h"], {**vals, moms[i]: pvals[moms[i]] + 1})
        hm = modp_eval(res["h"], {**vals, moms[i]: pvals[moms[i]] - 1})
        if (hp - hm) * pow(2, -1, P) % P != inv[i]:
            fails.append(f"dh/d{moms[i]} differs from the inverted {jet_name(mi)}")
    return fails


# -- verify-sweep -------------------------------------------------------------

VERIFY_SUITES = ("mechanics-reproduction", "galilei", "divergence-triviality",
                 "momentum-shift", "cascade-equivalence", "gauge-invariance",
                 "multisymplectic", "polarization", "prolongation")


def check_verify(job, doc: dict) -> list:
    res = dict(doc["result"])
    if res.pop("seed", None) != job.data["seed"]:
        return ["report has the wrong seed"]
    if set(res) != set(VERIFY_SUITES):
        return [f"suites {sorted(res)}"]
    bad = [name for name, verdict in res.items() if verdict != "pass"]
    if bad or doc["residuals"]:
        return [f"suites failed: {bad}"]
    return []

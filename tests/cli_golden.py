"""The byte-identical gate of the command line: a fixed list of ``jetcalc``
runs, each kept in ``cli_golden.json`` as its argv, its exit code and the
digests of its stdout and stderr.  ``test_cli_golden.py`` replays every run
in process; a change that alters output on purpose re-records the file:

    PYTHONPATH=src python tests/cli_golden.py

Every run reads its files by bare name from one directory that holds the
benchmark corpus and the inputs of the refusals that CI pins, so no digest
depends on where the repository lives.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile

from jetcalc.cli import COMMANDS, FILELESS, run

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(os.path.dirname(HERE), "perfbench", "corpus")
GOLDEN = os.path.join(HERE, "cli_golden.json")

FILE_COMMANDS = [c for c in COMMANDS if c not in FILELESS]

_HEAD = "base 2;\nfield u;\norder 1;\n"

# the inputs of the refusals in .github/workflows/ci.yml
PINNED_INPUTS = {
    "huge.lag": _HEAD + "lagrangian (u+u[1,0])^100000000;\n",
    "nested.lag": ("base 1;\nfield u;\norder 1;\nlagrangian "
                   + "(" * 3000 + "u" + ")" * 3000 + ";\n"),
    "constraint.lag": _HEAD + "lagrangian u[1,0]^2;\nconstraint u[1,0] + w;\n",
    "bad.lag": _HEAD + "lagrangian u[1,0]^2 $ ;\n",
    "param.lag": (_HEAD + "param m;\n"
                  "lagrangian u[1,0]^2 + m[1]*u;\n"),
    "declaration.lag": "base 2;\nfield u[1];\norder 1;\nlagrangian u[1,0]^2;\n",
    "coordinate.lag": _HEAD + "lagrangian (u[1,0] + x1[1])^2;\n",
    "entries.lag": _HEAD + "lagrangian u[1,0,0]^2;\n",
    "multiplier.lag": "base 1;\nfield u;\norder 1;\nlagrangian lam[1]*u[1]^2;\n",
    "fmultiplier.lag": ("base 1;\nfield u;\norder 1;\nlagrangian u[1]^2;\n"
                        "fcomponent lam[1]*u[1];\n"),
    "order.lag": "base 2;\nfield u;\norder 100000000;\nlagrangian u[1,0]^2;\n",
    "base.lag": "base 100000000;\nfield u;\norder 1;\nlagrangian u^2;\n",
    "vfield.lag": _HEAD + "lagrangian u^2;\nvfield u = u^2;\n",
    "exponent.lag": ("base 1;\nfield u;\norder 1;\nlagrangian "
                     + "u^{0}*u^{0};\n".format("9" * 4300)),
}

PINNED_REFUSALS = [
    ["el", "huge.lag"],
    ["el", "nested.lag"],
    ["el", "constraint.lag"],
    ["el", "bad.lag"],
    ["el", "param.lag"],
    ["el", "declaration.lag"],
    ["el", "coordinate.lag"],
    ["el", "entries.lag"],
    ["el", "multiplier.lag"],
    ["check-divergence", "fmultiplier.lag"],
    ["el", "order.lag"],
    ["el", "base.lag"],
    ["prolong", "vfield.lag", "--target-order", "100000000"],
    ["el", "exponent.lag"],
    ["--latex", "el", "exponent.lag"],
    ["el", "missing.lag"],
    ["galilei", "--order-cap", "3"],
    ["el", "beam.lag", "--lat"],
]

# accepted option spellings and places, and refusals of the argv itself
ARGV_RUNS = [
    ["momenta", "--order-cap", "3", "beam.lag"],
    ["el", "beam.lag", "--order-cap", "4"],
    ["--latex", "legendre", "coupled.lag"],
    ["energy", "coupled.lag", "--time", "1"],
    ["prolong", "vfield_poly.lag", "--target-order", "3"],
    ["momenta", "beam.lag", "--order-cap", "-1"],
    [],
    ["no-such-command"],
    ["el", "beam.lag", "--order-cap", "x"],
    ["el", "beam.lag", "--order-cap"],
    ["momenta", "beam.lag", "beam.lag"],
    ["el", "beam.lag", "--no-such-option"],
]


def corpus_names() -> list:
    return sorted(f for f in os.listdir(CORPUS) if f.endswith(".lag"))


def argvs() -> list:
    """Every run of the gate, in file order."""
    names = corpus_names()
    runs = [[cmd, name, *latex] for name in names for cmd in FILE_COMMANDS
            for latex in ((), ("--latex",))]
    runs += [["shift", name, "--inverse"] for name in names]
    runs += [["galilei"], ["galilei", "--latex"]]
    runs += [["verify-all", "--seed", str(s)] for s in range(41)]
    return runs + PINNED_REFUSALS + ARGV_RUNS


def write_inputs(directory: str) -> None:
    """Put the corpus and the pinned inputs into ``directory``."""
    for name in corpus_names():
        shutil.copy(os.path.join(CORPUS, name), directory)
    for name, text in PINNED_INPUTS.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def replay(argv: list) -> dict:
    """One run in process, from the current directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(list(argv))
        except SystemExit as exc:           # argv refusals and -h
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": _digest(out.getvalue()),
            "stderr": _digest(err.getvalue())}


def load() -> list:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def record() -> None:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(tmp)
        os.chdir(tmp)
        try:
            runs = [replay(argv) for argv in argvs()]
        finally:
            os.chdir(cwd)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(r) for r in runs) + "\n]\n")
    print(f"recorded {len(runs)} runs in {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    record()

"""The three workloads: what each op runs, its inputs, and how it is checked.

An op is a short list of `gigp` CLI calls, each run as its own process.
Every input comes from the workload seed; the program receives only the
generated inputs and `--seed` values. This module imports nothing heavy,
so the process that spawns the measured ones stays small: a child's peak
RSS includes its parent's at the moment of the fork.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import NamedTuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


class Call(NamedTuple):
    args: list[str]  # gigp arguments
    check: str       # name of the function in checks.py that verifies stdout
    expect: dict     # keyword arguments of that check


def _flags(**kw) -> list[str]:
    out = []
    for key, value in kw.items():
        out += ["--" + key.replace("_", "-"), repr(value) if isinstance(value, float) else str(value)]
    return out


class ShapeSweep:
    name = "shape-sweep"
    why = ("the paper's regular regime at theta=0.9999, M=1e5 in all four scaling cases: "
           "cold pmf table, sup_distance over ~20k jumps, ~5.6 MB of JSON per op")
    THETA, M, DELTA = 0.9999, 100_000, 0.2
    CASES = ((0.5, 2.0), (0.0, 2.0), (-0.5, 2.0), (-0.5, 0.0))  # cases a, b, c, d

    def setup(self, seed: int, work: str) -> dict:
        return {"seed": seed}

    def op(self, ctx: dict, k: int) -> list[Call]:
        seed = ctx["seed"] + k
        calls = []
        for nu, alpha in self.CASES:
            req = dict(nu=nu, alpha=alpha, theta=self.THETA, m=self.M, seed=seed,
                       delta=self.DELTA)
            calls.append(Call(["shape"] + _flags(**req, format="json"), "check_shape", req))
        return calls


class FitGof:
    name = "fit-gof"
    why = ("the data-fitting path: CSV reader, theta by mean matching, ~1e4 pmf calls and "
           "pearson_chi2 bin merging on 1e5 sources; no sampling, no sup_distance")
    MODEL = dict(nu=-0.5, alpha=2.0)

    def setup(self, seed: int, work: str) -> dict:
        path = os.path.relpath(os.path.join(work, "fit-gof-input.csv"))
        made = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "inputs.py"),
                               str(seed), path], capture_output=True, text=True, check=True)
        return dict(json.loads(made.stdout), path=path)

    def op(self, ctx: dict, k: int) -> list[Call]:
        req = dict(self.MODEL, data=ctx["path"])
        return [Call([cmd, "--data", ctx["path"]] + _flags(**self.MODEL), check, req)
                for cmd, check in (("fit", "check_fit"), ("gof", "check_gof"))]


class Chaotic:
    name = "chaotic"
    why = ("the bounded-B Poisson regime (B~2): 1e4 replicate draws of 35 sources each, so "
           "the sampler's per-call set-up dominates, opposite to shape-sweep's one big batch")
    PARAMS = dict(nu=-0.5, alpha=2.0, theta=0.99, m=35, x0=0.2, replicates=10_000)

    def setup(self, seed: int, work: str) -> dict:
        return {"seed": seed}

    def op(self, ctx: dict, k: int) -> list[Call]:
        req = dict(self.PARAMS, seed=ctx["seed"] + k)
        return [Call(["chaotic"] + _flags(**req, format="json"), "check_chaotic", req)]


WORKLOADS = {w.name: w for w in (ShapeSweep(), FitGof(), Chaotic())}

# parts of the CLI left out on purpose, with the reason
UNMEASURED = {
    "partition": "an n=1e6 op is ~20 ms of work, so it would time interpreter start-up",
    "csv-svg-output": "every workload asks for JSON; the CSV and SVG writers are not run",
    "simulate": "its sampling and serialization are already run by shape-sweep",
}

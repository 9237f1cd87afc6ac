"""Per-layer spans for one `gigp` CLI process, recorded from outside the package.

Run as a script, this file stands in for `python -m gigp`:

    python3 bench/tracing.py SPANS_JSON SPAWN_T -- <gigp arguments>

SPAWN_T is the parent's time.perf_counter() just before it started this
process; on Linux that clock is CLOCK_MONOTONIC, shared by all processes,
so the interpreter's start-up becomes the first span. It then times the
import of the package, wraps the functions named in TARGETS
in every `gigp.*` module that holds a reference to them (so call sites
written as `from .distribution import ccdf` are counted too), runs
`gigp.cli.main` with the given arguments and writes the aggregated spans
to SPANS_JSON. Nothing under src/gigp is modified. A target that a later
version of the package has renamed or removed is listed as absent.

Spans nest on one thread, so a span's self time is its duration minus the
summed durations of its direct children; SpanRecorder keeps that running
sum per open span instead of storing every span.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (layer metric prefix, module, attribute path). Several attributes may
# share one prefix; their spans are summed.
TARGETS = [
    ("cli.main", "gigp.cli", "main"),
    ("cli.read_frequency_csv", "gigp.cli", "read_frequency_csv"),
    # the output layer has no public function; these private helpers are it
    ("cli.serialize", "gigp.cli", "_json_doc"),
    ("cli.serialize", "gigp.cli", "_csv_doc"),
    ("cli.serialize", "gigp.cli", "_shape_svg"),
    ("specfun.upper_incomplete_gamma", "gigp.specfun", "upper_incomplete_gamma"),
    ("specfun.log_bessel_k", "gigp.specfun", "log_bessel_k"),
    ("specfun.regularized_gamma_q", "gigp.specfun", "regularized_gamma_q"),
    ("distribution.validate", "gigp.distribution", "validate"),
    ("distribution.pmf", "gigp.distribution", "pmf"),
    ("distribution.ccdf", "gigp.distribution", "ccdf"),
    ("distribution.build_tables", "gigp.distribution", "_build_tables"),
    ("distribution.theta_from_mean", "gigp.distribution", "theta_from_mean"),
    ("distribution.mean_exact", "gigp.distribution", "mean_exact"),
    ("distribution.sample", "gigp.distribution", "sample"),
    ("distribution.sample_batch", "gigp.distribution", "_sample_values_rng"),
    ("diagram.FrequencyTable", "gigp.diagram", "FrequencyTable.__init__"),
    ("diagram.table_from_sample", "gigp.diagram", "table_from_sample"),
    ("shape.sup_distance", "gigp.shape", "sup_distance"),
    ("fitgof.pearson_chi2", "gigp.fitgof", "pearson_chi2"),
    ("fitgof.fit_tail_line", "gigp.fitgof", "fit_tail_line"),
    ("chaotic.poisson_gof_experiment", "gigp.chaotic", "poisson_gof_experiment"),
]

# the first pmf or ccdf call of a process pays for the lazily built table
_FIRST_LOOKUP = {"distribution.pmf", "distribution.ccdf"}


class SpanRecorder:
    """Aggregates nested spans into per-name calls, inclusive and self time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._child = [0.0]  # summed child durations per open span; [0] is the root
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}  # numbers the hooks in _after record

    def open(self) -> float:
        self._child.append(0.0)
        return self.clock()

    def close(self, name: str, t0: float) -> float:
        dur = self.clock() - t0
        child = self._child.pop()
        self._child[-1] += dur
        s = self.stats.get(name)
        if s is None:
            s = self.stats[name] = [0, 0.0, 0.0]
        s[0] += 1
        s[1] += dur
        s[2] += dur - child
        return dur

    def count(self, name: str, n: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    @property
    def covered_s(self) -> float:
        """Time inside top-level spans."""
        return self._child[0]

    def to_json(self) -> dict:
        return {"stats": self.stats, "counts": self.counts, "covered_s": self.covered_s}


def _after(name: str, rec: SpanRecorder, args, result, dur: float) -> None:
    if name in _FIRST_LOOKUP and "distribution.first_lookup_s" not in rec.counts:
        rec.count("distribution.first_lookup_s", dur)
    # a later signature or result type may differ; then the count is absent
    try:
        if name == "shape.sup_distance":
            rec.count("shape.sup_distance.points", len(result.pointwise))
        elif name == "fitgof.pearson_chi2":
            rec.count("fitgof.pearson_chi2.bins_in", len(args[0]))
            rec.count("fitgof.pearson_chi2.bins_out", len(result.bins))
    except (AttributeError, IndexError, TypeError):
        pass


def _wrap(fn, name: str, rec: SpanRecorder):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        t0 = rec.open()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = rec.close(name, t0)
        _after(name, rec, args, result, dur)
        return result
    return traced


def _resolve(module: str, path: str):
    """(owner, attribute, value) for a dotted attribute path, or None if gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


def install(rec: SpanRecorder, targets=TARGETS) -> list[str]:
    """Wrap every target in place; returns the names whose target is absent."""
    absent = []
    for name, module, path in targets:
        found = _resolve(module, path)
        if found is None:
            absent.append(name)
            continue
        owner, attr, orig = found
        wrapped = _wrap(orig, name, rec)
        setattr(owner, attr, wrapped)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod is owner:
                continue
            if mod_name == "gigp" or mod_name.startswith("gigp."):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
    return absent


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracing.py SPANS_JSON SPAWN_T -- <gigp arguments>", file=sys.stderr)
        return 2
    out_path, spawn_t, gigp_args = argv[0], float(argv[1]), argv[3:]
    rec = SpanRecorder()
    rec.open()
    rec.close("cli.startup", spawn_t)
    t0 = rec.open()
    import gigp.cli  # noqa: F401  (imports every gigp module)
    rec.close("cli.import", t0)
    absent = install(rec)
    if "cli.main" in absent:
        raise SystemExit("gigp.cli.main is missing")
    cli = sys.modules["gigp.cli"]
    try:
        code = cli.main(gigp_args)
    finally:
        sys.stdout.flush()
        doc = rec.to_json()
        doc["absent"] = absent
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Benchmark of the `gigp` CLI: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload shape-sweep --seed 1 --seconds 30 --trace 0
    for w in shape-sweep fit-gof chaotic; do python3 bench/run.py --workload $w \
        --seed 1 --seconds 30 --trace 0 | tail -1; done    # every workload

Run from the root of a source checkout; the program is imported from
./src. Each op starts one fresh `python -m gigp` process per command, one
at a time, in a closed loop with one client, until --seconds have passed.
Outputs are checked against independent oracles after the timed loop.
With --trace 0 the last stdout line carries the end-to-end metrics, their
timings scaled to the host's speed by the reference process
bench/reference.py that runs between the measured ones (see END_TO_END);
with --trace 1 untraced and traced ops alternate and
it carries the per-layer metrics from bench/tracing.py plus the kernel
accuracy record. The line before it records the environment, the inputs
and the per-op samples. Work files live in .bench_work/ and are removed
at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 60.0
REFERENCE = os.path.join(BENCH_DIR, "reference.py")
REF_NOMINAL_S = 0.26  # the reference's median wall time on a 2-vCPU Xeon VM

# On a shared 2-vCPU Xeon VM the vCPU's speed swings with co-tenant load
# by up to +-50%, in spells of seconds to hours. Raw wall times then spread
# across 30 s runs by 17-32% (interquartile range over median), even as a
# 10th percentile. So every timing is scaled to the host's speed: a fixed
# reference process (bench/reference.py) runs before each op and after
# each of its processes, and a time t becomes t * REF_NOMINAL_S / (mean
# reference wall time around it). The scaled figure is the time the op
# would take on a host where the reference takes REF_NOMINAL_S; the raw
# times are recorded beside it.
END_TO_END = {
    "op_s_p50_norm": "s",
    "setup_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "result_digits_min": "digits",
}
# relative errors below one rounding of a double are not resolved
_RELERR_FLOOR = 2.0 ** -53

# per-layer metric -> unit; _layer_value says where each one comes from
PER_LAYER = {
    "cli.startup_s": "s",
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "cli.read_frequency_csv.self_s": "s",
    "cli.serialize_s": "s",
    "cli.out_bytes": "count",
    "specfun.upper_incomplete_gamma.calls": "count",
    "specfun.upper_incomplete_gamma.self_s": "s",
    "specfun.log_bessel_k.calls": "count",
    "specfun.log_bessel_k.self_s": "s",
    "specfun.regularized_gamma_q.calls": "count",
    "specfun.regularized_gamma_q.self_s": "s",
    "specfun.upper_incomplete_gamma.relerr_max": "ratio",
    "specfun.log_bessel_k.relerr_max": "ratio",
    "specfun.regularized_gamma_q.relerr_max": "ratio",
    "distribution.first_lookup_s": "s",
    "distribution.build_tables.self_s": "s",
    "distribution.ccdf.calls": "count",
    "distribution.ccdf.self_s": "s",
    "distribution.validate.calls": "count",
    "distribution.pmf.calls": "count",
    "distribution.pmf.self_s": "s",
    "distribution.theta_from_mean.self_s": "s",
    "distribution.mean_exact.calls": "count",
    "distribution.sample.self_s": "s",
    "distribution.sample_batch.calls": "count",
    "distribution.sample_batch.self_s": "s",
    "diagram.FrequencyTable.calls": "count",
    "diagram.FrequencyTable.self_s": "s",
    "diagram.table_from_sample.self_s": "s",
    "shape.sup_distance.self_s": "s",
    "shape.sup_distance.points": "count",
    "fitgof.pearson_chi2.self_s": "s",
    "fitgof.pearson_chi2.bins_in": "count",
    "fitgof.pearson_chi2.bins_out": "count",
    "fitgof.fit_tail_line.self_s": "s",
    "chaotic.poisson_gof_experiment.self_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


class Op:
    """One op's processes: timings, peak memory, and where their output went."""

    def __init__(self, k: int, traced: bool, calls):
        self.k, self.traced, self.calls = k, traced, calls
        self.wall_s = 0.0
        self.ref_s = []  # reference times before the op and after each process
        self.rss_kb = 0
        self.procs = []  # (stdout path, stderr path, spans path or None, exit code)
        self.error = None
        self.relerr = None


def _run_child(argv, out_path, err_path, env, cwd):
    """Wall seconds from spawn to exit, peak RSS in KiB, exit code."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        done = threading.Event()
        timer = threading.Timer(CHILD_TIMEOUT_S,
                                lambda: done.is_set() or proc.kill())
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        done.set()
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, proc.returncode


class Reference:
    """Times bench/reference.py in a fresh process; `last` is the latest time."""

    def __init__(self, work: str, env, root: str):
        self.out = os.path.join(work, "reference.out")
        self.err = os.path.join(work, "reference.err")
        self.env, self.root = env, root
        self.last = None
        self.times = []

    def run(self) -> float:
        wall, _, code = _run_child([sys.executable, REFERENCE], self.out, self.err,
                                   self.env, self.root)
        if code != 0:
            raise SystemExit("the reference process bench/reference.py failed")
        self.last = wall
        self.times.append(wall)
        return wall

    def scale(self, seconds: float, refs: list[float]) -> float:
        return seconds * REF_NOMINAL_S / statistics.mean(refs)


def _run_op(op: Op, work: str, env, root: str, ref: Reference | None) -> None:
    if ref is not None:
        op.ref_s.append(ref.last)
    for i, call in enumerate(op.calls):
        base = os.path.join(work, f"op{op.k}-{i}")
        spans = base + ".spans.json" if op.traced else None
        if op.traced:
            argv = [sys.executable, os.path.join(BENCH_DIR, "tracing.py"), spans,
                    repr(time.perf_counter()), "--"]
        else:
            argv = [sys.executable, "-m", "gigp"]
        wall, rss, code = _run_child(argv + call.args, base + ".out", base + ".err",
                                     env, root)
        op.wall_s += wall
        op.rss_kb = max(op.rss_kb, rss)
        op.procs.append((base + ".out", base + ".err", spans, code))
        if ref is not None:
            op.ref_s.append(ref.run())


def _check_op(op: Op, checks) -> None:
    """Sets op.relerr, or op.error with the first reason the op failed."""
    errs = []
    for call, (out, err, _, code) in zip(op.calls, op.procs):
        with open(err, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        if code != 0 or "Traceback" in stderr:
            op.error = f"gigp {call.args[0]} exited {code}: {stderr.strip()[-300:]}"
            return
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
        try:
            errs.append(getattr(checks, call.check)(text, **call.expect))
        except checks.CheckFailed as exc:
            op.error = f"gigp {call.args[0]}: {exc}"
            return
    op.relerr = max(errs)


def _merge_spans(op: Op) -> dict:
    """Sum the per-process span records of one traced op."""
    agg = {"stats": {}, "counts": {}, "absent": set(), "covered_s": 0.0, "out_bytes": 0}
    for out, _, spans, _ in op.procs:
        agg["out_bytes"] += os.path.getsize(out)
        with open(spans, encoding="utf-8") as fh:
            doc = json.load(fh)
        agg["covered_s"] += doc["covered_s"]
        agg["absent"].update(doc["absent"])
        for name, values in doc["stats"].items():
            s = agg["stats"].setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(values):
                s[i] += v
        for name, value in doc["counts"].items():
            agg["counts"][name] = agg["counts"].get(name, 0) + value
    return agg


# per-layer metrics a tracing hook records, and the target that hook sits on
_HOOKED = {
    "distribution.first_lookup_s": "distribution.pmf",
    "shape.sup_distance.points": "shape.sup_distance",
    "fitgof.pearson_chi2.bins_in": "fitgof.pearson_chi2",
    "fitgof.pearson_chi2.bins_out": "fitgof.pearson_chi2",
}


def _layer_value(name: str, agg: dict):
    """One per-layer metric of one traced op; None when its target is absent.

    "<span>.calls" and "<span>.self_s" read that span's calls and self time,
    any other "<span>_s" its inclusive time.
    """
    if name == "cli.out_bytes":
        return agg["out_bytes"]
    if name in _HOOKED:
        return None if _HOOKED[name] in agg["absent"] else agg["counts"].get(name, 0)
    if name.endswith(".calls"):
        target, field = name[:-len(".calls")], 0
    elif name.endswith(".self_s"):
        target, field = name[:-len(".self_s")], 2
    else:
        target, field = name[:-len("_s")], 1
    if target in agg["absent"]:
        return None
    return agg["stats"].get(target, [0, 0.0, 0.0])[field]


def _layer_metrics(ops: list[Op], accuracy: dict) -> dict:
    """Median over verified traced ops; None for what no op could measure."""
    traced = [op for op in ops if op.traced and op.error is None]
    plain = [op for op in ops if not op.traced and op.error is None]
    aggs = [_merge_spans(op) for op in traced]
    values = dict.fromkeys(PER_LAYER)
    for name in PER_LAYER:
        if name.endswith(".relerr_max"):
            kernel = name.split(".")[1]
            values[name] = accuracy[kernel]["relerr_max"] if kernel in accuracy else None
        elif not name.startswith("trace.") and aggs:
            per_op = [_layer_value(name, agg) for agg in aggs]
            values[name] = None if None in per_op else statistics.median(per_op)
    if traced:
        values["trace.coverage"] = (sum(a["covered_s"] for a in aggs)
                                    / sum(op.wall_s for op in traced))
    if traced and plain:
        values["trace.overhead"] = (statistics.median(op.wall_s for op in traced)
                                    / statistics.median(op.wall_s for op in plain) - 1.0)
    return values


def _environment(root: str, ops_per_run: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
        commit = got.stdout.strip() or None
    src = hashlib.sha256()
    pkg = os.path.join(root, "src", "gigp")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    import mpmath
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "mpmath": mpmath.__version__,
            "scipy": scipy.__version__, "git_commit": commit,
            "src_sha256": src.hexdigest(), "ops_per_run": ops_per_run}


def _setup(workload, seed: int, work: str, env, root: str):
    """Inputs and a warm-up process; the warm-up also byte-compiles the package."""
    t0 = time.perf_counter()
    ctx = workload.setup(seed, work)
    argv = [sys.executable, "-m", "gigp", "--help"]
    _, _, code = _run_child(argv, os.path.join(work, "warmup.out"),
                            os.path.join(work, "warmup.err"), env, root)
    if code != 0:
        raise SystemExit("warm-up `gigp --help` failed")
    return ctx, time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "gigp", "__init__.py")):
        print("error: no src/gigp here; run from the root of a gigp checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, BENCH_DIR)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in
                                                 [env.get("PYTHONPATH")] if p])
    found = subprocess.run([sys.executable, "-c", "import gigp; print(gigp.__file__)"],
                           env=env, cwd=root, capture_output=True, text=True)
    if found.returncode != 0 or not found.stdout.strip().startswith(src + os.sep):
        print(f"error: gigp does not import from {src}: {found.stderr.strip()[-300:]}",
              file=sys.stderr)
        return 2

    work = os.path.join(root, ".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    # the traced run reports no end-to-end timing, so it needs no reference
    ref = Reference(work, env, root) if not args.trace else None
    try:
        setups, setups_norm = [], []
        if ref is not None:
            ref.run()
        for _ in range(SETUP_REPEATS):
            before = ref.last if ref is not None else None
            ctx, took = _setup(workload, args.seed, work, env, root)
            setups.append(took)
            if ref is not None:
                setups_norm.append(ref.scale(took, [before, ref.run()]))

        ops: list[Op] = []
        start = time.perf_counter()
        while True:
            k = len(ops)
            op = Op(k, bool(args.trace) and k % 2 == 1, workload.op(ctx, k))
            _run_op(op, work, env, root, ref)
            ops.append(op)
            enough = not args.trace or len(ops) >= 2
            if enough and time.perf_counter() - start >= args.seconds:
                break

        # the oracles' imports would have inflated every child's peak RSS
        import checks
        for op in ops:
            _check_op(op, checks)
        verified = [op for op in ops if op.error is None]
        failures = [f"op {op.k}: {op.error}" for op in ops if op.error is not None]
        unit = END_TO_END if not args.trace else PER_LAYER
        if args.trace:
            import accuracy
            sys.path.insert(0, src)
            from gigp import specfun
            acc = accuracy.accuracy_record(specfun)
            values = _layer_metrics(ops, acc)
        else:
            acc = None
            values = {
                "op_s_p50_norm": statistics.median(ref.scale(op.wall_s, op.ref_s)
                                                   for op in ops),
                "setup_s": statistics.median(setups_norm),
                "ok_ratio": len(verified) / len(ops),
                "peak_rss_mb": statistics.median(op.rss_kb for op in ops) / 1024.0,
                "result_digits_min": (statistics.median(
                    -math.log10(max(op.relerr, _RELERR_FLOOR)) for op in verified)
                    if verified else 0.0),
            }
    finally:
        shutil.rmtree(os.path.join(root, ".bench_work"), ignore_errors=True)

    record = {
        "benchmark": "gigp", "workload": workload.name, "why": workload.why,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "unmeasured": workloads.UNMEASURED,
        "env": _environment(root, len(ops)),
        "inputs": ctx,
        "op_samples": {"untraced": sum(not op.traced for op in ops),
                       "traced": sum(op.traced for op in ops)},
        "op_s_p50": statistics.median(op.wall_s for op in ops),
        "ops_per_s": len(verified) / sum(op.wall_s for op in ops),
        "op_s": [round(op.wall_s, 6) for op in ops],
        "op_s_norm": ([round(ref.scale(op.wall_s, op.ref_s), 6) for op in ops]
                      if ref is not None else None),
        "setup_s": [round(s, 6) for s in setups],
        "setup_s_norm": [round(s, 6) for s in setups_norm] or None,
        "reference_s": ({"nominal": REF_NOMINAL_S, "p50": statistics.median(ref.times),
                         "runs": len(ref.times)} if ref is not None else None),
        "fail_ratio": len(failures) / len(ops),
        "op_relerr_max": [op.relerr for op in ops],
        "failures": failures[:5],
        "accuracy": acc,
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit[name]} for name in unit},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

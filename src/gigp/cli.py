"""Command-line surface: simulate, shape, fit, gof, chaotic, partition.

Every output document embeds the resolved run configuration (including
the scaling pair and regime when a model is involved), and rerunning the
same command reproduces the file byte for byte. Exit codes: 0 success,
1 validation error or a numerical kernel that gave up, 2 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from typing import Sequence

import numpy as np

from .chaotic import poisson_gof_experiment, poisson_rate
from .diagram import FrequencyTable
from .distribution import GigpParams, ccdf, pmf, resolve_truncation, sample, validate
from .fitgof import (alpha_from_b, estimate_theta, fit_tail_line, pearson_chi2,
                     tail_points)
from .partition import calibrate, partition_shape, sample_partition
from .shape import classify_regime, limit_shape, scaling_b, sup_distance

OUTPUT_DIR_ENV = "GIGP_OUTPUT_DIR"


def read_frequency_csv(path: str) -> FrequencyTable:
    """Strict `j,count` reader; unknown columns are rejected.

    Lines starting with '#' are skipped so the tool's own CSV output,
    which carries a config echo comment, can be fed back in.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh)
                if r and not r[0].lstrip().startswith("#")]
    if not rows:
        raise ValueError("input CSV is empty; expected a 'j,count' header")
    header = [c.strip() for c in rows[0]]
    if header != ["j", "count"]:
        raise ValueError("input CSV must have exactly the columns 'j,count', "
                         f"got {header}")
    counts: dict[int, int] = {}
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise ValueError(f"line {i}: expected two fields, got {len(row)}")
        try:
            j, c = int(row[0]), int(row[1])
        except ValueError:
            raise ValueError(f"line {i}: j and count must be integers") from None
        if j in counts:
            raise ValueError(f"line {i}: duplicate support point j={j}")
        counts[j] = c
    table = FrequencyTable(counts)
    if table.M == 0:
        raise ValueError("input CSV holds no sources")
    return table


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.dirname(out):
        out = os.path.join(base, out)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _json_doc(config: dict, result: dict) -> str:
    return json.dumps({"config": config, "result": result},
                      sort_keys=True, indent=2) + "\n"


def _csv_doc(config: dict, header: Sequence[str], rows) -> str:
    lines = ["# config: " + json.dumps(config, sort_keys=True)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join("" if v is None else repr(v) if isinstance(v, float)
                              else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _write(args, cfg: dict, result: dict, header: Sequence[str], rows) -> int:
    """Emit the document --format asks for: cfg and result as JSON, or rows as CSV."""
    if args.format == "json":
        _emit(_json_doc(cfg, result), args.out)
    else:
        _emit(_csv_doc(cfg, header, rows), args.out)
    return 0


def _params_from(args, table: FrequencyTable | None = None) -> GigpParams:
    """The model the flags name; without --theta, theta matches the table's mean."""
    truncated = resolve_truncation(args.nu, args.alpha, args.truncated)
    theta = args.theta
    if theta is None:
        theta = estimate_theta(args.nu, args.alpha, table, truncated)
    return validate(GigpParams(args.nu, args.alpha, theta, truncated))


def _config_echo(args, keys, params: GigpParams, m: int) -> dict:
    pair = scaling_b(params, m)
    return {"command": args.command, **{k: getattr(args, k) for k in keys},
            "nu": params.nu, "alpha": params.alpha, "theta": params.theta,
            "truncated": params.zero_truncated,
            "scaling": {"a": pair.a, "b": pair.b, "case_label": pair.case_label,
                        "regime": classify_regime(pair)}}


# ---------------------------------------------------------------- commands


def _cmd_simulate(args) -> int:
    params = _params_from(args)
    table = sample(params, args.seed, args.m)
    cfg = _config_echo(args, ["m", "seed", "format"], params, args.m)
    rows = np.column_stack((table.support, table.mult)).tolist()
    return _write(args, cfg, {"m": table.M, "n": table.N, "table": rows},
                  ["j", "count"], rows)


def _cmd_shape(args) -> int:
    params = _params_from(args)
    if not args.delta > 0.0:
        raise ValueError("--delta must be positive")
    table = sample(params, args.seed, args.m)
    pair = scaling_b(params, args.m)
    report = sup_distance(table, pair, params.nu, args.delta,
                          params=params, m_sources=args.m)
    cfg = _config_echo(args, ["m", "seed", "delta", "format"], params, args.m)
    if args.format == "svg":
        _emit(_shape_svg(table, params, args.m, pair, cfg), args.out)
        return 0
    # the point keys are PointRecord's fields, in this order
    points = [vars(r) for r in report.pointwise]
    result = {"delta": report.delta, "sup_distance": report.sup_distance,
              "pointwise": points}
    return _write(args, cfg, result, ["x", "y_scaled", "phi", "upsilon", "msd"],
                  (p.values() for p in points))


def _cmd_fit(args) -> int:
    table = read_frequency_csv(args.data)
    params = _params_from(args, table)
    theta = params.theta
    pair = scaling_b(params, table.M)
    fit = fit_tail_line(table, pair.a, args.u_min, args.u_max)
    # the intercept determines alpha only in case (c); a declared alpha = 0
    # model is case (d), whose B carries no alpha
    alpha_hat = (alpha_from_b(args.nu, theta, table.M, math.exp(fit.logB_hat))
                 if args.alpha > 0.0 else None)
    cfg = _config_echo(args, ["data", "u_min", "u_max", "format"],
                       params, table.M)
    result = {"m": table.M, "n": table.N, "eta_hat": table.N / table.M,
              "theta": theta,
              "theta_source": "given" if args.theta is not None else "estimated",
              "slope": fit.slope, "intercept": fit.intercept,
              "nu_hat": fit.nu_hat, "logb_hat": fit.logB_hat,
              "r_squared": fit.r_squared,
              "fit_range": list(fit.fit_range), "alpha_hat": alpha_hat}
    return _write(args, cfg, result, ["key", "value"],
                  sorted((k, v) for k, v in result.items() if not isinstance(v, list)))


def _cmd_gof(args) -> int:
    table = read_frequency_csv(args.data)
    params = _params_from(args, table)
    fitted = int(args.theta is None)
    # bins j_lo .. j_hi - 1, then the open bin from the largest value j_hi
    support, mult = table.support, table.mult
    j_lo = 1 if params.zero_truncated else 0
    j_hi = int(support[-1])
    closed = (support >= j_lo) & (support < j_hi)
    observed = np.zeros(max(j_hi - j_lo, 0) + 1, dtype=np.int64)
    observed[support[closed] - j_lo] = mult[closed]
    observed[-1] = mult[-1]
    expected = table.M * np.append(pmf(params, np.arange(j_lo, j_hi)), ccdf(params, j_hi))
    labels = [str(j) for j in range(j_lo, j_hi)] + [f"{j_hi}+"]
    rep = pearson_chi2(observed.tolist(), expected.tolist(), n_fitted_params=fitted,
                       min_expected=args.min_expected, labels=labels)
    cfg = _config_echo(args, ["data", "min_expected", "format"],
                       params, table.M)
    result = {"statistic": rep.statistic, "df": rep.df, "p_value": rep.p_value,
              "theta": params.theta, "fitted_params": fitted,
              "bins": [[lab, o, e] for lab, o, e in rep.bins]}
    return _write(args, cfg, result, ["bin", "observed", "expected"], rep.bins)


def _cmd_chaotic(args) -> int:
    params = _params_from(args)
    pair = scaling_b(params, args.m)
    rate = poisson_rate(params, args.m, pair.a, args.x0)
    rep = poisson_gof_experiment(params, args.m, args.x0, args.replicates,
                                 args.seed, fit_lambda=args.fit_lambda,
                                 min_expected=args.min_expected)
    cfg = _config_echo(args, ["m", "x0", "replicates", "seed", "fit_lambda",
                              "min_expected", "format"], params, args.m)
    result = {"lambda": rate.lam, "tv_bound": rate.tv_bound,
              "statistic": rep.statistic, "df": rep.df, "p_value": rep.p_value,
              "bins": [[lab, o, e] for lab, o, e in rep.bins]}
    return _write(args, cfg, result, ["bin", "observed", "expected"], rep.bins)


def _cmd_partition(args) -> int:
    config = calibrate(args.n)
    table = sample_partition(config, args.seed)
    root = math.sqrt(args.n)
    xs = (table.support / root).tolist()
    ys = (table.boundary().suffix[:-1] / root).tolist()
    rows = [[x, y, partition_shape(x)] for x, y in zip(xs, ys)]
    cfg = {"command": "partition", "n": args.n, "seed": args.seed,
           "format": args.format, "z": config.z, "kappa": config.kappa,
           "j_cutoff": config.j_cutoff}
    return _write(args, cfg, {"parts": table.M, "weight": table.N, "series": rows},
                  ["x", "y_scaled", "shape"], rows)


# ---------------------------------------------------------------- svg


def _pane(points_sets, x_rng, y_rng, origin, size):
    # map data coordinates into one svg pane, y up
    x0, x1 = x_rng
    y0, y1 = y_rng
    ox, oy = origin
    w, h = size
    sx = w / (x1 - x0) if x1 > x0 else 1.0
    sy = h / (y1 - y0) if y1 > y0 else 1.0
    paths = []
    for pts, color, dash in points_sets:
        coords = " ".join(
            f"{ox + (x - x0) * sx:.3f},{oy + h - (y - y0) * sy:.3f}"
            for x, y in pts if x0 <= x <= x1 and y0 <= y <= y1)
        if coords:
            extra = f' stroke-dasharray="{dash}"' if dash else ""
            paths.append(f'<polyline fill="none" stroke="{color}" '
                         f'stroke-width="1.2"{extra} points="{coords}"/>')
    frame = (f'<rect x="{ox}" y="{oy}" width="{w}" height="{h}" '
             f'fill="none" stroke="#444" stroke-width="0.8"/>')
    return frame + "".join(paths)


def _shape_svg(table, params: GigpParams, m: int, pair, cfg: dict) -> str:
    boundary = table.boundary()
    j_max = int(boundary.support[-1]) if len(boundary.support) else 1
    # left pane: data step, model ccdf, scaled-back limit shape
    steps = []
    prev_y = float(table.M)
    for j, y in zip(boundary.support, boundary.suffix):
        steps.append((float(j), prev_y))
        steps.append((float(j), float(y)))
        prev_y = float(y)
    ts = j_max * np.arange(1, 201) / 200.0
    model = list(zip(ts.tolist(), (m * ccdf(params, ts)).tolist()))
    shape_y = (pair.b * limit_shape(params.nu, ts / pair.a)).tolist()
    shape_curve = list(zip(ts.tolist(), shape_y))
    y_top = max(table.M, max(shape_y)) * 1.05
    left = _pane([(steps, "#1f77b4", None), (model, "#d62728", None),
                  (shape_curve, "#2ca02c", "4 3")],
                 (0.0, float(j_max)), (0.0, y_top), (40, 20), (360, 300))
    # right pane: transformed tail with the model line
    uv = tail_points(table, pair.a)
    us, vs = uv[:, 0].tolist(), uv[:, 1].tolist()
    line_u = min(us) + (max(us) - min(us)) * np.arange(101) / 100.0
    line_v = math.log(pair.b) + (params.nu - 1.0) * line_u
    line = list(zip(line_u.tolist(), line_v.tolist()))
    lo_v = min(vs + line_v.tolist())
    hi_v = max(vs + line_v.tolist())
    right = _pane([(uv.tolist(), "#1f77b4", None), (line, "#2ca02c", "4 3")],
                  (min(us), max(us) + 1e-9), (lo_v, hi_v + 1e-9),
                  (460, 20), (360, 300))
    title = ("data / model / limit shape; right: tail coordinates "
             "(u, v) with slope nu-1")
    return ("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"860\" "
            "height=\"360\" viewBox=\"0 0 860 360\">\n"
            f"<!-- config: {json.dumps(cfg, sort_keys=True)} -->\n"
            f"<text x=\"40\" y=\"345\" font-size=\"11\">{title}</text>\n"
            + left + right + "\n</svg>\n")


# ---------------------------------------------------------------- parser


def _add_model_flags(sp, theta_required=True):
    sp.add_argument("--nu", type=float, required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--theta", type=float, required=theta_required,
                    default=None)
    sp.add_argument("--truncated", action=argparse.BooleanOptionalAction,
                    default=None,
                    help="zero-truncate; default: auto for alpha=0, nu<=0")


def _add_io_flags(sp, formats=("csv", "json")):
    sp.add_argument("--out", default=None,
                    help=f"output path (default stdout; bare names resolve "
                         f"under ${OUTPUT_DIR_ENV})")
    sp.add_argument("--format", choices=formats, default="json")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gigp",
        description="Count-data model with a generalized inverse Gaussian "
                    "mixing law: simulation, limit-shape analysis, fitting, "
                    "goodness of fit, and the partition demo.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="draw a frequency table")
    _add_model_flags(sp)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    _add_io_flags(sp)

    sp = sub.add_parser("shape", help="scaled diagram vs the limit shape")
    _add_model_flags(sp)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--delta", type=float, default=0.2)
    _add_io_flags(sp, formats=("csv", "json", "svg"))

    sp = sub.add_parser("fit", help="tail-line fit from a data CSV")
    sp.add_argument("--data", required=True)
    _add_model_flags(sp, theta_required=False)
    sp.add_argument("--u-min", type=float, default=None, dest="u_min")
    sp.add_argument("--u-max", type=float, default=None, dest="u_max")
    _add_io_flags(sp)

    sp = sub.add_parser("gof", help="Pearson chi-square fit test on a CSV")
    sp.add_argument("--data", required=True)
    _add_model_flags(sp, theta_required=False)
    sp.add_argument("--min-expected", type=float, default=5.0,
                    dest="min_expected")
    _add_io_flags(sp)

    sp = sub.add_parser("chaotic", help="grouped Poisson chi-square experiment")
    _add_model_flags(sp)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--x0", type=float, required=True)
    sp.add_argument("--replicates", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--fit-lambda", action="store_true", dest="fit_lambda")
    sp.add_argument("--min-expected", type=float, default=5.0,
                    dest="min_expected")
    _add_io_flags(sp)

    sp = sub.add_parser("partition", help="Boltzmann partition demo")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    _add_io_flags(sp)
    return ap


_COMMANDS = {
    "simulate": _cmd_simulate,
    "shape": _cmd_shape,
    "fit": _cmd_fit,
    "gof": _cmd_gof,
    "chaotic": _cmd_chaotic,
    "partition": _cmd_partition,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1  # argparse usage errors are validation
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, RuntimeError) as exc:
        # RuntimeError: a kernel gave up, e.g. the pmf table hit its size cap
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

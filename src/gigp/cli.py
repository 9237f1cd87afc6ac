"""Command-line surface: simulate, shape, fit, gof, chaotic, partition.

Every output document embeds the resolved run configuration (including
the scaling pair and regime when a model is involved), and rerunning the
same command reproduces the file byte for byte. Exit codes: 0 success,
1 validation error or a numerical kernel that gave up or left
floating-point range, 2 I/O error, a closed stdout included.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import sys
from typing import TYPE_CHECKING, NoReturn

# numpy, csv and the numeric modules are imported by the code that uses
# them, so a process loads only its own command's modules, and one that only
# parses its arguments (--help, a usage error) loads none of them
if TYPE_CHECKING:
    from .diagram import FrequencyTable
    from .distribution import GigpParams

OUTPUT_DIR_ENV = "GIGP_OUTPUT_DIR"


def read_frequency_csv(path: str) -> FrequencyTable:
    """Strict `j,count` reader; unknown columns are rejected.

    Lines starting with '#' are skipped so the tool's own CSV output,
    which carries a config echo comment, can be fed back in.
    """
    import csv

    from .diagram import FrequencyTable
    counts: dict[int, int] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = (r for r in reader if r and not r[0].lstrip().startswith("#"))
        header = [c.strip() for c in next(rows, [])]
        if not header:
            raise ValueError("input CSV is empty; expected a 'j,count' header")
        if header != ["j", "count"]:
            raise ValueError("input CSV must have exactly the columns 'j,count', "
                             f"got {header}")
        for row in rows:
            # the number of the row's last line in the file
            i = reader.line_num
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


def _destination(out: str | None):
    """The text stream a document goes to, as a context: stdout, or the
    --out file. Callers take it once every value of the document is
    computed, so a command that fails creates no file."""
    if out is None:
        # None when the process started with its stdout closed
        if sys.stdout is None:
            raise OSError("stdout is closed")
        return contextlib.nullcontext(sys.stdout)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.dirname(out):
        out = os.path.join(base, out)
    return open(out, "w", encoding="utf-8", newline="")


# json's spelling of the floats that float.__repr__ writes as nan, inf, -inf
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# record arrays are formatted and written this many rows at a time, so the
# writer's memory does not grow with the document
_CHUNK_ROWS = 1024


def _cells(col, csv: bool, null_nan: bool) -> list[str]:
    """A column as text, by json's rules or, for CSV, repr of a float, str of
    any other value and "" for None; with null_nan a NaN is written as None.

    col is a float or int ndarray, taken a column at a time, or a sequence
    of Python values, taken one value at a time.
    """
    import numpy as np
    if isinstance(col, np.ndarray) and col.dtype.kind in "iu":
        return list(map(int.__repr__, col.tolist()))
    if isinstance(col, np.ndarray):
        cells = list(map(float.__repr__, col.tolist()))
        for i in np.flatnonzero(~np.isfinite(col)).tolist():
            if null_nan and cells[i] == "nan":
                cells[i] = "" if csv else "null"
            elif not csv:
                cells[i] = _JSON_NONFINITE[cells[i]]
        return cells
    if csv:
        return ["" if v is None else repr(v) if isinstance(v, float) else str(v)
                for v in col]
    return [json.dumps(v) for v in col]


def _row_chunks(columns: dict, names, csv: bool, nulls):
    """The rows as tuples of cells in names' order, _CHUNK_ROWS rows at a time."""
    n = len(columns[names[0]])
    for lo in range(0, n, _CHUNK_ROWS):
        yield zip(*(_cells(columns[c][lo:lo + _CHUNK_ROWS], csv, c in nulls)
                    for c in names))


def _json_doc(fh, config: dict, result: dict, columns: dict, key: str | None = None,
              objects: bool = False, nulls=()) -> None:
    """Write json.dumps(sort_keys=True, indent=2) of config and result to fh,
    with the columns as result[key]: one list per row, or with objects one dict."""
    doc = {"config": config, "result": result if key is None else {**result, key: []}}
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if key is None or not len(next(iter(columns.values()))):
        fh.write(text)
        return
    # records sit at depth 3 of the document and their fields at depth 4,
    # one template per record with the fields in json's order
    names = sorted(columns) if objects else list(columns)
    fields = (f"\n        {json.dumps(c)}: %s" if objects else "\n        %s" for c in names)
    brackets = "{}" if objects else "[]"
    record = brackets[0] + ",".join(fields) + "\n      " + brackets[1]
    # result follows config, and a quoted key cannot occur inside a string
    head, _, tail = text.rpartition(f"{json.dumps(key)}: []")
    sep = f"{head}{json.dumps(key)}: [\n      "
    for rows in _row_chunks(columns, names, False, nulls):
        fh.write(sep + ",\n      ".join(map(record.__mod__, rows)))
        sep = ",\n      "
    fh.write(f"\n    ]{tail}")


def _csv_doc(fh, config: dict, columns: dict, nulls=()) -> None:
    """Write the config echo comment, the column names, then one line per row to fh."""
    fh.write(f"# config: {json.dumps(config, sort_keys=True)}\n{','.join(columns)}\n")
    for rows in _row_chunks(columns, list(columns), True, nulls):
        fh.write("\n".join(map(",".join, rows)) + "\n")


def _write(args, cfg: dict, result: dict, columns: dict, key: str | None = None,
           objects: bool = False, nulls=()) -> int:
    """Write the document --format asks for, both from one set of columns:
    JSON of cfg and result with the columns as result[key] (left out when
    key is None), or CSV of the columns. A NaN in a column named in nulls
    is written as null, or as an empty CSV field."""
    with _destination(args.out) as fh:
        if args.format == "json":
            _json_doc(fh, cfg, result, columns, key, objects, nulls)
        else:
            _csv_doc(fh, cfg, columns, nulls)
    return 0


def _params_from(args, table: FrequencyTable | None = None) -> GigpParams:
    """The model the flags name; without --theta, theta matches the table's mean."""
    from .distribution import GigpParams, resolve_truncation, theta_from_mean, validate
    truncated = resolve_truncation(args.nu, args.alpha, args.truncated)
    if truncated and table is not None and table.support[0] == 0:
        raise ValueError(f"a zero-truncated model gives j = 0 no mass, but the data has "
                         f"{int(table.mult[0])} sources in its j = 0 row")
    theta = args.theta
    if theta is None:
        theta = theta_from_mean(args.nu, args.alpha, table.N / table.M, truncated)
    return validate(GigpParams(args.nu, args.alpha, theta, truncated))


# flags the config echo leaves out: the resolved params stand in for the
# model flags, and a document does not name the file it is written to
_NOT_ECHOED = frozenset({"nu", "alpha", "theta", "truncated", "out"})


def _config_echo(args, params: GigpParams, m: int) -> dict:
    from .shape import classify_regime, scaling_b
    pair = scaling_b(params, m)
    return {**{k: v for k, v in vars(args).items() if k not in _NOT_ECHOED},
            "nu": params.nu, "alpha": params.alpha, "theta": params.theta,
            "truncated": params.zero_truncated,
            "scaling": {"a": pair.a, "b": pair.b, "case_label": pair.case_label,
                        "regime": classify_regime(pair)}}


# ---------------------------------------------------------------- commands


def _cmd_simulate(args) -> int:
    from .distribution import sample
    params = _params_from(args)
    table = sample(params, args.seed, args.m)
    cfg = _config_echo(args, params, args.m)
    return _write(args, cfg, {"m": table.M, "n": table.N},
                  {"j": table.support, "count": table.mult}, "table")


def _cmd_shape(args) -> int:
    from .distribution import sample
    from .shape import _check_delta, sup_distance
    params = _params_from(args)
    _check_delta(args.delta, params.theta)
    table = sample(params, args.seed, args.m)
    cfg = _config_echo(args, params, args.m)
    if args.format == "svg":
        svg = _shape_svg(table, params, cfg)
        with _destination(args.out) as fh:
            fh.write(svg)
        return 0
    report = sup_distance(table, params, args.delta)
    result = {"delta": report.delta, "sup_distance": report.sup_distance}
    columns = {"x": report.x, "y_scaled": report.y_scaled, "phi": report.phi,
               "upsilon": report.upsilon, "msd": report.msd}
    return _write(args, cfg, result, columns, "pointwise", objects=True,
                  nulls=("upsilon",))


def _cmd_fit(args) -> int:
    from .fitgof import alpha_from_b, fit_tail_line
    table = read_frequency_csv(args.data)
    params = _params_from(args, table)
    theta = params.theta
    cfg = _config_echo(args, params, table.M)
    fit = fit_tail_line(table, cfg["scaling"]["a"], args.u_min, args.u_max)
    # the intercept determines alpha only in case (c); a declared alpha = 0
    # model is case (d), whose B carries no alpha
    alpha_hat = (alpha_from_b(args.nu, theta, table.M, math.exp(fit.logB_hat))
                 if args.alpha > 0.0 else None)
    result = {"m": table.M, "n": table.N, "eta_hat": table.N / table.M,
              "theta": theta,
              "theta_source": "given" if args.theta is not None else "estimated",
              "slope": fit.slope, "intercept": fit.intercept,
              "nu_hat": fit.nu_hat, "logb_hat": fit.logB_hat,
              "r_squared": fit.r_squared,
              "fit_range": list(fit.fit_range), "alpha_hat": alpha_hat}
    keys = sorted(k for k, v in result.items() if not isinstance(v, list))
    return _write(args, cfg, result, {"key": keys, "value": [result[k] for k in keys]})


def _cmd_gof(args) -> int:
    import numpy as np

    from .distribution import _pmf_end, ccdf, pmf
    from .fitgof import _open_top_chi2
    table = read_frequency_csv(args.data)
    params = _params_from(args, table)
    fitted = int(args.theta is None)
    j_lo = 1 if params.zero_truncated else 0

    def probs(j_hi):
        # the bins end where the pmf past the cut is 0.0: the ones they leave
        # out, and the open top, add only 0.0 to the right edge's fold
        end = _pmf_end(params, j_hi)
        return np.append(pmf(params, np.arange(j_lo, end)), ccdf(params, end))

    rep = _open_top_chi2(table, j_lo, probs, fitted, args.min_expected)
    cfg = _config_echo(args, params, table.M)
    result = {"statistic": rep.statistic, "df": rep.df, "p_value": rep.p_value,
              "theta": params.theta, "fitted_params": fitted}
    return _write(args, cfg, result, {"bin": rep.bins, "observed": rep.observed,
                                      "expected": rep.expected}, "bins")


def _cmd_chaotic(args) -> int:
    from .chaotic import poisson_gof_experiment, poisson_rate
    params = _params_from(args)
    rate = poisson_rate(params, args.m, args.x0)
    rep = poisson_gof_experiment(params, args.m, args.x0, args.replicates,
                                 args.seed, fit_lambda=args.fit_lambda,
                                 min_expected=args.min_expected)
    cfg = _config_echo(args, params, args.m)
    result = {"lambda": rate.lam, "tv_bound": rate.tv_bound,
              "statistic": rep.statistic, "df": rep.df, "p_value": rep.p_value}
    return _write(args, cfg, result, {"bin": rep.bins, "observed": rep.observed,
                                      "expected": rep.expected}, "bins")


def _cmd_partition(args) -> int:
    import numpy as np

    from .partition import calibrate, partition_shape, sample_partition
    config = calibrate(args.n)
    table = sample_partition(config, args.seed)
    root = math.sqrt(args.n)
    xs = table.support / root
    ys = table.suffix[:-1] / root
    # point by point with libm: numpy's exp can differ from it in the last bit
    shape = np.array([partition_shape(x) for x in xs.tolist()])
    cfg = {"command": "partition", "n": args.n, "seed": args.seed,
           "format": args.format, "z": config.z, "kappa": config.kappa,
           "j_cutoff": config.j_cutoff}
    return _write(args, cfg, {"parts": table.M, "weight": table.N},
                  {"x": xs, "y_scaled": ys, "shape": shape}, "series")


# ---------------------------------------------------------------- svg


def _pane(curves, x_rng, y_rng, origin, size):
    # map data coordinates into one svg pane, y up; each curve is
    # (xs, ys, color, dash) with xs and ys arrays, drawn where both are in range
    x0, x1 = x_rng
    y0, y1 = y_rng
    ox, oy = origin
    w, h = size
    sx = w / (x1 - x0) if x1 > x0 else 1.0
    sy = h / (y1 - y0) if y1 > y0 else 1.0
    paths = []
    for xs, ys, color, dash in curves:
        kept = (x0 <= xs) & (xs <= x1) & (y0 <= ys) & (ys <= y1)
        coords = " ".join(map("{:.3f},{:.3f}".format,
                              (ox + (xs[kept] - x0) * sx).tolist(),
                              (oy + h - (ys[kept] - y0) * sy).tolist()))
        if coords:
            extra = f' stroke-dasharray="{dash}"' if dash else ""
            paths.append(f'<polyline fill="none" stroke="{color}" '
                         f'stroke-width="1.2"{extra} points="{coords}"/>')
    frame = (f'<rect x="{ox}" y="{oy}" width="{w}" height="{h}" '
             f'fill="none" stroke="#444" stroke-width="0.8"/>')
    return frame + "".join(paths)


def _shape_svg(table, params: GigpParams, cfg: dict) -> str:
    import numpy as np

    from .distribution import ccdf
    from .fitgof import tail_points
    from .shape import limit_shape
    a, b = cfg["scaling"]["a"], cfg["scaling"]["b"]
    # at least 1, so a sample with every source at j = 0 keeps a wide pane
    j_max = int(table.support.max(initial=1))
    # left pane: data step, model ccdf, scaled-back limit shape; at each j_i
    # the step drops from the height before it (M at the first) to Y(j_i)
    steps = np.repeat(table.support, 2)
    heights = np.concatenate([[table.M], np.repeat(table.suffix[:-1], 2)[:-1]])
    ts = j_max * np.arange(1, 201) / 200.0
    shape_y = b * limit_shape(params.nu, ts / a)
    y_top = max(table.M, shape_y.max()) * 1.05
    left = _pane([(steps, heights, "#1f77b4", None),
                  (ts, table.M * ccdf(params, ts), "#d62728", None),
                  (ts, shape_y, "#2ca02c", "4 3")],
                 (0.0, float(j_max)), (0.0, y_top), (40, 20), (360, 300))
    # right pane: transformed tail with the model line; only its frame
    # when no source sits at j >= 1
    u, v = tail_points(table, a)
    if not len(u):
        right = _pane([], (0.0, 1.0), (0.0, 1.0), (460, 20), (360, 300))
    else:
        line_u = u.min() + (u.max() - u.min()) * np.arange(101) / 100.0
        line_v = math.log(b) + (params.nu - 1.0) * line_u
        lo_v = min(v.min(), line_v.min())
        hi_v = max(v.max(), line_v.max())
        right = _pane([(u, v, "#1f77b4", None), (line_u, line_v, "#2ca02c", "4 3")],
                      (u.min(), u.max() + 1e-9), (lo_v, hi_v + 1e-9),
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
    """Run one command line and return its exit code, with stdout flushed:
    every byte of a document or of --help is written, or main prints one
    `io error:` line and returns 2."""
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            # --help, or a usage error, which is validation
            code = 0 if exc.code == 0 else 1
        else:
            code = _COMMANDS[args.command](args)
        if sys.stdout is not None:
            sys.stdout.flush()
        return code
    except (ValueError, RuntimeError, ArithmeticError, MemoryError, Warning) as exc:
        # RuntimeError: a kernel gave up, e.g. the pmf table hit its size cap;
        # ArithmeticError: a value left floating-point range; MemoryError: an
        # allocation was refused, e.g. for --m or --replicates past memory;
        # Warning: a warning raised as an error, as under -W error
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


def run() -> NoReturn:
    """The process entry of `python -m gigp`, `python -m gigp.cli` and the
    `gigp` script: main without the cyclic collector, then os._exit. What
    main leaves dies with the process, so neither a collection nor the
    interpreter's teardown frees anything that matters; main has flushed
    stdout, and stderr is line-buffered. main, which tests call in process,
    leaves the collector alone."""
    gc.disable()
    os._exit(main())


if __name__ == "__main__":
    run()

"""Oracle checks of `gigp` JSON output documents, independent of the package.

Each check parses one document, verifies its config echo and structure,
recomputes the checked numbers with mpmath, scipy or numpy, and returns
the largest relative error among them. A mismatch raises CheckFailed.
Nothing here imports gigp, so the oracles stay fixed when the package
changes.
"""

from __future__ import annotations

import functools
import json
import math

import mpmath
import numpy as np
from scipy.stats import chi2

# a checked number further than this from its oracle fails the op
REL_TOL = 1e-8
# mean matching stops at a bisection tolerance, not at rounding level, so
# theta is checked against its own tolerance and kept out of the maximum
THETA_MEAN_TOL = 1e-8
PHI_SUBSAMPLE = 48
_DPS = 40


class CheckFailed(Exception):
    """An output document disagrees with its request or its oracle."""


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


class _Errors:
    """Running maximum of relative errors; fails past the tolerance."""

    def __init__(self):
        self.max = 0.0

    def cmp(self, label: str, got, want, tol: float = REL_TOL) -> None:
        _expect(isinstance(got, (int, float)) and math.isfinite(got),
                f"{label}: not a finite number: {got!r}")
        with mpmath.workdps(_DPS):
            want = mpmath.mpf(want)
            diff = abs(mpmath.mpf(got) - want)
            err = float(diff / abs(want)) if want != 0 else float(diff)
        _expect(err <= tol, f"{label}: got {got!r}, oracle {mpmath.nstr(want, 17)}, "
                            f"relative error {err:.3g}")
        self.max = max(self.max, err)


def _load(text: str, command: str, request: dict) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None
    _expect(isinstance(doc, dict) and set(doc) == {"config", "result"},
            "document must hold exactly 'config' and 'result'")
    cfg = doc["config"]
    want = dict(request, command=command, format="json")
    for key, value in want.items():
        _expect(cfg.get(key) == value,
                f"config echo {key}={cfg.get(key)!r}, requested {value!r}")
    return doc


# ------------------------------------------------------------------ oracles


def scaling_b(nu: float, alpha: float, theta: float, m: int):
    """(case label, B) from the paper's four scaling cases, in mpmath."""
    with mpmath.workdps(_DPS):
        nu, alpha, u = mpmath.mpf(nu), mpmath.mpf(alpha), 1 - mpmath.mpf(theta)
        if nu > 0:
            return "a", m / mpmath.gamma(nu)
        if nu == 0:
            return "b", m / -mpmath.log(u)
        if alpha > 0:
            return "c", m * (alpha / 2) ** (-2 * nu) * u ** (-nu) / mpmath.gamma(-nu)
        return "d", m * (-nu) * u ** (-nu) / mpmath.gamma(nu + 1)


def _check_scaling(errs: _Errors, cfg: dict, nu, alpha, theta, m, regime: str):
    sc = cfg.get("scaling") or {}
    label, b = scaling_b(nu, alpha, theta, m)
    _expect(sc.get("case_label") == label,
            f"case label {sc.get('case_label')!r}, expected {label!r}")
    _expect(sc.get("regime") == regime, f"regime {sc.get('regime')!r}, expected {regime!r}")
    with mpmath.workdps(_DPS):
        errs.cmp("scaling.a", sc.get("a"), -1 / mpmath.log(mpmath.mpf(theta)))
    errs.cmp("scaling.b", sc.get("b"), b)


@functools.lru_cache(maxsize=8)
def gigp_pmf(nu: float, alpha: float, theta: float, jmax: int) -> tuple:
    """Untruncated GIGP masses f_0..f_jmax (alpha > 0) as mpf, by the Bessel sum.

    f_j = (1-theta)^(nu/2) / K_nu(alpha sqrt(1-theta)) (alpha theta/2)^j / j!
    K_(nu+j)(alpha), with K_(nu+j)(alpha) carried by the upward recurrence
    at 40 digits and spot-checked against mpmath.besselk.
    """
    if not alpha > 0.0:
        raise ValueError("the Bessel-sum oracle needs alpha > 0")
    with mpmath.workdps(_DPS):
        nu_, a, th = mpmath.mpf(nu), mpmath.mpf(alpha), mpmath.mpf(theta)
        norm = (1 - th) ** (nu_ / 2) / mpmath.besselk(nu_, a * mpmath.sqrt(1 - th))
        step = a * th / 2
        k0, k1 = mpmath.besselk(nu_, a), mpmath.besselk(nu_ + 1, a)
        weight = mpmath.mpf(1)
        out = []
        spots = {jmax // 2, jmax}
        for j in range(jmax + 1):
            if j in spots:
                direct = mpmath.besselk(nu_ + j, a)
                if abs(k0 / direct - 1) > mpmath.mpf(10) ** (-25):
                    raise RuntimeError(f"Bessel recurrence drifted at order {nu + j}")
            out.append(norm * weight * k0)
            weight = weight * step / (j + 1)
            k0, k1 = k1, k0 + 2 * (nu_ + j + 1) / a * k1
        return tuple(out)


def gigp_mean(nu: float, alpha: float, theta: float):
    """Untruncated E[X] = alpha theta / (2 sqrt(1-theta)) K_(nu+1)/K_nu at alpha sqrt(1-theta)."""
    with mpmath.workdps(_DPS):
        nu, a, th = mpmath.mpf(nu), mpmath.mpf(alpha), mpmath.mpf(theta)
        z = a * mpmath.sqrt(1 - th)
        return a * th / (2 * mpmath.sqrt(1 - th)) * mpmath.besselk(nu + 1, z) / mpmath.besselk(nu, z)


def _parse_bins(bins, first: int) -> list[tuple[int, int | None, int, float]]:
    """[(lo, hi or None when open, observed, expected)], checked to tile first..inf."""
    _expect(isinstance(bins, list) and len(bins) >= 2, "need at least two bins")
    out = []
    nxt = first
    for i, row in enumerate(bins):
        _expect(isinstance(row, list) and len(row) == 3, f"bin {i} is malformed")
        label, obs, exp = row
        _expect(isinstance(label, str) and isinstance(obs, int)
                and isinstance(exp, (int, float)), f"bin {i} has wrong types")
        is_open = label.endswith("+")
        parts = label.rstrip("+").split("-")
        _expect(1 <= len(parts) <= 2 and all(p.isdigit() for p in parts),
                f"bin label {label!r} is malformed")
        lo, hi = int(parts[0]), int(parts[-1])
        _expect(lo == nxt and hi >= lo, f"bin {label!r} does not continue at {nxt}")
        _expect(is_open == (i == len(bins) - 1), f"only the last bin is open, not {label!r}")
        out.append((lo, None if is_open else hi, obs, float(exp)))
        nxt = hi + 1
    return out


def _check_pearson(errs: _Errors, res: dict, bins, mass, total: int,
                   n_fitted: int, min_expected: float) -> None:
    """Bins against the oracle's masses mass(k), then the statistic, df and p-value."""
    _expect(sum(o for _, _, o, _ in bins) == total,
            f"observed total {sum(o for _, _, o, _ in bins)}, expected {total}")
    for lo, hi, _, exp in bins:
        _expect(exp >= min_expected, f"bin at {lo} kept expected {exp} < {min_expected}")
        with mpmath.workdps(_DPS):
            if hi is None:
                want = 1 - mpmath.fsum(mass(k) for k in range(lo))
            else:
                want = mpmath.fsum(mass(k) for k in range(lo, hi + 1))
        errs.cmp(f"expected[{lo}]", exp, total * want)
    stat = math.fsum((o - e) ** 2 / e for _, _, o, e in bins)
    errs.cmp("statistic", res.get("statistic"), stat)
    df = len(bins) - 1 - n_fitted
    _expect(res.get("df") == df, f"df {res.get('df')!r}, expected {df}")
    errs.cmp("p_value", res.get("p_value"), chi2.sf(stat, df))


# ------------------------------------------------------------------ checks


def check_shape(text: str, *, nu: float, alpha: float, theta: float, m: int,
                seed: int, delta: float) -> float:
    """phi on a fixed subsample against mpmath.gammainc, plus echo and structure."""
    doc = _load(text, "shape", dict(nu=nu, alpha=alpha, theta=theta, m=m,
                                    seed=seed, delta=delta,
                                    truncated=alpha == 0.0 and nu <= 0.0))
    errs = _Errors()
    _check_scaling(errs, doc["config"], nu, alpha, theta, m, "regular")
    b = doc["config"]["scaling"]["b"]
    res = doc["result"]
    _expect(res.get("delta") == delta, "result delta differs from the request")
    pts = res.get("pointwise")
    _expect(isinstance(pts, list) and len(pts) >= 2, "pointwise needs two or more rows")
    xs = np.array([p["x"] for p in pts], dtype=float)
    ys = np.array([p["y_scaled"] for p in pts], dtype=float)
    phis = np.array([p["phi"] for p in pts], dtype=float)
    _expect(xs[0] == delta and bool(np.all(np.diff(xs) > 0)),
            "x must start at delta and increase")
    _expect(bool(np.all(np.diff(ys) <= 0)) and ys[-1] >= 0 and ys[0] <= m / b * (1 + 1e-12),
            "y_scaled must be a nonincreasing boundary within [0, M/B]")
    for i in sorted(set(np.linspace(0, len(pts) - 1, PHI_SUBSAMPLE).round().astype(int))):
        x = float(xs[i])
        errs.cmp(f"phi({x!r})", float(phis[i]), mpmath.gammainc(nu, x))
    sup = res.get("sup_distance")
    _expect(isinstance(sup, float) and sup >= float(np.max(np.abs(ys - phis))) - 1e-12,
            "sup_distance is below a pointwise deviation")
    return errs.max


def read_table(path: str):
    """(support, counts) as int64 arrays from a `j,count` CSV, sorted by j."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    order = np.argsort(data[:, 0])
    return data[order, 0], data[order, 1]


def _check_theta(res: dict, cfg: dict, nu, alpha, js, counts) -> float:
    theta = res.get("theta")
    _expect(isinstance(theta, float) and 0.0 < theta < 1.0 and cfg.get("theta") == theta,
            "theta missing, out of range or not echoed")
    eta = int(js @ counts) / int(counts.sum())
    errs = _Errors()
    errs.cmp("mean at theta", eta, gigp_mean(nu, alpha, theta), tol=THETA_MEAN_TOL)
    return theta


def check_fit(text: str, *, data: str, nu: float, alpha: float) -> float:
    """Slope and intercept against a numpy OLS fit of the tail-transformed data CSV."""
    doc = _load(text, "fit", dict(data=data, nu=nu, alpha=alpha, truncated=False,
                                  u_min=None, u_max=None))
    res, cfg = doc["result"], doc["config"]
    js, counts = read_table(data)
    theta = _check_theta(res, cfg, nu, alpha, js, counts)
    _expect(res.get("theta_source") == "estimated", "theta_source must be 'estimated'")
    m, n = int(counts.sum()), int(js @ counts)
    _expect(res.get("m") == m and res.get("n") == n, "m or n differ from the input table")
    errs = _Errors()
    errs.cmp("eta_hat", res.get("eta_hat"), mpmath.mpf(n) / m)
    _check_scaling(errs, cfg, nu, alpha, theta, m, "regular")
    # Y(j) = sources with value >= j, at the support points j >= 1
    suffix = np.cumsum(counts[::-1])[::-1]
    keep = js >= 1
    x = js[keep] / (-1.0 / math.log(theta))
    u = np.log(x)
    v = np.log(suffix[keep].astype(float)) + x
    us = np.sort(u)
    u_lo = us[int(round(0.2 * (len(us) - 1)))]
    u_hi = us[int(round(0.8 * (len(us) - 1)))]
    win = (u >= u_lo) & (u <= u_hi)
    design = np.column_stack([u[win], np.ones(int(win.sum()))])
    (slope, intercept), *_ = np.linalg.lstsq(design, v[win], rcond=None)
    resid = v[win] - design @ np.array([slope, intercept])
    r2 = 1.0 - float(resid @ resid) / float(((v[win] - v[win].mean()) ** 2).sum())
    errs.cmp("slope", res.get("slope"), slope)
    errs.cmp("intercept", res.get("intercept"), intercept)
    errs.cmp("nu_hat", res.get("nu_hat"), slope + 1.0)
    errs.cmp("logb_hat", res.get("logb_hat"), intercept)
    errs.cmp("r_squared", res.get("r_squared"), r2)
    fit_range = res.get("fit_range") or [None, None]
    errs.cmp("fit_range[0]", fit_range[0], u_lo)
    errs.cmp("fit_range[1]", fit_range[1], u_hi)
    if -1.0 <= nu < 0.0:
        with mpmath.workdps(_DPS):
            base = (mpmath.exp(intercept) * mpmath.gamma(-nu)
                    / (m * (1 - mpmath.mpf(theta)) ** (-nu)))
            errs.cmp("alpha_hat", res.get("alpha_hat"), 2 * base ** (-1 / (2 * mpmath.mpf(nu))))
    return errs.max


def check_gof(text: str, *, data: str, nu: float, alpha: float,
              min_expected: float = 5.0) -> float:
    """Bins, statistic and p-value against the data CSV, a Bessel sum and scipy."""
    doc = _load(text, "gof", dict(data=data, nu=nu, alpha=alpha, truncated=False,
                                  min_expected=min_expected))
    res = doc["result"]
    js, counts = read_table(data)
    theta = _check_theta(res, doc["config"], nu, alpha, js, counts)
    _expect(res.get("fitted_params") == 1, "theta is estimated, so one fitted parameter")
    bins = _parse_bins(res.get("bins"), first=0)
    _expect(bins[-1][0] <= js[-1], "open bin starts beyond the largest count")
    for lo, hi, obs, _ in bins:
        sel = (js >= lo) if hi is None else ((js >= lo) & (js <= hi))
        _expect(obs == int(counts[sel].sum()), f"observed count of bin at {lo} is {obs}")
    f = gigp_pmf(nu, alpha, theta, int(js[-1]))
    errs = _Errors()
    _check_pearson(errs, res, bins, f.__getitem__, int(counts.sum()), 1, min_expected)
    return errs.max


def check_chaotic(text: str, *, nu: float, alpha: float, theta: float, m: int,
                  x0: float, replicates: int, seed: int) -> float:
    """lambda against a direct Bessel sum, the bins against Poisson(lambda)."""
    doc = _load(text, "chaotic", dict(nu=nu, alpha=alpha, theta=theta, m=m, x0=x0,
                                      replicates=replicates, seed=seed,
                                      fit_lambda=False, min_expected=5.0,
                                      truncated=False))
    errs = _Errors()
    _check_scaling(errs, doc["config"], nu, alpha, theta, m, "chaotic")
    res = doc["result"]
    with mpmath.workdps(_DPS):
        j0 = int(mpmath.ceil(-x0 / mpmath.log(mpmath.mpf(theta))))
        f = gigp_pmf(nu, alpha, theta, j0)
        lam = m * (1 - mpmath.fsum(f[:j0]))
        errs.cmp("lambda", res.get("lambda"), lam)
        errs.cmp("tv_bound", res.get("tv_bound"), lam * lam / m)
        bins = _parse_bins(res.get("bins"), first=0)
        _check_pearson(errs, res, bins,
                       lambda k: mpmath.exp(-lam) * lam ** k / mpmath.factorial(k),
                       replicates, 0, 5.0)
    return errs.max

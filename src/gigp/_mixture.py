"""GIGP draws as a GIG mixture of Poissons, for alpha > 0 past the pmf
table's support cap: X ~ Poisson(Lambda), Lambda ~ GIG. The table serves
every other draw, so a process imports this module only when a table
cannot be built.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# a GIG rejection round draws need // 4 + 8 spare candidates beyond the
# need values still missing
_GIG_SPARE_DIV, _GIG_SPARE_MIN = 4, 8


@functools.lru_cache(maxsize=64)
def _gig_envelope(p: float, a: float, b: float) -> tuple[float, ...]:
    """Devroye's envelope for GIG(p, a, b), set up once per triple.

    Returns (lam, alpha_d, q, td, sd, rr, pp, u_mid, u_right, sign, scale).
    The candidate x is -sd + q v on the flat middle piece [-sd, td] when
    u < u_mid, td - rr log v on the right tail when u < u_right, and
    -sd + pp log v on the left tail; an accepted x maps to the variate
    exp(sign x) scale.
    """
    lam = abs(p)
    omega = math.sqrt(a * b)
    alpha_d = math.sqrt(omega * omega + lam * lam) - lam

    def psi(x):
        return -alpha_d * (math.cosh(x) - 1.0) - lam * (math.exp(x) - x - 1.0)

    def dpsi(x):
        return -alpha_d * math.sinh(x) - lam * (math.exp(x) - 1.0)

    x = -psi(1.0)
    if 0.5 <= x <= 2.0:
        t = 1.0
    elif x > 2.0:
        t = math.sqrt(2.0 / (alpha_d + lam))
    else:
        t = math.log(4.0 / (alpha_d + 2.0 * lam))
    x = -psi(-1.0)
    if 0.5 <= x <= 2.0:
        s = 1.0
    elif x > 2.0:
        s = math.sqrt(4.0 / (alpha_d * math.cosh(1.0) + lam))
    elif alpha_d == 0.0:
        s = 1.0 / lam
    elif lam == 0.0:
        s = math.log(1.0 + 1.0 / alpha_d + math.sqrt(1.0 / alpha_d ** 2 + 2.0 / alpha_d))
    else:
        s = min(1.0 / lam,
                math.log(1.0 + 1.0 / alpha_d + math.sqrt(1.0 / alpha_d ** 2 + 2.0 / alpha_d)))

    eta = -psi(t)
    zeta = -dpsi(t)
    theta_d = -psi(-s)
    xi = dpsi(-s)
    pp = 1.0 / xi
    rr = 1.0 / zeta
    td = t - rr * eta
    sd = s - pp * theta_d
    q = td + sd
    total = pp + q + rr
    # the mode-centred variate is exp(x) c; p < 0 takes its reciprocal
    c = lam / omega + math.sqrt(1.0 + (lam / omega) ** 2)
    scale = c / math.sqrt(a / b) if p >= 0 else 1.0 / (c * math.sqrt(a / b))
    return (lam, alpha_d, q, td, sd, rr, pp, q / total, (q + rr) / total,
            -1.0 if p < 0 else 1.0, scale)


def _gig_rvs(rng: np.random.Generator, p: float, a: float, b: float,
             size: int) -> np.ndarray:
    """GIG(p, a, b) variates, density ~ x^(p-1) exp(-(a x + b / x) / 2).

    Devroye's rejection scheme for the two-parameter version, a, b > 0.
    Each round oversamples the need values still missing and keeps the
    first need accepted candidates, in order: accepted candidates are iid
    from the target whatever their count, so stopping at need does not
    bias them, and at acceptance rates of 0.85-0.90 one round nearly
    always fills the batch.
    """
    lam, alpha_d, q, td, sd, rr, pp, u_mid, u_right, sign, scale = _gig_envelope(p, a, b)
    out = np.empty(size)
    filled = 0
    while filled < size:
        need = size - filled
        u, v, w = rng.random((3, need + need // _GIG_SPARE_DIV + _GIG_SPARE_MIN))
        logv = np.log(v)
        mid = u < u_mid
        x = np.where(mid, q * v - sd,
                     np.where(u < u_right, td - rr * logv, pp * logv - sd))
        # the envelope is 1 on the middle piece, and on either tail its
        # value at the candidate drawn from v is v itself
        bound = np.where(mid, w, w * v)
        psi = -alpha_d * (np.cosh(x) - 1.0) - lam * (np.exp(x) - x - 1.0)
        got = x[bound <= np.exp(psi)][:need]
        out[filled:filled + got.size] = got
        filled += got.size
    out *= sign
    np.exp(out, out=out)
    out *= scale
    return out


def _sample_mixture(params, rng: np.random.Generator, count: int) -> np.ndarray:
    """count draws X ~ Poisson(Lambda), Lambda ~ GIG, for alpha > 0."""
    nu, alpha, theta = params.nu, params.alpha, params.theta
    a = 2.0 * (1.0 - theta) / theta
    b = 0.5 * alpha * alpha * theta
    if not math.isfinite(b):
        raise ValueError("alpha is too large to sample: the GIG parameter "
                         "alpha^2 theta / 2 overflows")
    lam = _gig_rvs(rng, nu, a, b, count)
    values = rng.poisson(lam)
    if params.zero_truncated:
        # condition on X >= 1 by redrawing the (lambda, X) pairs that hit zero
        pending = np.flatnonzero(values == 0)
        while pending.size:
            lam = _gig_rvs(rng, nu, a, b, pending.size)
            redraw = rng.poisson(lam)
            values[pending] = redraw
            pending = pending[redraw == 0]
    return values

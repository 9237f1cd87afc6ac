"""Kernel accuracy record: gigp.specfun against mpmath on a fixed grid.

The grid holds the boundary points the numerics are known to find hard:
nu = +-1e-10, +-1e-8, -1/2 and -1, x on both sides of 1, and large
orders. Points whose true value is below 1e-300 are left out, because the
kernels return 0 there by design. A kernel that raises on a grid point is
scored as relative error 1.
"""

from __future__ import annotations

import math

import mpmath

_DPS = 40
_TINY = mpmath.mpf(10) ** -300

_SMALL_NU = [1e-10, -1e-10, 1e-8, -1e-8, 1e-4, -1e-4]
_X = [1e-3, 0.1, 0.5, 0.9, 0.999, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.001, 1.1,
      1.9, 2.0, 2.1, 5.0, 10.0, 30.0, 100.0, 300.0]

GRIDS = {
    # log K_nu(z); the error is that of K itself, |exp(got - true) - 1|
    "log_bessel_k": ([0.0] + _SMALL_NU + [0.25, 0.5, -0.5, -1.0, 1.0, 2.5, 10.0,
                                          50.0, 200.0, 1000.0, 5000.0], _X),
    "upper_incomplete_gamma": (_SMALL_NU + [0.0, -1.0, -0.75, -0.5, -0.25, 0.25,
                                            0.5, 1.0, 2.5, 10.0, 50.0, 150.0], _X),
    "regularized_gamma_q": ([1e-10, 1e-8, 1e-4, 0.25, 0.5, 1.0, 2.5, 6.0, 10.0,
                             50.0, 200.0, 1000.0, 1e4], _X + [1e3, 1e4]),
}


# the item-4 defects of the roadmap, reported point by point
PROBES = {
    "upper_incomplete_gamma": [(1e-10, 1.0), (1e-8, 1.0), (-1e-10, 1.0)],
}


def _oracle(kernel: str, nu: float, x: float):
    if kernel == "log_bessel_k":
        return mpmath.log(mpmath.besselk(nu, x))
    if kernel == "upper_incomplete_gamma":
        return mpmath.gammainc(nu, x)
    return mpmath.gammainc(nu, x, regularized=True)


def _relerr(kernel: str, got: float, want) -> float:
    if kernel == "log_bessel_k":
        return float(abs(mpmath.expm1(mpmath.mpf(got) - want)))
    return float(abs((mpmath.mpf(got) - want) / want))


def _error(kernel: str, fn, nu: float, x: float, want) -> float:
    try:
        got = fn(nu, x)
    except (ArithmeticError, ValueError, RuntimeError):
        return 1.0
    return _relerr(kernel, got, want) if math.isfinite(got) else 1.0


def accuracy_record(specfun) -> dict:
    """{kernel: {"relerr_max", "worst_at", "points", "probes"}}; kernels missing
    from the module are left out."""
    out = {}
    with mpmath.workdps(_DPS):
        for kernel, (nus, xs) in GRIDS.items():
            fn = getattr(specfun, kernel, None)
            if fn is None:
                continue
            worst, worst_at, points = 0.0, None, 0
            for nu in nus:
                for x in xs:
                    want = _oracle(kernel, nu, x)
                    if kernel != "log_bessel_k" and abs(want) < _TINY:
                        continue
                    points += 1
                    err = _error(kernel, fn, nu, x, want)
                    if err > worst:
                        worst, worst_at = err, [nu, x]
            probes = {f"{nu!r},{x!r}": _error(kernel, fn, nu, x, _oracle(kernel, nu, x))
                      for nu, x in PROBES.get(kernel, [])}
            out[kernel] = {"relerr_max": worst, "worst_at": worst_at,
                           "points": points, "probes": probes}
    return out

"""The generalized inverse Gaussian-Poisson (GIGP) count distribution.

Parameters are (nu, alpha, theta) with nu >= -1, alpha >= 0 and
0 < theta < 1. For alpha > 0 the pmf is

    f_j = (1-theta)^(nu/2) / K_nu(alpha sqrt(1-theta))
          * (alpha theta / 2)^j / j! * K_(nu+j)(alpha)

and zero truncation divides the j >= 1 masses by 1 - f_0. At alpha = 0
the family degenerates: nu > 0 gives the negative binomial, nu = 0 the
Fisher log-series and -1 < nu < 0 an extended negative binomial, the
last two existing only in zero-truncated form. The corner nu = -1,
alpha = 0 is excluded.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import diagram
from .specfun import bessel_k_ratio, log_bessel_k

_LOG_TAIL_EPS = math.log(1e-15)
_MAX_SUPPORT = 100_000_000
# the pmf table is made and read in blocks of _BLOCK orders (see _Tables)
_BLOCK = 4_096
_J_WINDOW = 12  # forward steps that settle a crude Bessel ratio seed


@dataclass(frozen=True)
class GigpParams:
    nu: float
    alpha: float
    theta: float
    zero_truncated: bool = False

    def __post_init__(self):
        # reals of any type (numpy scalars, say) become floats; validate rejects the rest
        for name in ("nu", "alpha", "theta"):
            if isinstance(getattr(self, name), numbers.Real):
                object.__setattr__(self, name, float(getattr(self, name)))


def validate(params: GigpParams) -> GigpParams:
    """Check the parameter domain and return the params unchanged."""
    nu, alpha, theta = params.nu, params.alpha, params.theta
    for name, value in (("nu", nu), ("alpha", alpha), ("theta", theta)):
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            raise ValueError(f"{name} must be a finite number")
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    if alpha < 0.0:
        raise ValueError("alpha must be >= 0")
    if nu < -1.0:
        raise ValueError("nu must be >= -1")
    if nu == -1.0 and alpha == 0.0:
        raise ValueError("the corner nu = -1, alpha = 0 is excluded")
    if alpha == 0.0 and nu <= 0.0 and not params.zero_truncated:
        raise ValueError("alpha = 0 with nu <= 0 exists only zero-truncated")
    return params


def _check_mean_domain(params: GigpParams) -> None:
    """validate(), with the nu >= -1 floor lifted when alpha > 0, so the
    heavy-mixing diagnostics of the mean can be exercised."""
    if params.alpha > 0.0 and -math.inf < params.nu < -1.0:
        params = replace(params, nu=-1.0)
    validate(params)


class _Tables:
    """The pmf table for one parameter triple (post truncation), read only
    through ccdf, log_f, gof_probs and draw. It runs to the cut jmax that
    the params fix; log_f_cut is log f_jmax and tail the geometric mass past jmax.

    Block 0 holds j = 0, ..., _BLOCK and block b > 0 holds j in (b _BLOCK,
    (b + 1) _BLOCK], in log f and in the two columns, cum and sf; cum ends
    in +inf and sf in the 0 at jmax + 1. The build keeps, per block, the cum
    just below it and the suffix sum just past it, both running sums of the
    block masses, and block 0's columns as cum and sf. Each read of a later
    block makes its columns again from its span of log f and its two
    carries, and keeps none. log f is not kept either: a read makes the
    blocks of log f that its span meets again, each from its block's mark
    (see _log_blocks). So what a table holds is fixed at its build: head,
    marks, carries and block 0."""

    __slots__ = ("nu", "alpha", "log_theta", "j0", "log_f0", "head", "log_norm_low", "marks",
                 "jmax", "log_f_cut", "tail", "below", "past", "cum", "sf")

    def __init__(self, params: GigpParams):
        nu, theta = params.nu, params.theta
        j0, log_f0, log_tail_const, _ = _family_head(params)

        # the cut is the first j >= cut_from with f_j < e^-40 and the tail
        # asymptote below 1e-15, both relative to the table's total. For nu > 1
        # the asymptote rises up to the mass at j = (nu - 1) A, A = -1 / log(theta),
        # so the search starts there. Give up before building when no j up to the
        # cap can have it: the asymptote is decreasing (nu <= 1) or concave
        # (nu > 1), so least at an end, and the total is at most 1 (_family_head)
        cut_from = max(16, math.ceil(min((1.0 - nu) / math.log(theta), _MAX_SUPPORT + 1.0)))
        ends = np.array([cut_from, _MAX_SUPPORT])
        if (cut_from > _MAX_SUPPORT
                or _log_tail(ends, log_tail_const, nu, theta).min() >= _LOG_TAIL_EPS):
            raise RuntimeError("pmf support cutoff not reached")
        # what log f is made from; the build below sets the rest
        self.nu, self.alpha, self.log_theta = nu, params.alpha, math.log(theta)
        self.j0, self.log_f0 = j0, log_f0
        # log f_j for j <= j0; zero truncation leaves f_0 no mass
        self.head = np.full(j0 + 1, -math.inf)
        self.head[j0] = log_f0
        if params.zero_truncated:
            self.head[0] = -math.inf
        self.log_norm_low = 0.0  # see below
        self.marks = [(0.0, bessel_k_ratio(self.nu, self.alpha) if self.alpha else None)]

        # each block of log f becomes f once and is summed once; only its mass is
        # kept. The cut test reads against the running total, which only grows,
        # so the cut can come late but never early, and none comes before any mass
        masses, total, last = [], 0.0, 0.0
        with np.errstate(under="ignore"):
            for first, block in self._log_blocks(0):
                f = np.exp(block)
                mass = float(np.sum(f))
                log_total = math.log(total + mass) if total + mass else -math.inf
                k0 = max(cut_from - first, 0)
                j = np.flatnonzero(block[k0:] < log_total - 40.0) + (first + k0)
                hit = np.flatnonzero(_log_tail(j, log_tail_const, nu, theta)
                                     < log_total + _LOG_TAIL_EPS)
                if hit.size:
                    break
                masses.append(mass)
                total += mass
                last = float(f[-1])
            else:
                raise RuntimeError("pmf support cutoff not reached")
            self.jmax = int(j[hit[0]])
            f = f[:self.jmax + 1 - first]
            masses.append(float(np.sum(f)))
            total += masses[-1]
            tail = _geometric_tail(np.append(last, f[-2:]))
            # a zero-truncated table divides by its own total, the block masses
            # plus the tail past the cut: log f_(j0) takes its log, and each block
            # takes off, after its sums, what that rounding left (up to 1.8e-12
            # where |log f_(j0)| ~ 2e4)
            norm = total + tail if params.zero_truncated else 1.0
            log_norm = math.log(norm)
            self.log_f0 = log_f0 - log_norm
            self.head -= log_norm
            self.log_norm_low = math.fsum([log_norm, self.log_f0, -log_f0])
            self.log_f_cut = float(block[self.jmax - first]) - log_norm
            self.tail = tail / norm
            # per block two carries: the cum just below it and the suffix sum
            # just past it, summed from the cut down
            m = np.array(masses) / norm
            self.below = np.cumsum(np.append(0.0, m[:-1]))
            self.past = np.append(np.cumsum(m[:0:-1])[::-1], 0.0)
        self.cum, self.sf = self._block(0)

    def _log_blocks(self, b: int):
        """Yield (first, block) for block b on: block[k] is log f_j at j = first
        + k, the head at j <= j0 and past it log f_(j0) + (j - j0) log(theta) +
        sum_(j0 <= i < j) s_i, summed from lo = max(b _BLOCK, j0) to (b + 1)
        _BLOCK or the cap, less log_norm_low. marks[b] is block b's mark, once
        a pass has reached it: the sum at lo and the Bessel ratio r_(lo-1)
        (r_0 at block 0, None for alpha = 0); a block appends the next block's
        mark when first made. A run from any mark gives the same values bit
        for bit."""
        j0 = self.j0
        while b * _BLOCK < _MAX_SUPPORT:
            lo, hi = max(b * _BLOCK, j0), min((b + 1) * _BLOCK, _MAX_SUPPORT)
            acc, r = self.marks[b]
            block, r = _log_steps(self.nu, self.alpha, lo, hi, r)
            block[0] += acc
            np.cumsum(block, out=block)
            if b + 1 == len(self.marks):
                self.marks.append((float(block[-1]), r))
            lin = np.arange(lo + 1 - j0, hi + 1 - j0, dtype=float)
            lin *= self.log_theta
            lin += self.log_f0
            block += lin
            if not b:
                block = np.concatenate([self.head, block])
            block -= self.log_norm_low
            yield _first(b), block
            b += 1

    def _span(self, lo: int, end: int) -> np.ndarray:
        """log f_lo, ..., log f_end, from the blocks from the one that holds
        lo, or from the last one reached if that is below it; past the cap it
        raises."""
        if end > _MAX_SUPPORT:
            raise RuntimeError("pmf support cutoff not reached")
        pieces, b = [], min(max(lo - 1, 0) // _BLOCK, len(self.marks) - 1)
        for first, block in self._log_blocks(b):
            last = first + len(block)
            if last > lo:
                pieces.append(block[max(lo - first, 0):end + 1 - first])
            if last > end:
                break
        return np.concatenate(pieces)

    def _block(self, b: int) -> tuple[np.ndarray, np.ndarray]:
        """Block b's (cum, sf), made from its span of log f and its two
        carries; the caller keeps them or not. P(X >= j) = 1 exactly up to
        the first j with mass."""
        end = b + 1 == len(self.below)
        with np.errstate(under="ignore"):
            f = np.exp(self._span(_first(b), min((b + 1) * _BLOCK, self.jmax)))
        sf = _suffix(f, self.past[b], self.tail, end)
        cum = np.cumsum(np.append(self.below[b], f))[1:]
        if not self.below[b]:
            sf[:cum.searchsorted(0.0, side="right") + 1] = 1.0
        if end:
            cum[-1] = math.inf
        return cum, sf

    def ccdf(self, j: np.ndarray) -> np.ndarray:
        """P(X >= j) at a flat array of whole numbers j >= 0; see ccdf()."""
        span = -16.0 / self.log_theta
        step = math.ceil(span)
        # past the cut f_j falls ~theta a step, so from where f at x + 16 A
        # underflows, and from the cap on, ccdf reads 0
        stop = min(self.jmax - span + (745.0 + self.log_f_cut) / -self.log_theta, _MAX_SUPPORT)
        # up to the first j with mass it reads sf, which is 1 there
        first = int(self.cum.searchsorted(0.0, side="right"))
        is_near = (j > max(self.jmax - span, first)) & (j < stop)
        # where the near-cut sums below do not replace the value, it is read
        # in its block's sf, past jmax in the 0 that ends the last block's
        k = np.minimum(j, self.jmax + 1).astype(np.intp)
        out = np.empty(len(j))
        far = np.flatnonzero(~is_near)
        firsts = np.arange(_BLOCK + 1, self.jmax + 1, _BLOCK)
        for b, at, kb in _by_block(far, k[far], firsts):
            out[at] = (self._block(b)[1] if b else self.sf)[kb - _first(b)]
        near = np.flatnonzero(is_near)
        ends = np.minimum(self.jmax + np.ceil((j[near] + span - self.jmax) / step) * step,
                          _MAX_SUPPORT)
        # one suffix-sum pass per grid end (np.unique would import numpy.ma, ~1 MB)
        for end in set(ends.astype(int).tolist()):
            at = near[ends == end]
            lo = int(j[at].min())
            with np.errstate(under="ignore"):
                f = np.exp(self._span(lo, end))
            out[at] = _suffix(f, 0.0, _geometric_tail(f))[j[at].astype(np.intp) - lo]
        return out

    def log_f(self, js: np.ndarray) -> np.ndarray:
        """log f at an integer array js >= 0, from one span over its range;
        past the support cap it raises."""
        end = int(js.max(initial=0))
        lo = int(js.min(initial=end))
        return self._span(lo, end)[js - lo]

    def gof_probs(self, j_lo: int, j_hi: int) -> np.ndarray:
        """gof's bin probabilities P(X = j) for j_lo <= j < end, then P(X >= end),
        where end is the first j past the cut at which the pmf is 0.0, or j_hi
        if that comes first. Past the cut f only falls, so every later pmf,
        and the ccdf from end, is 0.0 too."""
        pieces, end = [], j_hi
        with np.errstate(under="ignore"):
            for first, block in self._log_blocks(0):
                lo = max(j_lo, first)
                f = np.exp(block[lo - first:])
                zero = np.flatnonzero(f[max(self.jmax + 1 - lo, 0):] == 0.0)
                if zero.size:
                    end = min(end, max(self.jmax + 1, lo) + int(zero[0]))
                pieces.append(f[:end - lo])
                if lo + len(f) >= end:
                    break
            else:
                raise RuntimeError("pmf support cutoff not reached")
        return np.append(np.concatenate(pieces), self.ccdf(np.array([float(end)])))

    def draw(self, u: np.ndarray, blocks: dict | None = None) -> np.ndarray:
        """The inverse cdf at uniforms u in [0, 1): one search in block 0's cum
        (the ndarray method skips np.searchsorted's dispatch, ~2 us a call), then
        one in the cum of the block whose carries bracket u, kept in blocks if given."""
        out = self.cum.searchsorted(u, side="right")
        if self.jmax > _BLOCK:
            far = np.flatnonzero(out > _BLOCK)
            for b, at, ub in _by_block(far, u[far], self.below[1:]):
                cum = self._block(b)[0] if blocks is None or b not in blocks else blocks[b]
                if blocks is not None:
                    blocks[b] = cum
                out[at] = cum.searchsorted(ub, side="right") + _first(b)
        return out


def _bessel_ratios(nu: float, alpha: float, j: np.ndarray, r_prev: float) -> np.ndarray:
    """r_j = K_(nu+j+1)(alpha) / K_(nu+j)(alpha) at the consecutive orders j.

    The forward recurrence r_j = 2 (nu+j)/alpha + 1/r_(j-1) shrinks an
    error in r_(j-1) by 1/r_(j-1)^2, and r_(j-1) > 2 (nu+j-1)/alpha. So
    from _J_WINDOW steps past the order where nu + j >= 4 alpha, every r_j
    is reached, bit for bit as the sequential loop gives it, from the crude
    seed 2 (nu+j-w)/alpha at j - w, one whole-array pass per step. The
    window w is sized by the first such order j_1 in j: with r_min =
    2 (nu+j_1-_J_WINDOW) / alpha, w = ceil(36 ln 2 / ln r_min) steps,
    between 2 and _J_WINDOW, shrink the seed's error by at least 2^-72, as
    _J_WINDOW steps at r_min = 8 do. Below that order the scalar loop runs,
    on from r_prev = r_(j[0]-1) (r_0 at j[0] = 0).
    """
    r = np.empty_like(j)
    lo, hi = int(j[0]), int(j[-1]) + 1
    # r_(hi-1), the largest ratio, is 2 (nu+hi-1)/alpha to rounding, as the
    # loops form it; past the float range the pmf steps would read inf and NaN
    if not math.isfinite(2.0 * ((hi - 1) + nu) / alpha):
        raise OverflowError("the pmf's Bessel ratios are out of floating-point range "
                            "at these parameters")
    j_first = math.ceil(4.0 * alpha - nu)
    if nu + j_first <= 0.0:
        # 4 alpha - nu rounded to the integer -nu, where the order is 0, not 4 alpha
        j_first += 1
    j_star = max(j_first + _J_WINDOW, lo)
    if lo < j_star:
        k0, head = max(lo - 1, 0), [r_prev]
        for k in range(k0 + 1, min(hi, j_star)):
            head.append(2.0 * (nu + k) / alpha + 1.0 / head[-1])
        r[:j_star - lo] = head[lo - k0:]
    tail, jt = r[j_star - lo:], j[j_star - lo:]
    if tail.size:
        r_min = 2.0 * (nu + j_star - _J_WINDOW) / alpha
        w = min(_J_WINDOW, max(2, math.ceil(36.0 * math.log(2.0) / math.log(r_min))))
        step = np.empty_like(jt)
        np.subtract(jt, w - nu, out=tail)
        tail *= 2.0 / alpha
        for k in range(w - 1, -1, -1):
            np.subtract(jt, k, out=step)
            step += nu
            step *= 2.0
            step /= alpha
            np.reciprocal(tail, out=tail)
            tail += step
    return r


def _log_steps(nu: float, alpha: float, lo: int, hi: int, r_prev: float | None
               ) -> tuple[np.ndarray, float | None]:
    """s_j = log(f_(j+1) / (theta f_j)) for lo <= j < hi, and for alpha > 0
    the Bessel ratio r_(hi-1) that the steps from hi on continue from.

    This is the O(1/j) part of each log-pmf step: log((nu+j)/(j+1)) at
    alpha = 0, log(alpha r_j / (2 (j+1))) with the Bessel ratio r_j
    otherwise, on from r_prev = r_(lo-1) as in _bessel_ratios. Summing only
    these keeps the running sum small; the linear j log(theta) part is
    added per index.
    """
    j = np.arange(lo, hi, dtype=float)
    if alpha > 0.0:
        s = _bessel_ratios(nu, alpha, j, r_prev)
        r_prev = float(s[-1])
        s *= 0.5 * alpha
    else:
        s = j + nu
    j += 1.0
    s /= j
    # at nu < -0.5 and a tiny alpha, s_0 can underflow to 0: log f_1 is -inf
    with np.errstate(divide="ignore"):
        return np.log(s, out=s), r_prev


def _log_tail(j: np.ndarray, log_tail_const: float, nu: float, theta: float) -> np.ndarray:
    """log of the tail asymptote sum_(i >= j) c i^(nu-1) theta^i ~ c j^(nu-1) theta^j
    / (1 - theta) at the integers j: convex and decreasing in j for nu <= 1,
    concave for nu > 1."""
    return (log_tail_const + (nu - 1.0) * np.log(j)
            + j * math.log(theta) - math.log1p(-theta))


def _family_head(params: GigpParams) -> tuple[int, float, float, float]:
    """Each family's first supported index j0, log f_(j0) and log c of the tail
    asymptote f_j ~ c j^(nu-1) theta^j, all before zero truncation, and the
    log f_0 that truncation leaves out. The log-series f_j = theta^j / (j L),
    L = -log(1 - theta), which exists only truncated, comes normalized, with
    log f_0 = -inf. Before truncation these tables sum to at most 1."""
    nu, alpha, theta = params.nu, params.alpha, params.theta
    log_theta, log1m = math.log(theta), math.log1p(-theta)
    if alpha > 0.0:
        logk_small = log_bessel_k(nu, alpha * math.sqrt(1.0 - theta))
        log_p0 = 0.5 * nu * log1m + log_bessel_k(nu, alpha) - logk_small
        return (0, log_p0, 0.5 * nu * log1m - nu * math.log(0.5 * alpha)
                - math.log(2.0) - logk_small, log_p0)
    if nu == 0.0:
        log_l = math.log(-log1m)
        return 1, log_theta - log_l, -log_l, -math.inf
    if nu > 0.0:
        log_p0 = nu * log1m
        log_c = log_p0 - math.lgamma(nu)
        return ((1, math.log(nu) + log_p0 + log_theta, log_c, log_p0) if params.zero_truncated
                else (0, log_p0, log_c, log_p0))
    return 1, math.log(-nu) + log_theta, math.log(-nu) - math.lgamma(nu + 1.0), -nu * log1m


def _log_norm(params: GigpParams) -> float:
    """log(1 - f_0) in closed form, 0 untruncated; the table divides by its own total."""
    return math.log(-math.expm1(_family_head(params)[3])) if params.zero_truncated else 0.0


def _geometric_tail(f: np.ndarray) -> float:
    """The mass past the last f: a geometric series at the last ratio f_J / f_(J-1)."""
    r = f[-1] / f[-2] if 0.0 < f[-1] < f[-2] else 0.0
    return f[-1] * r / (1.0 - r)


def _first(b: int) -> int:
    """The first j of block b."""
    return b * _BLOCK + (b > 0)


def _suffix(f: np.ndarray, past: float, tail: float, end: bool = False) -> np.ndarray:
    """The suffix sums of f on from past, the suffix sum just after it, plus
    tail, the mass past the table; they take the smallest terms first. end
    appends the 0 past the table."""
    n = len(f)
    sf = np.zeros(n + end)
    sf[:n] = f
    sf[n - 1] += past
    np.cumsum(sf[n - 1::-1], out=sf[n - 1::-1])
    sf[:n] += tail
    return sf


def _by_block(at: np.ndarray, keys: np.ndarray, bounds: np.ndarray):
    """(b, at, keys) for each block b that keys reach, where block b takes
    keys in [bounds[b - 1], bounds[b]), in block order (a stable sort leaves
    sorted keys as they are)."""
    if not keys.size:
        return
    order = keys.argsort(kind="stable")
    at, keys = at[order], keys[order]
    # block b's keys are keys[cuts[b]:cuts[b + 1]]; the loop meets only the
    # blocks they reach, and no array is as long as keys
    cuts = np.empty(bounds.size + 2, np.intp)
    cuts[0], cuts[-1] = 0, keys.size
    cuts[1:-1] = keys.searchsorted(bounds, side="left")
    for b in np.flatnonzero(cuts[:-1] < cuts[1:]).tolist():
        lo, hi = cuts[b:b + 2].tolist()
        yield b, at[lo:hi], keys[lo:hi]


def _build_tables(params: GigpParams) -> _Tables:
    """A table build, under a module name that _tables looks up at each call."""
    return _Tables(params)


# the 64 most recently read tables; a failed build is not kept
@functools.lru_cache(maxsize=64)
def _tables(params: GigpParams) -> _Tables:
    return _build_tables(params)


def pmf(params: GigpParams, j):
    """P(X = j) = exp(log P(X = j)), for j as in log_pmf."""
    with np.errstate(under="ignore"):
        out = np.exp(log_pmf(params, j))
    return float(out) if out.ndim == 0 else out


def log_pmf(params: GigpParams, j):
    """log P(X = j), finite for every j in the support, for an integer j or
    an array of them from one table read. The table makes log f again over
    the range of j read, past its cut too, and past the support cap it
    raises."""
    validate(params)
    js = np.asarray(j)
    if js.dtype.kind == "f":
        ok = np.all(np.isfinite(js) & (js == np.floor(js)) & (js >= 0))
    else:
        ok = js.dtype.kind in "iu" and np.all(js >= 0)
    if not ok:
        raise ValueError("j must be a nonnegative integer")
    if params.zero_truncated and np.any(js == 0):
        raise ValueError("j = 0 has no mass under zero truncation")
    out = _tables(params).log_f(js.astype(np.intp))
    return float(out) if out.ndim == 0 else out


def ccdf(params: GigpParams, x):
    """Upper tail F-bar(x) = P(X >= x) = 1 - sum_{j < x} f_j.

    x is a number, which gives a float, or an array of them, which gives an
    array of the same shape; a value depends only on params and x. Where
    x + 16 A <= jmax it is the table's suffix sum. Nearer the cut or past it,
    it sums the pmf from x to the first end jmax + k ceil(16 A), k >= 1, at
    or past x + 16 A, and adds the geometric tail past that end (~e^-16 of
    the value). From the support cap on, and where f_j underflows, it is 0.
    """
    validate(params)
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise ValueError("x must be finite")
    j = np.maximum(np.ceil(xs), 0.0).ravel()
    out = _tables(params).ccdf(j).reshape(xs.shape)
    return float(out) if out.ndim == 0 else out


def mean_exact(params: GigpParams) -> float:
    """E[X], or the zero-truncated mean when the params say so.

    Unlike validate(), nu < -1 is allowed here when alpha > 0 so that
    the saturation of the mean under heavy mixing can be inspected.
    """
    nu, alpha, theta = params.nu, params.alpha, params.theta
    _check_mean_domain(params)
    if alpha > 0.0:
        root = math.sqrt(1.0 - theta)
        eta = 0.5 * alpha * theta / root * bessel_k_ratio(nu, alpha * root)
    elif nu > 0.0:
        eta = nu * theta / (1.0 - theta)
    elif nu == 0.0:
        return theta / ((1.0 - theta) * (-math.log1p(-theta)))
    else:
        eta = (-nu) * theta * math.pow(1.0 - theta, -nu - 1.0)
    return eta / math.exp(_log_norm(params))


def mean_asymptotic(params: GigpParams) -> float:
    """Leading term of the mean as theta -> 1, by the five regimes of nu."""
    nu, alpha, theta = params.nu, params.alpha, params.theta
    _check_mean_domain(params)
    u = 1.0 - theta
    if nu > 0.0:
        return nu / u
    if nu == 0.0:
        return 1.0 / (u * (-math.log(u)))
    if nu > -1.0:
        if alpha == 0.0:
            return (-nu) * math.pow(u, -nu - 1.0)
        return (math.gamma(nu + 1.0) * math.pow(0.5 * alpha, -2.0 * nu)
                / (math.gamma(-nu) * math.pow(u, nu + 1.0)))
    if nu == -1.0:
        return (0.5 * alpha) ** 2 * (-math.log(u))
    return (0.5 * alpha) ** 2 / (-nu - 1.0)


def _theta_seed(nu: float, alpha: float, eta: float) -> float:
    """Closed-form inverse of the asymptotic mean; returns u = 1 - theta."""
    if nu > 0.0:
        return nu / eta
    if nu == 0.0:
        return 1.0 / (eta * math.log(eta)) if eta > 2.0 else 0.5
    if nu > -1.0:
        if alpha == 0.0:
            return math.pow((-nu) / eta, 1.0 / (nu + 1.0))
        c = math.gamma(nu + 1.0) * math.pow(0.5 * alpha, -2.0 * nu) / math.gamma(-nu)
        try:
            return math.pow(c / eta, 1.0 / (nu + 1.0))
        except OverflowError:
            # the exponent grows without bound as nu -> -1; theta_from_mean
            # clamps an infinite seed to its largest u
            return math.inf
    # where alpha^2 underflows the seed is its limit 0, which theta_from_mean
    # clamps to its smallest u
    alpha2 = alpha * alpha
    return math.exp(-4.0 * eta / alpha2) if alpha2 else 0.0


def resolve_truncation(nu: float, alpha: float, zero_truncated: bool | None) -> bool:
    """zero_truncated, or when it is None the default: truncated exactly for
    the alpha = 0 families with nu <= 0, which exist only zero-truncated."""
    if zero_truncated is None:
        return alpha == 0.0 and nu <= 0.0
    return zero_truncated


def theta_from_mean(nu: float, alpha: float, eta_target: float,
                    zero_truncated: bool | None = None) -> float:
    """Solve mean_exact = eta_target for theta at fixed nu, alpha.

    Bisection on u = 1 - theta, seeded by the closed-form asymptotic
    inverse. zero_truncated = None leaves it to resolve_truncation.
    """
    zero_truncated = resolve_truncation(nu, alpha, zero_truncated)
    # the model, at a stand-in theta; its nu and alpha come back as floats
    model = validate(GigpParams(nu, alpha, 0.5, zero_truncated))
    if not (math.isfinite(eta_target) and eta_target > 0.0):
        raise ValueError("eta_target must be positive and finite")
    nu, alpha, eta_target = model.nu, model.alpha, float(eta_target)
    if zero_truncated and eta_target <= 1.0:
        raise ValueError("a zero-truncated mean is always > 1")

    def mean_at(u: float) -> float:
        return mean_exact(GigpParams(nu, alpha, 1.0 - u, zero_truncated))

    u_min, u_max = 1e-14, 1.0 - 1e-14
    lo = hi = min(max(_theta_seed(nu, alpha, eta_target), u_min), u_max)
    # mean is decreasing in u; expand until the target is bracketed
    while mean_at(lo) < eta_target:
        if lo == u_min:
            raise ValueError("eta_target too large to invert")
        lo = max(lo * 0.01, u_min)
    while mean_at(hi) > eta_target:
        if hi == u_max:
            raise ValueError("eta_target below the reachable range")
        hi = min(hi * 100.0, u_max)
    # each step either returns or narrows [lo, hi] to fewer doubles, so it ends
    while True:
        mid = math.sqrt(lo * hi)
        if not lo < mid < hi:
            # no step can move the bracket, and between adjacent doubles of u
            # (or of theta = 1 - u) the mean may step by more than the
            # tolerance: take the end whose mean is nearer
            return 1.0 - min(lo, hi, key=lambda u: abs(mean_at(u) - eta_target))
        value = mean_at(mid)
        if abs(value - eta_target) <= 1e-9 * eta_target:
            return 1.0 - mid
        if value > eta_target:
            lo = mid
        else:
            hi = mid


def _sample_values_rng(params: GigpParams, rng: np.random.Generator, count: int,
                       ordered: bool = False, blocks: dict | None = None) -> np.ndarray:
    """count draws by inverse cdf on the cached pmf table; zero truncation
    is already in the table, whose f_0 is 0. ordered gives them sorted, from
    sorted uniforms, so the table reads its blocks in order; blocks is as in
    _Tables.draw."""
    t = _tables(params)
    u = rng.random(count)
    if ordered:
        u.sort()
    return t.draw(u, blocks)


def _rng(params: GigpParams, seed, count: int) -> np.random.Generator:
    """The generator for count draws from params, after checking both."""
    validate(params)
    if count < 1 or int(count) != count:
        raise ValueError("count must be a positive integer")
    return np.random.default_rng(seed)


def sample_values(params: GigpParams, seed, count: int) -> np.ndarray:
    """count iid draws as a flat integer array, in the order drawn."""
    return _sample_values_rng(params, _rng(params, seed, count), int(count))


def sample(params: GigpParams, seed, count: int) -> "diagram.FrequencyTable":
    """count iid draws aggregated into a frequency table: the draws of
    sample_values, made in increasing order, so the table is counted
    without a sort."""
    rng = _rng(params, seed, count)
    return diagram.table_from_sample(_sample_values_rng(params, rng, int(count), True))

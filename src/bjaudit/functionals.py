"""Best-approximation E-functionals and Lions-Peetre K-functionals.

For the couple (L^0, L^inf) on a discrete space everything reduces to scans
over hard truncations g_sigma (keep magnitudes above sigma, zero the rest):
the L^0 norm of a split piece only sees its support, so given a support S the
optimal remainder is f restricted to the complement, and optimizing over
supports collapses to thresholds.  One 2^n enumeration of the subset splits
(m, v) = (||f|_S||_0, ||f|_{S^c}||_inf) is kept beside the scans as an
independent check at small atom counts: E, K2 and K_inf all read it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, QuadratureError, UsageError
from .jsonutil import read_csv, require_unique_keys
from .measures import DiscreteMeasureSpace, SimpleFunction, _tie_groups
from .rearrange import _LOG_FLOAT_MAX, decreasing_rearrangement, eval_step

__all__ = [
    "e_functional_L0Linf",
    "e_exhaustive",
    "e_functional_trig",
    "load_trig_csv",
    "k2_functional",
    "kinf_functional",
    "k2_scalar",
    "k2_exhaustive",
    "kinf_exhaustive",
    "truncation_profile",
    "KEnvelope",
    "k_envelope",
    "interp_quasinorm",
]


def e_functional_L0Linf(
    f: SimpleFunction, sp: DiscreteMeasureSpace, t: float
) -> float:
    """E(t, f) for (L^0, L^inf): equals the rearrangement evaluated at t."""
    if not t > 0:
        raise DomainError(f"t must be positive, got {t!r}")
    return eval_step(decreasing_rearrangement(f, sp), t)


def e_functional_trig(coeffs: dict[int, complex], n: int) -> float:
    """Best L^2 approximation error by trigonometric polynomials of degree < n.

    By Parseval the optimal approximant keeps frequencies |k| < n, so the
    error is the l2 tail (sum_{|k| >= n} |c_k|^2)^(1/2).
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise DomainError(f"n must be an integer >= 1, got {n!r}")
    return _trig_errors(coeffs, [n])[0]


def _trig_errors(coeffs: dict[int, complex], ns) -> list[float]:
    """e_functional_trig at each n of an increasing sequence of n >= 1, in one pass.

    One running sum of |c_k|^2 goes from the largest |k| down; every k of
    one |k| is added before that |k|'s tail is read.  Raises NumericError
    where a square or the sum passes the float range.
    """
    terms = sorted(((abs(int(k)), v) for k, v in coeffs.items()), key=lambda kv: kv[0])
    errors = []
    tail = 0.0
    for n in reversed(ns):
        while terms and terms[-1][0] >= n:
            try:
                tail += abs(terms.pop()[1]) ** 2
            except OverflowError:
                tail = math.inf
        if tail == math.inf:
            raise NumericError(f"l2 tail of the coefficients overflows at n = {n}")
        errors.append(math.sqrt(tail))
    return errors[::-1]


_TRIG_CSV = {"k": "int", "re": "float", "im": "float"}


def load_trig_csv(path_or_text: str) -> dict[int, complex]:
    """Read Fourier coefficients from CSV rows `k,re,im` (header required).

    A header alone is the zero function: no coefficients.
    """
    rownums, (ks, re, im) = read_csv(path_or_text, "coefficient", _TRIG_CSV, empty_ok=True)
    require_unique_keys(rownums, ("k",), ks)
    return dict(zip(ks, map(complex, re.tolist(), im.tolist())))


def truncation_profile(
    f: SimpleFunction, sp: DiscreteMeasureSpace
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate pairs (m(sigma), sigma_bar) over the truncation family.

    m(sigma) is the measure where |f| > sigma and sigma_bar the sup of the
    remainder f - g_sigma.  Contains (||f||_0, 0) and (0, ||f||_inf).
    Raises NumericError where the weights on the support pass the float range.
    """
    ends, values = _tie_groups(f, sp)
    if ends.size and not math.isfinite(ends[-1]):
        raise NumericError("the weights on the support sum past the float range")
    # The mass strictly above the i-th lowest distinct magnitude is the end of
    # the group above it; f = 0 gives the single pair (0, 0).
    return np.concatenate([ends[::-1], [0.0]]), np.concatenate([[0.0], values[::-1]])


def _k_of(m: np.ndarray, tv: np.ndarray, kfunc: str) -> np.ndarray:
    """K's value at each split (m, t v): hypot(m, t v) for K2, max(m, t v) for K_inf."""
    return np.hypot(m, tv) if kfunc == "k2" else np.maximum(m, tv)


def _k_at(pairs_of, f: SimpleFunction, sp: DiscreteMeasureSpace, t: float, kfunc: str) -> float:
    """K(t, f): the min of _k_of over the split pairs (m, v) = pairs_of(f, sp).

    t is checked before the pairs are built.  A product t v past the float
    range is inf, which both combines keep and the min passes over, so its
    overflow is no warning.
    """
    if not t > 0:
        raise DomainError(f"t must be positive, got {t!r}")
    m, v = pairs_of(f, sp)
    with np.errstate(over="ignore"):
        return float(_k_of(m, t * v, kfunc).min())


def k2_functional(f: SimpleFunction, sp: DiscreteMeasureSpace, t: float) -> float:
    """K2(t,f) over (L^0,L^inf): min over truncations of sqrt(m^2 + t^2 v^2)."""
    return _k_at(truncation_profile, f, sp, t, "k2")


def kinf_functional(f: SimpleFunction, sp: DiscreteMeasureSpace, t: float) -> float:
    """K_inf(t,f): min over truncations of max(m, t*v)."""
    return _k_at(truncation_profile, f, sp, t, "kinf")


def k2_scalar(t: float, z_magnitude: float = 1.0) -> float:
    """Scalar-couple K2: z * t/sqrt(1+t^2)."""
    if not t > 0:
        raise DomainError(f"t must be positive, got {t!r}")
    if z_magnitude < 0:
        raise DomainError("z_magnitude must be >= 0")
    return z_magnitude * t / math.sqrt(1.0 + t * t)


# The largest atom count the 2^n exhaustive oracles accept.
_EXHAUSTIVE_N_MAX = 20


def _subset_masks(n: int) -> np.ndarray:
    """The 2^n subsets of n atoms as 0/1 rows; n past _EXHAUSTIVE_N_MAX is refused."""
    if n > _EXHAUSTIVE_N_MAX:
        raise UsageError(f"exhaustive split oracle requested for n={n} > {_EXHAUSTIVE_N_MAX}")
    codes = np.arange(2**n, dtype=np.uint32)
    return (codes[:, None] >> np.arange(n)) & 1


def _exhaustive_split_pairs(
    f: SimpleFunction, sp: DiscreteMeasureSpace
) -> tuple[np.ndarray, np.ndarray]:
    """(m, v) of every split f = f|_S + f|_{S^c}, S one of the 2^n atom subsets:
    m = ||f|_S||_0 and v = ||f|_{S^c}||_inf.  Row 0 is S empty, with m = 0.
    """
    n = f.magnitudes.size
    masks = _subset_masks(n).astype(float)
    support_w = np.where(f.magnitudes > 0.0, sp.weights, 0.0)
    m_vals = masks @ support_w
    v_vals = ((1.0 - masks) * f.magnitudes).max(axis=1) if n else np.zeros(1)
    return m_vals, v_vals


def e_exhaustive(f: SimpleFunction, sp: DiscreteMeasureSpace, t):
    """E oracle: min of v over the 2^n subset splits with m < t (strict).

    The splits sorted by m give a prefix minimum of v, and searchsorted
    counts those with m < t: at a break of f* E takes its left limit, where
    the split's mass rounds to the same float as the break.
    Accepts a scalar or an array of t > 0, as eval_step does; the empty
    split (m = 0) is feasible at every such t.
    """
    ts = np.asarray(t, dtype=float)
    if not (ts > 0).all():
        raise DomainError(f"t must be positive, got {t!r}")
    m, v = _exhaustive_split_pairs(f, sp)
    order = np.argsort(m, kind="stable")
    out = np.minimum.accumulate(v[order])[np.searchsorted(m[order], ts, side="left") - 1]
    return float(out) if ts.ndim == 0 else out


def k2_exhaustive(f: SimpleFunction, sp: DiscreteMeasureSpace, t: float) -> float:
    """K2 oracle: all 2^n subset splits a0 = f|_S, a1 = f|_{S^c}."""
    return _k_at(_exhaustive_split_pairs, f, sp, t, "k2")


def kinf_exhaustive(f: SimpleFunction, sp: DiscreteMeasureSpace, t: float) -> float:
    """K_inf oracle over the same 2^n subset splits."""
    return _k_at(_exhaustive_split_pairs, f, sp, t, "kinf")


@dataclass(frozen=True)
class KEnvelope:
    """K2 (kfunc="k2") or K_inf ("kinf") as a lower envelope of the profile:
    entry (m[j], v[j]) attains the min on [breaks[j-1], breaks[j]], reading
    breaks[-1] as 0 and breaks[len(m)-1] as inf.  The breakpoints are kept
    as logs, which neither overflow nor underflow.
    """

    kfunc: str
    m: np.ndarray  # ascending from 0
    v: np.ndarray  # descending to 0
    log_breaks: np.ndarray

    @property
    def breaks(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp(self.log_breaks)

    def __call__(self, t):
        """K(t, f) at every t > 0 of an array."""
        j = np.searchsorted(self.breaks, t)
        return _k_of(self.m[j], t * self.v[j], self.kfunc)


def k_envelope(
    f: SimpleFunction, sp: DiscreteMeasureSpace, kfunc: str = "k2"
) -> KEnvelope:
    """The exact lower envelope of the K2 or K_inf truncation scan.

    With t rising (m ascending, v descending), K_inf entry j gives way to
    j+1 where t v_j reaches m_{j+1}.  The K2 entries are lines m^2 + x v^2
    in x = t^2 with falling slopes: one hull pass keeps those on the min.
    """
    if kfunc not in ("k2", "kinf"):
        raise DomainError(f"kfunc must be 'k2' or 'kinf', got {kfunc!r}")
    m, v = (x[::-1] for x in truncation_profile(f, sp))
    lm, lv = np.log(m[1:]), np.log(v[:-1])  # all but m[0] = 0 and v[-1] = 0
    if kfunc == "kinf":
        return KEnvelope(kfunc, m, v, lm - lv)
    ml, vl, lml, lvl = m.tolist(), v.tolist(), lm.tolist(), lv.tolist()

    def log_crossing(i: int, j: int) -> float:
        # lines i < j meet at t^2 = (m_j^2 - m_i^2) / (v_i^2 - v_j^2), taken
        # as factors within 2^-54..2^54 that cannot overflow.  Ratio 0 is
        # m_i = m_j (a weight absorbed in the float sum): j is below i everywhere.
        mi, mj, vi, vj = ml[i], ml[j], vl[i], vl[j]
        ratio = (mj - mi) / mj * (1.0 + mi / mj) * vi / (vi - vj) / (1.0 + vj / vi)
        return lml[j - 1] - lvl[i] + 0.5 * math.log(ratio) if ratio else -math.inf

    hull, log_ts = [0], []  # log_ts[k]: where hull[k] gives way to hull[k+1]
    for j in range(1, len(ml)):
        x = log_crossing(hull[-1], j)
        while log_ts and x <= log_ts[-1]:
            hull.pop()  # line j undercuts the top line wherever it attained the min
            log_ts.pop()
            x = log_crossing(hull[-1], j)
        hull.append(j)
        log_ts.append(x)
    return KEnvelope(kfunc, m[hull], v[hull], np.array(log_ts))


def interp_quasinorm(
    f: SimpleFunction,
    sp: DiscreteMeasureSpace,
    theta: float,
    q: float,
    *,
    kfunc: str = "k2",
) -> float:
    """Interpolation quasinorm (int_0^inf (t^-theta K(t,f))^q dt/t)^(1/q).

    K is K2, or K_inf with kfunc="kinf", taken over the pieces of
    k_envelope and summed in log space: the first (K = t ||f||_inf), the
    last (K = ||f||_0) and each K_inf piece integrate in closed form, the
    interior K2 pieces by one fixed Gauss-Legendre pass (_log_quasinorm).
    K_inf obeys I^q = (1/theta) Q_{s,tau}^{theta q} at s = 1/theta - 1,
    tau = theta q, an identity the tests use as an oracle.  q = inf is the
    exact max over the breakpoints: on each piece t^-theta K(t) is monotone
    or has one stationary point, a minimum at t^2 = theta m^2 / ((1-theta) v^2).
    Raises NumericError where the quasinorm itself leaves the float range,
    QuadratureError where the K2 pass cannot certify it.
    """
    if not 0.0 < theta < 1.0:
        raise DomainError(f"theta must lie in (0,1), got {theta!r}")
    if q != math.inf and not q > 0:
        raise DomainError(f"q must be positive or inf, got {q!r}")
    env = k_envelope(f, sp, kfunc)
    if env.log_breaks.size == 0:  # f = 0
        return 0.0
    log_value = _log_sup(env, theta) if q == math.inf else _log_quasinorm(env, theta, q)
    value = math.exp(min(log_value, _LOG_FLOAT_MAX))
    if not log_value <= _LOG_FLOAT_MAX or value == 0.0:  # nan included
        raise NumericError(f"interpolation quasinorm leaves the float range at q = {q!r}")
    return value


def _log_sup(env: KEnvelope, theta: float) -> float:
    """log max over the breakpoints b of b^-theta K(b), K from the entry left of b."""
    lb = env.log_breaks
    log_k = np.log(env.v[:-1]) + lb  # log t v; K = t v at the first break, where m = 0
    lm = np.log(env.m[1:-1])
    if env.kfunc == "k2":
        log_k[1:] = 0.5 * np.logaddexp(2.0 * lm, 2.0 * log_k[1:])
    else:
        log_k[1:] = np.maximum(lm, log_k[1:])
    return float((log_k - theta * lb).max())


# The interior K2 pieces: |d log g/du| <= slope = q max(theta, 1-theta) in
# u = log t, so sub-intervals of width min(1, _GL_SPLIT / slope) bound the
# change of log g on each.  A 10-node rule checks the 20-node one to _GL_TOL.
# Pieces over _GL_TRIM_ROWS sub-intervals (the trim costs about 100 rows) lose
# the parts under e^-_TRIM_LOG of the integral.  The block is taken _GL_CHUNK
# rows at a time; past _GL_MAX_EXTRA rows over one per piece it gives up.
_GL_SPLIT, _GL_TOL, _TRIM_LOG = 4.0, 1e-10, 40.0
_GL_TRIM_ROWS, _GL_CHUNK, _GL_MAX_EXTRA = 128, 4096, 2**20


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes of the 20- and 10-node rules on [0, 1], side by side, and their weights."""
    from numpy.polynomial.legendre import leggauss

    (x20, w20), (x10, w10) = leggauss(20), leggauss(10)
    return 0.5 * (np.concatenate([x20, x10]) + 1.0), 0.5 * w20, 0.5 * w10


def _log_quasinorm(env: KEnvelope, theta: float, q: float) -> float:
    """(1/q) log int_0^inf (t^-theta K(t))^q dt/t = (1/q) log int e^g(u) du, u = log t."""
    p0, p1 = theta * q, (1.0 - theta) * q
    if env.kfunc == "kinf":
        # g is piecewise linear: it rises with slope p1 to a peak at each
        # break (t v_j = m_{j+1}), then falls with slope -p0 until t v_{j+1}
        # = m_{j+1}.  Each slope integrates to e^peak (1 - e^-drop) / |slope|,
        # the first rise (from m = 0) and the last fall (to v = 0) to e^peak.
        # The peaks are taken over q, which cannot overflow; a product with q
        # that does (q near 1e308) only sends its exponential to 0.
        lm, lv = np.log(env.m[1:]), np.log(env.v[:-1])
        peak = (1.0 - theta) * lm + theta * lv
        top = peak.max()
        with np.errstate(over="ignore"):
            e = np.exp(q * (peak - top))
            total = e[0] / p1 + e[-1] / p0
            total -= e[1:] @ np.expm1(p1 * (lm[:-1] - lm[1:])) / p1
            total -= e[:-1] @ np.expm1(p0 * (lv[1:] - lv[:-1])) / p0
        return float(top + math.log(total) / q)
    lb = env.log_breaks
    b_0, b_last = float(lb[0]), float(lb[-1])  # Python floats overflow to inf silently
    head = q * math.log(env.v[0]) + p1 * b_0 - math.log(p1)  # K = t v on (0, b_0]
    tail = q * math.log(env.m[-1]) - p0 * b_last - math.log(p0)  # K = m past b_last
    if not (math.isfinite(head) and math.isfinite(tail)):
        raise NumericError(f"the log of the K2 integral passes the float range at q = {q!r}")
    lo, hi, lm, lv = lb[:-1], lb[1:], np.log(env.m[1:-1]), np.log(env.v[1:-1])
    slope = q * max(theta, 1.0 - theta)
    h = min(1.0, _GL_SPLIT / slope)
    if b_last - b_0 > _GL_TRIM_ROWS * h:
        # The integral is at least e^(g(b) - 1) / slope at a break b, and
        # K <= sqrt(2) max(m, t v) bounds g by max(q lm - p0 u, q lv + p1 u)
        # + (q/2) log 2, which stays below `cut` for u in (a, b).
        cut = q * _log_sup(env, theta) - 1.0 - math.log(slope * (b_last - b_0))
        cut -= _TRIM_LOG + 0.5 * q * math.log(2.0)
        a = np.minimum(np.maximum((q * lm - cut) / p0, lo), hi)
        b = np.minimum(np.maximum((cut - q * lv) / p1, a), hi)
        lo, hi = np.concatenate([lo, b]), np.concatenate([a, hi])
        lm, lv = np.concatenate([lm, lm]), np.concatenate([lv, lv])
    n_sub = np.ceil((hi - lo) / h)
    rows = n_sub.sum()
    if rows > _GL_MAX_EXTRA + n_sub.size:  # q near 1e7 on a narrow instance
        raise QuadratureError(f"the K2 integral at q = {q!r} needs {rows:.3g} sub-intervals")
    rows, n_sub = int(rows), n_sub.astype(np.intp)
    piece = np.repeat(np.arange(n_sub.size), n_sub)
    step = ((hi - lo) / np.maximum(n_sub, 1))[piece]
    left = lo[piece] + step * (np.arange(rows) - np.repeat(np.cumsum(n_sub) - n_sub, n_sub))
    # K(u)^2 / K(left)^2 = alpha + beta e^(2 (u - left)), alpha + beta = 1
    lm, lv = 2.0 * lm[piece], 2.0 * (lv[piece] + left)
    log_k2 = np.logaddexp(lm, lv)
    alpha, beta = np.exp(lm - log_k2)[:, None], np.exp(lv - log_k2)[:, None]
    scale = 0.5 * q * log_k2 - p0 * left + np.log(step)  # g(left) + log step
    top = max(head, tail, scale.max(initial=-math.inf))
    weight = np.exp(scale - top)
    x, w20, w10 = _gauss_legendre()
    total, error = math.exp(head - top) + math.exp(tail - top), 0.0
    for c in (slice(r, r + _GL_CHUNK) for r in range(0, rows, _GL_CHUNK)):
        su = step[c, None] * x
        # e^(g(u) - g(left)), within e^+-_GL_SPLIT
        e = np.exp(0.5 * q * np.log(alpha[c] + beta[c] * np.exp(2.0 * su)) - p0 * su)
        fine, coarse = e[:, :20] @ w20, e[:, 20:] @ w10
        total, error = total + weight[c] @ fine, error + weight[c] @ abs(fine - coarse)
    if error > _GL_TOL * total:
        raise QuadratureError(f"K2 quadrature error estimate {error / total:.2e} exceeds {_GL_TOL}")
    return float(top + math.log(total)) / q

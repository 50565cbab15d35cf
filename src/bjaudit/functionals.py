"""Best-approximation E-functionals and Lions-Peetre K-functionals.

For the couple (L^0, L^inf) on a discrete space everything reduces to scans
over hard truncations g_sigma (keep magnitudes above sigma, zero the rest):
the L^0 norm of a split piece only sees its support, so given a support S the
optimal remainder is f restricted to the complement, and optimizing over
supports collapses to thresholds.  Exhaustive subset-split oracles are kept
alongside the scans as an independent check at small atom counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NumericError, UsageError
from .measures import (
    DiscreteMeasureSpace,
    SimpleFunction,
    _parse_complex,
    _read_csv_rows,
    sorted_mass_profile,
)
from .quadrature import QuadratureConfig, _certify, _quad_piece
from .rearrange import decreasing_rearrangement, eval_step

__all__ = [
    "CoupleInstance",
    "l0_linf_couple",
    "all_support_candidates",
    "e_functional_L0Linf",
    "e_functional_bruteforce",
    "e_profile_bruteforce",
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


@dataclass(frozen=True)
class CoupleInstance:
    """A compatible couple presented concretely: subtraction plus two quasinorms."""

    subtract: Callable
    norm0: Callable
    norm1: Callable
    kappa0: float = 1.0
    kappa1: float = 1.0
    label: str = ""

    def check_triangle(self, elements) -> bool:
        """Spot-check |a+b| <= kappa(|a|+|b|) on all pairs from `elements`."""
        elems = list(elements)
        for a in elems:
            for b in elems:
                s = self.subtract(a, self.subtract(np.zeros_like(b), b))  # a + b
                if self.norm0(s) > self.kappa0 * (self.norm0(a) + self.norm0(b)) + 1e-9:
                    return False
                if self.norm1(s) > self.kappa1 * (self.norm1(a) + self.norm1(b)) + 1e-9:
                    return False
        return True


def l0_linf_couple(
    sp: DiscreteMeasureSpace, support_threshold: float = 0.0
) -> CoupleInstance:
    """The (L^0, L^inf) couple over `sp`; elements are magnitude vectors."""

    def norm0(x) -> float:
        x = np.asarray(x, dtype=float)
        return float(sp.weights[np.abs(x) > support_threshold].sum())

    def norm1(x) -> float:
        x = np.asarray(x, dtype=float)
        return float(np.abs(x).max()) if x.size else 0.0

    return CoupleInstance(
        subtract=lambda a, b: np.asarray(a, dtype=float) - np.asarray(b, dtype=float),
        norm0=norm0,
        norm1=norm1,
        label="(L0,Linf)",
    )


def all_support_candidates(
    f: SimpleFunction, sp: DiscreteMeasureSpace, n_limit: int = 20
) -> list[np.ndarray]:
    """f restricted to every one of the 2^n atom subsets (small n only)."""
    n = f.magnitudes.size
    if n > n_limit:
        raise UsageError(f"exhaustive candidate set requested for n={n} > {n_limit}")
    masks = _subset_masks(n)
    return [f.magnitudes * row for row in masks]


def _subset_masks(n: int) -> np.ndarray:
    codes = np.arange(2**n, dtype=np.uint32)
    return (codes[:, None] >> np.arange(n)) & 1


def e_functional_L0Linf(
    f: SimpleFunction, sp: DiscreteMeasureSpace, t: float
) -> float:
    """E(t, f) for (L^0, L^inf): equals the rearrangement evaluated at t."""
    if not t > 0:
        raise DomainError(f"t must be positive, got {t!r}")
    return eval_step(decreasing_rearrangement(f, sp), t)


def e_functional_bruteforce(c: CoupleInstance, a, t: float, candidates) -> float | None:
    """min over candidates a0 with norm0(a0) < t (strict) of norm1(a - a0).

    Returns None when no candidate is feasible (the explicit infeasible
    marker; never a float infinity).
    """
    vals = e_profile_bruteforce(c, a, candidates, [t])
    return vals[0]


def e_profile_bruteforce(c: CoupleInstance, a, candidates, ts) -> list[float | None]:
    """Brute-force E at many t without re-evaluating norms per t."""
    cands = list(candidates)
    if not cands:
        raise UsageError("candidate list must be nonempty")
    for t in ts:
        if not t > 0:
            raise DomainError(f"t must be positive, got {t!r}")
    n0 = np.array([c.norm0(a0) for a0 in cands])
    n1 = np.array([c.norm1(c.subtract(a, a0)) for a0 in cands])
    order = np.argsort(n0, kind="stable")
    n0_sorted = n0[order]
    prefix_min = np.minimum.accumulate(n1[order])
    out: list[float | None] = []
    for t in ts:
        k = int(np.searchsorted(n0_sorted, t, side="left"))  # candidates with n0 < t
        out.append(float(prefix_min[k - 1]) if k > 0 else None)
    return out


def e_functional_trig(coeffs: dict[int, complex], n: int) -> float:
    """Best L^2 approximation error by trigonometric polynomials of degree < n.

    By Parseval the optimal approximant keeps frequencies |k| < n, so the
    error is the l2 tail (sum_{|k| >= n} |c_k|^2)^(1/2).
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise DomainError(f"n must be an integer >= 1, got {n!r}")
    try:
        tail = sum(abs(v) ** 2 for k, v in coeffs.items() if abs(int(k)) >= n)
    except OverflowError as exc:
        raise NumericError(f"l2 tail of the coefficients overflows at n = {n}") from exc
    return math.sqrt(tail)


def load_trig_csv(path_or_text: str) -> dict[int, complex]:
    """Read Fourier coefficients from CSV rows `k,re,im` (header required).

    A header alone is the zero function: no coefficients.
    """
    rows = _read_csv_rows(path_or_text, "coefficient", ("k", "re", "im"), empty_ok=True)
    out: dict[int, complex] = {}
    for rownum, (k_txt, re_txt, im_txt) in rows:
        try:
            k = int(k_txt)
        except ValueError as exc:
            raise UsageError(f"row {rownum}: non-integer k ({exc})") from exc
        if k in out:
            raise UsageError(f"row {rownum}: duplicate frequency k={k}")
        out[k] = _parse_complex(re_txt, im_txt, rownum)
    return out


def truncation_profile(
    f: SimpleFunction, sp: DiscreteMeasureSpace
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate pairs (m(sigma), sigma_bar) over the truncation family.

    m(sigma) is the measure where |f| > sigma and sigma_bar the sup of the
    remainder f - g_sigma.  Contains (||f||_0, 0) and (0, ||f||_inf).
    """
    mags_desc, cumw = sorted_mass_profile(f, sp)
    if mags_desc.size == 0:  # f = 0: the single pair (0, 0)
        return np.zeros(1), np.zeros(1)
    distinct = np.unique(mags_desc)  # ascending, positive
    total = cumw[-1]
    # mass strictly above each distinct magnitude: cumw at the last index of
    # the tie group sitting above it
    counts = np.searchsorted(-mags_desc, -distinct, side="left")
    mass_above = np.where(counts > 0, cumw[np.maximum(counts - 1, 0)], 0.0)
    m_vals = np.concatenate([[total], mass_above])
    v_vals = np.concatenate([[0.0], distinct])
    return m_vals, v_vals


def k2_functional(f: SimpleFunction, sp: DiscreteMeasureSpace, t: float) -> float:
    """K2(t,f) over (L^0,L^inf): min over truncations of sqrt(m^2 + t^2 v^2)."""
    if not t > 0:
        raise DomainError(f"t must be positive, got {t!r}")
    m, v = truncation_profile(f, sp)
    return float(np.sqrt(m * m + (t * v) ** 2).min())


def kinf_functional(f: SimpleFunction, sp: DiscreteMeasureSpace, t: float) -> float:
    """K_inf(t,f): min over truncations of max(m, t*v)."""
    if not t > 0:
        raise DomainError(f"t must be positive, got {t!r}")
    m, v = truncation_profile(f, sp)
    return float(np.maximum(m, t * v).min())


def k2_scalar(t: float, z_magnitude: float = 1.0) -> float:
    """Scalar-couple K2: z * t/sqrt(1+t^2)."""
    if not t > 0:
        raise DomainError(f"t must be positive, got {t!r}")
    if z_magnitude < 0:
        raise DomainError("z_magnitude must be >= 0")
    return z_magnitude * t / math.sqrt(1.0 + t * t)


def _exhaustive_split_pairs(
    f: SimpleFunction, sp: DiscreteMeasureSpace, n_limit: int
) -> tuple[np.ndarray, np.ndarray]:
    n = f.magnitudes.size
    if n > n_limit:
        raise UsageError(f"exhaustive split oracle requested for n={n} > {n_limit}")
    masks = _subset_masks(n).astype(float)
    support_w = np.where(f.magnitudes > 0.0, sp.weights, 0.0)
    m_vals = masks @ support_w
    v_vals = ((1.0 - masks) * f.magnitudes).max(axis=1) if n else np.zeros(1)
    return m_vals, v_vals


def k2_exhaustive(
    f: SimpleFunction, sp: DiscreteMeasureSpace, t: float, n_limit: int = 20
) -> float:
    """K2 oracle: all 2^n subset splits a0 = f|_S, a1 = f|_{S^c}."""
    if not t > 0:
        raise DomainError(f"t must be positive, got {t!r}")
    m, v = _exhaustive_split_pairs(f, sp, n_limit)
    return float(np.sqrt(m * m + (t * v) ** 2).min())


def kinf_exhaustive(
    f: SimpleFunction, sp: DiscreteMeasureSpace, t: float, n_limit: int = 20
) -> float:
    if not t > 0:
        raise DomainError(f"t must be positive, got {t!r}")
    m, v = _exhaustive_split_pairs(f, sp, n_limit)
    return float(np.maximum(m, t * v).min())


@dataclass(frozen=True)
class KEnvelope:
    """K2 (kfunc="k2") or K_inf ("kinf") as a lower envelope of the profile:
    entry (m[j], v[j]) attains the min on [breaks[j-1], breaks[j]], reading
    breaks[-1] as 0 and breaks[len(m)-1] as inf.
    """

    kfunc: str
    m: np.ndarray  # ascending from 0
    v: np.ndarray  # descending to 0
    breaks: np.ndarray

    def __call__(self, t):
        """K(t, f) at every t > 0 of an array."""
        j = np.searchsorted(self.breaks, t)
        m, tv = self.m[j], t * self.v[j]
        return np.sqrt(m * m + tv * tv) if self.kfunc == "k2" else np.maximum(m, tv)


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
    if kfunc == "kinf":
        return KEnvelope(kfunc, m, v, m[1:] / v[:-1])
    ml, vl = m.tolist(), v.tolist()

    def crossing(i: int, j: int) -> float:  # t where lines i < j meet
        dm, sm = ml[j] - ml[i], ml[j] + ml[i]
        return math.sqrt(dm / (vl[i] - vl[j])) * math.sqrt(sm / (vl[i] + vl[j]))

    hull = [0]
    for j in range(1, len(ml)):
        while len(hull) > 1 and crossing(hull[-1], j) <= crossing(hull[-2], hull[-1]):
            hull.pop()  # line j undercuts the top line wherever it attained the min
        hull.append(j)
    ts = [crossing(i, j) for i, j in zip(hull, hull[1:])]
    return KEnvelope(kfunc, m[hull], v[hull], np.array(ts))


def interp_quasinorm(
    f: SimpleFunction,
    sp: DiscreteMeasureSpace,
    theta: float,
    q: float,
    quad: QuadratureConfig = QuadratureConfig(rel_tol=1e-8),
    *,
    kfunc: str = "k2",
) -> float:
    """Interpolation quasinorm (int_0^inf (t^-theta K(t,f))^q dt/t)^(1/q).

    K is K2, or K_inf with kfunc="kinf", taken over the pieces of
    k_envelope.  The first (K = t ||f||_inf), the last (K = ||f||_0) and
    each K_inf piece (K = m, then t v) integrate in closed form, the
    interior K2 pieces by adaptive quadrature under `quad`.  K_inf obeys
    I^q = (1/theta) Q_{s,tau}^{theta q} at s = 1/theta - 1, tau = theta q,
    an identity the tests use as an oracle.  q = inf is the exact max over
    the breakpoints: on each piece t^-theta K(t) is monotone or has one
    stationary point, a minimum at t^2 = theta m^2 / ((1-theta) v^2).
    """
    if not 0.0 < theta < 1.0:
        raise DomainError(f"theta must lie in (0,1), got {theta!r}")
    if q != math.inf and not q > 0:
        raise DomainError(f"q must be positive or inf, got {q!r}")
    env = k_envelope(f, sp, kfunc)
    b = env.breaks
    if b.size == 0:  # f = 0
        return 0.0
    if q == math.inf:
        value = float((b**-theta * env(b)).max())
    else:
        value = float(_interp_integral(env, theta, q, quad) ** (1.0 / q))
    if not math.isfinite(value):
        raise NumericError(
            f"interpolation quasinorm overflows at theta = {theta!r}, q = {q!r}"
        )
    return value


def _interp_integral(
    env: KEnvelope, theta: float, q: float, quad: QuadratureConfig
) -> float:
    """int_0^inf (t^-theta K(t))^q dt/t, summed over the pieces of env."""
    b = env.breaks
    p0, p1 = theta * q, (1.0 - theta) * q
    total = (env.v[0] * b[0] ** (1.0 - theta)) ** q / p1
    total += (env.m[-1] * b[-1] ** -theta) ** q / p0
    lo, hi, m, v = b[:-1], b[1:], env.m[1:-1], env.v[1:-1]  # interior: m, v > 0
    if env.kfunc == "kinf":
        c = np.clip(m / v, lo, hi)  # K = m on [lo, c], K = t v on [c, hi]
        const = (m * lo**-theta) ** q - (m * c**-theta) ** q
        linear = (v * hi ** (1.0 - theta)) ** q - (v * c ** (1.0 - theta)) ** q
        return total + (const / p0 + linear / p1).sum()

    err = 0.0
    for mj, vj, a, z in zip(m.tolist(), v.tolist(), lo.tolist(), hi.tolist()):
        val, e = _quad_piece(
            lambda t: (t**-theta * math.hypot(mj, t * vj)) ** q / t, a, z, quad
        )
        total += val
        err += e
    _certify(total, err, quad)
    return total

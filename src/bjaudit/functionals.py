"""Best-approximation E-functionals and Lions-Peetre K-functionals.

For the couple (L^0, L^inf) on a discrete space everything reduces to scans
over hard truncations g_sigma (keep magnitudes above sigma, zero the rest):
the L^0 norm of a split piece only sees its support, so given a support S the
optimal remainder is f restricted to the complement, and optimizing over
supports collapses to thresholds.  Exhaustive subset-split oracles are kept
alongside the scans as an independent check at small atom counts.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, QuadratureError, UsageError
from .measures import DiscreteMeasureSpace, SimpleFunction, sorted_mass_profile
from .quadrature import QuadratureConfig, _quad_piece
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
    tail = sum(abs(v) ** 2 for k, v in coeffs.items() if abs(int(k)) >= n)
    return math.sqrt(tail)


def load_trig_csv(path_or_text: str) -> dict[int, complex]:
    """Read Fourier coefficients from CSV rows `k,re,im` (header required)."""
    if "\n" in path_or_text:
        text = path_or_text
    else:
        try:
            with open(path_or_text, "r", newline="") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read coefficient CSV: {exc}") from exc
    rows = [(i + 1, r) for i, r in enumerate(csv.reader(io.StringIO(text))) if r]
    if not rows:
        raise UsageError("coefficient CSV is empty")
    header = [c.strip() for c in rows[0][1]]
    if header != ["k", "re", "im"]:
        raise UsageError("row 1: expected header 'k,re,im', got " + ",".join(header))
    out: dict[int, complex] = {}
    for rownum, row in rows[1:]:
        if len(row) != 3:
            raise UsageError(f"row {rownum}: expected 3 fields, got {len(row)}")
        try:
            k = int(row[0])
            c = complex(float(row[1]), float(row[2]))
        except ValueError as exc:
            raise UsageError(f"row {rownum}: bad field ({exc})") from exc
        if k in out:
            raise UsageError(f"row {rownum}: duplicate frequency k={k}")
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise UsageError(f"row {rownum}: coefficient must be finite")
        out[k] = c
    return out


def truncation_profile(
    f: SimpleFunction, sp: DiscreteMeasureSpace
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate pairs (m(sigma), sigma_bar) over the truncation family.

    m(sigma) is the measure where |f| > sigma and sigma_bar the sup of the
    remainder f - g_sigma.  Contains (||f||_0, 0) and (0, ||f||_inf).
    """
    mags_desc, cumw = sorted_mass_profile(f, sp)
    if mags_desc.size == 0:
        return np.empty(0), np.empty(0)
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
    if m.size == 0:
        return 0.0
    return float(np.sqrt(m * m + (t * v) ** 2).min())


def kinf_functional(f: SimpleFunction, sp: DiscreteMeasureSpace, t: float) -> float:
    """K_inf(t,f): min over truncations of max(m, t*v)."""
    if not t > 0:
        raise DomainError(f"t must be positive, got {t!r}")
    m, v = truncation_profile(f, sp)
    if m.size == 0:
        return 0.0
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


def _scan_kinks(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Candidate switch points of the K-scan envelopes (superset is fine)."""
    pts = []
    for i in range(m.size):
        for j in range(m.size):
            if v[i] == v[j]:
                continue
            t_sq = (m[j] ** 2 - m[i] ** 2) / (v[i] ** 2 - v[j] ** 2)
            if t_sq > 0:
                pts.append(math.sqrt(t_sq))
            if v[j] > 0 and m[i] > 0:
                pts.append(m[i] / v[j])
    for i in range(m.size):
        if v[i] > 0 and m[i] > 0:
            pts.append(m[i] / v[i])
    return np.unique(np.array(pts)) if pts else np.empty(0)


def interp_quasinorm(
    f: SimpleFunction,
    sp: DiscreteMeasureSpace,
    theta: float,
    q: float,
    quad: QuadratureConfig | None = None,
    *,
    kfunc: str = "k2",
) -> float:
    """Interpolation quasinorm (int_0^inf (t^-theta K(t,f))^q dt/t)^(1/q).

    K is the K2 scan by default; kfunc="kinf" switches to the max form, for
    which the integral collapses to the exact identity
    (1/theta) * Q_{s,tau}^{theta q} used as a test oracle.  q = inf takes the
    sup over a refined logarithmic grid.
    """
    if not 0.0 < theta < 1.0:
        raise DomainError(f"theta must lie in (0,1), got {theta!r}")
    if q != math.inf and not q > 0:
        raise DomainError(f"q must be positive or inf, got {q!r}")
    if kfunc not in ("k2", "kinf"):
        raise DomainError(f"kfunc must be 'k2' or 'kinf', got {kfunc!r}")
    cfg = quad or QuadratureConfig(rel_tol=1e-8)
    m, v = truncation_profile(f, sp)
    if m.size == 0:
        return 0.0

    if kfunc == "k2":
        def kval(t: float) -> float:
            return math.sqrt(np.min(m * m + (t * v) ** 2))
    else:
        def kval(t: float) -> float:
            return float(np.min(np.maximum(m, t * v)))

    kinks = _scan_kinks(m, v)
    v_head = float(v.max())  # the unique m=0 candidate's remainder sup
    m_tail = float(m.max())  # the sigma=0 candidate: constant ||f||_0

    if q == math.inf:
        lo, hi = kinks.min() / 64.0, kinks.max() * 64.0
        grid = np.geomspace(lo, hi, 4001)
        grid = np.unique(np.concatenate([grid, kinks]))
        best = 0.0
        for _ in range(60):
            vals = np.array([t ** (-theta) * kval(t) for t in grid])
            i = int(vals.argmax())
            new_best = float(vals[i])
            left = grid[max(i - 1, 0)]
            right = grid[min(i + 1, grid.size - 1)]
            if new_best <= best * (1.0 + 1e-13):
                best = max(best, new_best)
                break
            best = new_best
            grid = np.geomspace(left, right, 65)
        return best

    def integrand(t: float) -> float:
        return (t ** (-theta) * kval(t)) ** q / t

    a = float(kinks.min())
    b = float(kinks.max())
    head = v_head**q * a ** ((1.0 - theta) * q) / ((1.0 - theta) * q)
    tail = m_tail**q * b ** (-theta * q) / (theta * q)
    total = head + tail
    err = 0.0
    edges = kinks
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi - lo <= 1e-15 * hi:
            continue
        val, e = _quad_piece(integrand, lo, hi, cfg)
        total += val
        err += e
    tol = max(cfg.abs_tol, cfg.rel_tol * abs(total), 1e-300)
    if err > 100.0 * tol and err > 1e-12:
        raise QuadratureError(
            f"interp quadrature error {err:.3e} exceeds tolerance {tol:.3e}",
            achieved=err,
        )
    return float(total ** (1.0 / q))

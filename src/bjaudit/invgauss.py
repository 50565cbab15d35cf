"""Inverse-Gaussian density demo under the standard Gaussian measure.

Discretizes the density C sqrt(l/(2 pi t^3)) exp(-l(t-m)^2/(2 m^2 t)) on a
truncated grid of uniform cells, each weighted by the standard Gaussian
density at its midpoint times its width, rearranges it, and
tabulates f*, the E-functional (identical by construction on a discrete
space), and the Jackson bound u^-s c_{s,tau} Q_{s,tau}(f).

The Gaussian measure on (0, t_max) is used literally, with no renormalizing
to mass 1.  Its total mass is just below 1/2, so the rearrangement support
ends slightly left of u = 0.5 and the tabulated f* vanishes on the default
u-grid starting at 0.5.  That is a property of the construction, not a bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .audit import _jackson
from .errors import DomainError, NumericError
from .jsonutil import csv_text, dumps17
from .measures import DiscreteMeasureSpace, SimpleFunction, lp_norm
from .params import _check_finite_positive, _float_normal, _float_pow, c_exact, params_from_s_tau
from .rearrange import StepFunction, approx_quasinorm, decreasing_rearrangement

__all__ = [
    "InvGaussParams",
    "invgauss_density",
    "DemoResult",
    "demo_pipeline",
]

# demo_pipeline warns where the quasinorm moves by more than _REFINE_REL_TOL
# (the L1 mass by more than ten times it) under cell doubling, or where the
# mass beyond t_max passes _TAIL_REL_TOL of the window's.
_REFINE_REL_TOL = 1e-3
_TAIL_REL_TOL = 1e-10


@dataclass(frozen=True)
class InvGaussParams:
    """Amplitude C, mean m, shape l of the scaled inverse-Gaussian density."""

    amplitude: float = 10.0
    mean: float = 2.0
    shape: float = 4.0

    def __post_init__(self):
        for name in ("amplitude", "mean", "shape"):
            _check_finite_positive(name, getattr(self, name))
            object.__setattr__(self, name, float(getattr(self, name)))


def invgauss_density(t, p: InvGaussParams | None = None):
    """C sqrt(l/(2 pi t^3)) exp(-l(t-m)^2/(2 m^2 t)); 0 for t <= 0.

    Prefactor and exponent meet in log space, so the t -> 0+ limit underflows
    cleanly to 0 instead of tripping 0 * inf.  Where a factor of the exponent
    is zero, subnormal or infinite in floats (t or m near 0 or huge), the
    exponent itself is formed from logs.  Raises NumericError where m^2 or
    the density overflows a float.
    """
    if p is None:
        p = InvGaussParams()
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if not np.all(np.isfinite(arr)):
        raise DomainError("density argument must be finite")
    m2 = _float_pow(p.mean, 2, f"the density's m^2 overflows a float at m = {p.mean!r}")
    out = np.zeros_like(arr)
    pos = arr > 0.0
    tp = arr[pos]
    log_pref = (
        math.log(p.amplitude)
        + 0.5 * (math.log(p.shape) - math.log(2.0 * math.pi))
        - 1.5 * np.log(tp)
    )
    with np.errstate(all="ignore"):
        sq = (tp - p.mean) ** 2
        num = -p.shape * sq
        den = 2.0 * m2 * tp
        log_exp = num / den
        direct = _float_normal(sq) & _float_normal(num) & _float_normal(den)
        far = tp[~direct]
        log_exp[~direct] = -np.exp(
            math.log(p.shape) - math.log(2.0) - 2.0 * math.log(p.mean)
            + 2.0 * np.log(np.abs(far - p.mean))
            - np.log(far)
        )
        out[pos] = np.exp(log_pref + log_exp)
    if not np.isfinite(out).all():
        raise NumericError("the inverse-Gaussian density overflows a float")
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class DemoResult:
    """Tabulated curves plus run metadata for the demo pipeline."""

    u_grid: tuple
    f_star: tuple
    e_value: tuple
    jackson_bound: tuple
    quasinorm: float
    metadata: dict = field(repr=False)
    rearrangement: StepFunction = field(repr=False)

    def table(self) -> dict:
        """The tabulated columns by name, in CSV column order."""
        columns = (self.u_grid, self.f_star, self.e_value, self.jackson_bound)
        return dict(zip(("u", "f_star", "e_value", "jackson_bound"), map(list, columns)))

    def to_csv_text(self) -> str:
        table = self.table()
        return csv_text(tuple(table), table.values())

    def metadata_json_text(self) -> str:
        return dumps17(self.metadata) + "\n"


def _gaussian_cells(p: InvGaussParams, t_lo: float, t_hi: float, n_cells: int):
    """The demo instance on n_cells uniform cells of (t_lo, t_hi).

    Each cell weighs the standard Gaussian density at its midpoint times its
    width; cells whose weight underflows to 0 are dropped, and the function
    is the inverse-Gaussian density at the kept midpoints.
    """
    width = (t_hi - t_lo) / n_cells
    mids = t_lo + width * (np.arange(n_cells) + 0.5)
    with np.errstate(over="ignore"):  # mid^2 = inf gives the weight exp(-inf) = 0
        weights = np.exp(-0.5 * mids * mids) / math.sqrt(2.0 * math.pi) * width
    kept = weights > 0.0
    return DiscreteMeasureSpace(weights[kept]), SimpleFunction(invgauss_density(mids[kept], p))


def demo_pipeline(
    p: InvGaussParams | None = None,
    s: float = 2.0,
    tau: float = 2.0,
    t_max: float = 10.0,
    n_cells: int = 4000,
    u_grid=None,
) -> DemoResult:
    """Rearrange the discretized density and tabulate f*, E, and the bound.

    Convergence is cross-checked rather than assumed: the quasinorm and the
    L1 mass are recomputed at doubled cell count, and the mass beyond t_max
    is measured by extending the window once.  Failures of those checks land
    in metadata["warnings"], never in an exception, because the tabulated
    curves are still well-defined for the discretization actually used.
    """
    if p is None:
        p = InvGaussParams()
    params = params_from_s_tau(s, tau)  # validates s, tau and gives c_{s,tau}
    if not (t_max > 0 and math.isfinite(2.0 * t_max)):
        raise DomainError(f"t_max must be positive with 2*t_max finite, got {t_max!r}")
    if n_cells < 2:
        raise DomainError(f"n_cells must be >= 2, got {n_cells!r}")
    if u_grid is None:
        u_grid = np.linspace(0.5, 11.0, 106)
    us = np.atleast_1d(np.asarray(u_grid, dtype=float))
    if us.size == 0:
        raise DomainError("u_grid must be nonempty")
    if np.any(us <= 0) or not np.all(np.isfinite(us)):
        raise DomainError("u_grid entries must be positive finite reals")

    t_lo = t_max / n_cells
    width = (t_max - t_lo) / n_cells
    if width == 0.0:
        raise NumericError(f"the cell width underflows to 0 at t_max={t_max!r}, n_cells={n_cells}")
    warnings: list[str] = []

    sp, f = _gaussian_cells(p, t_lo, t_max, n_cells)
    sf = decreasing_rearrangement(f, sp)
    q_val = approx_quasinorm(sf, params.s, params.tau)
    l1 = lp_norm(f, sp, 1.0)

    # Refinement cross-check at doubled resolution (same window).
    sp2, f2 = _gaussian_cells(p, t_max / (2 * n_cells), t_max, 2 * n_cells)
    sf2 = decreasing_rearrangement(f2, sp2)
    q_ref = approx_quasinorm(sf2, params.s, params.tau)
    l1_ref = lp_norm(f2, sp2, 1.0)
    q_rel = abs(q_ref - q_val) / max(abs(q_ref), 1e-300)
    l1_rel = abs(l1_ref - l1) / max(abs(l1_ref), 1e-300)
    if q_rel > _REFINE_REL_TOL:
        warnings.append(
            f"quasinorm changed by {q_rel:.3e} relative under cell doubling "
            f"(tolerance {_REFINE_REL_TOL:.1e})"
        )
    if l1_rel > 10.0 * _REFINE_REL_TOL:
        warnings.append(
            f"L1 mass changed by {l1_rel:.3e} relative under cell doubling"
        )

    # Tail check: extend the window once and measure the extra L1 mass.
    n_tail = max(2, int(math.ceil(t_max / width)))
    sp_tail, f_tail = _gaussian_cells(p, t_max, 2.0 * t_max, n_tail)
    tail_l1 = lp_norm(f_tail, sp_tail, 1.0)
    tail_ratio = tail_l1 / max(l1, 1e-300)
    if tail_ratio > _TAIL_REL_TOL:
        warnings.append(
            f"L1 mass beyond t_max is {tail_ratio:.3e} of the window mass "
            f"(tolerance {_TAIL_REL_TOL:.1e}); consider a larger t_max"
        )

    # On a compiled discrete space the best-approximation error at budget u
    # is exactly the rearrangement at u, so the E column is f* itself rather
    # than the 2^n brute force; the bound column is the Jackson audit's rhs,
    # taken on the rearrangement and Q above.
    c_val = c_exact(params)
    report = _jackson(sf, q_val, params, c_val, {"provider": "paper-c", "constant": c_val}, us)
    metadata = {
        "density": {"amplitude": p.amplitude, "mean": p.mean, "shape": p.shape},
        "s": params.s,
        "tau": params.tau,
        "theta": params.theta,
        "q": params.q,
        "c_constant": c_val,
        "t_lo": t_lo,
        "t_max": t_max,
        "n_cells": n_cells,
        "quasinorm": q_val,
        "quasinorm_refined": q_ref,
        "quasinorm_rel_change": q_rel,
        "l1_mass": l1,
        "l1_mass_refined": l1_ref,
        "l1_rel_change": l1_rel,
        "tail_l1_ratio": tail_ratio,
        "support_mass": sf.support_mass,
        "sup_value": sf.sup_value,
        "warnings": warnings,
    }
    return DemoResult(
        u_grid=report.grid,
        f_star=report.lhs,
        e_value=report.lhs,
        jackson_bound=report.rhs,
        quasinorm=q_val,
        metadata=metadata,
        rearrangement=sf,
    )

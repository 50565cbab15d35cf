"""Adaptive quadrature for quasinorm integrands.

integrate_zero_to_inf splits (0, inf) at t = 1 and maps the upper half to
(0, 1) with u = 1/t, so the adaptive rule only ever sees finite intervals.
Known kink locations can be passed through so the subdivision does not waste
effort hunting for them.  The interpolation quasinorm calls the same
finite-interval rule, _quad_piece, on each interior piece of the K2 lower
envelope, and both certify the summed error estimate through _certify.

This is the only module that touches scipy, and it imports scipy on first
use, so importing the package costs no scipy start-up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError

__all__ = ["QuadratureConfig", "integrate_zero_to_inf"]


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 0.0
    limit: int = 200  # max subdivisions per finite piece


def _quad_piece(fn, lo: float, hi: float, cfg: QuadratureConfig, points=None):
    """scipy's adaptive quad over the finite interval [lo, hi]: (value, error)."""
    from scipy.integrate import quad

    val, err = quad(
        fn,
        lo,
        hi,
        epsabs=cfg.abs_tol,
        epsrel=cfg.rel_tol,
        limit=cfg.limit,
        points=points,
    )
    return val, err


def _certify(val: float, err: float, cfg: QuadratureConfig) -> None:
    """Raise QuadratureError when err misses max(abs_tol, rel_tol * |val|)."""
    tol = max(cfg.abs_tol, cfg.rel_tol * abs(val), 1e-300)
    # quad's reported estimates are conservative; allow modest slack
    if err > 100.0 * tol and err > 1e-12:
        raise QuadratureError(
            f"quadrature error estimate {err:.3e} exceeds tolerance {tol:.3e}",
            achieved=err,
        )


def integrate_zero_to_inf(fn, cfg: QuadratureConfig | None = None, breakpoints=()):
    """Integrate fn over (0, inf).

    ``breakpoints`` are interior t-values where fn has kinks.  Raises
    QuadratureError when the combined error estimate misses
    max(abs_tol, rel_tol * |value|).
    """
    cfg = cfg or QuadratureConfig()
    pts = np.asarray(sorted(p for p in breakpoints if 0.0 < p < np.inf), dtype=float)
    lower_pts = [p for p in pts if p < 1.0] or None
    upper_pts = [1.0 / p for p in pts if p > 1.0] or None

    val_lo, err_lo = _quad_piece(fn, 0.0, 1.0, cfg, points=lower_pts)
    val_hi, err_hi = _quad_piece(
        lambda u: fn(1.0 / u) / (u * u), 0.0, 1.0, cfg, points=upper_pts
    )
    val = val_lo + val_hi
    _certify(val, err_lo + err_hi, cfg)
    return val

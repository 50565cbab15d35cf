"""Decreasing rearrangements as canonical step functions.

A rearrangement of a finite instance is a right-continuous nonincreasing
step function on (0, inf): value v_i on [t_{i-1}, t_i), zero past the last
break.  Ties are merged so values are strictly decreasing, which makes every
integral below a short closed form.
"""

from __future__ import annotations

import math
import sys

import numpy as np
from dataclasses import dataclass

from .errors import DomainError, NumericError
from .jsonutil import csv_text
from .measures import (
    DiscreteMeasureSpace,
    SimpleFunction,
    _freeze,
    _lp_root,
    _tie_groups,
)

__all__ = [
    "StepFunction",
    "decreasing_rearrangement",
    "eval_step",
    "lp_from_rearrangement",
    "approx_quasinorm",
    "step_csv",
    "step_csv_text",
]

_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_Q_OVERFLOW = "Q_{s,tau} overflows a float"


@dataclass(frozen=True, eq=False)
class StepFunction:
    """breaks: 0 = t_0 < t_1 < ... < t_n; values: v_1 > ... > v_n > 0."""

    breaks: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        b = np.atleast_1d(np.asarray(self.breaks, dtype=float))
        v = np.atleast_1d(np.asarray(self.values, dtype=float)) if np.size(
            self.values
        ) else np.empty(0)
        if b.size != v.size + 1 or b[0] != 0.0:
            raise DomainError("breaks must start at 0 and have one more entry than values")
        if (np.diff(b) <= 0).any():
            raise DomainError("breaks must be strictly increasing")
        if v.size and ((v <= 0).any() or (np.diff(v) >= 0).any()):
            raise DomainError("values must be strictly decreasing and positive")
        object.__setattr__(self, "breaks", _freeze(b))
        object.__setattr__(self, "values", _freeze(v))

    @property
    def n_steps(self) -> int:
        return self.values.size

    @property
    def support_mass(self) -> float:
        return float(self.breaks[-1]) if self.n_steps else 0.0

    @property
    def sup_value(self) -> float:
        return float(self.values[0]) if self.n_steps else 0.0


EMPTY_STEP = StepFunction(breaks=np.array([0.0]), values=np.empty(0))


def decreasing_rearrangement(
    f: SimpleFunction, sp: DiscreteMeasureSpace
) -> StepFunction:
    """Sort magnitudes descending, merge ties, accumulate weights into breaks.

    Raises NumericError when the kept weights sum past the float range.
    """
    ends, values = _tie_groups(f, sp)
    if ends.size == 0:
        return EMPTY_STEP
    if not math.isfinite(ends[-1]):
        raise NumericError("the kept weights sum past the float range")
    # A weight can be absorbed by the running sum (the cumulative weight stalls
    # in double precision when a tiny weight meets a large accumulated mass).
    # Such a group has zero representable width: its level is invisible to
    # every integral of the step function, so it is dropped rather than
    # allowed to produce a degenerate break.
    wide = ends > np.concatenate([[0.0], ends[:-1]])
    return StepFunction(breaks=np.concatenate([[0.0], ends[wide]]), values=values[wide])


def eval_step(sf: StepFunction, t):
    """Right-continuous evaluation; accepts a scalar or an array, t >= 0."""
    arr = np.asarray(t, dtype=float)
    if (arr < 0.0).any() or not np.isfinite(arr).all():
        raise DomainError("eval_step requires finite t >= 0")
    if sf.n_steps == 0:
        out = np.zeros_like(arr)
        return float(out) if np.isscalar(t) or arr.ndim == 0 else out
    idx = np.searchsorted(sf.breaks, arr, side="right") - 1
    inside = idx < sf.n_steps
    out = np.where(inside, sf.values[np.minimum(idx, sf.n_steps - 1)], 0.0)
    return float(out) if arr.ndim == 0 else out


def lp_from_rearrangement(sf: StepFunction, p: float) -> float:
    """(sum v_i^p (t_i - t_{i-1}))^(1/p); sup value for p = inf.

    Raises NumericError where the sum or its root passes the float range.
    """
    if p == math.inf:
        return sf.sup_value
    if not (isinstance(p, (int, float)) and math.isfinite(p) and p > 0):
        raise DomainError(f"p must be in (0,inf) or inf, got {p!r}")
    if sf.n_steps == 0:
        return 0.0
    return _lp_root(np.diff(sf.breaks), sf.values, p)


def _log_approx_quasinorm(sf: StepFunction, s: float, tau: float) -> float:
    """log Q_{s,tau}(f*), formed in log space so that it keeps to the float
    range at any s and tau: -inf for the zero function.  Raises NumericError
    where the largest term alone passes the float range."""
    if sf.n_steps == 0:
        return -math.inf
    if tau == math.inf:
        with np.errstate(over="ignore"):
            return float((np.log(sf.values) + s * np.log(sf.breaks[1:])).max())
    # per-segment logs of the terms, divided by tau so that they keep to the
    # float range at any s and tau; terms below exp(-740) of the max drop out
    st = s * tau
    hi = sf.breaks[1:]
    lo = sf.breaks[1:-1]
    # log(t_i^st - t_{i-1}^st) = st log t_i + log(-expm1(st log(t_{i-1}/t_i))); the
    # first segment (t_0 = 0) has no tail.  A tail of -inf (st log ratio
    # underflowing to 0) drops its segment.
    tail = np.zeros(hi.size)
    # s log t_i and the next term overflow with opposite signs (a nan) only at s
    # above 1e305 and tau below about 1e-305, where the closed form falls back only
    # for a Q past the float range; the nan max raises that below.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        tail[1:] = np.log(-np.expm1(st * np.log(lo / hi[1:])))
        logs = np.log(sf.values) + s * np.log(hi) + (tail - math.log(s) - math.log(tau)) / tau
        m = logs.max()  # log Q >= m, and log Q = -inf where m is
        if not m <= _LOG_FLOAT_MAX:
            raise NumericError(_Q_OVERFLOW)
        if m == -math.inf:
            return -math.inf
        scaled = tau * (logs - m)
    total = np.exp(scaled[scaled > -740.0]).sum()
    return float(m + math.log(total) / tau)


def approx_quasinorm(sf: StepFunction, s: float, tau: float) -> float:
    """Q_{s,tau}(f*) = (int_0^inf [t^s f*(t)]^tau dt/t)^(1/tau).

    Closed form on steps: (sum v_i^tau (t_i^{s tau} - t_{i-1}^{s tau})/(s tau))^(1/tau);
    tau = inf gives sup t^s f*(t) = max v_i t_i^s.  Raises NumericError when Q
    lies past the float range.
    """
    if not (isinstance(s, (int, float)) and math.isfinite(s) and s > 0):
        raise DomainError(f"s must be positive and finite, got {s!r}")
    if tau != math.inf and not (math.isfinite(tau) and tau > 0):
        raise DomainError(f"tau must be positive or inf, got {tau!r}")
    if sf.n_steps == 0:
        return 0.0
    if tau == math.inf:
        with np.errstate(over="ignore"):
            vals = sf.values * sf.breaks[1:] ** s
        if np.all(np.isfinite(vals)):
            return float(vals.max())
    else:
        st = s * tau
        with np.errstate(over="ignore", invalid="ignore"):
            powers = sf.breaks**st
            terms = sf.values**tau * np.diff(powers) / st
            total = terms.sum()
            q = total ** (1.0 / tau)
        if np.all(np.isfinite(terms)) and math.isfinite(q) and total > 0.0:
            return float(q)
    log_q = _log_approx_quasinorm(sf, s, tau)
    if log_q > _LOG_FLOAT_MAX:
        raise NumericError(_Q_OVERFLOW)
    return math.exp(log_q)


def step_csv(breaks: np.ndarray, values: np.ndarray) -> tuple[tuple[str, str], list]:
    """The CSV header t_break,value and float64 array columns of a step
    function's breaks and values: each value holds on [t_break, next break),
    and a final row (the last break, 0.0) marks where the function falls to
    zero; the zero function's one row is 0.0,0.0."""
    return ("t_break", "value"), [breaks, np.append(values, 0.0)]


def step_csv_text(sf: StepFunction) -> str:
    return csv_text(*step_csv(sf.breaks, sf.values))

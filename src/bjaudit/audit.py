"""The inequality audit engine.

Each audit evaluates both sides of one claimed inequality on a t-grid and
reports pointwise margins rhs - lhs.  A grid of None means the
straddling_grid of the instance's rearrangement.  A negative minimum margin
below the tolerance marks the claim violated at that instance; violations are
results, not errors.  counterexample_search drives the audits over instance
generators to hunt for the worst margin.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError
from .jsonutil import dumps17, require_finite
from .measures import (
    DiscreteMeasureSpace,
    SimpleFunction,
    instance_csv_text,
    lp_norm,
)
from .params import ApproxParams, c_big, c_exact
from .rearrange import StepFunction, approx_quasinorm, decreasing_rearrangement, eval_step

__all__ = [
    "ConstantProvider",
    "PROVIDER_KINDS",
    "AuditReport",
    "audit_jackson",
    "audit_bernstein_right",
    "audit_weak_l1",
    "audit_q2",
    "counterexample_search",
    "SearchResult",
    "random_atoms",
    "indicator_sweep",
    "straddling_grid",
    "WEAK_L1_VARIANTS",
]

PROVIDER_KINDS = (
    "paper-c",
    "paper-with-factor",
    "paper-bigc-table",
    "sharp-oracle",
    "unit",
)

WEAK_L1_VARIANTS = ("paper-2-over-pi", "safe-unit")


@dataclass(frozen=True)
class ConstantProvider:
    """Resolves a claimed (or provably safe) Jackson constant from parameters.

    kinds: paper-c = c_{s,tau}; paper-with-factor = 2^((s+1)/2) c_{s,tau};
    paper-bigc-table = the tabulated C_{theta,q}; sharp-oracle = (s tau)^(1/tau),
    the analytically provable constant; unit = 1.
    """

    kind: str

    def __post_init__(self):
        kind = self.kind.replace("_", "-")
        if kind not in PROVIDER_KINDS:
            raise DomainError(
                f"unknown provider kind {self.kind!r}; choose from {PROVIDER_KINDS}"
            )
        object.__setattr__(self, "kind", kind)

    def value(self, p: ApproxParams) -> float:
        if self.kind == "paper-c":
            return c_exact(p)
        if self.kind == "paper-with-factor":
            return 2.0 ** ((p.s + 1.0) / 2.0) * c_exact(p)
        if self.kind == "paper-bigc-table":
            return c_big(p.theta, p.q, "table")
        if self.kind == "sharp-oracle":
            return (p.s * p.tau) ** (1.0 / p.tau) if p.tau != math.inf else 1.0
        return 1.0


@dataclass(frozen=True)
class AuditReport:
    """Pointwise audit of one inequality on one instance."""

    inequality_name: str
    params: dict
    grid: tuple  # t per point; None for scale-free (t-less) audits
    lhs: tuple
    rhs: tuple
    margin: tuple
    min_margin: float
    violated: bool
    witness_t: float | None
    abs_tol: float = 1e-12

    def to_json_dict(self) -> dict:
        return {
            "inequality_name": self.inequality_name,
            "params": self.params,
            "grid": list(self.grid),
            "lhs": list(self.lhs),
            "rhs": list(self.rhs),
            "margin": list(self.margin),
            "min_margin": self.min_margin,
            "violated": self.violated,
            "witness_t": self.witness_t,
            "abs_tol": self.abs_tol,
        }

    def to_json_text(self) -> str:
        return dumps17(self.to_json_dict()) + "\n"

    def to_csv_text(self) -> str:
        require_finite(itertools.chain(self.lhs, self.rhs, self.margin))
        lines = ["t,lhs,rhs,margin"]
        for t, lo, hi, mg in zip(self.grid, self.lhs, self.rhs, self.margin):
            t_txt = "" if t is None else repr(float(t))
            lines.append(f"{t_txt},{lo!r},{hi!r},{mg!r}")
        return "\n".join(lines) + "\n"


def _build_report(
    name: str, params: dict, grid, lhs, rhs, abs_tol: float
) -> AuditReport:
    lhs = [float(x) for x in lhs]
    rhs = [float(x) for x in rhs]
    margin = [r - l for l, r in zip(lhs, rhs)]
    min_margin = min(margin)
    violated = min_margin < -abs_tol
    witness = None
    if violated:
        w = grid[margin.index(min_margin)]
        witness = None if w is None else float(w)
    return AuditReport(
        inequality_name=name,
        params=params,
        grid=tuple(grid),
        lhs=tuple(lhs),
        rhs=tuple(rhs),
        margin=tuple(margin),
        min_margin=min_margin,
        violated=violated,
        witness_t=witness,
        abs_tol=abs_tol,
    )


def _check_grid(grid) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(grid, dtype=float))
    if arr.size == 0:
        raise UsageError("audit grid must be nonempty")
    if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise DomainError("audit grid entries must be positive finite reals")
    return arr


def _pointwise_audit(
    name: str, params: dict, sf: StepFunction, grid, rhs_of, abs_tol: float
) -> AuditReport:
    """f*(t) <= rhs_of(ts) at each t of the grid (None: straddling_grid(sf))."""
    ts = _check_grid(straddling_grid(sf) if grid is None else grid)
    return _build_report(
        name, params, [float(t) for t in ts], eval_step(sf, ts), rhs_of(ts), abs_tol
    )


def audit_jackson(
    f: SimpleFunction,
    sp: DiscreteMeasureSpace,
    p: ApproxParams,
    provider: ConstantProvider,
    grid=None,
    abs_tol: float = 1e-12,
) -> AuditReport:
    """f*(t) <= t^-s * const * Q_{s,tau}(f) pointwise on the grid."""
    sf = decreasing_rearrangement(f, sp)
    q_val = approx_quasinorm(sf, p.s, p.tau) if sf.n_steps else 0.0
    const = provider.value(p)
    return _pointwise_audit(
        "jackson",
        {"s": p.s, "tau": p.tau, "provider": provider.kind, "constant": const},
        sf,
        grid,
        lambda ts: ts ** (-p.s) * const * q_val,
        abs_tol,
    )


def audit_bernstein_right(
    f: SimpleFunction,
    sp: DiscreteMeasureSpace,
    p: ApproxParams,
    abs_tol: float = 1e-12,
) -> AuditReport:
    """c_{s,tau} * Q_{s,tau}(f) <= ||f||_0^s * ||f||_inf (single, t-less point)."""
    sf = decreasing_rearrangement(f, sp)
    q_val = approx_quasinorm(sf, p.s, p.tau) if sf.n_steps else 0.0
    lhs = c_exact(p) * q_val
    rhs = sf.support_mass**p.s * sf.sup_value if sf.n_steps else 0.0
    return _build_report(
        "bernstein_right",
        {"s": p.s, "tau": p.tau},
        [None],
        [lhs],
        [rhs],
        abs_tol,
    )


def _weak_l1_constant(variant: str) -> float:
    variant = variant.replace("_", "-")
    if variant not in WEAK_L1_VARIANTS:
        raise DomainError(
            f"unknown weak-L1 variant {variant!r}; choose from {WEAK_L1_VARIANTS}"
        )
    return 2.0 / math.pi if variant == "paper-2-over-pi" else 1.0


def audit_weak_l1(
    f: SimpleFunction,
    sp: DiscreteMeasureSpace,
    variant: str,
    grid=None,
    abs_tol: float = 1e-12,
) -> AuditReport:
    """f*(t) <= const * ||f||_1 / t; const is 2/pi (claimed) or 1 (provable)."""
    const = _weak_l1_constant(variant)
    l1 = lp_norm(f, sp, 1.0)
    return _pointwise_audit(
        "weak_l1",
        {"variant": variant.replace("_", "-"), "constant": const},
        decreasing_rearrangement(f, sp),
        grid,
        lambda ts: const * l1 / ts,
        abs_tol,
    )


def audit_q2(
    f: SimpleFunction,
    sp: DiscreteMeasureSpace,
    theta: float,
    grid=None,
    abs_tol: float = 1e-12,
) -> AuditReport:
    """q=2 family: f*(t) <= t^(1-1/theta) (sin(pi theta)/(pi theta))^(1/(2 theta)) Q_{s,tau}.

    Here s = (1-theta)/theta and tau = 2*theta; at theta = 1/2 this is exactly
    the weak-L1 claim with constant 2/pi.
    """
    if not 0.0 < theta < 1.0:
        raise DomainError(f"theta must lie in (0,1), got {theta!r}")
    s = (1.0 - theta) / theta
    tau = 2.0 * theta
    const = (math.sin(math.pi * theta) / (math.pi * theta)) ** (1.0 / (2.0 * theta))
    sf = decreasing_rearrangement(f, sp)
    q_val = approx_quasinorm(sf, s, tau) if sf.n_steps else 0.0
    return _pointwise_audit(
        "q2",
        {"theta": theta, "s": s, "tau": tau, "constant": const},
        sf,
        grid,
        lambda ts: ts ** (1.0 - 1.0 / theta) * const * q_val,
        abs_tol,
    )


def straddling_grid(
    sf: StepFunction, rel: float = 1e-3, extend: float = 1.5
) -> np.ndarray:
    """Positive t-grid straddling every break (never landing exactly on one).

    Exact break points are excluded on purpose: there the strict-inequality
    E-functional takes the left limit of f* while eval_step is
    right-continuous, so equality claims only make sense off the breaks.
    """
    if sf.n_steps == 0:
        return np.array([1.0])
    pts = []
    for b in sf.breaks[1:]:
        pts.extend([b * (1.0 - rel), b * (1.0 + rel)])
    mids = (sf.breaks[:-1] + sf.breaks[1:]) / 2.0
    pts.extend(m for m in mids if m > 0)
    pts.append(sf.breaks[-1] * extend)
    return np.unique(np.array([p for p in pts if p > 0]))


def random_atoms(n_max: int, seed: int, n_draws: int = 200):
    """Seeded finite generator of random instances (ties and zeros included)."""
    if n_max < 1 or n_draws < 0:
        raise DomainError("need n_max >= 1 and n_draws >= 0")
    rng = np.random.default_rng(seed)
    for _ in range(n_draws):
        n = int(rng.integers(1, n_max + 1))
        weights = rng.uniform(0.1, 3.0, n)
        mags = rng.uniform(0.05, 5.0, n)
        tie_mask = rng.random(n) < 0.25
        mags[tie_mask] = np.round(mags[tie_mask], 1)
        zero_mask = rng.random(n) < 0.1
        mags[zero_mask] = 0.0
        yield (
            DiscreteMeasureSpace(weights=weights),
            SimpleFunction(mags),
        )


def indicator_sweep(masses=None):
    """Unit-height indicators across a sweep of support masses."""
    if masses is None:
        masses = np.geomspace(0.25, 4.0, 9)
    for mass in masses:
        yield (
            DiscreteMeasureSpace(weights=np.array([float(mass)])),
            SimpleFunction(np.array([1.0])),
        )


@dataclass(frozen=True)
class SearchResult:
    """Worst margin found over a generator of instances."""

    report: AuditReport | None
    instance_csv: str | None
    n_instances: int

    def to_json_dict(self) -> dict:
        return {
            "n_instances": self.n_instances,
            "report": None if self.report is None else self.report.to_json_dict(),
            "instance_csv": self.instance_csv,
        }


def counterexample_search(
    p: ApproxParams,
    provider: ConstantProvider,
    generator,
    budget: int | None = None,
    abs_tol: float = 1e-12,
) -> SearchResult:
    """Audit the Jackson claim over generated instances; keep the worst report.

    A zero budget (or empty generator) returns an empty result claiming
    nothing.  Deterministic whenever the generator is.
    """
    worst: AuditReport | None = None
    worst_instance: str | None = None
    count = 0
    for sp, f in generator:
        if budget is not None and count >= budget:
            break
        count += 1
        report = audit_jackson(f, sp, p, provider, abs_tol=abs_tol)
        if worst is None or report.min_margin < worst.min_margin:
            worst = report
            worst_instance = instance_csv_text(sp, f)
    return SearchResult(report=worst, instance_csv=worst_instance, n_instances=count)

"""Parameter conversions and approximation constants.

The whole package runs on one parameter quadruple: an approximation order
s > 0 with summation exponent tau, coupled to an interpolation pair
(theta, q) through

    s + 1 = 1/theta,        tau = theta * q.

Several published normalization constants for this scale are mutually
inconsistent; this module exposes each candidate separately (``c_exact``,
``n_factor_algebraic``, ``n_factor_integral``, ``c_big``) together with a
consistency reporter that quantifies the disagreement instead of hiding it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError, NumericError

__all__ = [
    "ApproxParams",
    "params_from_s_tau",
    "params_from_theta_q",
    "c_exact",
    "n_factor_algebraic",
    "n_factor_integral",
    "c_big",
    "constant_consistency_report",
    "PROVIDER_KINDS",
    "WEAK_L1_VARIANTS",
]

# The Jackson constants an audit may claim (audit.ConstantProvider) and the
# weak-L1 constants; kept here so that the CLI offers them without numpy.
PROVIDER_KINDS = ("paper-c", "paper-with-factor", "paper-bigc-table", "sharp-oracle", "unit")
WEAK_L1_VARIANTS = ("paper-2-over-pi", "safe-unit")


def _check_finite_positive(name: str, x: float) -> None:
    if not (isinstance(x, (int, float)) and math.isfinite(x) and x > 0):
        raise DomainError(f"{name} must be a positive finite real, got {x!r}")


@dataclass(frozen=True)
class ApproxParams:
    """Coupled parameter quadruple; construct via params_from_s_tau."""

    theta: float
    q: float
    s: float
    tau: float

    def __post_init__(self):
        if not (0.0 < self.theta < 1.0):
            raise DomainError(f"theta must lie in (0,1), got {self.theta!r}")
        _check_finite_positive("s", self.s)
        if not self.tau == self.q == math.inf:  # tau is infinite iff q is
            _check_finite_positive("tau", self.tau)
            _check_finite_positive("q", self.q)
        if abs((self.s + 1.0) * self.theta - 1.0) > 4e-16:
            raise DomainError("coupling s + 1 = 1/theta violated")
        if math.isfinite(self.q) and abs(self.tau - self.theta * self.q) > 4e-16 * max(
            1.0, self.tau
        ):
            raise DomainError("coupling tau = theta*q violated")


def params_from_s_tau(s: float, tau: float) -> ApproxParams:
    """Build the quadruple from (s, tau); tau = inf is allowed."""
    _check_finite_positive("s", s)
    if tau != math.inf:
        _check_finite_positive("tau", tau)
    theta = 1.0 / (s + 1.0)
    q = math.inf if tau == math.inf else tau * (s + 1.0)
    return _converted(f"s = {s!r}, tau = {tau!r}", theta, q, float(s), float(tau))


def params_from_theta_q(theta: float, q: float) -> ApproxParams:
    """Build the quadruple from (theta, q); q = inf is allowed."""
    if not (isinstance(theta, (int, float)) and 0.0 < theta < 1.0):
        raise DomainError(f"theta must lie in (0,1), got {theta!r}")
    if q != math.inf:
        _check_finite_positive("q", q)
    s = 1.0 / theta - 1.0
    tau = math.inf if q == math.inf else theta * q
    return _converted(f"theta = {theta!r}, q = {q!r}", float(theta), float(q), s, tau)


def _converted(given: str, theta: float, q: float, s: float, tau: float) -> ApproxParams:
    """The quadruple converted from the pair `given`; a value that rounds out
    of its range (q past the float range, theta to 1, s to inf, tau to 0)
    raises a DomainError that names `given` beside it.
    """
    try:
        return ApproxParams(theta=theta, q=q, s=s, tau=tau)
    except DomainError as exc:
        raise DomainError(f"converting {given}: {exc}") from None


def c_exact(p: ApproxParams) -> float:
    """The exact constant c_{s,tau} = [s/(tau*(s+1)^2)]^(1/tau), 1 for tau=inf.

    Where tau*(s+1)^2 overflows (s past 1.3e154), the base is taken as
    s/(s+1)/(s+1)/tau, and in log space where that underflows.  Raises
    NumericError where the constant itself overflows, as for small tau.
    """
    if p.tau == math.inf:
        return 1.0
    try:
        denom = p.tau * (p.s + 1.0) ** 2
    except OverflowError:
        denom = math.inf
    if denom < math.inf:
        try:
            return (p.s / denom) ** (1.0 / p.tau)
        except OverflowError:
            raise NumericError(
                f"c_exact overflows at s={p.s!r}, tau={p.tau!r}"
            ) from None
    # Here the base is below 1, so neither form can overflow.
    base = p.s / (p.s + 1.0) / (p.s + 1.0) / p.tau
    if base >= sys.float_info.min:
        return base ** (1.0 / p.tau)
    log_base = math.log(p.s / (p.s + 1.0)) - math.log1p(p.s) - math.log(p.tau)
    return math.exp(log_base / p.tau)


def n_factor_algebraic(theta: float, q: float) -> float:
    """Algebraic normalization factor [q*theta*(1-theta)]^(1/q)."""
    if not 0.0 < theta < 1.0:
        raise DomainError(f"theta must lie in (0,1), got {theta!r}")
    if q == math.inf:
        raise DomainError("algebraic normalization factor is undefined for q=inf")
    _check_finite_positive("q", q)
    return (q * theta * (1.0 - theta)) ** (1.0 / q)


def n_factor_integral(theta: float, q: float) -> float:
    """Integral normalization factor (int_0^inf |t^-theta * t/sqrt(1+t^2)|^q dt/t)^(-1/q).

    The substitution u = t^2 turns the integral into the Beta integral
    (1/2) B(a, b) with a = (1-theta) q/2 and b = theta q/2, so
    N = [B(a, b)/2]^(-1/q), evaluated in log space through math.lgamma.
    For q=2 this is the closed form (2 sin(pi*theta)/pi)^(1/2).
    """
    if not 0.0 < theta < 1.0:
        raise DomainError(f"theta must lie in (0,1), got {theta!r}")
    if q == math.inf:
        raise DomainError("integral normalization factor is undefined for q=inf")
    _check_finite_positive("q", q)
    a = 0.5 * (1.0 - theta) * q
    b = 0.5 * theta * q
    try:
        log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    except OverflowError as exc:  # lgamma's range ends near 2.5e305
        raise NumericError(f"log Beta overflows at q={q!r}") from exc
    return math.exp(-(log_beta - math.log(2.0)) / q)


def _float_pow(base: float, exponent: float, message: str) -> float:
    """base ** exponent on Python floats; NumericError(message) where it overflows."""
    try:
        return base**exponent
    except OverflowError:
        raise NumericError(message) from None


def c_big(theta: float, q: float, variant: str = "table") -> float:
    """Interpolation-couple constant C_{theta,q}.

    variant="table": the tabulated three-branch value, i.e.
    (sin(pi*theta)/(pi*theta))^(1/(2 theta)) for q=2, 2^(1/(2 theta)) for
    q=inf, and 2^(1/(2 theta)) * (q^2 theta)^(-1/(q theta)) * N^(1/theta)
    with the integral N otherwise.

    variant="consistency": 2^(1/(2 theta)) * c_exact, the value forced by the
    algebraic identity relating C and c.  The two variants disagree; see
    constant_consistency_report.
    """
    if not 0.0 < theta < 1.0:
        raise DomainError(f"theta must lie in (0,1), got {theta!r}")
    overflow = f"C_theta,q overflows at theta={theta!r}, q={q!r}"
    if variant == "consistency":
        c = c_exact(params_from_theta_q(theta, q))
        return _float_pow(2.0, 1.0 / (2.0 * theta), overflow) * c
    if variant != "table":
        raise DomainError(f"unknown c_big variant {variant!r}")
    if q == math.inf:
        return _float_pow(2.0, 1.0 / (2.0 * theta), overflow)
    _check_finite_positive("q", q)
    if q == 2.0:
        return (math.sin(math.pi * theta) / (math.pi * theta)) ** (1.0 / (2.0 * theta))
    n_int = n_factor_integral(theta, q)
    return (
        _float_pow(2.0, 1.0 / (2.0 * theta), overflow)
        * _float_pow(q * q * theta, -1.0 / (q * theta), overflow)
        * _float_pow(n_int, 1.0 / theta, overflow)
    )


def constant_consistency_report(theta: float, q: float) -> dict:
    """Both C_{theta,q} candidates and their absolute difference.

    Never raises on disagreement; the difference is the point.
    """
    if q == math.inf:
        raise DomainError("consistency report requires q < inf")
    table = c_big(theta, q, "table")
    consistency = c_big(theta, q, "consistency")
    return {
        "theta": float(theta),
        "q": float(q),
        "table_value": table,
        "consistency_value": consistency,
        "abs_diff": abs(table - consistency),
    }

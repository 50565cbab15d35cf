import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bjaudit import (
    DomainError,
    NumericError,
    c_big,
    c_exact,
    constant_consistency_report,
    n_factor_algebraic,
    n_factor_integral,
    params_from_s_tau,
    params_from_theta_q,
)

thetas = st.floats(min_value=0.05, max_value=0.95)
qs = st.floats(min_value=0.2, max_value=30.0)


def test_coupling_round_trip():
    p = params_from_s_tau(2.0, 2.0)
    assert p.theta == pytest.approx(1.0 / 3.0, abs=1e-16)
    assert p.q == pytest.approx(6.0, abs=1e-15)
    p2 = params_from_theta_q(p.theta, p.q)
    assert p2.s == pytest.approx(2.0, rel=1e-14)
    assert p2.tau == pytest.approx(2.0, rel=1e-14)


def test_coupling_infinite_tau():
    p = params_from_s_tau(1.5, math.inf)
    assert p.q == math.inf
    assert c_exact(p) == 1.0
    p2 = params_from_theta_q(0.4, math.inf)
    assert p2.tau == math.inf


@pytest.mark.parametrize(
    "bad",
    [
        lambda: params_from_s_tau(0.0, 1.0),
        lambda: params_from_s_tau(-1.0, 1.0),
        lambda: params_from_s_tau(1.0, 0.0),
        lambda: params_from_s_tau(math.nan, 1.0),
        lambda: params_from_theta_q(0.0, 2.0),
        lambda: params_from_theta_q(1.0, 2.0),
        lambda: params_from_theta_q(0.5, -2.0),
    ],
)
def test_coupling_domain_errors(bad):
    with pytest.raises(DomainError):
        bad()


def test_c_exact_reference_points():
    # s = tau = 2: [2/(2*9)]^(1/2) = 1/3
    assert abs(c_exact(params_from_s_tau(2.0, 2.0)) - 1.0 / 3.0) <= 1e-15
    # s = tau = 1: [1/(1*4)] = 1/4
    assert abs(c_exact(params_from_s_tau(1.0, 1.0)) - 0.25) <= 1e-15


@given(theta=thetas, q=qs)
@settings(max_examples=200)
def test_c_exact_identity_in_theta_q(theta, q):
    # c_{s,tau} rewritten through the coupled pair: [(1-theta)/q]^(1/(q theta))
    p = params_from_theta_q(theta, q)
    direct = c_exact(p)
    rewritten = ((1.0 - theta) / q) ** (1.0 / (q * theta))
    assert direct == pytest.approx(rewritten, rel=1e-12)


@given(theta=thetas, q=st.floats(min_value=0.5, max_value=20.0))
@settings(max_examples=100)
def test_c_exact_via_algebraic_normalization(theta, q):
    # c = N_alg^(1/theta) * (theta q^2)^(-1/(q theta))
    p = params_from_theta_q(theta, q)
    n_alg = n_factor_algebraic(theta, q)
    combo = n_alg ** (1.0 / theta) * (theta * q * q) ** (-1.0 / (q * theta))
    assert c_exact(p) == pytest.approx(combo, rel=1e-11)


def test_two_normalizations_disagree_at_half_two():
    # The algebraic and integral normalization factors are different
    # quantities; both are kept and neither is substituted for the other.
    alg = n_factor_algebraic(0.5, 2.0)
    integ = n_factor_integral(0.5, 2.0)
    assert alg == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert integ == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-9)
    assert abs(alg - integ) > 0.08


@pytest.mark.parametrize("theta", [0.1 * k for k in range(1, 10)])
def test_integral_normalization_closed_form_q2(theta):
    expected = math.sqrt(2.0 * math.sin(math.pi * theta) / math.pi)
    assert n_factor_integral(theta, 2.0) == pytest.approx(expected, abs=1e-8)


def test_integral_normalization_matches_mpmath_beta():
    # N = [B((1-theta) q/2, theta q/2) / 2]^(-1/q), at 50 digits
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(50):
        for k in range(1, 20):
            theta = 0.05 * k
            for q in (0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0):
                th, qq = mpmath.mpf(theta), mpmath.mpf(q)
                exact = (mpmath.beta((1 - th) * qq / 2, th * qq / 2) / 2) ** (-1 / qq)
                got = n_factor_integral(theta, q)
                worst = max(worst, float(abs(got - exact) / exact))
    assert worst <= 1e-14


def test_integral_normalization_matches_mpmath_beta_at_the_edges():
    # theta near 0 and 1, q from 0.1 to 1e5, at 30 digits.  The measured worst
    # error is 3.3e-14, at theta = 0.001, q = 0.1: lgamma(b) is about 9.9 there,
    # and dividing its rounding by q = 0.1 scales it tenfold.
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(30):
        for theta in (0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999):
            for q in (0.1, 0.5, 1.0, 2.0, 7.0, 50.0, 1e3, 1e5):
                th, qq = mpmath.mpf(theta), mpmath.mpf(q)
                exact = (mpmath.beta((1 - th) * qq / 2, th * qq / 2) / 2) ** (-1 / qq)
                got = n_factor_integral(theta, q)
                worst = max(worst, float(abs(got - exact) / exact))
    assert worst <= 1e-13


def test_integral_normalization_overflow_is_numeric_error():
    # a + b = q/2 beyond lgamma's range
    with pytest.raises(NumericError):
        n_factor_integral(0.5, 1e306)


def test_integral_normalization_rejects_infinite_q():
    with pytest.raises(DomainError):
        n_factor_integral(0.5, math.inf)
    with pytest.raises(DomainError):
        n_factor_algebraic(0.5, math.inf)


def test_c_big_q2_closed_form():
    for theta in (0.25, 0.5, 0.75):
        expected = (math.sin(math.pi * theta) / (math.pi * theta)) ** (
            1.0 / (2.0 * theta)
        )
        assert c_big(theta, 2.0) == pytest.approx(expected, rel=1e-12)


def test_c_big_q_infinity():
    # 2^(1/(2 theta)): the exponent is (s+1)/2, so theta = 1/2 gives 2
    assert c_big(0.5, math.inf) == pytest.approx(2.0, rel=1e-14)
    assert c_big(0.25, math.inf) == pytest.approx(2.0**2.0, rel=1e-14)


def test_c_big_general_branch_matches_q2_closed_form():
    # The general expression 2^(1/(2 theta)) (q^2 theta)^(-1/(q theta)) N^(1/theta)
    # with the integral normalization must collapse to the tabulated q = 2 form.
    for theta in (0.3, 0.5, 0.7):
        n_int = n_factor_integral(theta, 2.0)
        general = (
            2.0 ** (1.0 / (2.0 * theta))
            * (4.0 * theta) ** (-1.0 / (2.0 * theta))
            * n_int ** (1.0 / theta)
        )
        assert general == pytest.approx(c_big(theta, 2.0), rel=1e-8)


def test_c_big_consistency_variant():
    p = params_from_theta_q(0.5, 2.0)
    assert c_big(0.5, 2.0, "consistency") == pytest.approx(
        2.0 * c_exact(p), rel=1e-14
    )
    with pytest.raises(DomainError):
        c_big(0.5, 2.0, "no-such-variant")


def test_consistency_report_half_two():
    rep = constant_consistency_report(0.5, 2.0)
    assert rep["table_value"] == pytest.approx(2.0 / math.pi, rel=1e-9)
    assert rep["consistency_value"] == pytest.approx(0.5, abs=1e-15)
    assert rep["abs_diff"] == pytest.approx(abs(2.0 / math.pi - 0.5), abs=1e-9)


def test_consistency_report_rejects_infinite_q():
    with pytest.raises(DomainError):
        constant_consistency_report(0.5, math.inf)


@pytest.mark.parametrize(
    "s, tau",
    [(s, tau) for s in (1.5e154, 1e200, 1e300) for tau in (1.0, 2.0, 4.0)]
    + [(1e200, 1e10), (1e200, 1e108), (2e154, 5e153)],
)
def test_c_exact_past_the_square_overflow_matches_mpmath(s, tau):
    # (s+1)^2 overflows for s past 1.3e154, while c (about 1/(s tau)^(1/tau))
    # is representable; the last two cases take the log-space branch
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        ss, tt = mpmath.mpf(s), mpmath.mpf(tau)
        exact = (ss / (tt * (ss + 1) ** 2)) ** (1 / tt)
        got = c_exact(params_from_s_tau(s, tau))
        assert abs(got - exact) <= 1e-14 * exact


def test_c_exact_direct_form_denominator_overflow():
    # tau (s+1)^2 = 1e420 overflows although (s+1)^2 does not: c is about 1
    c = c_exact(params_from_s_tau(1e150, 1e120))
    assert c == pytest.approx(1.0, abs=1e-100)


def test_c_big_overflow_is_numeric_error():
    # 2^(1/(2 theta)) at theta = 1e-200 overflows a float
    for variant, q in (("table", 1e200), ("table", math.inf), ("consistency", 1e200)):
        with pytest.raises(NumericError, match="overflows"):
            c_big(1e-200, q, variant)

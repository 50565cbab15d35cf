import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bjaudit import functionals
from bjaudit import (
    DiscreteMeasureSpace,
    DomainError,
    NumericError,
    QuadratureError,
    SimpleFunction,
    UsageError,
    decreasing_rearrangement,
    e_exhaustive,
    e_functional_L0Linf,
    e_functional_trig,
    eval_step,
    interp_quasinorm,
    k_envelope,
    k2_exhaustive,
    k2_functional,
    k2_scalar,
    kinf_exhaustive,
    kinf_functional,
    load_trig_csv,
    truncation_profile,
    approx_quasinorm,
    random_atoms,
    sorted_mass_profile,
)


def rand_instance(rng, n_max=8):
    n = int(rng.integers(1, n_max + 1))
    ws = rng.uniform(0.1, 3.0, n)
    mags = rng.uniform(0.0, 5.0, n)
    ties = rng.random(n) < 0.3
    mags[ties] = np.round(mags[ties], 0)
    return DiscreteMeasureSpace(weights=ws), SimpleFunction(mags)


def straddle_points(sf):
    pts = []
    for b in sf.breaks[1:]:
        pts += [b * (1 - 1e-6), b * (1 + 1e-6)]
    pts += list((sf.breaks[:-1] + sf.breaks[1:]) / 2)
    pts.append(sf.breaks[-1] * 2.0)
    return sorted(p for p in set(pts) if p > 0)


def test_e_identity_small_instances():
    # The oracle over all 2^n splits must reproduce f* exactly away from the
    # breaks.
    rng = np.random.default_rng(11)
    for _ in range(60):
        sp, f = rand_instance(rng, n_max=7)
        sf = decreasing_rearrangement(f, sp)
        ts = straddle_points(sf) if sf.n_steps else [0.5, 1.0]
        brute = e_exhaustive(f, sp, ts)
        for t, b in zip(ts, brute):
            direct = e_functional_L0Linf(f, sp, t)
            assert b == direct  # exact float equality


def test_e_strict_inequality_takes_left_limit_at_breaks():
    # At t exactly equal to a break the strict constraint ||g||_0 < t excludes
    # the split of mass t, so the oracle lands on the previous step value
    # while eval_step (right-continuous) gives the next one.
    sp = DiscreteMeasureSpace(weights=np.array([1.0, 1.0]))
    f = SimpleFunction(np.array([2.0, 1.0]))
    at_break = e_exhaustive(f, sp, 1.0)
    assert at_break == 2.0
    sf = decreasing_rearrangement(f, sp)
    assert eval_step(sf, 1.0) == 1.0


def test_e_oracle_takes_the_left_limit_at_every_break():
    # each split's mass is summed in f*'s cumulative order, so the top atoms'
    # split has m equal to the break and E there is f*(t-) exactly
    n_breaks = 0
    for sp, f in random_atoms(n_max=10, seed=3, n_draws=200):
        sf = decreasing_rearrangement(f, sp)
        assert e_exhaustive(f, sp, sf.breaks[1:]).tolist() == sf.values.tolist()
        n_breaks += sf.n_steps
    assert n_breaks == 934


def test_e_bruteforce_infeasible_marker():
    sp = DiscreteMeasureSpace(weights=np.array([1.0]))
    f = SimpleFunction(np.array([3.0]))
    with pytest.raises(DomainError):
        e_exhaustive(f, sp, -1.0)
    with pytest.raises(DomainError):
        e_exhaustive(f, sp, [1.0, 0.0])


@pytest.mark.parametrize("oracle", [e_exhaustive, k2_exhaustive, kinf_exhaustive])
def test_exhaustive_oracles_refuse_21_atoms_before_enumerating(oracle):
    # 2^21 rows of any dtype take at least 2 MiB: the refusal comes first
    sp = DiscreteMeasureSpace(weights=np.ones(21))
    f = SimpleFunction(np.arange(1.0, 22.0))
    tracemalloc.start()
    try:
        with pytest.raises(UsageError, match=r"n=21 > 20"):
            oracle(f, sp, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("oracle", [e_exhaustive, k2_exhaustive, kinf_exhaustive])
def test_exhaustive_oracles_hold_o_2n_memory(oracle):
    # 2^16 splits in a few arrays of 2^16 floats, not of 2^16 x 16
    rng = np.random.default_rng(16)
    sp = DiscreteMeasureSpace(weights=rng.uniform(0.1, 3.0, 16))
    f = SimpleFunction(rng.uniform(0.05, 5.0, 16))
    tracemalloc.start()
    try:
        oracle(f, sp, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    with pytest.raises(UsageError, match="15 atoms"):
        oracle(f, DiscreteMeasureSpace(weights=np.ones(15)), 1.0)


def test_trig_tail_identity():
    coeffs = {0: 1.0 + 0j, 1: 0.5 + 0j, -1: 0.5j, 2: 0.25 + 0j}
    assert e_functional_trig(coeffs, 1) == pytest.approx(
        math.sqrt(0.25 + 0.25 + 0.0625), rel=1e-15
    )
    assert e_functional_trig(coeffs, 2) == 0.25
    assert e_functional_trig(coeffs, 3) == 0.0
    with pytest.raises(DomainError):
        e_functional_trig(coeffs, 0)


def _file_order_trig_error(coeffs, n):
    """The l2 tail at one n, summed in the coefficients' own order: the reference."""
    return math.sqrt(sum(abs(v) ** 2 for k, v in coeffs.items() if abs(int(k)) >= n))


_COEFF = st.floats(-1e100, 1e100, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.integers(-30, 30), st.builds(complex, _COEFF, _COEFF), max_size=61),
    st.integers(1, 40),
)
def test_trig_errors_agree_with_fsum(coeffs, n_max):
    # keys k and -k share one |k|, so ties are drawn as often as not
    table = functionals._trig_errors(coeffs, range(1, n_max + 1))
    tol = (len(coeffs) + 1) * 2.0**-53
    for n, got in enumerate(table, start=1):
        want = math.sqrt(math.fsum(abs(v) ** 2 for k, v in coeffs.items() if abs(k) >= n))
        assert got == e_functional_trig(coeffs, n)  # one code path, the same bits
        assert abs(got - want) <= tol * want
        assert abs(_file_order_trig_error(coeffs, n) - want) <= tol * want


def test_trig_errors_overflow_is_numeric_error():
    with pytest.raises(NumericError, match="overflows at n = 1"):
        functionals._trig_errors({0: 1.0, 1: 1e200}, [1, 2])  # a square overflows
    with pytest.raises(NumericError, match="overflows at n = 1"):
        e_functional_trig({1: 1.3e154, 2: 1.3e154}, 1)  # the sum overflows
    assert e_functional_trig({1: 1.3e154, 2: 1.3e154}, 2) == 1.3e154


def test_trig_csv_loader():
    text = "k,re,im\n0,1.0,0.0\n2,0.0,-0.5\n"
    coeffs = load_trig_csv(text)
    assert coeffs == {0: 1.0 + 0j, 2: -0.5j}
    assert load_trig_csv("k,re,im\n") == {}  # the zero function
    with pytest.raises(UsageError):
        load_trig_csv("k,re,im\n0,1.0,0.0\n0,2.0,0.0\n")
    with pytest.raises(UsageError):
        load_trig_csv("frequency,re,im\n0,1.0,0.0\n")


def test_k2_scalar_reference():
    assert abs(k2_scalar(1.0, 1.0) - 2.0**-0.5) <= 1e-15
    assert k2_scalar(2.0, 3.0) == pytest.approx(6.0 / math.sqrt(5.0), rel=1e-15)
    with pytest.raises(DomainError):
        k2_scalar(0.0)


def test_truncation_profile_contents():
    sp = DiscreteMeasureSpace(weights=np.array([0.5, 1.0, 2.0]))
    f = SimpleFunction(np.array([5.0, 3.0, 1.0]))
    m, v = truncation_profile(f, sp)
    got = sorted(zip(v.tolist(), m.tolist()))
    assert got == [(0.0, 3.5), (1.0, 1.5), (3.0, 0.5), (5.0, 0.0)]


def _unique_searchsorted_profile(f, sp):
    """The truncation profile through np.unique and searchsorted."""
    mags_desc, cumw = sorted_mass_profile(f, sp)
    if mags_desc.size == 0:
        return np.zeros(1), np.zeros(1)
    distinct = np.unique(mags_desc)
    counts = np.searchsorted(-mags_desc, -distinct, side="left")
    mass_above = np.where(counts > 0, cumw[np.maximum(counts - 1, 0)], 0.0)
    return np.concatenate([[cumw[-1]], mass_above]), np.concatenate([[0.0], distinct])


@given(
    atoms=st.lists(
        st.tuples(
            st.sampled_from([1e-200, 1e-3, 0.25, 1.0, 2.5, 1e6]),
            st.one_of(
                st.sampled_from([0.0, 0.5, 1.0, 3.0]),
                st.floats(min_value=0.0, max_value=1e3, allow_subnormal=False),
            ),
        ),
        min_size=1,
        max_size=12,
    )
)
@example(atoms=[(1.0, 0.0), (2.0, 0.0)])  # f = 0
@example(atoms=[(0.7, 2.0)])  # one atom
@example(atoms=[(0.5, 3.0), (1.0, 3.0), (2.0, 3.0)])  # all magnitudes tied
@example(atoms=[(0.5, 0.0), (1.0, 4.0), (2.0, 0.0), (0.3, 1.0)])  # zeros
@example(atoms=[(1.0, 2.0), (1e-200, 1.0), (1.0, 0.5)])  # 1e-200 absorbed into the sum
@settings(max_examples=300, deadline=None)
def test_truncation_profile_matches_unique_searchsorted(atoms):
    weights, mags = (np.array(x) for x in zip(*atoms))
    f, sp = SimpleFunction(mags), DiscreteMeasureSpace(weights=weights)
    for got, want in zip(truncation_profile(f, sp), _unique_searchsorted_profile(f, sp)):
        assert got.dtype == want.dtype == float and got.ndim == 1
        assert got.tobytes() == want.tobytes()


@given(seed=st.integers(min_value=0, max_value=10_000), t=st.floats(min_value=1e-3, max_value=50.0))
@settings(max_examples=200, deadline=None)
def test_k_sandwich(seed, t):
    rng = np.random.default_rng(seed)
    sp, f = rand_instance(rng)
    k2 = k2_functional(f, sp, t)
    kinf = kinf_functional(f, sp, t)
    assert kinf <= k2 + 1e-12
    assert k2 <= math.sqrt(2.0) * kinf + 1e-12


def test_truncation_scan_matches_exhaustive_oracle():
    rng = np.random.default_rng(23)
    for _ in range(50):
        sp, f = rand_instance(rng, n_max=9)
        for t in (0.1, 0.7, 1.3, 5.0):
            assert k2_functional(f, sp, t) == pytest.approx(
                k2_exhaustive(f, sp, t), rel=1e-12, abs=1e-12
            )
            assert kinf_functional(f, sp, t) == pytest.approx(
                kinf_exhaustive(f, sp, t), rel=1e-12, abs=1e-12
            )


def test_k_limits():
    sp = DiscreteMeasureSpace(weights=np.array([1.0, 2.0]))
    f = SimpleFunction(np.array([4.0, 1.0]))
    # t small: K2 ~ t ||f||_inf; t large: K2 = ||f||_0
    assert k2_functional(f, sp, 1e-9) == pytest.approx(4e-9, rel=1e-6)
    assert k2_functional(f, sp, 1e9) == pytest.approx(3.0, rel=1e-12)
    assert kinf_functional(f, sp, 1e9) == 3.0


def test_interp_one_atom_closed_form():
    sp = DiscreteMeasureSpace(weights=np.array([2.0]))
    f = SimpleFunction(np.array([3.0]))
    theta, q = 1.0 / 3.0, 6.0
    closed = 2.0 ** (1 - theta) * 3.0**theta * (q * theta * (1 - theta)) ** (-1.0 / q)
    assert interp_quasinorm(f, sp, theta, q) == pytest.approx(closed, rel=1e-8)
    # q = inf collapses to w^(1-theta) v^theta
    assert interp_quasinorm(f, sp, theta, math.inf) == pytest.approx(
        2.0 ** (1 - theta) * 3.0**theta, rel=1e-8
    )


def test_interp_kinf_exact_identity():
    # With the max-form K the integral evaluates in closed form:
    # int (t^-theta K_inf)^q dt/t = (1/theta) Q_{s,tau}^(theta q)
    # at s = 1/theta - 1, tau = theta q.
    rng = np.random.default_rng(5)
    for _ in range(10):
        sp, f = rand_instance(rng, n_max=6)
        if not np.any(f.magnitudes > 0):
            continue
        for theta, q in ((1.0 / 3.0, 6.0), (0.4, 3.0)):
            s = 1.0 / theta - 1.0
            tau = theta * q
            sf = decreasing_rearrangement(f, sp)
            q_val = approx_quasinorm(sf, s, tau)
            lhs = interp_quasinorm(f, sp, theta, q, kfunc="kinf") ** q
            rhs = q_val ** (theta * q) / theta
            assert lhs == pytest.approx(rhs, rel=1e-6)


def test_interp_corrected_bracket():
    # K_inf <= K2 <= sqrt(2) K_inf forces the K2 integral between
    # (1/theta) Q^(theta q) and 2^(q/2) (1/theta) Q^(theta q).
    rng = np.random.default_rng(17)
    theta, q = 1.0 / 3.0, 6.0
    s, tau = 2.0, 2.0
    for _ in range(10):
        sp, f = rand_instance(rng, n_max=6)
        if not np.any(f.magnitudes > 0):
            continue
        sf = decreasing_rearrangement(f, sp)
        qpow = approx_quasinorm(sf, s, tau) ** (theta * q)
        val = interp_quasinorm(f, sp, theta, q) ** q
        assert val >= qpow / theta * (1.0 - 1e-6)
        assert val <= 2.0 ** (q / 2.0) * qpow / theta * (1.0 + 1e-6)


def test_interp_reference_instance_frozen():
    sp = DiscreteMeasureSpace(weights=np.array([0.5, 1.0, 2.0]))
    f = SimpleFunction(np.array([5.0, 3.0, 1.0]))
    assert interp_quasinorm(f, sp, 1.0 / 3.0, 6.0) == pytest.approx(
        2.4611719825767757, rel=1e-8
    )


def test_interp_domain_errors():
    sp = DiscreteMeasureSpace(weights=np.array([1.0]))
    f = SimpleFunction(np.array([1.0]))
    with pytest.raises(DomainError):
        interp_quasinorm(f, sp, 0.0, 2.0)
    with pytest.raises(DomainError):
        interp_quasinorm(f, sp, 0.5, -1.0)
    with pytest.raises(DomainError):
        interp_quasinorm(f, sp, 0.5, 2.0, kfunc="k7")


def _mp_log_interp(f, sp, theta, q, kfunc):
    """30-digit log int_0^inf (t^-theta K(t))^q dt/t, K the min over the whole
    profile, integrated in u = log t between all points where K may kink."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        m, v = ([mpmath.mpf(x) for x in a.tolist()] for a in truncation_profile(f, sp))
        kinks = set()
        for mi, vi in zip(m, v):
            if mi > 0 and vi > 0:
                kinks.add(mpmath.log(mi / vi))
            for mj, vj in zip(m, v):
                if mj > mi and vi > vj:
                    kinks.add(mpmath.log((mj**2 - mi**2) / (vi**2 - vj**2)) / 2)
                    kinks.add(mpmath.log(mj / vi))
        th = mpmath.mpf(theta)

        def integrand(u):
            t = mpmath.exp(u)
            if kfunc == "k2":
                k = min(mpmath.sqrt(mi**2 + (t * vi) ** 2) for mi, vi in zip(m, v))
            else:
                k = min(max(mi, t * vi) for mi, vi in zip(m, v))
            return mpmath.exp(q * (mpmath.log(k) - th * u))

        points = [-mpmath.inf, *sorted(kinks), mpmath.inf]
        return float(mpmath.log(mpmath.quad(integrand, points)))


@pytest.mark.parametrize("kfunc", ["k2", "kinf"])
def test_interp_overflow_is_numeric_error(kfunc):
    # (t^-theta K)^q reaches 1e600 here, but the sum runs in log space, so
    # only a quasinorm past the float range is a NumericError
    sp = DiscreteMeasureSpace(weights=np.array([1.0, 2.0]))
    f = SimpleFunction(np.array([1e300, 1e-300]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = interp_quasinorm(f, sp, 1.0 / 3.0, 6.0, kfunc=kfunc)
        for q in (2.0, math.inf):
            assert math.isfinite(interp_quasinorm(f, sp, 1.0 / 3.0, q, kfunc=kfunc))
        want = math.exp(_mp_log_interp(f, sp, 1.0 / 3.0, 6.0, kfunc) / 6.0)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(9.53e99, rel=1e-3)
        # one atom: I = w^(1-theta) v^theta (q theta (1-theta))^(-1/q), and
        # the last factor is about 1e39 at q = 0.05
        sp = DiscreteMeasureSpace(weights=np.array([1e300]))
        f = SimpleFunction(np.array([1e300]))
        assert interp_quasinorm(f, sp, 1.0 / 3.0, 6.0, kfunc=kfunc) == pytest.approx(
            1e300 * (6.0 * 2.0 / 9.0) ** (-1.0 / 6.0), rel=1e-12
        )
        with pytest.raises(NumericError):
            interp_quasinorm(f, sp, 1.0 / 3.0, 0.05, kfunc=kfunc)
        # ||f||_0 itself is past the float range
        sp = DiscreteMeasureSpace(weights=np.array([1e308, 1e308]))
        f = SimpleFunction(np.array([2.0, 1.0]))
        with pytest.raises(NumericError):
            interp_quasinorm(f, sp, 1.0 / 3.0, 6.0, kfunc=kfunc)


def test_envelope_with_absorbed_weights():
    # 1 + 1e200 == 1e200: the profile has three entries of equal m, which
    # once gave a nan K2 break (0 * inf) and an infinite K_inf break
    sp = DiscreteMeasureSpace(weights=np.array([1e-200, 1.0, 1e200]))
    f = SimpleFunction(np.array([1e-300, 1.0, 1e300]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k2, kinf = k_envelope(f, sp), k_envelope(f, sp, "kinf")
        assert np.all(np.isfinite(k2.log_breaks)) and np.all(np.isfinite(kinf.log_breaks))
        assert k2.breaks.tolist() == pytest.approx([1e-100], rel=1e-13)
        assert kinf.log_breaks.max() > math.log(sys.float_info.max)
        for kfunc in ("k2", "kinf"):
            got = interp_quasinorm(f, sp, 1.0 / 3.0, 2.0, kfunc=kfunc)
            want = math.exp(_mp_log_interp(f, sp, 1.0 / 3.0, 2.0, kfunc) / 2.0)
            assert got == pytest.approx(want, rel=1e-12)


def _mp_log_kinf(f, sp, theta, q):
    """log I_Kinf from I_Kinf^q = (1/theta) Q_{s,tau}^tau, tau = theta q,
    s tau = (1 - theta) q, summed over the steps of f* at 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    sf = decreasing_rearrangement(f, sp)
    with mpmath.workdps(30):
        th, qq = mpmath.mpf(theta), mpmath.mpf(q)
        st_ = (1 - th) * qq
        ts = [mpmath.mpf(x) for x in sf.breaks.tolist()]
        # log of v^tau (t1^(s tau) - t0^(s tau)) per step, which stays fast
        # where the powers themselves have exponents near 1e308
        logs = [
            th * qq * mpmath.log(v) + st_ * mpmath.log(t1)
            + mpmath.log(-mpmath.expm1(st_ * mpmath.log(t0 / t1)) if t0 else 1)
            for v, t0, t1 in zip(sf.values.tolist(), ts, ts[1:])
        ]
        top = max(logs)
        log_q_tau = top + mpmath.log(sum(mpmath.exp(x - top) for x in logs)) - mpmath.log(st_)
        return float((log_q_tau - mpmath.log(th)) / qq)


@pytest.mark.parametrize("q", [1e305, 1e306, 1e307, 1e308, 1.7e308])
@pytest.mark.parametrize("theta", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_interp_kinf_at_huge_q(theta, q):
    # p1 log m + p0 log v, the log of a peak of (t^-theta K_inf)^q, passes
    # the float range here although log I does not.  The last instance has
    # its top peak there (at theta = 0.1 and q = 1.7e308) and a lower one
    # inside: a sum taken before dividing by q once dropped the top.
    draws = list(random_atoms(6, 1, 5))
    draws.append(
        (DiscreteMeasureSpace(weights=np.array([0.3, 0.07])), SimpleFunction(np.array([5.0, 0.37])))
    )
    for sp, f in draws:
        want = _mp_log_kinf(f, sp, theta, q)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = interp_quasinorm(f, sp, theta, q, kfunc="kinf")
            except NumericError:
                assert not -700.0 < want < 700.0
            else:
                assert math.log(got) == pytest.approx(want, rel=1e-12, abs=1e-12)


@given(
    logs=st.lists(
        st.tuples(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0)), min_size=1, max_size=6
    ),
    theta=st.floats(0.02, 0.98),
    q=st.floats(0.3, 100.0),
)
@settings(max_examples=100, deadline=None)
def test_interp_wide_instances(logs, theta, q):
    # weights and magnitudes from 1e-300 to 1e300: every value either comes
    # out of the log-space sum or is a NumericError, never a numpy warning
    sp = DiscreteMeasureSpace(weights=np.array([10.0**a for a, _ in logs]))
    f = SimpleFunction(np.array([10.0**b for _, b in logs]))
    want = _mp_log_kinf(f, sp, theta, q)
    # the size of the inputs' logs sets the rounding of log I
    tol = 1e-13 * (1.0 + 2.31 * max(max(abs(a), abs(b)) for a, b in logs))
    log_max, log_min = math.log(sys.float_info.max), math.log(sys.float_info.min)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = interp_quasinorm(f, sp, theta, q, kfunc="kinf")
        except NumericError:
            assert not log_min + tol < want < log_max - tol
        else:
            if got >= sys.float_info.min:
                assert abs(math.log(got) - want) <= tol
        try:
            got = interp_quasinorm(f, sp, theta, q)
        except NumericError:
            assert not log_min + tol < want < log_max - 0.5 * math.log(2.0) - tol
        else:
            if got >= sys.float_info.min:
                assert want - tol <= math.log(got) <= want + 0.5 * math.log(2.0) + tol


def test_interp_zero_function():
    sp = DiscreteMeasureSpace(weights=np.array([1.0]))
    f = SimpleFunction(np.array([0.0]))
    assert interp_quasinorm(f, sp, 0.5, 2.0) == 0.0
    assert interp_quasinorm(f, sp, 0.5, math.inf, kfunc="kinf") == 0.0
    m, v = truncation_profile(f, sp)
    assert m.tolist() == [0.0] and v.tolist() == [0.0]


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    ts=st.lists(st.floats(min_value=1e-4, max_value=1e4), min_size=1, max_size=16),
    theta=st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=150, deadline=None)
def test_envelope_is_the_truncation_scan(seed, ts, theta):
    rng = np.random.default_rng(seed)
    sp, f = rand_instance(rng, n_max=10)
    m, v = truncation_profile(f, sp)
    for kfunc, scan, oracle in (
        ("k2", k2_functional, k2_exhaustive),
        ("kinf", kinf_functional, kinf_exhaustive),
    ):
        env = k_envelope(f, sp, kfunc)
        assert env.m.size <= m.size
        for t, k in zip(ts, env(np.array(ts))):
            assert k == pytest.approx(scan(f, sp, t), rel=1e-14, abs=0.0)
            assert k == pytest.approx(oracle(f, sp, t), rel=1e-14, abs=0.0)
        # q = inf: the sup of t^-theta K(t), bounding a dense grid from above
        # and met by it to within the grid's log step
        sup = interp_quasinorm(f, sp, theta, math.inf, kfunc=kfunc)
        if env.breaks.size == 0:
            assert sup == 0.0
            continue
        grid = np.geomspace(env.breaks[0] / 100.0, env.breaks[-1] * 100.0, 4001)
        if kfunc == "k2":
            kg = np.sqrt(m[:, None] ** 2 + (grid * v[:, None]) ** 2).min(axis=0)
        else:
            kg = np.maximum(m[:, None], grid * v[:, None]).min(axis=0)
        vals = grid**-theta * kg
        assert np.all(vals <= sup * (1.0 + 1e-12))
        assert sup <= vals.max() * (grid[1] / grid[0])


def test_interp_k2_matches_mpmath():
    # 30-digit quadrature of the K2 scan (min over the whole profile) on each
    # envelope piece, head and tail included
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(29)
    for n in (3, 5, 8):
        sp = DiscreteMeasureSpace(weights=rng.uniform(0.1, 3.0, n))
        f = SimpleFunction(rng.uniform(0.05, 5.0, n))
        m, v = (list(map(mpmath.mpf, x.tolist())) for x in truncation_profile(f, sp))
        points = [0] + [mpmath.mpf(b) for b in k_envelope(f, sp).breaks] + [mpmath.inf]
        for theta, q in ((0.5, 2.0), (1.0 / 3.0, 6.0)):
            th = mpmath.mpf(theta)

            def integrand(t):
                k = min(mpmath.sqrt(mi**2 + (t * vi) ** 2) for mi, vi in zip(m, v))
                return (t**-th * k) ** q / t

            with mpmath.workdps(30):
                want = mpmath.quad(integrand, points) ** (1 / mpmath.mpf(q))
            got = interp_quasinorm(f, sp, theta, q)
            assert got == pytest.approx(float(want), rel=1e-10)


def test_interp_large_profile():
    # 300 distinct magnitudes: a 301-entry profile
    rng = np.random.default_rng(31)
    n = 300
    sp = DiscreteMeasureSpace(weights=rng.uniform(0.1, 3.0, n))
    f = SimpleFunction(rng.permutation(np.linspace(0.05, 5.0, n)))
    m, _ = truncation_profile(f, sp)
    assert m.size == n + 1
    assert k_envelope(f, sp).m.size <= m.size
    sf = decreasing_rearrangement(f, sp)
    for theta, q in ((0.5, 2.0), (1.0 / 3.0, 6.0)):
        i_inf = interp_quasinorm(f, sp, theta, q, kfunc="kinf")
        want = approx_quasinorm(sf, 1.0 / theta - 1.0, theta * q) ** (theta * q) / theta
        assert i_inf**q == pytest.approx(want, rel=1e-12)
        k2 = interp_quasinorm(f, sp, theta, q)
        assert i_inf * (1.0 - 1e-12) <= k2 <= math.sqrt(2.0) * i_inf * (1.0 + 1e-12)


def test_interp_k2_many_pieces():
    # equal weights and evenly spaced magnitudes keep every other profile
    # entry on the K2 hull: more than 2^16 interior pieces, one sub-interval
    # each at q = 2
    n = 140_000
    sp = DiscreteMeasureSpace(weights=np.ones(n))
    f = SimpleFunction(np.linspace(1.0, 2.0, n))
    assert k_envelope(f, sp).log_breaks.size > 2**16
    i_inf = interp_quasinorm(f, sp, 0.5, 2.0, kfunc="kinf")
    k2 = interp_quasinorm(f, sp, 0.5, 2.0)
    assert i_inf * (1.0 - 1e-12) <= k2 <= math.sqrt(2.0) * i_inf * (1.0 + 1e-12)


def test_interp_k2_chunks_and_trim(monkeypatch):
    # the block taken 7 rows at a time, and the trim on every call or on
    # none, give the value of the default pass (the wide instance is trimmed)
    rng = np.random.default_rng(37)
    cases = [(DiscreteMeasureSpace(weights=rng.uniform(0.1, 3.0, 24)),
              SimpleFunction(rng.uniform(0.05, 5.0, 24)))]
    cases.append((DiscreteMeasureSpace(weights=10.0 ** rng.uniform(-100, 100, 12)),
                  SimpleFunction(10.0 ** rng.uniform(-100, 100, 12))))
    params = ((0.5, 2.0), (1.0 / 3.0, 6.0), (0.2, 40.0))
    want = [interp_quasinorm(f, sp, th, q) for sp, f in cases for th, q in params]
    monkeypatch.setattr(functionals, "_GL_CHUNK", 7)
    got = [interp_quasinorm(f, sp, th, q) for sp, f in cases for th, q in params]
    assert got == pytest.approx(want, rel=1e-14)
    for trim_rows in (0, 10**9):
        monkeypatch.setattr(functionals, "_GL_TRIM_ROWS", trim_rows)
        got = [interp_quasinorm(f, sp, th, q) for sp, f in cases for th, q in params]
        assert got == pytest.approx(want, rel=1e-13)


def test_interp_k2_quadrature_errors(monkeypatch):
    sp = DiscreteMeasureSpace(weights=np.array([1.0, 2.0]))
    f = SimpleFunction(np.array([3.0, 1.0]))
    assert k_envelope(f, sp).log_breaks.size == 2  # one interior piece
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(interp_quasinorm(f, sp, 0.5, 1e6))
        # about 0.1 q sub-intervals near the peak: past the row limit
        for q in (1e8, 1e300):
            with pytest.raises(QuadratureError, match="sub-intervals"):
                interp_quasinorm(f, sp, 0.5, q)
        # the 10-node rule never matches the 20-node one exactly
        monkeypatch.setattr(functionals, "_GL_TOL", 0.0)
        with pytest.raises(QuadratureError, match="error estimate"):
            interp_quasinorm(f, sp, 0.5, 2.0)

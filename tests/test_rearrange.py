import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bjaudit import (
    DiscreteMeasureSpace,
    DomainError,
    NumericError,
    SimpleFunction,
    StepFunction,
    approx_quasinorm,
    decreasing_rearrangement,
    eval_step,
    lp_from_rearrangement,
    random_atoms,
    step_csv_text,
)


def ref_instance():
    sp = DiscreteMeasureSpace(weights=np.array([0.5, 1.0, 2.0]))
    f = SimpleFunction(np.array([5.0, 3.0, 1.0]))
    return sp, f


def test_step_function_validation():
    with pytest.raises(DomainError):
        StepFunction(breaks=np.array([0.0, 1.0, 1.0]), values=np.array([2.0, 1.0]))
    with pytest.raises(DomainError):
        StepFunction(breaks=np.array([0.5, 1.0]), values=np.array([1.0]))
    with pytest.raises(DomainError):
        StepFunction(breaks=np.array([0.0, 1.0, 2.0]), values=np.array([1.0, 1.0]))
    with pytest.raises(DomainError):
        StepFunction(breaks=np.array([0.0, 1.0]), values=np.array([-1.0]))


def test_rearrangement_reference_instance():
    sp, f = ref_instance()
    sf = decreasing_rearrangement(f, sp)
    assert np.array_equal(sf.breaks, [0.0, 0.5, 1.5, 3.5])
    assert np.array_equal(sf.values, [5.0, 3.0, 1.0])
    assert sf.support_mass == 3.5
    assert sf.sup_value == 5.0


def test_rearrangement_merges_ties():
    sp = DiscreteMeasureSpace(weights=np.array([1.0, 2.0, 0.5]))
    f = SimpleFunction(np.array([2.0, 2.0, 1.0]))
    sf = decreasing_rearrangement(f, sp)
    assert np.array_equal(sf.breaks, [0.0, 3.0, 3.5])
    assert np.array_equal(sf.values, [2.0, 1.0])


def test_rearrangement_drops_zeros_and_empty():
    sp = DiscreteMeasureSpace(weights=np.array([1.0, 2.0]))
    f = SimpleFunction(np.array([0.0, 3.0]))
    sf = decreasing_rearrangement(f, sp)
    assert sf.support_mass == 2.0
    f0 = SimpleFunction(np.array([0.0, 0.0]))
    sf0 = decreasing_rearrangement(f0, sp)
    assert sf0.n_steps == 0
    assert eval_step(sf0, 1.0) == 0.0


def test_rearrangement_absorbed_weight_is_dropped():
    # A weight too small to move the cumulative sum cannot be represented as
    # a step of positive width; the level must disappear instead of
    # producing equal breaks.
    sp = DiscreteMeasureSpace(weights=np.array([1.0, 1e-30]))
    f = SimpleFunction(np.array([2.0, 1.0]))
    sf = decreasing_rearrangement(f, sp)
    assert np.array_equal(sf.values, [2.0])
    assert np.array_equal(sf.breaks, [0.0, 1.0])


def test_eval_step_right_continuity():
    sp, f = ref_instance()
    sf = decreasing_rearrangement(f, sp)
    assert eval_step(sf, 0.0) == 5.0
    assert eval_step(sf, 0.5) == 3.0  # value from the right at the break
    assert eval_step(sf, 0.5 - 1e-9) == 5.0
    assert eval_step(sf, 3.5) == 0.0
    assert eval_step(sf, 100.0) == 0.0
    got = eval_step(sf, np.array([0.1, 1.0, 2.0, 4.0]))
    assert np.array_equal(got, [5.0, 3.0, 1.0, 0.0])
    with pytest.raises(DomainError):
        eval_step(sf, -0.5)
    with pytest.raises(DomainError):
        eval_step(sf, math.nan)


@given(
    ws=st.lists(st.floats(min_value=0.05, max_value=3.0), min_size=1, max_size=9),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=120)
def test_rearrangement_is_nonincreasing_and_mass_preserving(ws, seed):
    rng = np.random.default_rng(seed)
    mags = rng.uniform(0.0, 5.0, len(ws))
    sp = DiscreteMeasureSpace(weights=np.array(ws))
    f = SimpleFunction(mags)
    sf = decreasing_rearrangement(f, sp)
    if sf.n_steps:
        assert np.all(np.diff(sf.values) < 0)
        assert np.all(np.diff(sf.breaks) > 0)
        assert sf.support_mass == pytest.approx(
            float(sp.weights[mags > 0].sum()), rel=5e-15, abs=0.0
        )


def test_quasinorm_reference_value():
    # s = tau = 2 on the reference step function, by the closed form
    # sum v_i^2 (t_i^4 - t_{i-1}^4)/4 evaluated by hand.
    sp, f = ref_instance()
    sf = decreasing_rearrangement(f, sp)
    by_hand = 25 * 0.5**4 / 4 + 9 * (1.5**4 - 0.5**4) / 4 + (3.5**4 - 1.5**4) / 4
    assert by_hand == 47.890625
    assert approx_quasinorm(sf, 2.0, 2.0) == pytest.approx(
        math.sqrt(47.890625), rel=1e-14
    )


def test_quasinorm_indicator_closed_form():
    sf = StepFunction(breaks=np.array([0.0, 2.0]), values=np.array([1.0]))
    # Q^tau = 2^(s tau)/(s tau)
    for s, tau in [(1.0, 1.0), (0.5, 2.0), (2.0, 0.5)]:
        expected = (2.0 ** (s * tau) / (s * tau)) ** (1.0 / tau)
        assert approx_quasinorm(sf, s, tau) == pytest.approx(expected, rel=1e-13)


def test_quasinorm_tau_inf():
    sp, f = ref_instance()
    sf = decreasing_rearrangement(f, sp)
    # sup_t t^s f*(t) is attained at a right endpoint of a step
    expected = max(5.0 * 0.5**2, 3.0 * 1.5**2, 1.0 * 3.5**2)
    assert approx_quasinorm(sf, 2.0, math.inf) == pytest.approx(expected, rel=1e-14)


def test_quasinorm_log_space_fallback():
    # Values around 1e300 overflow v^tau in the direct formula; the result
    # must still come out finite and match the hand-scaled computation.
    sf = StepFunction(
        breaks=np.array([0.0, 1.0, 2.0]), values=np.array([2e300, 1e300])
    )
    got = approx_quasinorm(sf, 1.0, 2.0)
    scaled = StepFunction(
        breaks=np.array([0.0, 1.0, 2.0]), values=np.array([2.0, 1.0])
    )
    want = approx_quasinorm(scaled, 1.0, 2.0) * 1e300
    assert math.isfinite(got)
    assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("tau", [2.0, math.inf, 1e-3])
def test_quasinorm_past_the_float_range_is_numeric_error(tau):
    # v t^s = 1e310, so Q_{1,tau} = 1e310 / tau^(1/tau) overflows; at tau = 1e-3
    # the direct form's total^(1/tau) overflows before the log-space branch
    sf = StepFunction(breaks=np.array([0.0, 1e10]), values=np.array([1e300]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError):
            approx_quasinorm(sf, 1.0, tau)
    # just inside the range the log-space branch still returns the value
    sf = StepFunction(breaks=np.array([0.0, 1e10]), values=np.array([1e298]))
    want = 1e308 / math.sqrt(2.0)
    assert approx_quasinorm(sf, 1.0, 2.0) == pytest.approx(want, rel=1e-12)


def _mp_quasinorm(sf, s, tau):
    """Q_{s,tau} of the step function at 30 digits: the closed form on its
    float breaks and values, and max v_i t_i^s at tau = inf."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        ts = [mpmath.mpf(x) for x in sf.breaks.tolist()]
        vs = [mpmath.mpf(x) for x in sf.values.tolist()]
        s = mpmath.mpf(s)
        if tau == math.inf:
            return max(v * t**s for v, t in zip(vs, ts[1:]))
        tau = mpmath.mpf(tau)
        st_ = s * tau
        total = sum(v**tau * (t1**st_ - t0**st_) for v, t0, t1 in zip(vs, ts, ts[1:]))
        return (total / st_) ** (1 / tau)


# (weight scale, magnitude scale, (s, tau) pairs, takes the log-space branch,
# rel tolerance).  The measured worst errors over these 100 draws were
# 1.1e-15, 2.0e-13, 1.6e-16, 1.4e-13 and 1.2e-13; the log-space error grows with
# |log Q| (about 900 here), as exp amplifies the rounding of log Q.
QUASINORM_MPMATH_CASES = {
    "direct": (
        1.0, 1.0, [(s, t) for s in (0.5, 1.0, 2.0) for t in (0.25, 0.5, 1.0, 3.0)], False, 5e-15
    ),
    "log_space": (1e150, 1.0, [(s, t) for s in (1.0, 2.0) for t in (3.0, 5.0)], True, 1e-12),
    "tau_inf": (1.0, 1.0, [(s, math.inf) for s in (0.5, 1.0, 2.0)], False, 1e-15),
    "tau_inf_log": (1e200, 1e-60, [(1.6, math.inf)], True, 1e-12),
    # every v^tau underflows, and (t_{i-1}/t_i)^(s tau) would round to 1
    "tiny_st": (1.0, 1e-300, [(1e-17, 1.1), (2e-17, 1.5)], True, 1e-12),
}


@pytest.mark.parametrize("case", sorted(QUASINORM_MPMATH_CASES))
def test_quasinorm_matches_mpmath(case):
    w_scale, m_scale, pairs, log_branch, rel = QUASINORM_MPMATH_CASES[case]
    worst = 0.0
    for sp, f in random_atoms(12, 5, 100):
        sf = decreasing_rearrangement(
            SimpleFunction(np.asarray(f.magnitudes) * m_scale),
            DiscreteMeasureSpace(weights=np.asarray(sp.weights) * w_scale),
        )
        if sf.n_steps == 0:
            continue
        for s, tau in pairs:
            # only the log-space branches (for tau = inf as for finite tau) take
            # logs, and no branch may warn
            with mock.patch.object(np, "log", wraps=np.log) as log, warnings.catch_warnings():
                warnings.simplefilter("error")
                got = approx_quasinorm(sf, s, tau)
            assert log.called == log_branch
            want = _mp_quasinorm(sf, s, tau)
            worst = max(worst, float(abs(got - want) / want))
    assert worst <= rel


def test_quasinorm_at_tau_near_the_float_maximum():
    # tau log v_i alone passes the float range, yet Q is about max v_i t_i^s:
    # no warning, and the value of the closed form summed in log space at 30
    # digits (mpmath's powers are slow at such exponents)
    mpmath = pytest.importorskip("mpmath")
    for sp, f in random_atoms(8, 3, 20):
        sf = decreasing_rearrangement(f, sp)
        if sf.n_steps == 0:
            continue
        for s, tau in ((1e-3, 5e307), (0.5, 1e308), (1e-3, 1.7e308)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = approx_quasinorm(sf, s, tau)
            with mpmath.workdps(30):
                t = [mpmath.mpf(x) for x in sf.breaks.tolist()]
                s_, tau_ = mpmath.mpf(s), mpmath.mpf(tau)
                logs = [
                    tau_ * mpmath.log(v) + s_ * tau_ * mpmath.log(t1)
                    + (mpmath.log(-mpmath.expm1(s_ * tau_ * mpmath.log(t0 / t1))) if t0 else 0)
                    for v, t0, t1 in zip(sf.values.tolist(), t, t[1:])
                ]
                top = max(logs)
                log_q = (top + mpmath.log(sum(mpmath.exp(x - top) for x in logs))) / tau_
                want = mpmath.exp(log_q - mpmath.log(s_ * tau_) / tau_)
            assert abs(got - want) / want < 1e-14, (s, tau)
    # s log t_i alone passes the float range: Q = 0.1^(1e308) underflows to 0,
    # and Q = 10^(1e308) is past the float range
    for t, want in ((0.1, 0.0), (10.0, None)):
        sf = StepFunction(breaks=np.array([0.0, t]), values=np.array([1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if want is None:
                with pytest.raises(NumericError):
                    approx_quasinorm(sf, 1e308, 1.0)
            else:
                assert approx_quasinorm(sf, 1e308, 1.0) == want


def test_quasinorm_rejects_bad_params():
    sf = StepFunction(breaks=np.array([0.0, 1.0]), values=np.array([1.0]))
    with pytest.raises(DomainError):
        approx_quasinorm(sf, 0.0, 1.0)
    with pytest.raises(DomainError):
        approx_quasinorm(sf, 1.0, -1.0)


@given(
    ws=st.lists(st.floats(min_value=0.1, max_value=2.0), min_size=1, max_size=6),
    s=st.floats(min_value=0.3, max_value=3.0),
    tau=st.floats(min_value=0.3, max_value=4.0),
)
@settings(max_examples=100)
def test_quasinorm_scaling(ws, s, tau):
    # Q(c f) = c Q(f): positive homogeneity in the function values.
    rng = np.random.default_rng(7)
    mags = rng.uniform(0.5, 3.0, len(ws))
    sp = DiscreteMeasureSpace(weights=np.array(ws))
    sf = decreasing_rearrangement(SimpleFunction(mags), sp)
    sf3 = decreasing_rearrangement(SimpleFunction(3.0 * mags), sp)
    assert approx_quasinorm(sf3, s, tau) == pytest.approx(
        3.0 * approx_quasinorm(sf, s, tau), rel=1e-11
    )


def test_lp_from_rearrangement_empty():
    from bjaudit.rearrange import EMPTY_STEP

    assert lp_from_rearrangement(EMPTY_STEP, 2.0) == 0.0
    assert lp_from_rearrangement(EMPTY_STEP, math.inf) == 0.0


def test_step_csv_text_golden():
    sp, f = ref_instance()
    sf = decreasing_rearrangement(f, sp)
    assert step_csv_text(sf) == (
        "t_break,value\n0.0,5.0\n0.5,3.0\n1.5,1.0\n3.5,0.0\n"
    )

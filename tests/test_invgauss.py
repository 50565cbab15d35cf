import math
import warnings

import mpmath
import numpy as np
import pytest

from bjaudit import (
    DomainError,
    InvGaussParams,
    NumericError,
    demo_pipeline,
    eval_step,
    invgauss_density,
)
from bjaudit.invgauss import _gaussian_cells
from bjaudit.jsonutil import dumps17


def test_density_peak_value():
    # At t = m the exponential is 1: f(2) = 10 sqrt(4/(2 pi 8)) = 5/sqrt(pi).
    assert invgauss_density(2.0) == pytest.approx(5.0 / math.sqrt(math.pi), rel=1e-15)


def test_density_alternate_form():
    # Expanding the square: -l(t-m)^2/(2 m^2 t) = l/m - l/(2t) - l t/(2 m^2).
    p = InvGaussParams(amplitude=3.0, mean=1.5, shape=2.5)
    pref = p.amplitude * math.sqrt(p.shape / (2.0 * math.pi)) * math.exp(p.shape / p.mean)
    for t in (0.5, 1.0, 2.0, 5.0):
        alt = pref * t**-1.5 * math.exp(
            -p.shape / (2.0 * t) - p.shape * t / (2.0 * p.mean**2)
        )
        assert invgauss_density(t, p) == pytest.approx(alt, rel=1e-12)


def test_density_zero_for_nonpositive_and_tiny_t():
    assert invgauss_density(0.0) == 0.0
    assert invgauss_density(-3.0) == 0.0
    assert invgauss_density(1e-300) == 0.0  # clean underflow, no 0*inf


def test_density_vectorized_matches_scalar():
    ts = np.array([-1.0, 0.0, 0.3, 2.0, 9.0])
    vec = invgauss_density(ts)
    assert vec.shape == ts.shape
    for t, v in zip(ts, vec):
        assert v == invgauss_density(float(t))
    with pytest.raises(DomainError):
        invgauss_density(math.nan)


@pytest.mark.parametrize(
    "t, p",
    [
        (3.0, InvGaussParams(mean=1e154)),  # 2 m^2 t and l (t-m)^2 overflow
        (9e154, InvGaussParams(mean=1e154)),
        (1e155, InvGaussParams(mean=1e154)),
        (1e-5, InvGaussParams(mean=1e-5, shape=1e-30)),  # l (t-m)^2 underflows
        (2.0, InvGaussParams(shape=1e-320)),
        (0.5, InvGaussParams()),  # the direct form
    ],
)
def test_density_where_the_exponent_leaves_the_float_range(t, p):
    with mpmath.workdps(40):
        t_, c, m, l = map(mpmath.mpf, (t, p.amplitude, p.mean, p.shape))
        want = c * mpmath.sqrt(l / (2 * mpmath.pi * t_**3)) * mpmath.exp(
            -l * (t_ - m) ** 2 / (2 * m**2 * t_)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = invgauss_density(t, p)
        assert float(abs(got - want) / want) < 1e-12


def test_density_limits_and_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # t -> 0 and m -> 0 give 0 without a warning
        assert invgauss_density(1e-320) == 0.0
        assert invgauss_density(1.0, InvGaussParams(mean=1e-300)) == 0.0
        with pytest.raises(NumericError, match="m\\^2 overflows"):
            invgauss_density(1.0, InvGaussParams(mean=1e300))
        # at t = m = 1e-300 the density itself is about 8e450
        with pytest.raises(NumericError, match="density overflows"):
            invgauss_density(1e-300, InvGaussParams(mean=1e-300))


def test_gaussian_cells_mass():
    sp, f = _gaussian_cells(InvGaussParams(), 0.0, 4.0, 2000)
    # midpoint rule vs Phi(4) - Phi(0); O(h^2) accuracy
    assert sp.total_mass == pytest.approx(0.4999683287581669, abs=1e-7)
    assert f.magnitudes.size == sp.n_atoms == 2000


def test_gaussian_cells_drop_zero_weight_cells():
    # on (38, 39.5) the Gaussian weight underflows to 0 partway along the window
    t_lo, t_hi, n = 38.0, 39.5, 300
    width = (t_hi - t_lo) / n
    mids = t_lo + width * (np.arange(n) + 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        weights = np.exp(-0.5 * mids * mids) / math.sqrt(2.0 * math.pi) * width
        sp, f = _gaussian_cells(InvGaussParams(), t_lo, t_hi, n)
    kept = weights > 0.0
    assert 0 < sp.n_atoms == kept.sum() < n
    assert np.array_equal(sp.weights, weights[kept])
    assert np.array_equal(f.magnitudes, invgauss_density(mids[kept]))
    assert sp.atom_ids[:2] == ("a0", "a1")


def test_gaussian_cells_past_the_square_range_are_empty():
    # mid^2 overflows: every weight is exp(-inf) = 0, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sp, f = _gaussian_cells(InvGaussParams(), 1e154, 2e154, 10)
    assert sp.n_atoms == f.magnitudes.size == 0


def test_params_validation():
    with pytest.raises(DomainError):
        InvGaussParams(amplitude=0.0)
    with pytest.raises(DomainError):
        InvGaussParams(mean=-2.0)
    with pytest.raises(DomainError):
        InvGaussParams(shape=math.inf)


def test_demo_small_run_structure():
    res = demo_pipeline(n_cells=500)
    n = len(res.u_grid)
    assert len(res.f_star) == len(res.e_value) == len(res.jackson_bound) == n
    fs = np.array(res.f_star)
    assert np.all(np.diff(fs) <= 0)
    assert res.f_star.tolist() == res.e_value.tolist()  # identical by construction
    for ev, jb in zip(res.e_value, res.jackson_bound):
        assert ev <= jb + 1e-12
    # default u-grid starts at 0.5, past the support of the rearrangement
    assert res.metadata["support_mass"] < 0.5
    assert all(x == 0.0 for x in res.f_star)
    sf = res.rearrangement
    assert eval_step(sf, sf.support_mass * 0.5) > 0.0


def test_demo_pinned_metadata_defaults():
    res = demo_pipeline()
    md = res.metadata
    assert md["support_mass"] == pytest.approx(0.4990026450783096, rel=1e-9)
    assert md["sup_value"] == pytest.approx(4.8394084445952119, rel=1e-9)
    assert md["quasinorm"] == pytest.approx(0.16583870074338575, rel=1e-9)
    assert md["quasinorm_refined"] == pytest.approx(0.1658384035326616, rel=1e-9)
    assert md["l1_mass"] == pytest.approx(1.3254769895392819, rel=1e-9)
    assert md["quasinorm_rel_change"] < 1e-3
    assert md["tail_l1_ratio"] < 1e-10
    assert md["warnings"] == []
    assert md["c_constant"] == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert res.quasinorm == md["quasinorm"]


def test_demo_custom_u_grid_sees_support():
    res = demo_pipeline(n_cells=500, u_grid=np.array([0.1, 0.25, 0.45, 0.6]))
    fs = np.array(res.f_star)
    assert fs[0] > fs[1] > fs[2] > 0.0
    assert fs[3] == 0.0


def test_demo_validation():
    with pytest.raises(DomainError):
        demo_pipeline(n_cells=1)
    with pytest.raises(DomainError):
        demo_pipeline(t_max=-1.0)
    with pytest.raises(DomainError, match="2\\*t_max"):
        demo_pipeline(t_max=1e308)  # the tail window (t_max, 2 t_max) passes the float range
    with pytest.raises(DomainError):
        demo_pipeline(u_grid=np.array([]))
    with pytest.raises(DomainError):
        demo_pipeline(u_grid=np.array([0.0, 1.0]))
    with pytest.raises(DomainError):
        demo_pipeline(s=-1.0)


def test_demo_csv_and_metadata_serialization():
    res = demo_pipeline(n_cells=200, u_grid=np.array([0.25, 0.75]))
    text = res.to_csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == "u,f_star,e_value,jackson_bound"
    assert len(lines) == 3
    assert lines[1].startswith("0.25,")
    assert "np.float64" not in text
    import json

    doc = json.loads(res.metadata_json_text())
    assert doc["n_cells"] == 200
    assert isinstance(doc["warnings"], list)


@pytest.mark.parametrize(
    "s, u_grid",
    [(2000.0, np.array([0.5, 1.0])), (4.4691023859347256e16, np.arange(0.5, 11.05, 0.1))],
)
def test_demo_bound_where_the_quasinorm_underflows(s, u_grid):
    # Q underflows to 0 and u^-s overflows (or vanishes), so the direct product
    # u^-s c Q was nan.  The bound is formed in log space; against mpmath's
    # c Q u^-s over the same rearrangement it is 1.0e-48 at s = 2000, u = 0.5
    # and rounds to 0.0 elsewhere.
    n_cells = 4000 if s == 2000.0 else 199
    res = demo_pipeline(n_cells=n_cells, s=s, u_grid=u_grid)
    sf, md = res.rearrangement, res.metadata
    assert md["quasinorm"] == 0.0
    with mpmath.workdps(30):
        st = mpmath.mpf(s) * 2
        powers = [mpmath.mpf(b) ** st for b in sf.breaks]
        q_tau = sum(
            mpmath.mpf(v) ** 2 * (hi - lo) for v, lo, hi in zip(sf.values, powers, powers[1:])
        )
        q = mpmath.sqrt(q_tau / st)
        for u, bound in zip(u_grid, res.jackson_bound):
            want = mpmath.mpf(md["c_constant"]) * q * mpmath.mpf(u) ** -mpmath.mpf(s)
            assert abs(bound - want) <= 1e-12 * want + 1e-320
    assert res.jackson_bound[0] == (pytest.approx(1.0e-48, rel=0.02) if s == 2000.0 else 0.0)



def test_demo_rearranges_each_instance_once(monkeypatch):
    # the instance and its doubled refinement are each rearranged, and each
    # Q taken, once: the bound column reuses the demo's f* and Q
    import bjaudit.audit
    import bjaudit.invgauss

    want = demo_pipeline()
    calls = {"decreasing_rearrangement": 0, "approx_quasinorm": 0}

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    for name in calls:
        fn = getattr(bjaudit.invgauss, name)
        for module in (bjaudit.invgauss, bjaudit.audit):
            monkeypatch.setattr(module, name, counted(name, fn))
    got = demo_pipeline()
    assert calls == {"decreasing_rearrangement": 2, "approx_quasinorm": 2}
    assert dumps17(got.table()) == dumps17(want.table()) and got.metadata == want.metadata

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bjaudit import (
    DiscreteMeasureSpace,
    DomainError,
    NumericError,
    SimpleFunction,
    UsageError,
    decreasing_rearrangement,
    distribution_function,
    instance_csv_text,
    load_instance_csv,
    lp_from_rearrangement,
    lp_norm,
    random_atoms,
    sorted_mass_profile,
    truncation_profile,
)

# Shared instance strategy: small positive weights, magnitudes with
# deliberate ties (rounding) and zeros.
weights_st = st.lists(
    st.floats(min_value=0.05, max_value=4.0), min_size=1, max_size=10
)


@st.composite
def instances(draw):
    ws = draw(weights_st)
    n = len(ws)
    mags = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=6.0), min_size=n, max_size=n
        )
    )
    round_mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    mags = [round(m, 1) if r else m for m, r in zip(mags, round_mask)]
    sp = DiscreteMeasureSpace(weights=np.array(ws))
    return sp, SimpleFunction(np.array(mags))


def test_space_validation():
    with pytest.raises(DomainError):
        DiscreteMeasureSpace(weights=np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        DiscreteMeasureSpace(weights=np.array([1.0, -2.0]))
    with pytest.raises(DomainError):
        DiscreteMeasureSpace(weights=np.array([np.inf]))
    with pytest.raises(UsageError):
        DiscreteMeasureSpace(weights=np.array([1.0, 1.0]), atom_ids=("a",))
    for bad in ([1.0, -1.0], [math.nan, 1.0]):
        with pytest.raises(DomainError, match="magnitudes must be nonnegative finite reals"):
            SimpleFunction(np.array(bad))


def test_default_atom_ids_and_total_mass():
    sp = DiscreteMeasureSpace(weights=np.array([1.0, 2.0]))
    assert sp.atom_ids == ("a0", "a1")
    assert sp.total_mass == 3.0


def test_weights_are_read_only():
    sp = DiscreteMeasureSpace(weights=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        sp.weights[0] = 7.0


def test_distribution_function_step_instance():
    sp = DiscreteMeasureSpace(weights=np.array([0.5, 1.0, 2.0]))
    f = SimpleFunction(np.array([5.0, 3.0, 1.0]))
    assert distribution_function(f, sp, 0.0) == 3.5
    assert distribution_function(f, sp, 1.0) == 1.5  # strict >
    assert distribution_function(f, sp, 2.9) == 1.5
    assert distribution_function(f, sp, 3.0) == 0.5
    assert distribution_function(f, sp, 5.0) == 0.0
    with pytest.raises(DomainError):
        distribution_function(f, sp, -1.0)


@given(inst=instances())
@settings(max_examples=150)
def test_equimeasurability_exact(inst):
    # m(sigma, f) must equal the length of {f* > sigma} with float equality;
    # both sides are defined through the same sorted mass profile, so this is
    # a hard == check, not approximate.
    sp, f = inst
    sf = decreasing_rearrangement(f, sp)
    mags, _ = sorted_mass_profile(f, sp)
    probe = set(float(m) for m in mags)
    probe.update(float(m) / 2.0 for m in mags)
    probe.add(0.0)
    for sigma in probe:
        m_direct = distribution_function(f, sp, sigma)
        if sf.n_steps == 0:
            m_star = 0.0
        else:
            above = sf.values > sigma
            m_star = float(sf.breaks[1:][above][-1]) if above.any() else 0.0
        assert m_direct == m_star


@given(inst=instances())
@settings(max_examples=150)
def test_lp_matches_rearranged_lp(inst):
    sp, f = inst
    sf = decreasing_rearrangement(f, sp)
    for p in (0.5, 1.0, 2.0, math.inf):
        direct = lp_norm(f, sp, p)
        via_star = lp_from_rearrangement(sf, p)
        assert via_star == pytest.approx(direct, rel=1e-12, abs=1e-300)


@given(inst=instances())
@settings(max_examples=100)
def test_layer_cake(inst):
    # ||f||_p^p = p * int_0^inf sigma^(p-1) m(sigma) dsigma, evaluated in
    # closed form over the constancy intervals of m.
    sp, f = inst
    p = 2.0
    mags, _ = sorted_mass_profile(f, sp)
    levels = np.unique(np.concatenate([[0.0], mags]))
    total = 0.0
    for lo, hi in zip(levels[:-1], levels[1:]):
        m_here = distribution_function(f, sp, float(lo))
        total += m_here * (hi**p - lo**p)
    assert total == pytest.approx(lp_norm(f, sp, p) ** p, rel=1e-12, abs=1e-300)


def test_lp_norm_zero_counts_every_positive_magnitude():
    sp = DiscreteMeasureSpace(weights=np.array([1.0, 2.0, 4.0]))
    f_plain = SimpleFunction(np.array([5.0, 0.1, 0.0]))
    assert lp_norm(f_plain, sp, 0) == 3.0


@st.composite
def absorbing_instances(draw):
    # instances() where some weights are 1e-17, which the running sum absorbs
    # beside weights near 1, and some functions are 0
    sp, f = draw(instances())
    absorbed = draw(st.lists(st.booleans(), min_size=10, max_size=10))
    n = sp.n_atoms
    sp = DiscreteMeasureSpace(weights=np.where(absorbed[:n], 1e-17, sp.weights))
    if draw(st.booleans()):
        f = SimpleFunction(np.zeros(n))
    return sp, f


@given(inst=absorbing_instances())
@settings(max_examples=200, deadline=None)
def test_one_l0_size_in_every_view(inst):
    sp, f = inst
    l0 = lp_norm(f, sp, 0)
    assert l0 == decreasing_rearrangement(f, sp).support_mass
    assert l0 == truncation_profile(f, sp)[0][0]


@given(inst=absorbing_instances())
@settings(max_examples=200, deadline=None)
def test_distribution_and_rearrangement_read_the_profile(inst):
    # m(sigma) at each sigma of the truncation profile is the profile's own m,
    # bit for bit, and the breaks of f* are its distinct positive masses
    sp, f = inst
    m, sigma = truncation_profile(f, sp)
    got = [distribution_function(f, sp, s).hex() for s in sigma.tolist()]
    assert got == [x.hex() for x in m.tolist()]
    breaks = decreasing_rearrangement(f, sp).breaks[1:]
    assert breaks.tobytes() == np.unique(m[m > 0]).tobytes()


def test_distribution_function_reads_a_finite_mass_below_an_infinite_one():
    # the total mass overflows, but the mass above 1.5 does not
    sp = DiscreteMeasureSpace(weights=np.array([1e308, 1e308]))
    f = SimpleFunction(np.array([2.0, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert distribution_function(f, sp, 1.5) == 1e308
        with pytest.raises(NumericError):
            distribution_function(f, sp, 0.5)


def test_lp_norm_rejects_bad_p():
    sp = DiscreteMeasureSpace(weights=np.array([1.0]))
    f = SimpleFunction(np.array([1.0]))
    with pytest.raises(DomainError):
        lp_norm(f, sp, -1.0)


def test_default_atom_ids():
    assert DiscreteMeasureSpace(weights=np.ones(3)).atom_ids == ("a0", "a1", "a2")
    big = DiscreteMeasureSpace(weights=np.ones(300)).atom_ids
    assert big == tuple(f"a{i}" for i in range(300))
    # iterated random draws are built by the same constructors
    for sp, f in random_atoms(8, 41, 300):
        assert sp.atom_ids == tuple(f"a{i}" for i in range(sp.n_atoms))
        assert not sp.weights.flags.writeable and not f.magnitudes.flags.writeable
        assert DiscreteMeasureSpace(sp.weights).weights.tobytes() == sp.weights.tobytes()
        assert SimpleFunction(f.magnitudes).magnitudes.tobytes() == f.magnitudes.tobytes()


# measured worst errors over these 200 draws: 1.0e-15, 2.3e-16 and 2.0e-16
@pytest.mark.parametrize("p, rel", [(0.25, 5e-15), (1.0, 1e-15), (2.0, 1e-15)])
def test_lp_norm_matches_mpmath(p, rel):
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    for sp, f in random_atoms(12, 7, 200):
        if not (f.magnitudes > 0).any():
            continue
        with mpmath.workdps(30):
            pp = mpmath.mpf(p)
            total = sum(
                mpmath.mpf(w) * mpmath.mpf(x) ** pp
                for w, x in zip(sp.weights.tolist(), f.magnitudes.tolist())
                if x > 0
            )
            want = total ** (1 / pp)
        worst = max(worst, float(abs(lp_norm(f, sp, p) - want) / want))
    assert worst <= rel


def test_lp_norm_overflow_is_numeric_error():
    sp = DiscreteMeasureSpace(weights=np.array([1e308, 1e308]))
    f = SimpleFunction(np.array([2.0, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError):
            lp_norm(f, sp, 1.0)


def test_lp_norm_root_overflow_is_numeric_error():
    # the sum 1e125 is finite, but its fourth power is not
    sp = DiscreteMeasureSpace(weights=np.array([1e100]))
    f = SimpleFunction(np.array([1e100]))
    with pytest.raises(NumericError):
        lp_norm(f, sp, 0.25)
    assert lp_norm(f, sp, 0.5) == pytest.approx(1e300, rel=1e-12)


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
def test_lp_norm_of_empty_instance_is_zero(p):
    sp, f = DiscreteMeasureSpace(weights=np.array([])), SimpleFunction(np.array([]))
    assert lp_norm(f, sp, p) == 0.0


def test_instance_csv_round_trip():
    sp = DiscreteMeasureSpace(
        weights=np.array([0.5, 1.25]), atom_ids=("left", "right")
    )
    f = SimpleFunction(np.array([3.0, 0.7]))
    text = instance_csv_text(sp, f)
    sp2, f2 = load_instance_csv(text)
    assert sp2.atom_ids == sp.atom_ids
    assert np.array_equal(sp2.weights, sp.weights)
    assert np.array_equal(f2.magnitudes, f.magnitudes)


def test_instance_csv_round_trip_keeps_spaces_in_ids():
    sp = DiscreteMeasureSpace(weights=np.array([1.0, 2.0, 3.0]), atom_ids=(" a", "a", "b "))
    f = SimpleFunction(np.array([1.0, 2.0, 0.0]))
    sp2, f2 = load_instance_csv(instance_csv_text(sp, f))
    assert sp2.atom_ids == (" a", "a", "b ")
    assert np.array_equal(sp2.weights, sp.weights)
    assert np.array_equal(f2.magnitudes, f.magnitudes)


def test_instance_csv_from_file(tmp_path):
    path = tmp_path / "inst.csv"
    path.write_text("atom_id,weight,magnitude\nx,2.0,1.0\n")
    sp, f = load_instance_csv(str(path))
    assert sp.total_mass == 2.0
    assert f.magnitudes[0] == 1.0


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("weight,magnitude\n1.0,2.0\n", "row 1"),
        ("atom_id,weight,magnitude\na,1.0\n", "row 2"),
        ("atom_id,weight,magnitude\na,zebra,2.0\n", "row 2"),
        ("atom_id,weight,magnitude\na,-1.0,2.0\n", "row 2"),
        ("atom_id,weight,magnitude\na,1.0,-2.0\n", "row 2"),
        ("atom_id,weight,magnitude\na,1.0,2.0\nb,0.0,1.0\n", "row 3"),
        ("atom_id,weight,magnitude\n", "no data rows"),
    ],
)
def test_instance_csv_errors_carry_row_numbers(text, fragment):
    with pytest.raises(UsageError) as exc:
        load_instance_csv(text)
    assert fragment in str(exc.value)


def test_instance_csv_missing_file():
    with pytest.raises(UsageError):
        load_instance_csv("/no/such/file.csv")

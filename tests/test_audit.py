import itertools
import json
import math
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bjaudit import (
    PROVIDER_KINDS,
    BJAuditError,
    ConstantProvider,
    DiscreteMeasureSpace,
    DomainError,
    NumericError,
    SearchResult,
    SimpleFunction,
    UsageError,
    audit_bernstein_right,
    audit_jackson,
    audit_q2,
    audit_spectral_bound,
    audit_weak_l1,
    counterexample_search,
    decreasing_rearrangement,
    eval_step,
    indicator_sweep,
    params_from_s_tau,
    params_from_theta_q,
    instance_csv_text,
    random_atoms,
    spectral_measure,
    straddling_grid,
)
from bjaudit import audit
from bjaudit.audit import _REL, _SCREEN_CELLS, _Block, _decisive, _screen, _step_lookup

REF_SPACE = DiscreteMeasureSpace(weights=np.array([0.5, 1.0, 2.0]))
REF_F = SimpleFunction(np.array([5.0, 3.0, 1.0]))


def unit_indicator(mass=1.0):
    return (
        DiscreteMeasureSpace(weights=np.array([mass])),
        SimpleFunction(np.array([1.0])),
    )


def _plain(obj):
    """obj with each array (a report column) as its tolist()."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    return obj


def _doc(result):
    """The repr of a report's or search result's JSON dict, columns as lists of
    Python floats: exact, where numpy's repr shows 8 digits and elides arrays
    past 1,000 items."""
    return repr(_plain(result.to_json_dict()))


def test_provider_kinds_and_normalization():
    assert ConstantProvider("paper_c").kind == "paper-c"
    assert ConstantProvider("sharp_oracle").kind == "sharp-oracle"
    with pytest.raises(DomainError):
        ConstantProvider("best")


def test_provider_values():
    p11 = params_from_s_tau(1.0, 1.0)
    p22 = params_from_s_tau(2.0, 2.0)
    assert ConstantProvider("paper-c").value(p22) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert ConstantProvider("paper-with-factor").value(p11) == pytest.approx(0.5, rel=1e-15)
    assert ConstantProvider("sharp-oracle").value(p22) == pytest.approx(2.0, rel=1e-15)
    assert ConstantProvider("unit").value(p22) == 1.0
    # s=1, tau=1 maps to theta=1/2, q=2 where the tabulated constant is 2/pi
    assert ConstantProvider("paper-bigc-table").value(p11) == pytest.approx(
        2.0 / math.pi, rel=1e-12
    )
    pinf = params_from_s_tau(2.0, math.inf)
    assert ConstantProvider("sharp-oracle").value(pinf) == 1.0


def test_jackson_pinned_falsification():
    # Unit indicator, s = tau = 1, claimed constant 2^((s+1)/2) c = 0.5.
    # Q = 1, f*(0.9) = 1, rhs = 0.5/0.9, margin = -4/9.
    sp, f = unit_indicator()
    p = params_from_s_tau(1.0, 1.0)
    rep = audit_jackson(f, sp, p, ConstantProvider("paper-with-factor"), [0.9])
    assert rep.violated
    assert rep.min_margin == pytest.approx(-4.0 / 9.0, abs=1e-12)
    assert rep.witness_t == 0.9


def test_jackson_sharp_oracle_never_violated():
    for s, tau in ((0.5, 0.5), (1.0, 1.0), (2.0, 2.0), (3.0, 0.5), (0.5, 4.0)):
        p = params_from_s_tau(s, tau)
        prov = ConstantProvider("sharp-oracle")
        for sp, f in random_atoms(n_max=7, seed=42, n_draws=60):
            sf = decreasing_rearrangement(f, sp)
            rep = audit_jackson(f, sp, p, prov, straddling_grid(sf))
            assert not rep.violated, (s, tau, rep.min_margin)


def test_jackson_zero_function():
    sp = DiscreteMeasureSpace(weights=np.array([1.0]))
    f = SimpleFunction(np.array([0.0]))
    p = params_from_s_tau(1.0, 1.0)
    rep = audit_jackson(f, sp, p, ConstantProvider("paper-c"), [0.5, 1.0])
    assert not rep.violated
    assert rep.lhs.tolist() == [0.0, 0.0]
    assert rep.rhs.tolist() == [0.0, 0.0]


def test_grid_validation():
    sp, f = unit_indicator()
    p = params_from_s_tau(1.0, 1.0)
    prov = ConstantProvider("unit")
    with pytest.raises(UsageError):
        audit_jackson(f, sp, p, prov, [])
    with pytest.raises(UsageError):  # a report's columns are 1-D
        audit_jackson(f, sp, p, prov, [[0.5, 1.0]])
    with pytest.raises(DomainError):
        audit_jackson(f, sp, p, prov, [0.0, 1.0])
    with pytest.raises(DomainError):
        audit_jackson(f, sp, p, prov, [math.nan])


def test_weak_l1_pinned_falsification():
    sp, f = unit_indicator()
    rep = audit_weak_l1(f, sp, "paper-2-over-pi", [0.8])
    assert rep.violated
    assert rep.rhs[0] == pytest.approx(0.7957747154594768, abs=1e-15)
    assert rep.min_margin == pytest.approx(-0.20422528454052316, abs=1e-6)


def test_weak_l1_safe_variant_never_violated():
    for sp, f in random_atoms(n_max=8, seed=7, n_draws=80):
        sf = decreasing_rearrangement(f, sp)
        rep = audit_weak_l1(f, sp, "safe_unit", straddling_grid(sf))
        assert not rep.violated
    with pytest.raises(DomainError):
        audit_weak_l1(f, sp, "three-over-pi", [1.0])


def test_bernstein_right_provable_region():
    # Provable exactly when tau * (s + 1) >= 1.
    for s, tau in ((2.0, 2.0), (1.0, 1.0), (0.5, 1.0), (0.2, 5.0)):
        p = params_from_s_tau(s, tau)
        for sp, f in random_atoms(n_max=7, seed=3, n_draws=50):
            rep = audit_bernstein_right(f, sp, p)
            assert not rep.violated, (s, tau, rep.min_margin)


def test_bernstein_right_violated_outside_region():
    # tau (s + 1) = 0.6 < 1: every indicator violates, any mass.
    p = params_from_s_tau(0.2, 0.5)
    for mass in (0.5, 1.0, 2.0):
        sp, f = unit_indicator(mass)
        rep = audit_bernstein_right(f, sp, p)
        assert rep.violated, (mass, rep.min_margin)
        assert rep.witness_t is None  # t-less audit
        assert rep.grid == (None,)


def test_bernstein_right_reference_values():
    p = params_from_s_tau(2.0, 2.0)
    rep = audit_bernstein_right(REF_F, REF_SPACE, p)
    assert rep.lhs[0] == pytest.approx(2.306768422611068, rel=1e-12)
    assert rep.rhs[0] == pytest.approx(61.25, rel=1e-14)
    assert not rep.violated


def test_q2_theta_half_matches_weak_l1():
    grid = [0.3, 0.8, 1.7, 4.0]
    for sp, f in random_atoms(n_max=6, seed=19, n_draws=20):
        rep_q2 = audit_q2(f, sp, 0.5, grid)
        rep_w = audit_weak_l1(f, sp, "paper-2-over-pi", grid)
        for a, b in zip(rep_q2.rhs, rep_w.rhs):
            assert a == pytest.approx(b, rel=1e-12)


def _bits(x):
    return None if x is None else np.asarray(x, dtype=float).tobytes()


@given(
    theta=st.floats(0.01, 0.99, exclude_min=True, exclude_max=True),
    seed=st.integers(0, 2**32 - 1),
    log_grid=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_q2_is_the_bigc_table_jackson_audit(theta, seed, log_grid):
    # bit for bit: the q2 report is the Jackson audit with C_{theta,2}
    grid = np.geomspace(0.1, 10.0, 7) if log_grid else None
    provider = ConstantProvider("paper-bigc-table")
    for sp, f in random_atoms(n_max=6, seed=seed, n_draws=4):
        q2 = audit_q2(f, sp, theta, grid)
        jackson = audit_jackson(f, sp, params_from_theta_q(theta, 2.0), provider, grid)
        for key in ("lhs", "rhs", "margin", "min_margin", "witness_t"):
            assert _bits(getattr(q2, key)) == _bits(getattr(jackson, key)), key
        assert q2.violated == jackson.violated
        assert _bits(q2.params["constant"]) == _bits(jackson.params["constant"])


def test_q2_reference_instance_frozen():
    rep = audit_q2(REF_F, REF_SPACE, 1.0 / 3.0, [0.5, 1.0, 2.0, 3.0])
    assert rep.params["constant"] == pytest.approx(0.7520609181682899, rel=1e-14)
    assert rep.lhs.tolist() == [3.0, 3.0, 1.0, 1.0]
    assert rep.rhs[0] == pytest.approx(40.16086794541033, rel=1e-12)
    assert rep.rhs[3] == pytest.approx(1.115579665150287, rel=1e-12)
    assert rep.min_margin == pytest.approx(0.11557966515028695, rel=1e-10)
    assert not rep.violated
    with pytest.raises(DomainError):
        audit_q2(REF_F, REF_SPACE, 1.0, [1.0])


def test_straddling_grid_avoids_breaks():
    for sp, f in random_atoms(n_max=8, seed=31, n_draws=40):
        sf = decreasing_rearrangement(f, sp)
        grid = straddling_grid(sf)
        assert np.all(grid > 0)
        assert not set(grid.tolist()) & set(sf.breaks.tolist())
    empty_sf = decreasing_rearrangement(
        SimpleFunction(np.array([0.0])), DiscreteMeasureSpace(weights=np.array([1.0]))
    )
    assert straddling_grid(empty_sf).tolist() == [1.0]


# Weights 1 and 0.002 put the midpoint of the second step on b_1 (1 + _REL),
# so two straddle points coincide; a power-of-two scale keeps them coinciding.
_GRID_WEIGHTS = st.sampled_from([1.0, 0.002, 0.5, 1.5]) | st.floats(0.1, 3.0)
_GRID_MAGS = st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.05, 5.0)


@given(
    atoms=st.lists(st.tuples(_GRID_WEIGHTS, _GRID_MAGS), min_size=1, max_size=10),
    scale=st.sampled_from([1e-300, 2.0**-997, 1.0, 2.0**997, 1e300]),
)
@example(atoms=[(1.0, 2.0), (0.002, 1.0)], scale=1.0)
@example(atoms=[(1.0, 2.0), (0.002, 1.0)], scale=2.0**997)
@example(atoms=[(3.0, 1.0)], scale=1e300)
@settings(max_examples=200, deadline=None)
def test_straddling_grid_is_np_unique_of_the_straddle_points(atoms, scale):
    # the sort and neighbour test give np.unique's array, byte for byte
    w, m = map(np.array, zip(*atoms))
    sf = decreasing_rearrangement(SimpleFunction(m), DiscreteMeasureSpace(weights=w * scale))
    want = np.array([1.0])
    if sf.n_steps:
        b = sf.breaks
        pts = np.concatenate(audit._straddle(b[1:], b[:-1], b[-1:]))
        want = np.unique(pts[pts > 0])
    grid = straddling_grid(sf)
    assert grid.dtype == want.dtype and grid.tobytes() == want.tobytes()


def test_straddle_points_can_coincide():
    # the grid identity's examples hold coinciding points, which it merges
    sp, f = DiscreteMeasureSpace(weights=[1.0, 0.002]), SimpleFunction([2.0, 1.0])
    sf = decreasing_rearrangement(f, sp)
    b = sf.breaks
    pts = np.concatenate(audit._straddle(b[1:], b[:-1], b[-1:]))
    assert straddling_grid(sf).size == pts.size - 1


def _draw_by_draw_random_atoms(n_max, seed, n_draws):
    """The unblocked generator: one draw, two constructors at a time."""
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


def _assert_same_draws(got, want):
    """random_atoms' pairs `got` are the draws `want`, built by the two
    constructors: same bytes and atom ids, frozen 1-d float arrays."""
    assert len(got) == len(want)
    for (sp, f), (sp_want, f_want) in zip(got, want):
        assert type(sp) is DiscreteMeasureSpace and type(f) is SimpleFunction
        assert sp.weights.tobytes() == sp_want.weights.tobytes()
        assert f.magnitudes.tobytes() == f_want.magnitudes.tobytes()
        assert sp.atom_ids == sp_want.atom_ids
        for arr in (sp.weights, f.magnitudes):
            assert arr.dtype == float and arr.ndim == 1 and not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0


@pytest.mark.parametrize(
    "n_max, seed, n_draws", [(1, 0, 5), (5, 3, 50), (8, 41, 2000), (13, 7, 300), (8, 9, 0)]
)
def test_random_atoms_blocks_keep_the_draw_by_draw_stream(n_max, seed, n_draws):
    got = list(random_atoms(n_max, seed, n_draws))
    _assert_same_draws(got, list(_draw_by_draw_random_atoms(n_max, seed, n_draws)))


# The stream tests below set random_atoms' block size to CELLS (the `cells`
# fixture), small enough to check every draw at a block's edges against the
# five-call reference; one test checks them at the shipped _SCREEN_CELLS.
CELLS = 1024


@pytest.fixture
def cells(request, monkeypatch):
    """random_atoms' block size for one test: CELLS, or the test's param.
    _RandomAtoms._unread reads _SCREEN_CELLS as it makes each block."""
    size = getattr(request, "param", CELLS)
    monkeypatch.setattr(audit, "_SCREEN_CELLS", size)
    return size


def _block_rows(n_max, cells=CELLS):
    """Draws in one of random_atoms' blocks at this n_max."""
    return max(cells // n_max, 1)


ROWS_8 = _block_rows(8)  # 128
ROWS_40 = _block_rows(40)  # 25
SEARCH_ROWS_8 = _block_rows(8, _SCREEN_CELLS)  # 2048, for the tests that keep _SCREEN_CELLS

ONE_DRAW_N_MAX = 5 * CELLS // 4  # above CELLS: every block holds one draw
BLOCK_N_MAX = (1, 3, 8, 13, 40)  # blocks of 1024, 341, 128, 78 and 25 draws
DRAWS = 300  # draws of the search tests, past two blocks of eight-atom draws


def _edges(*extra):
    """Draw counts at two block edges of eight-atom draws, DRAWS - 1 and `extra`."""
    two = 2 * ROWS_8
    return sorted({1, ROWS_8 - 1, ROWS_8, ROWS_8 + 1, two - 1, two, two + 1, DRAWS - 1, *extra})


# (whole blocks, extra draws): n_draws = blocks * _block_rows(n_max) + extra
BLOCK_EDGES = [(0, n) for n in _edges()] + [(1, -1), (1, 0), (1, 1), (2, 0), (2, 1)]


@pytest.mark.parametrize(
    "blocks, extra", BLOCK_EDGES, ids=[f"{k}blocks{d:+d}" if k else str(d) for k, d in BLOCK_EDGES]
)
@pytest.mark.parametrize("n_max", [1, 40])
@pytest.mark.usefixtures("cells")
def test_random_atoms_stream_at_block_edges(n_max, blocks, extra):
    n_draws = blocks * _block_rows(n_max) + extra
    for seed in (0, 1, 17, 2024):
        got = list(random_atoms(n_max, seed, n_draws))
        _assert_same_draws(got, list(_draw_by_draw_random_atoms(n_max, seed, n_draws)))


def test_random_atoms_argument_errors():
    for n_max, seed, n_draws in ((0, 0, 5), (3, 0, -1), (3, -1, 5)):
        with pytest.raises(DomainError):
            next(random_atoms(n_max, seed, n_draws))


@pytest.mark.parametrize("n_max", [1, 8, 256, ONE_DRAW_N_MAX])
@pytest.mark.usefixtures("cells")
def test_block_columns_are_the_draws(n_max):
    # each draw is one zero-padded column of its (width x rows) block; limits
    # that end inside a block or past its edge split it by columns
    n_draws = 12 if n_max == ONE_DRAW_N_MAX else _block_rows(n_max) + ROWS_8 + 2
    want = list(_draw_by_draw_random_atoms(n_max, 41, n_draws))
    for limit in (1, ROWS_8 - 1, ROWS_8, ROWS_8 + 1, None):
        gen, got = random_atoms(n_max, 41, n_draws), []
        while blocks := list(gen.blocks(limit)):
            for block in blocks:
                width, rows = block.weights.shape
                assert block.mags.shape == (width, rows) == (width, block.sizes.size)
                assert block.sizes.max() <= width
                for r, n in enumerate(block.sizes):
                    assert not block.weights[n:, r].any() and not block.mags[n:, r].any()
                    got.append(block.pair(r))
        _assert_same_draws(got, want)
    # a block read whole is the drawn (width x rows) array itself
    block = next(random_atoms(n_max, 41, n_draws).blocks(None))
    assert block.weights.flags.c_contiguous and block.mags.flags.c_contiguous
    assert block.weights.shape == (block.sizes.max(), _block_rows(n_max))


def _state_after(n_max, state, n_draws):
    """The PCG64 state after n_draws five-call draws from `state`, and those
    draws."""
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    # default_rng hands a Generator back as it is, so the draws advance rng
    draws = list(_draw_by_draw_random_atoms(n_max, rng, n_draws))
    return rng.bit_generator.state, draws


def _at_five_calls(gen, n_max, n_draws):
    """Whether random_atoms(n_max, 41, n_draws) `gen` leaves its generator
    where as many five-call draws as it has made leave default_rng(41)."""
    seeded = np.random.default_rng(41).bit_generator.state
    return gen._rng.bit_generator.state == _state_after(n_max, seeded, n_draws - gen._left)[0]


SEARCH_P, SEARCH_PROVIDER = params_from_s_tau(1.0, 2.0), ConstantProvider("paper-c")


def _check_budgeted_search(n_max, n_draws, budget):
    """A search of random_atoms(n_max, 41, n_draws) with this budget reports
    as the draw-by-draw search."""
    gen = random_atoms(n_max, 41, n_draws)
    got = counterexample_search(SEARCH_P, SEARCH_PROVIDER, gen, budget=budget)
    assert got.n_instances == min(budget, n_draws)
    want = _reference_search(
        SEARCH_P, SEARCH_PROVIDER, _draw_by_draw_random_atoms(n_max, 41, n_draws), budget
    )
    assert _doc(got) == _doc(want)


def _check_next_after_budget(n_max, n_draws, budget):
    """A budgeted search leaves the generator as the five calls do, at the
    next draw."""
    gen = random_atoms(n_max, 41, n_draws)
    counterexample_search(SEARCH_P, SEARCH_PROVIDER, gen, budget=budget)
    assert _at_five_calls(gen, n_max, n_draws)
    _assert_same_draws(list(gen), list(_draw_by_draw_random_atoms(n_max, 41, n_draws))[budget:])


def _check_search_after_pulled(n_max, n_draws, pulled):
    """A search after `pulled` pairs reports as the draw-by-draw search of
    the draws left."""
    want = list(_draw_by_draw_random_atoms(n_max, 41, n_draws))
    gen = random_atoms(n_max, 41, n_draws)
    _assert_same_draws(list(itertools.islice(gen, pulled)), want[:pulled])
    got = counterexample_search(SEARCH_P, SEARCH_PROVIDER, gen)
    want = _reference_search(SEARCH_P, SEARCH_PROVIDER, iter(want[pulled:]))
    assert _doc(got) == _doc(want)


def _check_searches_after(n_max, n_draws, count):
    for check in (_check_budgeted_search, _check_next_after_budget, _check_search_after_pulled):
        check(n_max, n_draws, count)


SEARCH_COUNTS = _edges(0, ROWS_40 - 1, ROWS_40, DRAWS, DRAWS + 100)


@pytest.mark.parametrize("budget", SEARCH_COUNTS)
@pytest.mark.usefixtures("cells")
def test_search_budget_inside_a_draw_block(budget):
    for n_max in BLOCK_N_MAX:
        _check_budgeted_search(n_max, DRAWS, budget)


@pytest.mark.parametrize("budget", SEARCH_COUNTS)
@pytest.mark.usefixtures("cells")
def test_next_after_a_budgeted_search_is_the_next_draw(budget):
    for n_max in BLOCK_N_MAX:
        _check_next_after_budget(n_max, DRAWS, budget)


@pytest.mark.parametrize("pulled", SEARCH_COUNTS)
@pytest.mark.usefixtures("cells")
def test_search_after_pulled_pairs_matches_reference(pulled):
    for n_max in BLOCK_N_MAX:
        _check_search_after_pulled(n_max, DRAWS, pulled)


@pytest.mark.parametrize("n_max", sorted({*BLOCK_N_MAX, 2, 1000, ONE_DRAW_N_MAX}))
@pytest.mark.usefixtures("cells")
def test_random_atoms_leaves_the_generator_where_the_five_calls_do(n_max):
    # the state after each decoded block, has_uint32 and uinteger included,
    # is the state after as many five-call draws; a block holds one draw at
    # n_max 1000 and ONE_DRAW_N_MAX
    p = params_from_s_tau(1.0, 2.0)
    provider = ConstantProvider("paper-c")
    n_draws = 60 if n_max >= 1000 else DRAWS
    gen = random_atoms(n_max, 41, n_draws)
    for _ in gen.blocks(None):
        assert _at_five_calls(gen, n_max, n_draws)
    assert gen._left == 0
    for budget in (1, ROWS_40 - 1, ROWS_40, ROWS_8 + 1, n_draws - 1):
        _check_searches_after(n_max, n_draws, budget)
    want = list(_draw_by_draw_random_atoms(n_max, 41, n_draws))
    for pulled in (k for k in (1, ROWS_40, ROWS_8 + 1) if k + 10 < n_draws):
        gen = random_atoms(n_max, 41, n_draws)
        _assert_same_draws([next(gen) for _ in range(pulled)], want[:pulled])
        assert _at_five_calls(gen, n_max, n_draws)
        # a budgeted search and a block read after the pulled pairs
        counterexample_search(p, provider, gen, budget=7)
        read = pulled + 7 + next(gen.blocks(3)).sizes.size
        assert _at_five_calls(gen, n_max, n_draws)
        _assert_same_draws(list(gen), want[read:])


@pytest.mark.parametrize("n_max", [8, 5 * _SCREEN_CELLS // 4])
def test_draw_stream_at_the_shipped_block_edges(n_max):
    # the stream tests above at the shipped size's own edges: a draw either
    # side of a full block of eight-atom draws, and one-draw blocks
    rows = _block_rows(n_max, _SCREEN_CELLS)
    want = list(_draw_by_draw_random_atoms(n_max, 41, rows + 2))
    for k in sorted({max(rows - 1, 1), rows, rows + 1}):
        _assert_same_draws(list(random_atoms(n_max, 41, k)), want[:k])
        gen = random_atoms(n_max, 41, rows + 2)
        got = [block.pair(r) for block in gen.blocks(k) for r in range(block.sizes.size)]
        _assert_same_draws(got, want[:k])
        assert _at_five_calls(gen, n_max, rows + 2)
        _check_searches_after(n_max, rows + 2, k)


_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M64 = 2**64 - 1


def _state_before_word(word, inc, hi=0x0123456789ABCDEF):
    """A PCG64 128-bit state whose next output is `word`.  PCG64 steps its
    state s to s * mult + inc and outputs rotr(hi ^ lo, hi >> 58) of the
    stepped state: pick hi, solve for lo, and step back."""
    rot = hi >> 58
    lo = (((word << rot) | (word >> (64 - rot))) & _M64) ^ hi
    return ((((hi << 64) | lo) - inc) * pow(_PCG64_MULT, -1, 2**128)) % 2**128


def _rejected_halves(n_max):
    """32-bit halves u that integers(1, n_max + 1) rejects by Lemire's test
    (u n_max) mod 2^32 < (2^32 - n_max) mod n_max: u = ceil(k 2^32 / n_max)."""
    floor = (2**32 - n_max) % n_max
    halves = (-(-k * 2**32 // n_max) for k in range(n_max))
    return [u for u in halves if u * n_max % 2**32 < floor]


@pytest.mark.parametrize("cells", [CELLS, _SCREEN_CELLS], indirect=True)
@pytest.mark.parametrize("n_max", [3, 13, 40])
def test_random_atoms_decodes_rejected_halves(n_max, cells):
    # no seed reaches a rejection in practice, so the states are crafted: a
    # kept high half rejected, a fresh low half rejected, both halves of a
    # fresh word rejected, and all of these in a row
    bad = _rejected_halves(n_max)
    assert bad[0] == 0 and all(u < 2**32 for u in bad)
    seeded = np.random.default_rng(7).bit_generator.state
    inc = seeded["state"]["inc"]
    good = 0x89ABCDEF
    cases = []
    for u in bad[:3]:
        cases += [
            {**seeded, "has_uint32": 1, "uinteger": u},
            {**seeded, "state": {"state": _state_before_word(good << 32 | u, inc), "inc": inc}},
            {**seeded, "state": {"state": _state_before_word(u << 32 | u, inc), "inc": inc}},
            {
                "bit_generator": "PCG64",
                "state": {"state": _state_before_word(u << 32 | bad[-1], inc), "inc": inc},
                "has_uint32": 1,
                "uinteger": bad[-1],
            },
        ]
    n_draws = 2 * _block_rows(n_max, cells) + 5  # two full blocks and five draws
    if cells == _SCREEN_CELLS:
        cases = cases[3::4]  # at the shipped size, each rejected half's chained state
    for state in cases:
        gen = random_atoms(n_max, 0, n_draws)
        gen._rng.bit_generator.state = state
        got = list(gen)
        want_state, want = _state_after(n_max, state, n_draws)
        _assert_same_draws(got, want)
        assert gen._rng.bit_generator.state == want_state


def test_random_atoms_reads_about_the_words_it_needs():
    # a block reads its expected need plus a margin that does not grow with
    # n_max, and reads on only when a draw needs more: at n_max = 1e5 (one
    # draw per block, up to 4e5 words) the traced peak stays within 1.5x the
    # 8.7 MB of the five-call loop, which made the doubles of one random(4n)
    tracemalloc.start()
    try:
        blocks = list(random_atoms(10**5, 0, 3).blocks(None))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [block.sizes.size for block in blocks] == [1, 1, 1]
    assert peak < 1.5 * 8.7e6


def test_search_zero_budget():
    p = params_from_s_tau(1.0, 1.0)
    res = counterexample_search(
        p, ConstantProvider("paper-c"), random_atoms(5, seed=0), budget=0
    )
    assert res.report is None
    assert res.instance_csv is None
    assert res.n_instances == 0
    assert res.to_json_dict() == {
        "n_instances": 0,
        "report": None,
        "instance_csv": None,
    }


def test_search_negative_budget_is_a_domain_error():
    # refused before any draw is taken, from random_atoms or any other iterable
    p = params_from_s_tau(1.0, 1.0)
    for budget in (-1, -5):
        for gen in (random_atoms(5, seed=0), iter(list(random_atoms(5, seed=0)))):
            with pytest.raises(DomainError, match="budget"):
                counterexample_search(p, ConstantProvider("paper-c"), gen, budget=budget)
            _assert_same_draws([next(gen)], [next(iter(random_atoms(5, seed=0)))])


def test_search_deterministic():
    p = params_from_s_tau(1.0, 1.0)
    prov = ConstantProvider("paper-with-factor")
    r1 = counterexample_search(p, prov, random_atoms(6, seed=12, n_draws=40))
    r2 = counterexample_search(p, prov, random_atoms(6, seed=12, n_draws=40))
    assert _doc(r1) == _doc(r2)
    assert r1.n_instances == 40


def test_search_finds_indicator_violation():
    p = params_from_s_tau(1.0, 1.0)
    res = counterexample_search(
        p, ConstantProvider("paper-with-factor"), indicator_sweep()
    )
    assert res.n_instances == 9
    assert res.report is not None and res.report.violated
    assert res.report.min_margin < -0.49
    assert res.instance_csv.startswith("atom_id,weight,magnitude\n")


def test_report_serialization():
    sp, f = unit_indicator()
    p = params_from_s_tau(1.0, 1.0)
    rep = audit_jackson(f, sp, p, ConstantProvider("sharp-oracle"), [0.5, 2.0])
    doc = json.loads(rep.to_json_text())
    assert doc["inequality_name"] == "jackson"
    assert doc["violated"] is False
    assert doc["witness_t"] is None
    assert doc["grid"] == [0.5, 2.0]
    csv_text = rep.to_csv_text()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "t,lhs,rhs,margin"
    assert len(lines) == 3
    # t-less bernstein rows carry an empty leading field
    brep = audit_bernstein_right(f, sp, p)
    brows = brep.to_csv_text().strip().split("\n")
    assert brows[1].startswith(",")


def test_report_columns_are_read_only_float64_arrays():
    p, provider = params_from_s_tau(1.0, 2.0), ConstantProvider("paper-c")
    model = spectral_measure(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 0.0]))
    grid = np.array([0.5, 2.0])
    reports = [
        audit_jackson(REF_F, REF_SPACE, p, provider),
        audit_weak_l1(REF_F, REF_SPACE, "paper-2-over-pi", grid),
        audit_q2(REF_F, REF_SPACE, 1.0 / 3.0),
        audit_spectral_bound(model, None, "paper-2-over-pi"),
        counterexample_search(p, provider, random_atoms(6, 3, 50)).report,
        audit_bernstein_right(REF_F, REF_SPACE, p),
    ]
    for rep in reports:
        columns = (rep.lhs, rep.rhs, rep.margin)
        if rep.inequality_name != "bernstein_right":
            columns += (rep.grid,)
        for col in columns:
            assert type(col) is np.ndarray and col.dtype == np.float64
            assert col.shape == rep.margin.shape and col.ndim == 1
            with pytest.raises(ValueError, match="read-only"):
                col[0] = 1.0
    # a caller's grid is copied, and stays writable
    assert reports[1].grid is not grid and grid.flags.writeable
    # the t-less report: one point, t written as null and as an empty field
    brep = reports[-1]
    assert brep.grid == (None,) and brep.witness_t is None
    assert '\n  "grid": [null],\n' in brep.to_json_text()
    row = ",".join(repr(col.tolist()[0]) for col in (brep.lhs, brep.rhs, brep.margin))
    assert brep.to_csv_text() == f"t,lhs,rhs,margin\n,{row}\n"


# -- the screened counterexample search ---------------------------------------


def _reference_search(p, provider, draws, budget=None):
    """The draw-by-draw search: the first report strictly below all before it."""
    worst = worst_instance = None
    count = 0
    for sp, f in itertools.islice(draws, budget):
        count += 1
        report = audit_jackson(f, sp, p, provider)
        if worst is None or report.min_margin < worst.min_margin:
            worst, worst_instance = report, instance_csv_text(sp, f)
    return SearchResult(worst, worst_instance, count)


def _outcome(fn, *args, **kwargs):
    # repr compares nan fields too; an exception is compared by type and text
    try:
        return _doc(fn(*args, **kwargs))
    except (ArithmeticError, BJAuditError) as exc:
        return f"{type(exc).__name__}: {exc}"


SEARCH_FEATURES = (
    "ties", "zeros", "close", "absorbed", "empty", "huge", "large", "repeat"
)
SEARCH_PARAMS = ((1.0, 2.0), (0.5, 0.5), (3.0, 1.0), (1.0, math.inf), (2.0, 0.3))


def _draw_instance(rng, features, earlier):
    if "repeat" in features and earlier and rng.random() < 0.3:
        sp, f = earlier[rng.integers(len(earlier))]
        perm = rng.permutation(sp.n_atoms)
        return (
            DiscreteMeasureSpace(weights=sp.weights[perm]),
            SimpleFunction(f.magnitudes[perm]),
        )
    n_max = 300 if "large" in features and rng.random() < 0.2 else 10
    n = int(rng.integers(1, n_max + 1))
    w = rng.uniform(0.1, 3.0, n)
    m = rng.uniform(0.05, 5.0, n)
    if "ties" in features:
        m = np.where(rng.random(n) < 0.6, np.round(m), m)
    if "zeros" in features:
        m[rng.random(n) < 0.2] = 0.0
    if "close" in features:  # breaks closer together than rel = 1e-3
        w = np.where(rng.random(n) < 0.3, w * 10.0 ** rng.uniform(-7, -3, n), w)
    if "absorbed" in features:  # absorbed by the running sum beside weights near 1
        w[rng.random(n) < 0.2] = 1e-17
    if "huge" in features and rng.random() < 0.3:
        m = np.where(rng.random(n) < 0.5, 1e300, m)
    if "empty" in features and rng.random() < 0.2:
        m[:] = 0.0
    return DiscreteMeasureSpace(weights=w), SimpleFunction(m)


@st.composite
def search_cases(draw):
    features = draw(st.sets(st.sampled_from(SEARCH_FEATURES)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    draws = []
    for _ in range(draw(st.integers(0, 40))):
        draws.append(_draw_instance(rng, features, draws))
    budget = draw(st.one_of(st.none(), st.integers(0, len(draws) + 2)))
    s, tau = draw(st.sampled_from(SEARCH_PARAMS))
    kind = draw(st.sampled_from(PROVIDER_KINDS))
    return params_from_s_tau(s, tau), ConstantProvider(kind), draws, budget


@given(case=search_cases())
@settings(max_examples=150, deadline=None)
def test_search_equals_reference_loop(case):
    p, provider, draws, budget = case
    with np.errstate(all="ignore"):
        got = _outcome(counterexample_search, p, provider, iter(draws), budget=budget)
        want = _outcome(_reference_search, p, provider, iter(draws), budget=budget)
    assert got == want


def test_search_matches_reference_on_random_atoms():
    for n_max in BLOCK_N_MAX:
        for s, tau in SEARCH_PARAMS[:4]:
            p = params_from_s_tau(s, tau)
            for kind in PROVIDER_KINDS:
                provider = ConstantProvider(kind)
                got = counterexample_search(p, provider, random_atoms(n_max, 41, 250))
                want = _reference_search(p, provider, random_atoms(n_max, 41, 250))
                assert _doc(got) == _doc(want)


# (s, tau, n_max, seed, n_draws) of random_atoms searches that reach the
# screened loop's edge cases, with the sharp-oracle screen's uncertified rows
# and min_margins: most rows uncertified; one-atom rows whose direct
# right-hand side under- or overflows, so that it is formed in log space.
# Screened at all of its points, the first case left 1225 rows uncertified:
# 18 more, each only for a dominated point's t^-s past 1e280.  The second
# and third cases had the margins 0.0, 0.0, nan and nan, nan in their middle
# rows while the right-hand side was only formed directly.
SCREEN_EDGES = (
    ((200.0, 2.0, 8, 41, 2000), 1207, None),
    (
        (1100.0, 2.0, 1, 16, 4),
        4,
        [
            4.3856878692787596e-194,
            3.133619150289156e-195,
            7.973977944143859e-194,
            6.924438565733569e-194,
        ],
    ),
    (
        (1200.0, 2.0, 1, 25, 4),
        3,
        [
            4.903307536940995e-213,
            4.931551852520822e-212,
            5.724945024746778e-212,
            1.912289939406816e-211,
        ],
    ),
)


@pytest.mark.parametrize("case, uncertified, margins", SCREEN_EDGES)
def test_search_matches_reference_at_the_screen_edges(case, uncertified, margins):
    s, tau, n_max, seed, n_draws = case
    p = params_from_s_tau(s, tau)
    oracle = ConstantProvider("sharp-oracle")

    def draws():
        return random_atoms(n_max, seed, n_draws)

    with np.errstate(all="ignore"):
        ok = np.concatenate([_screen(b, p, oracle.value(p))[2] for b in draws().blocks(None)])
        assert (~ok).sum() == uncertified
        if margins is not None:
            got = [audit_jackson(f, sp, p, oracle).min_margin for sp, f in draws()]
            assert repr(got) == repr(margins)
            # one atom (w, m): C Q t^-s = m (w/t)^s, least at t = 1.5 w, past the atom
            for (sp, f), margin in zip(draws(), margins):
                w, m = mpmath.mpf(sp.weights[0]), mpmath.mpf(f.magnitudes[0])
                with mpmath.workdps(40):
                    want = m * (w / mpmath.mpf(sp.weights[0] * 1.5)) ** int(s)
                    assert abs(margin - want) <= 1e-12 * want
        for kind in PROVIDER_KINDS:
            provider = ConstantProvider(kind)
            got = _outcome(counterexample_search, p, provider, draws())
            assert got == _outcome(_reference_search, p, provider, draws())


def test_search_over_pairs_keeps_their_atom_ids():
    # an iterable of pairs is audited as it is: the worst instance is written
    # with the caller's atom ids, quoted where the CSV needs it
    p = params_from_s_tau(1.0, 1.0)
    draws = [
        (DiscreteMeasureSpace(weights=np.array([0.5]), atom_ids=("x",)), SimpleFunction([1.0])),
        (
            DiscreteMeasureSpace(weights=np.array([0.5, 0.25]), atom_ids=("y,z", "w")),
            SimpleFunction([2.0, 2.0]),
        ),
    ]
    provider = ConstantProvider("paper-with-factor")
    res = counterexample_search(p, provider, iter(draws))
    assert res.n_instances == 2
    assert res.instance_csv.splitlines()[1:] == ['"y,z",0.5,2.0', "w,0.25,2.0"]
    res = counterexample_search(p, provider, iter(draws[:1]))
    assert res.instance_csv.splitlines()[1:] == ["x,0.5,1.0"]


# Tie groups whose last atom is light: a point inside the group (an atom's
# cumulative weight times 1 + rel, or the midpoint of the group's last two
# atoms) would sit right of the group end's b (1 - rel), where the margin is
# lower than anywhere on straddling_grid.
CLOSE_TIES = [
    (np.array([1.0, 1e-4, 1.0]), np.array([2.0, 2.0, 1.0])),
    (np.array([0.9985, 0.0015, 1.0]), np.array([2.0, 2.0, 1.0])),
    (np.array([0.5, 0.7, 2e-4, 1.0, 3e-4]), np.array([3.0, 2.0, 2.0, 1.0, 1.0])),
]


def _padded(pairs):
    """(sp, f) pairs as one block of zero-padded columns, laid out as
    random_atoms lays out its draws."""
    sizes = np.array([sp.n_atoms for sp, _ in pairs])
    weights, mags = np.zeros((sizes.max(), sizes.size)), np.zeros((sizes.max(), sizes.size))
    for r, (sp, f) in enumerate(pairs):
        weights[: sizes[r], r] = sp.weights
        mags[: sizes[r], r] = f.magnitudes
    return _Block(weights, mags, sizes)


def _screen_pairs(rows, p, const):
    """_screen over (sp, f) pairs, padded into blocks of SEARCH_ROWS_8 rows."""
    blocks = (_padded(rows[i : i + SEARCH_ROWS_8]) for i in range(0, len(rows), SEARCH_ROWS_8))
    brackets = [_screen(block, p, const) for block in blocks]
    return tuple(np.concatenate(parts) for parts in zip(*brackets))


def test_screen_brackets_the_audited_margin():
    rng = np.random.default_rng(5)
    rows = [(DiscreteMeasureSpace(weights=w), SimpleFunction(m)) for w, m in CLOSE_TIES]
    for _ in range(60):
        rows.append(_draw_instance(rng, {"ties", "zeros", "close"}, rows))
    # ordinary draws, as random_atoms hands them to the search; at n_max = 256
    # about half of the rows have breaks within _REL of each other; at n_max
    # = 8 they fill two blocks
    blocks = {
        n: list(random_atoms(n, 41, 2 * SEARCH_ROWS_8 if n == 8 else 2000).blocks(None))
        for n in (*BLOCK_N_MAX, 64, 128, 256)
    }
    draws_8 = list(random_atoms(8, 41, 2 * SEARCH_ROWS_8))  # the same draws for every (s, tau)
    for s, tau in SEARCH_PARAMS:
        p = params_from_s_tau(s, tau)
        for kind in PROVIDER_KINDS:
            provider = ConstantProvider(kind)
            lo, hi, ok = _screen_pairs(rows, p, provider.value(p))
            assert ok[: len(CLOSE_TIES)].all()
            # ordinary draws are all certified, so none needs the scalar audit
            for n_max, n_blocks in blocks.items():
                if (s, tau) in SEARCH_PARAMS[:4]:
                    assert all(_screen(b, p, provider.value(p))[2].all() for b in n_blocks)
            plain = _screen_pairs(draws_8, p, provider.value(p))
            assert plain[2].all()
            # and so are the blocks random_atoms hands the search, bracket for bracket
            direct = [_screen(block, p, provider.value(p)) for block in blocks[8][:2]]
            assert [block.sizes.size for block in blocks[8][:2]] == [SEARCH_ROWS_8] * 2
            for got, want in zip(zip(*direct), plain):
                assert np.concatenate(got).tobytes() == want.tobytes()
            for (sp, f), lo_r, hi_r, ok_r in zip(rows, lo, hi, ok):
                if ok_r:
                    margin = audit_jackson(f, sp, p, provider).min_margin
                    assert lo_r <= margin <= hi_r


@pytest.mark.parametrize("cells", [CELLS, _SCREEN_CELLS], indirect=True)
@pytest.mark.parametrize("n_max", [1, 8, 64, 256])
def test_screen_brackets_do_not_depend_on_the_block(n_max, cells):
    # a block's brackets, bit for bit, are those of its column slices, each
    # trimmed to its own longest draw (as a smaller block would pad it), close
    # draws and one-column slices included
    close = [(DiscreteMeasureSpace(weights=w), SimpleFunction(m)) for w, m in CLOSE_TIES]
    close.append(CLOSE_BREAKS)
    padded = _padded([*close, *random_atoms(n_max, 7, 40), *close])
    for block in (next(random_atoms(n_max, 41, 600).blocks(None)), padded):
        n = block.sizes.size
        for s, tau in SEARCH_PARAMS:
            p = params_from_s_tau(s, tau)
            for kind in ("paper-c", "sharp-oracle"):
                const = ConstantProvider(kind).value(p)
                whole = _screen(block, p, const)
                assert whole[2].any()
                for pieces in (2, 7, n // 2, n):
                    parts = []
                    for cols in np.array_split(np.arange(n), min(pieces, n)):
                        sizes = block.sizes[cols]
                        height = sizes.max()
                        piece = _Block(block.weights[:height, cols], block.mags[:height, cols], sizes)
                        parts.append(_screen(piece, p, const))
                    for got, want in zip(zip(*parts), whole):
                        assert np.concatenate(got).tobytes() == want.tobytes()


def _rel_q_per_column(mag, c, kept, n_kept, p):
    """_row_quasinorms' rel_q with its allowance for underflowed terms formed
    column by column, n_kept 2^-1070 (1 + 1/(s tau)); and rel_q without that
    allowance."""
    st = p.s * p.tau
    m_pow, c_pow = mag**p.tau, c**st
    c_pow_prev = np.concatenate([np.zeros((1, c.shape[1])), c_pow[:-1]])
    terms = np.where(kept, m_pow * (c_pow - c_pow_prev) / st, 0.0)
    bulk = np.where(kept, m_pow * (c_pow + c_pow_prev) / st, 0.0).sum(axis=0)
    out = []
    for under in (n_kept * 2.0**-1070 * (1.0 + 1.0 / st), 0.0):
        eps = (
            2.0
            * (
                (2.0 * audit._POW_ULPS + 6.0) * audit._ULP * bulk
                + (n_kept + 2.0) * audit._ULP * np.abs(terms).sum(axis=0)
                + under
            )
            / terms.sum(axis=0)
        )
        a = 1.0 / p.tau
        rel_q = np.maximum(np.expm1(a * np.log1p(eps)), -np.expm1(a * np.log1p(-eps)))
        out.append(2.0 * rel_q + 2.0 * audit._POW_ULPS * audit._ULP)
    return out


def test_row_quasinorms_underflow_allowance_is_per_column():
    # the allowance is read from a table by kept count; rel_q (and so eps)
    # must be the per-column formula's, bit for bit, for every count from 0
    # to the width, with each column's terms at its own scale, from ordinary
    # down to the bottom of the float range, where the allowance counts
    rng = np.random.default_rng(3)
    width, cols = 12, 13 * 40
    n_kept = np.arange(cols) % (width + 1)
    kept = np.arange(width)[:, None] < n_kept
    n_moved = 0
    for st_val in np.geomspace(1e-9, 600.0, 12):
        for tau in (0.3, 1.0, 2.0):
            p = params_from_s_tau(st_val / tau, tau)
            # tau-th powers of the magnitudes within a decade of 10^e, e drawn
            # per column from -330 to 0
            e = rng.uniform(-330.0, 0.0, cols) - rng.uniform(0.0, 1.0, (width, cols))
            mag = np.where(kept, np.sort(10.0 ** (e / tau), axis=0)[::-1], 0.0)
            c = np.cumsum(10.0 ** rng.uniform(-3.0, 1.0, (width, cols)), axis=0)
            with np.errstate(all="ignore"):
                got = audit._row_quasinorms(mag, c, kept, n_kept, p)[1]
                want, bare = _rel_q_per_column(mag, c, kept, n_kept, p)
            assert got.tobytes() == want.tobytes()
            n_moved += (np.isfinite(bare) & (want != bare)).sum()
    # the allowance decides some finite rel_q
    assert n_moved > 100


# Ratios b_k / b_{k-1} where b_k (1 - _REL) >= b_{k-1} and the largest point
# of step k is b_{k-1} (1 + _REL) (below 1 + 2 _REL) or the midpoint (up to
# 1 / (1 - 2 _REL)): the band where the decisive point is not b_k (1 - _REL).
ABOVE_BAND = (1.0 / (1.0 - _REL), 1.0 + 2.0 * _REL)
MID_BAND = (1.0 + 2.0 * _REL, 1.0 / (1.0 - 2.0 * _REL))


@st.composite
def screen_rows(draw):
    """(sp, f): tie groups of strictly decreasing magnitudes, often close
    together (so that a step in a band can hold the least margin), each
    group's weight ordinary, absorbed (1e-17 of the mass before it) or
    setting the ratio of its break to the one before inside a band, zeros,
    a 1e+-300 scale on the weights or the magnitudes, in a drawn order."""
    mags = [draw(st.floats(0.05, 5.0))]
    for _ in range(draw(st.integers(0, 5))):
        drop = draw(st.floats(1e-6, 1e-2) | st.floats(1e-2, 0.9))
        mags.append(mags[-1] * (1.0 - drop))
    weights, magnitudes, mass = [], [], 0.0
    for v in mags:
        kind = draw(st.sampled_from(["plain", "above", "mid", "absorbed"])) if mass else "plain"
        if kind == "plain":
            total = draw(st.floats(0.1, 3.0))
        elif kind == "absorbed":
            total = mass * 1e-17
        else:
            lo, hi = ABOVE_BAND if kind == "above" else MID_BAND
            total = mass * (draw(st.floats(lo, hi, exclude_min=True, exclude_max=True)) - 1.0)
        ties = draw(st.integers(1, 3))
        weights += [total / ties] * ties
        magnitudes += [v] * ties
        mass += total
    zeros = draw(st.integers(0, 2))
    weights += [1.0] * zeros
    magnitudes += [0.0] * zeros
    scale = draw(st.sampled_from([1.0, 1.0, 1e-300, 1e300]))
    weights, magnitudes = np.array(weights), np.array(magnitudes)
    if draw(st.booleans()):
        weights = weights * scale
    else:
        magnitudes = magnitudes * scale
    perm = draw(st.permutations(range(weights.size)))
    return DiscreteMeasureSpace(weights=weights[perm]), SimpleFunction(magnitudes[perm])


@given(
    rows=st.lists(screen_rows(), min_size=1, max_size=4),
    s=st.sampled_from([0.5, 1.0, 3.0, 40.0, 300.0]),
    tau=st.sampled_from([0.3, 1.0, 2.0, math.inf]),
    kind=st.sampled_from(PROVIDER_KINDS),
)
@settings(max_examples=300, deadline=None)
def test_screen_at_decisive_points_brackets_the_audited_margin(rows, s, tau, kind):
    p = params_from_s_tau(s, tau)
    provider = ConstantProvider(kind)
    with np.errstate(all="ignore"):
        lo, hi, ok = _screen(_padded(rows), p, provider.value(p))
        for (sp, f), lo_r, hi_r, ok_r in zip(rows, lo, hi, ok):
            if ok_r:
                assert lo_r <= audit_jackson(f, sp, p, provider).min_margin <= hi_r


def _decisive_of(sf, pad=3):
    """_decisive over a StepFunction's breaks, followed by `pad` cells
    without a break (inf, after b_K) as the screen lays out a column."""
    b = sf.breaks
    bk = np.concatenate([b[1:], np.full(pad, np.inf)])[:, None]
    b_prev = np.concatenate([b[:-1], np.full(pad, b[-1])])[:, None]
    points, close = _decisive(bk, b_prev, b[-1:][:, None])
    return points[:, 0], bool(close[0])


def test_decisive_points_are_straddling_grid_points():
    # a break ratio in each band: step 2 is decided by b_1 (1 + _REL), step 3
    # by its midpoint, steps 1 and 4 by b_k (1 - _REL)
    b1 = 1.0
    b2 = b1 * 1.0015
    b3 = b2 * 1.002003
    band = DiscreteMeasureSpace(weights=np.array([b1, b2 - b1, b3 - b2, 2.0])), SimpleFunction(
        np.array([4.0, 3.0, 2.0, 1.0])
    )
    sf = decreasing_rearrangement(band[1], band[0])
    b = sf.breaks
    points, close = _decisive_of(sf)
    assert not close
    assert points.tolist() == [
        b[1] * (1.0 - _REL), b[1] * (1.0 + _REL), (b[2] + b[3]) / 2.0, b[4] * (1.0 - _REL),
        np.inf, np.inf, np.inf, b[4] * 1.5,
    ]
    rows = [band, *random_atoms(8, 41, 300), *random_atoms(40, 7, 100)]
    n_close = 0
    for sp, f in rows:
        sf = decreasing_rearrangement(f, sp)
        if sf.n_steps == 0:
            continue
        points, close = _decisive_of(sf)
        n_close += close
        if not close:
            # a padded step's point is inf; the last column is _EXTEND b_K
            assert (points[sf.n_steps : -1] == np.inf).all()
            decisive = [*points[: sf.n_steps].tolist(), points[-1]]
            assert set(decisive) <= set(straddling_grid(sf).tolist())
    assert n_close == 0


# Breaks 1.0 and 1.0001, within _REL = 1e-3 of each other: b_1 (1 + _REL)
# passes b_2, so f* there is not read off the straddle runs but looked up.
CLOSE_BREAKS = (
    DiscreteMeasureSpace(weights=np.array([1.0, 1e-4])),
    SimpleFunction(np.array([2.0, 1.0])),
)


def test_screen_certifies_close_breaks():
    assert decreasing_rearrangement(CLOSE_BREAKS[1], CLOSE_BREAKS[0]).breaks.tolist() == [
        0.0, 1.0, 1.0001
    ]
    rows = [*random_atoms(8, 41, 20), CLOSE_BREAKS, *random_atoms(8, 42, 20)]
    big = list(random_atoms(256, 43, 12))
    for s, tau in SEARCH_PARAMS:
        p = params_from_s_tau(s, tau)
        for kind in PROVIDER_KINDS:
            provider = ConstantProvider(kind)
            for draws in (rows, big):
                lo, hi, ok = _screen_pairs(draws, p, provider.value(p))
                assert ok.all()
                for (sp, f), lo_r, hi_r in zip(draws, lo, hi):
                    assert lo_r <= audit_jackson(f, sp, p, provider).min_margin <= hi_r
            for draws in (rows, [CLOSE_BREAKS] * 3, rows[:20] + [CLOSE_BREAKS], big):
                got = counterexample_search(p, provider, iter(draws))
                want = _reference_search(p, provider, iter(draws))
                assert _doc(got) == _doc(want)


def test_step_lookup_on_sorted_atoms_is_eval_step():
    # _screen's lookup keys are the per-atom cumulative weights, sorted as it
    # sorts them and trimmed to the block's most kept atoms; at every
    # straddling point and break f* must be eval_step's float, close breaks, tie
    # groups, zeros and full-height columns included
    ties = [(DiscreteMeasureSpace(weights=w), SimpleFunction(m)) for w, m in CLOSE_TIES]
    zeros = [
        (DiscreteMeasureSpace(weights=np.ones(3)), SimpleFunction(np.zeros(3))),
        (DiscreteMeasureSpace(weights=np.array([1.0, 1e-4, 1.0])), SimpleFunction([0.0, 2.0, 0.0])),
    ]
    blocks = [
        *random_atoms(256, 41, 2000).blocks(None),
        _padded([*ties, CLOSE_BREAKS, *zeros]),
        _padded([CLOSE_BREAKS, *zeros]),
    ]
    n_close = 0
    for block in blocks:
        kept = block.mags > 0.0
        order = np.argsort(-block.mags, axis=0, kind="stable")[: max(kept.sum(axis=0).max(), 1)]
        mag = np.take_along_axis(block.mags, order, axis=0)
        c = np.cumsum(np.take_along_axis(block.weights, order, axis=0), axis=0)
        grids = []
        for r in range(block.sizes.size):
            sf = decreasing_rearrangement(*block.pair(r)[::-1])
            b = sf.breaks
            n_close += bool((b[2:] * (1.0 - _REL) < b[1:-1]).any())
            # the straddling points, and the breaks, where f* is right-continuous
            pts = np.concatenate([*audit._straddle(b[1:], b[:-1], b[-1:]), b[1:]])
            pts = pts if sf.n_steps else [1.0]
            grids.append((sf, np.asarray(pts)))
        ts = np.full((max(pts.size for _, pts in grids), len(grids)), np.inf)
        for r, (_, pts) in enumerate(grids):
            ts[: pts.size, r] = pts
        got = _step_lookup(c, np.concatenate([mag, np.zeros((1, mag.shape[1]))]), ts)
        for r, (sf, pts) in enumerate(grids):
            assert got[: pts.size, r].tobytes() == eval_step(sf, pts).tobytes()
            assert (got[pts.size :, r] == 0.0).all()
    assert n_close > 100


def _single(weight, magnitude):
    return (
        DiscreteMeasureSpace(weights=np.array([weight])),
        SimpleFunction(np.array([magnitude])),
    )


def test_search_keeps_the_first_of_equal_margins():
    sp, f = REF_SPACE, REF_F
    copies = [
        (DiscreteMeasureSpace(weights=sp.weights[perm]), SimpleFunction(f.magnitudes[perm]))
        for perm in ([0, 1, 2], [2, 0, 1], [1, 2, 0], [2, 1, 0])
    ]
    p = params_from_s_tau(1.0, 2.0)
    res = counterexample_search(p, ConstantProvider("paper-c"), iter(copies))
    assert res.instance_csv == instance_csv_text(*copies[0])
    # the all-zero instances all have margin exactly 0; the first one is kept
    zeros = [
        (DiscreteMeasureSpace(weights=np.ones(k)), SimpleFunction(np.zeros(k)))
        for k in (1, 2, 3)
    ]
    draws = [_single(1.0, 1.0)] + zeros
    res = counterexample_search(p, ConstantProvider("sharp-oracle"), iter(draws))
    assert res.report.min_margin == 0.0
    assert res.instance_csv == instance_csv_text(*zeros[0])


def test_search_does_not_audit_a_certified_first_draw_above_the_cut(monkeypatch):
    # The first draw of a block gets no audit of its own: a certified draw
    # whose lo is above the block's cut is skipped even while no worst report
    # is kept, since the draws that attain the block's minimum are confirmed.
    p = params_from_s_tau(1.0, 2.0)
    provider = ConstantProvider("paper-c")
    block = next(random_atoms(8, 41, SEARCH_ROWS_8).blocks(None))
    lo, hi, ok = _screen(block, p, provider.value(p))
    assert ok.all() and lo[0] > hi.min()
    audited = []

    def counted(f, sp, *args):
        audited.append(instance_csv_text(sp, f))
        return audit_jackson(f, sp, *args)

    monkeypatch.setattr(audit, "audit_jackson", counted)
    got = counterexample_search(p, provider, random_atoms(8, 41, SEARCH_ROWS_8))
    monkeypatch.undo()
    assert instance_csv_text(*block.pair(0)) not in audited
    assert 1 <= len(audited) <= (lo <= hi.min()).sum()
    want = _reference_search(p, provider, random_atoms(8, 41, SEARCH_ROWS_8))
    assert _doc(got) == _doc(want)


def test_search_uncertified_rows_do_not_set_the_cut():
    # The 1e300 instance goes to the log-space quasinorm, which the screen does
    # not certify; its margin is huge, and the second draw is the worst.
    huge = (
        DiscreteMeasureSpace(weights=np.array([1.0, 2.0])),
        SimpleFunction(np.array([1e300, 3.0])),
    )
    draws = [_single(1.0, 1.0), _single(1.0, 0.5), huge]
    p = params_from_s_tau(1.0, 2.0)
    res = counterexample_search(p, ConstantProvider("sharp-oracle"), iter(draws))
    assert res.instance_csv == instance_csv_text(*draws[1])


def test_search_pulls_exactly_budget_draws():
    pulled = []

    def draws():
        for i, pair in enumerate(random_atoms(5, seed=3, n_draws=50)):
            pulled.append(i)
            yield pair

    p = params_from_s_tau(1.0, 1.0)
    for budget in (0, 1, 7, 50, 60):
        pulled.clear()
        res = counterexample_search(p, ConstantProvider("paper-c"), draws(), budget=budget)
        assert res.n_instances == len(pulled) == min(budget, 50)


def test_search_overflowing_support_mass_is_numeric_error():
    big = (
        DiscreteMeasureSpace(weights=np.array([1e308, 1e308])),
        SimpleFunction(np.array([2.0, 1.0])),
    )
    draws = [*random_atoms(5, seed=1, n_draws=6), big, *random_atoms(5, seed=2, n_draws=3)]
    p = params_from_s_tau(1.0, 2.0)
    with pytest.raises(NumericError, match="sum past the float range"):
        counterexample_search(p, ConstantProvider("paper-c"), iter(draws))
    with pytest.raises(NumericError, match="sum past the float range"):
        decreasing_rearrangement(big[1], big[0])


def test_search_raises_the_first_error_in_draw_order():
    # A misaligned draw fails its audit before a later draw fails the generator.
    misaligned = (DiscreteMeasureSpace(weights=np.ones(2)), SimpleFunction(np.ones(3)))

    def draws():
        yield _single(1.0, 1.0)
        yield misaligned
        yield _single(2.0, 1.0)
        raise RuntimeError("generator failed")

    p = params_from_s_tau(1.0, 2.0)
    with pytest.raises(UsageError, match="3 magnitudes"):
        counterexample_search(p, ConstantProvider("paper-c"), draws())
    with pytest.raises(UsageError, match="3 magnitudes"):
        _reference_search(p, ConstantProvider("paper-c"), draws())


def test_search_nan_margin_never_replaces_the_worst():
    # At s = 300 a 0.05-weight atom gives t^-s = inf and a quasinorm that
    # underflows to 0, where the direct product is nan; its right-hand side is
    # formed in log space instead, and its min_margin is mpmath's (w/t)^s at
    # t = 1.5 w.  It comes after the first draw, which the screen would prune
    # (the third draw is lower), and before the winner, which it must not
    # replace, as in the draw-by-draw loop.
    draws = [_single(1.0, 1.0), _single(0.05, 1.0), _single(1.0, 0.5)]
    p = params_from_s_tau(300.0, 2.0)
    provider = ConstantProvider("sharp-oracle")
    with np.errstate(all="ignore"):
        margin = audit_jackson(draws[1][1], draws[1][0], p, provider).min_margin
        res = counterexample_search(p, provider, iter(draws))
    assert margin == pytest.approx(1.4880663064956452e-53, rel=1e-12)
    assert res.instance_csv == instance_csv_text(*draws[2])


def test_jackson_rhs_in_log_space_matches_mpmath():
    # One atom (w, 1) at (s, tau) = (300, 2): C Q t^-s = (w/t)^s exactly, but
    # t^-s overflows at t = w/2 and Q = w^s / sqrt(600) underflows to 0, so the
    # direct product was nan at every point and the audit had no verdict.
    sp, f = _single(0.05, 1.0)
    p = params_from_s_tau(300.0, 2.0)
    rep = audit_jackson(f, sp, p, ConstantProvider("sharp-oracle"))
    assert rep.lhs.tolist() == [1.0, 1.0, 0.0, 0.0]
    with mpmath.workdps(40):
        for t, rhs in zip(rep.grid, rep.rhs):
            want = (mpmath.mpf(0.05) / mpmath.mpf(t)) ** 300
            assert abs(rhs - want) <= 1e-12 * want
    assert rep.min_margin == rep.rhs[3] > 0.0 and not rep.violated
    # past the float range the right-hand side is inf, which the writers refuse
    rep = audit_jackson(f, sp, p, ConstantProvider("sharp-oracle"), [1e-5, 0.025])
    assert rep.rhs[0] == math.inf and rep.rhs[1] == pytest.approx(2.0**300, rel=1e-12)


def _mp_jackson_rhs(sf, s, tau, const, t):
    """C Q_{s,tau} t^-s at 40 digits, Q over the rearrangement's float breaks."""
    with mpmath.workdps(40):
        s_, v = mpmath.mpf(s), [mpmath.mpf(x) for x in sf.values]
        b = [mpmath.mpf(x) for x in sf.breaks]
        if tau == math.inf:
            q = max(vi * bi**s_ for vi, bi in zip(v, b[1:]))
        else:
            st = s_ * mpmath.mpf(tau)
            q_tau = sum(vi**tau * (hi**st - lo**st) for vi, lo, hi in zip(v, b, b[1:])) / st
            q = q_tau ** (1 / mpmath.mpf(tau))
        return mpmath.mpf(const) * q * mpmath.mpf(t) ** -s_


@given(
    weights=st.lists(st.floats(1e-9, 3.0), min_size=1, max_size=5),
    s=st.floats(0.5, 1e3),
    tau=st.floats(0.5, 4.0) | st.just(math.inf),
    kind=st.sampled_from(PROVIDER_KINDS),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_jackson_rhs_is_finite_or_numeric_error(weights, s, tau, kind, data):
    # s up to 1e3 and weights down to 1e-9 drive t^-s and Q out of the float
    # range; each rhs is then inf (the writers refuse it) or agrees with mpmath
    mags = data.draw(st.lists(st.floats(0.05, 5.0), min_size=len(weights), max_size=len(weights)))
    sp, f = DiscreteMeasureSpace(weights=np.array(weights)), SimpleFunction(np.array(mags))
    p = params_from_s_tau(s, tau)
    provider = ConstantProvider(kind)
    try:
        rep = audit_jackson(f, sp, p, provider)
    except NumericError:
        return
    sf = decreasing_rearrangement(f, sp)
    for t, rhs in zip(rep.grid, rep.rhs):
        assert not math.isnan(rhs)
        want = _mp_jackson_rhs(sf, s, tau, rep.params["constant"], t)
        if rhs == math.inf:
            assert want > sys.float_info.max * (1 - 1e-9)
        else:
            assert abs(rhs - want) <= 1e-9 * want + 1e-300


# (weights, magnitudes, s, tau, provider, grid) where a factor of the
# right-hand side is subnormal while the product is a normal float: t^-s at
# t = 3 (s = 655), and Q of one atom of weight 0.00099 (s = 104.5).  Formed
# directly, the first lost digits to a relative error of 4.95e-9, the second
# to 1.6e-8 at its last point.
SUBNORMAL_FACTORS = (
    ([1.75, 0.25], [1.0, 1.0], 655.0, 1.0, "paper-c", [3.0]),
    ([0.00099], [1.0], 104.5, 1.0, "unit", None),
)


@pytest.mark.parametrize("weights, mags, s, tau, kind, grid", SUBNORMAL_FACTORS)
def test_jackson_rhs_keeps_its_digits_where_a_factor_is_subnormal(
    weights, mags, s, tau, kind, grid
):
    sp, f = DiscreteMeasureSpace(weights=np.array(weights)), SimpleFunction(np.array(mags))
    rep = audit_jackson(f, sp, params_from_s_tau(s, tau), ConstantProvider(kind), grid)
    sf = decreasing_rearrangement(f, sp)
    for t, rhs in zip(rep.grid, rep.rhs):
        want = _mp_jackson_rhs(sf, s, tau, rep.params["constant"], t)
        assert sys.float_info.min <= rhs and abs(rhs - want) <= 1e-12 * want


def test_search_verdict_does_not_depend_on_draw_order():
    # The light atom's min margin is about -0.945 with the unit constant; the
    # heavy one's, -1.89, is the worst in both orders.  While the light atom's
    # margin was nan, it stayed the worst report when drawn first.
    light, heavy = _single(0.05, 1.0), _single(1.0, 2.0)
    p = params_from_s_tau(300.0, 2.0)
    provider = ConstantProvider("unit")
    with mpmath.workdps(40):
        t = mpmath.mpf(1.0 * (1.0 - 1e-3))
        want = 2 / mpmath.sqrt(600) * t**-300 - 2
    for draws in ([light, heavy], [heavy, light]):
        res = counterexample_search(p, provider, iter(draws))
        assert res.report.violated and res.instance_csv == instance_csv_text(*heavy)
        assert abs(res.report.min_margin - want) <= 1e-12 * abs(want)
        assert res.report.min_margin == pytest.approx(-1.8897679452899194, rel=1e-12)
    assert audit_jackson(light[1], light[0], p, provider).min_margin == pytest.approx(
        -0.9448839726449546, rel=1e-12
    )

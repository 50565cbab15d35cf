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
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericError, UsageError
from .jsonutil import csv_text, dumps17
from .measures import (
    DiscreteMeasureSpace,
    SimpleFunction,
    _check_magnitudes,
    _check_weights,
    instance_csv_text,
    lp_norm,
)
from .params import (
    PROVIDER_KINDS,
    WEAK_L1_VARIANTS,
    ApproxParams,
    _float_normal,
    _float_pow,
    c_big,
    c_exact,
    params_from_theta_q,
)
from .rearrange import (
    StepFunction,
    _log_approx_quasinorm,
    approx_quasinorm,
    decreasing_rearrangement,
    eval_step,
)

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
    "report_csv",
    "straddling_grid",
    "WEAK_L1_VARIANTS",
]

# A claim is violated where its minimum margin is below -_ABS_TOL.
_ABS_TOL = 1e-12


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
            factor = _float_pow(2.0, (p.s + 1.0) / 2.0, f"2^((s+1)/2) overflows at s={p.s!r}")
            return factor * c_exact(p)
        if self.kind == "paper-bigc-table":
            return c_big(p.theta, p.q, "table")
        if self.kind == "sharp-oracle":
            overflow = f"(s tau)^(1/tau) overflows at tau={p.tau!r}"
            return _float_pow(p.s * p.tau, 1.0 / p.tau, overflow) if p.tau != math.inf else 1.0
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
    abs_tol: float = _ABS_TOL

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
        return csv_text(*report_csv(vars(self)))


def report_csv(doc: dict | None) -> tuple[tuple[str, ...], list]:
    """The CSV header t,lhs,rhs,margin and columns of a report: the lists of its
    JSON dict or its fields (uncopied), or no rows for None (an empty search)."""
    keys = ("grid", "lhs", "rhs", "margin")
    return ("t", *keys[1:]), [[] if doc is None else doc[k] for k in keys]


def _build_report(name: str, params: dict, grid, lhs, rhs) -> AuditReport:
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    margin = rhs - lhs
    if np.isnan(margin).any():
        raise NumericError(f"a {name} margin is NaN, so the claim has no verdict")
    margin = margin.tolist()
    min_margin = min(margin)
    violated = min_margin < -_ABS_TOL
    witness = None
    if violated:
        w = grid[margin.index(min_margin)]
        witness = None if w is None else float(w)
    return AuditReport(
        inequality_name=name,
        params=params,
        grid=tuple(grid),
        lhs=tuple(lhs.tolist()),
        rhs=tuple(rhs.tolist()),
        margin=tuple(margin),
        min_margin=min_margin,
        violated=violated,
        witness_t=witness,
    )


def _pointwise_audit(name: str, params: dict, sf: StepFunction, grid, rhs_of) -> AuditReport:
    """f*(t) <= rhs_of(ts) at each t of the grid (None: straddling_grid(sf))."""
    ts = np.atleast_1d(np.asarray(straddling_grid(sf) if grid is None else grid, dtype=float))
    if ts.size == 0:
        raise UsageError("audit grid must be nonempty")
    if (ts <= 0).any() or not np.isfinite(ts).all():
        raise DomainError("audit grid entries must be positive finite reals")
    # A right-hand side past the float range is reported by the writers
    # (NumericError), so its overflow is no warning here.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rhs = rhs_of(ts)
    return _build_report(name, params, ts.tolist(), eval_step(sf, ts), rhs)


def audit_jackson(
    f: SimpleFunction,
    sp: DiscreteMeasureSpace,
    p: ApproxParams,
    provider: ConstantProvider,
    grid=None,
) -> AuditReport:
    """f*(t) <= t^-s * const * Q_{s,tau}(f) pointwise on the grid.

    Where Q, t^-s, t^-s const or the product is not a normal float (t^-s
    past the float range, or a factor subnormal, whose lost digits a normal
    product would hide), the right-hand side is
    exp(-s log t + log const + log Q) instead, with log Q formed in log space;
    past the float range it is inf.
    """
    sf = decreasing_rearrangement(f, sp)
    q_val = approx_quasinorm(sf, p.s, p.tau)
    const = provider.value(p)
    params = {"s": p.s, "tau": p.tau, "provider": provider.kind, "constant": const}
    return _jackson(sf, q_val, p, const, params, grid)


def _jackson(sf: StepFunction, q_val: float, p: ApproxParams, const: float, params: dict, grid):
    """audit_jackson of the rearrangement sf, whose Q_{s,tau} is q_val, with
    the constant const, reported under params."""

    def rhs_of(ts):
        t_pow = ts ** (-p.s)
        scale = t_pow * const
        rhs = scale * q_val
        odd = ~(_float_normal(t_pow) & _float_normal(scale) & _float_normal(rhs))
        odd |= not _float_normal(q_val)
        if odd.any():
            log_scale = np.log(const) + _log_approx_quasinorm(sf, p.s, p.tau)
            rhs[odd] = np.exp(log_scale - p.s * np.log(ts[odd]))
        return rhs

    return _pointwise_audit("jackson", params, sf, grid, rhs_of)


def audit_bernstein_right(
    f: SimpleFunction, sp: DiscreteMeasureSpace, p: ApproxParams
) -> AuditReport:
    """c_{s,tau} * Q_{s,tau}(f) <= ||f||_0^s * ||f||_inf (single, t-less point)."""
    sf = decreasing_rearrangement(f, sp)
    lhs = c_exact(p) * approx_quasinorm(sf, p.s, p.tau)
    mass_pow = _float_pow(sf.support_mass, p.s, f"||f||_0^s overflows at s={p.s!r}")
    rhs = mass_pow * sf.sup_value
    return _build_report("bernstein_right", {"s": p.s, "tau": p.tau}, [None], [lhs], [rhs])


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
    )


def audit_q2(
    f: SimpleFunction,
    sp: DiscreteMeasureSpace,
    theta: float,
    grid=None,
) -> AuditReport:
    """q=2 family: f*(t) <= t^(1-1/theta) (sin(pi theta)/(pi theta))^(1/(2 theta)) Q_{s,tau}.

    This is the Jackson audit with the paper-bigc-table constant C_{theta,2}
    at (s, tau) = params_from_theta_q(theta, 2); at theta = 1/2 it is exactly
    the weak-L1 claim with constant 2/pi.
    """
    p = params_from_theta_q(theta, 2.0)
    report = audit_jackson(f, sp, p, ConstantProvider("paper-bigc-table"), grid)
    params = {"theta": theta, "s": p.s, "tau": p.tau, "constant": report.params["constant"]}
    return replace(report, inequality_name="q2", params=params)


_REL, _EXTEND = 1e-3, 1.5


def _straddle(bk: np.ndarray, b_prev: np.ndarray, last: np.ndarray) -> tuple:
    """The points around breaks b_k (bk), each with the break b_{k-1} before
    it (b_prev), in four runs: b_k (1 - _REL), b_k (1 + _REL) and
    (b_{k-1} + b_k)/2 for each k, then _EXTEND * last, where last holds b_K
    with the axis kept.  straddling_grid and _screen both build their points
    here: the screen's brackets hold only for the audit's own points."""
    return bk * (1.0 - _REL), bk * (1.0 + _REL), (b_prev + bk) / 2.0, last * _EXTEND


def _decisive(bk: np.ndarray, b_prev: np.ndarray, last: np.ndarray) -> tuple:
    """(points, close): the decisive points of the columns of breaks bk (inf
    where a cell holds no break) and whether a column has close breaks, some
    b_k (1 - _REL) < b_{k-1}.

    In a column without close breaks, _straddle's points on the step
    [b_{k-1}, b_k) are b_k (1 - _REL), the midpoint and b_{k-1} (1 + _REL),
    and the cell of b_k holds the largest of them, where f* = v_k; the last
    row holds _EXTEND * b_K, the largest point past b_K, where f* = 0.  A
    cell without a break gets the point inf."""
    below, _, mid, tail = _straddle(bk, b_prev, last)
    close = ~(below >= b_prev).all(axis=0)
    points = np.maximum(np.maximum(below, mid), b_prev * (1.0 + _REL))
    return np.concatenate([points, tail]), close


def straddling_grid(sf: StepFunction) -> np.ndarray:
    """Positive t-grid straddling every break (never landing exactly on one).

    Exact break points are excluded on purpose: there the strict-inequality
    E-functional takes the left limit of f* while eval_step is
    right-continuous, so equality claims only make sense off the breaks.
    Raises NumericError where a point passes the float range.
    """
    if sf.n_steps == 0:
        return np.array([1.0])
    with np.errstate(over="ignore"):
        b = sf.breaks
        pts = np.concatenate(_straddle(b[1:], b[:-1], b[-1:]))
    if not np.isfinite(pts).all():
        raise NumericError("the t-grid around the breaks of f* passes the float range")
    # np.unique's sort and neighbour test, without the numpy.ma import that
    # np.unique makes on its first call; pts holds at least _EXTEND * b_K.
    pts = np.sort(pts[pts > 0])
    return pts[np.concatenate(([True], pts[1:] != pts[:-1]))]


# Draws are made and screened in blocks of padded (width x draws) arrays of
# about this many cells, 128 KiB of doubles each; drawing or screening one
# peaks at 1.3-4.1 MB (tracemalloc, n_max 1 to 4096).  Larger blocks trade
# memory for fewer numpy calls per draw.
_SCREEN_CELLS = 16384


class _Block(NamedTuple):
    """random_atoms' draws as zero-padded (width x rows) weights and
    magnitudes, one draw per column, so that each per-draw reduction runs
    along axis 0 across all draws at once; sizes[r] is draw r's atom count.
    The screen's only input."""

    weights: np.ndarray
    mags: np.ndarray
    sizes: np.ndarray

    def pair(self, r: int) -> tuple:
        """Draw r's (sp, f) pair, built by the two constructors."""
        n = self.sizes[r]
        return DiscreteMeasureSpace(self.weights[:n, r]), SimpleFunction(self.mags[:n, r])


# Words a block reads past its draws' expected need, whatever its n_max.
_WORD_SLACK = 64


def _read_on(bits, words: np.ndarray, size: int) -> np.ndarray:
    """words followed by the next raw words of bits, up to `size` of them."""
    if size <= words.size:
        return words
    return np.concatenate([words, bits.random_raw(size - words.size)])


def random_atoms(n_max: int, seed: int, n_draws: int = 200):
    """Seeded finite iterator of random instances (ties and zeros included).

    Each draw is n = integers(1, n_max + 1), then n uniform weights, n
    uniform magnitudes and n uniforms each for the tie and the zero masks, in
    this order, from numpy's default_rng(seed).  The 4n doubles are those of
    one random(4n), mapped as uniform(low, high) maps them,
    low + (high - low) * u, so the stream is that of five calls.  Draws are
    made _SCREEN_CELLS // n_max at a time, as one checked, padded block
    decoded from one read of the PCG64 words: the same numbers, and the same
    generator state after each block, as those calls, however the draws are
    blocked.  counterexample_search screens such blocks as they are and
    builds (space, function) pairs only for the draws it audits.  Iterating
    yields every draw's pair, built by the two constructors as every pair
    is, and the two ways of reading may be mixed.
    """
    if n_max < 1 or n_draws < 0:
        raise DomainError("need n_max >= 1 and n_draws >= 0")
    if seed < 0:
        raise DomainError("the seed must be a nonnegative integer")
    return _RandomAtoms(n_max, seed, n_draws)


class _RandomAtoms:
    """The iterator random_atoms returns: draws made and not yet read are kept
    in one padded block, columns self._pos onwards."""

    def __init__(self, n_max: int, seed: int, n_draws: int):
        self._rng = np.random.default_rng(seed)
        self._n_max = n_max
        self._left = n_draws  # draws not yet made
        self._block = _Block(np.zeros((0, 0)), np.zeros((0, 0)), np.zeros(0, dtype=int))
        self._pos = 0

    def __iter__(self):
        return self

    def __next__(self):
        for block in self.blocks(1):
            return block.pair(0)
        raise StopIteration

    def blocks(self, limit: int | None):
        """The next `limit` draws (all when None) as padded blocks."""
        limit = math.inf if limit is None else limit
        while limit > 0 and self._unread():
            block, start = self._block, self._pos
            self._pos = stop = min(block.sizes.size, start + limit)
            limit -= stop - start
            cols = slice(start, stop)
            yield _Block(block.weights[:, cols], block.mags[:, cols], block.sizes[cols])

    def _unread(self) -> bool:
        """Whether a draw is left, making the next block when the kept one is read."""
        if self._pos == self._block.sizes.size and self._left:
            self._block = self._draw(min(max(_SCREEN_CELLS // self._n_max, 1), self._left))
            self._left -= self._block.sizes.size
            self._pos = 0
        return self._pos < self._block.sizes.size

    def _draw(self, rows: int) -> _Block:
        """The next `rows` draws, decoded from one read of the PCG64 words.

        integers(1, n_max + 1) takes nothing at n_max = 1.  Otherwise it takes
        32-bit halves, the low one of a fresh word first and the high one kept
        for the next request (has_uint32, uinteger), until Lemire's test
        (u n_max) mod 2^32 >= (2^32 - n_max) mod n_max keeps u; then
        n = 1 + (u n_max >> 32).  random(4n) maps each of the next 4n words to
        (word >> 11) 2^-53 and leaves the kept half alone.  The walk below
        reads the sizes; the generator is then put where those calls leave it.
        A one-draw block reads its size words one at a time, then exactly its
        4n words, and slices them.
        """
        bits = self._rng.bit_generator
        state = bits.state
        n_max = self._n_max
        has, half = state["has_uint32"], state["uinteger"]
        reject = (2**32 - n_max) % n_max

        def need(draws):
            """A draw takes 2 n_max + 2 words on average and at most half a
            word for its size; a block that needs more reads on.  A one-draw
            block reads each word as it needs it."""
            return draws * (2 * n_max + 3) + _WORD_SLACK if rows > 1 else 1

        words = bits.random_raw(need(rows) if rows > 1 else 0)
        sizes, starts = [], []
        pos = 0
        for row in range(rows):
            n = 1
            while n_max > 1:
                if has:
                    u, has = half, 0
                else:
                    if pos >= words.size:
                        words = _read_on(bits, words, pos + need(rows - row))
                    word = words.item(pos)
                    pos += 1
                    u, half, has = word & 0xFFFFFFFF, word >> 32, 1
                m = u * n_max
                if m & 0xFFFFFFFF >= reject:
                    n = 1 + (m >> 32)
                    break
            starts.append(pos)
            sizes.append(n)
            pos += 4 * n
        sizes = np.array(sizes)
        col = np.arange(sizes.max())[:, None]
        inside = col < sizes
        if rows == 1:
            # the size words are read, so the generator stands at the 4n words
            raw = bits.random_raw(4 * n).reshape(4, n, 1)
        else:
            words = _read_on(bits, words, pos)
            bits.state = state
            bits.advance(pos)
            # The word of atom j (axis 1) of each run k (axis 0: weights,
            # magnitudes, ties, zeros) of each draw (axis 2); a padded cell
            # takes any word and is zeroed below.
            at = (np.array(starts) + np.arange(4)[:, None] * sizes)[:, None] + col
            raw = words.take(at, mode="clip")
            del at, words  # block-sized: freed before the uniforms are made
        bits.state = {**bits.state, "has_uint32": has, "uinteger": half}
        raw >>= 11
        w_u, m_u, tie_u, zero_u = raw * 2.0**-53
        del raw  # likewise, before the maps below
        mags = 0.05 + (5.0 - 0.05) * m_u
        mags = np.where(tie_u < 0.25, np.round(mags, 1), mags)
        # every cell, padded ones included, is mapped into [0.1, 3)
        weights = 0.1 + (3.0 - 0.1) * w_u
        _check_weights(weights)
        _check_magnitudes(mags)
        # finite and nonnegative: a mask product zeroes cells as np.where does
        mags *= (zero_u >= 0.1) & inside
        weights *= inside
        return _Block(weights, mags, sizes)


def indicator_sweep():
    """Unit-height indicators on one atom, its weight swept over geomspace(0.25, 4, 9)."""
    for mass in np.geomspace(0.25, 4.0, 9):
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


_ULP = 2.0**-53
_POW_ULPS = 8.0  # error allowed for each power, on the screen and in the scalar audit


def _normal(x):
    """Where x keeps products and powers at their relative precision."""
    return (x >= 1e-280) & (x <= 1e280)


def _step_lookup(c: np.ndarray, values: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """f* at ts[j, r] for every column r of sorted cumulative weights c at
    once: values[i, r] for the first atom i with c > t, where values holds the
    magnitudes (tied atoms share one) and a last row of zeros, past the last
    atom; eval_step's f* wherever c increases strictly over the kept atoms.
    One searchsorted over keys r + i x, which numpy orders by column first and
    x within a column; both are written column by column, so searchsorted
    narrows each search by the one before while the queries increase."""
    n, cols = c.shape[0], np.arange(c.shape[1])[:, None]

    def keys(x):
        key = np.empty(x.shape[::-1], dtype=complex)
        key.real, key.imag = cols, x.T
        return key

    at = np.searchsorted(keys(c).ravel(), keys(ts), side="right") - cols * n
    return values.ravel()[(at * c.shape[1] + cols).T]


def _each_kept(cond: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Whether cond holds at every kept cell of each column."""
    return (cond | ~kept).all(axis=0)


def _column_sums(x: np.ndarray) -> np.ndarray:
    """Each column's sum, added row by row (numpy sums a lone column pairwise)."""
    return np.cumsum(x, axis=0)[-1] if x.shape[1] == 1 else x.sum(axis=0)


def _row_quasinorms(mag, c, kept, n_kept, p: ApproxParams) -> tuple:
    """(q_val, rel_q, ok): Q_{s,tau} of each column of sorted magnitudes and
    cumulative weights, summed per atom, and where ok, a relative distance
    rel_q within which the audit's Q lies; n_kept counts each column's kept
    cells."""
    if p.tau == math.inf:
        c_pow = c**p.s
        vals = np.where(kept, mag * c_pow, 0.0)
        ok = _each_kept(_normal(mag) & _normal(c_pow) & _normal(vals), kept)
        return vals.max(axis=0), np.full(n_kept.size, 2.0 * (_POW_ULPS + 1.0) * _ULP), ok
    st = p.s * p.tau
    m_pow = mag**p.tau
    c_pow = c**st
    # c_prev**st: each column of c_pow moved down one cell, under 0**st = 0
    c_pow_prev = np.concatenate([np.zeros((1, c.shape[1])), c_pow[:-1]])
    terms = np.where(kept, m_pow * (c_pow - c_pow_prev) / st, 0.0)
    total = _column_sums(terms)
    bulk = _column_sums(np.where(kept, m_pow * (c_pow + c_pow_prev) / st, 0.0))
    ok = _each_kept(_normal(m_pow) & _normal(c_pow) & _normal(m_pow * c_pow), kept)
    ok &= (_normal(bulk) & _normal(total)) | (n_kept == 0)
    # Both sums (the screen's per atom, the audit's per group) lie within
    # this relative distance of the same exact sum: the powers' errors
    # scale with bulk, rounding and summation with the terms, and
    # 2^-1070 per term covers a term that underflows (a table by count, so
    # that the subnormal products are formed once per count, not per column).
    under = np.arange(c.shape[0] + 1) * 2.0**-1070 * (1.0 + 1.0 / st)
    eps = (
        2.0
        * (
            (2.0 * _POW_ULPS + 6.0) * _ULP * bulk
            + (n_kept + 2.0) * _ULP * _column_sums(np.abs(terms))
            + under[n_kept]
        )
        / total
    )
    ok &= (eps < 1e-3) | (n_kept == 0)
    a = 1.0 / p.tau
    rel_q = np.maximum(np.expm1(a * np.log1p(eps)), -np.expm1(a * np.log1p(-eps)))
    return total ** (1.0 / p.tau), 2.0 * rel_q + 2.0 * _POW_ULPS * _ULP, ok


def _screen(block: _Block, p: ApproxParams, const: float):
    """Brackets of the Jackson min_margin of a block's draws (its columns) at
    once, each per-draw reduction taken along axis 0.

    Returns arrays (lo, hi, ok).  Where ok, lo <= m <= hi for the min_margin
    m that audit_jackson reports on the default grid.  A draw is not
    certified when a cumulative weight stalls (an absorbed weight), or when
    an intermediate leaves the range of _normal, which also keeps the audit
    on the direct closed form.  Each column is read as its sorted atoms, with
    no grouping of ties: a group's last atom carries its break b_k (its
    cumulative weight c) and f* = v_k.  Q_{s,tau} is summed per atom: the terms
    m_i^tau (c_i^{s tau} - c_{i-1}^{s tau}) of a group telescope to the
    group's term, so only the rounding differs from the audit, and the bracket
    covers it on both sides.  The zero padding is never kept and every sum runs
    down its column (_column_sums): a draw's bracket is the same in any block.

    A draw is screened at its decisive points only (_decisive), K + 1 of the
    audit's 3K + 1: on each step, the largest point, and _EXTEND * b_K past
    the last.  They are _straddle's floats, so the audit evaluates each of
    them as the screen does, within err.  Every other point t shares its
    step's f* = v with the decisive point d > t, and t^-s > d^-s, so its
    exact margin is no lower.  The audit's margin at t is fl(fl(fl(t^-s)
    const) Q) - v: each rounding is monotone, and the power's error
    (_POW_ULPS) lets fl(t^-s) fall below fl(d^-s) by at most 2 _POW_ULPS ulp,
    so it is at least the audit's margin at d less (2 _POW_ULPS + 4) ulp of
    rhs and an ulp of each margin, which err at d covers.  So lo takes err
    twice (margin - 2 err at d) and hi once.  A draw with close breaks, some
    b_k (1 - _REL) < b_{k-1}, is screened at all of _straddle's points, with
    f* looked up over its atoms (_step_lookup); both point sets go through
    the same bracket.
    """
    n_rows = block.sizes.size
    n_kept = (block.mags > 0.0).sum(axis=0)
    # The stable order of the kept magnitudes is sorted_mass_profile's, so the
    # cumulative weights (and every grid point) are bit-identical to the audit's.
    # Rows past the block's most kept atoms hold only zeros and padding.
    order = np.argsort(-block.mags, axis=0, kind="stable")[: max(n_kept.max(), 1)]
    order *= n_rows
    order += np.arange(n_rows)  # in place: flat indices, for a flat take
    mag = block.mags.ravel().take(order)
    kept = mag > 0.0

    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        c = np.cumsum(block.weights.ravel().take(order), axis=0)
        ok = _each_kept((np.diff(c, axis=0, prepend=0.0) > 0.0) & _normal(c), kept)

        # A tie group's last atom carries its break b_k, its c (other cells
        # get inf); b_{k-1} is the running max of the breaks in earlier rows
        # (c * end is exact: random_atoms' weights keep c finite and positive).
        end = kept & (mag != np.concatenate([mag[1:], np.zeros((1, n_rows))]))
        bk = np.where(end, c, np.inf)
        b_run = np.maximum.accumulate(c * end, axis=0)
        b_prev = np.concatenate([np.zeros((1, n_rows)), b_run[:-1]])
        last = np.where(n_kept > 0, b_run[-1], np.inf)[None]
        ts, close = _decisive(bk, b_prev, last)

        q_val, rel_q, q_ok = _row_quasinorms(mag, c, kept, n_kept, p)
        ok &= q_ok
        beta = rel_q + (2.0 * _POW_ULPS + 6.0) * _ULP

        def bracket(ts, lhs, rows):
            """lo and hi over the points ts (inf: no point) of the draws
            `rows`, and whether every right-hand side there is normal."""
            point = ts < np.inf
            t_pow = ts ** (-p.s)
            scale = t_pow * const
            rhs = scale * q_val[rows]
            margin = rhs - lhs
            # Each audited margin lies within err of the screened one, so the
            # audit's minimum lies between the minima of the two pointwise bounds.
            err = 2.0 * (beta[rows] * rhs + 3.0 * _ULP * np.abs(margin))
            lo = np.where(point, margin - 2.0 * err, np.inf).min(axis=0)
            hi = np.where(point, margin + err, np.inf).min(axis=0)
            rhs_ok = ((_normal(t_pow) & _normal(scale) & _normal(rhs)) | ~point).all(axis=0)
            return lo, hi, rhs_ok

        # f* at each cell's decisive point, v_k at b_k's, and 0 at the last
        values = np.concatenate([mag, np.zeros((1, n_rows))])
        lo, hi, rhs_ok = bracket(ts, values, slice(None))
        if close.any():
            rows = np.flatnonzero(close)
            ts = np.concatenate(_straddle(bk[:, rows], b_prev[:, rows], last[:, rows]))
            lhs = _step_lookup(c[:, rows], values[:, rows], ts)
            lo[rows], hi[rows], rhs_ok[rows] = bracket(ts, lhs, rows)
        ok &= (_normal(q_val) & rhs_ok) | (n_kept == 0)
    # An empty draw is audited on the grid [1.0], where both sides are exactly 0.
    lo = np.where(n_kept == 0, 0.0, lo)
    hi = np.where(n_kept == 0, 0.0, hi)
    ok &= np.isfinite(lo) & np.isfinite(hi) & bool(_normal(const))
    return lo, hi, ok


def counterexample_search(
    p: ApproxParams,
    provider: ConstantProvider,
    generator,
    budget: int | None = None,
) -> SearchResult:
    """Audit the Jackson claim over generated instances; keep the worst report.

    The worst report is the first in draw order whose min_margin is strictly
    below every earlier one.  A random_atoms generator hands over its draws
    as padded blocks, which are screened as they are (_screen):
    audit_jackson runs only on the draws whose bracket can still reach the
    running minimum, and only they become pairs, so the result equals that
    of auditing every draw.  Any other iterable's pairs are audited one by
    one, in draw order.  Exactly `budget` draws are taken from the generator
    (all when None); a zero budget or an empty generator returns an empty
    result claiming nothing, and a negative budget is a DomainError.
    Deterministic whenever the generator is.
    """
    worst: AuditReport | None = None
    worst_instance: str | None = None
    count = 0

    def audit(sp, f):
        nonlocal worst, worst_instance
        report = audit_jackson(f, sp, p, provider)
        if worst is None or report.min_margin < worst.min_margin:
            worst, worst_instance = report, instance_csv_text(sp, f)

    if budget is not None and budget < 0:
        raise DomainError("the budget must be a nonnegative integer")
    if not isinstance(generator, _RandomAtoms):
        for sp, f in itertools.islice(generator, budget):
            count += 1
            audit(sp, f)
        return SearchResult(report=worst, instance_csv=worst_instance, n_instances=count)
    try:
        const = provider.value(p)
    except NumericError:
        const = math.nan  # nothing is certified: the audit raises it in draw order
    for block in generator.blocks(budget):
        count += block.sizes.size
        lo, hi, ok = _screen(block, p, const)
        cut = hi[ok].min(initial=math.inf)
        confirm = ~ok | (lo <= cut)
        for r in np.flatnonzero(confirm):
            if ok[r] and worst is not None and not lo[r] < worst.min_margin:
                continue
            audit(*block.pair(r))
    return SearchResult(report=worst, instance_csv=worst_instance, n_instances=count)

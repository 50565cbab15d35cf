"""Finite measure spaces and magnitude-valued simple functions.

Everything downstream (rearrangements, E/K-functionals, audits) depends on a
function only through its magnitudes |f(x)|, so a function is just a
nonnegative vector aligned with a weighted atom list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, UsageError
from .jsonutil import csv_text, read_csv
from .params import _float_pow

__all__ = [
    "DiscreteMeasureSpace",
    "SimpleFunction",
    "lp_norm",
    "distribution_function",
    "load_instance_csv",
    "instance_csv_text",
]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.flags.writeable = False
    return a


_ID_PREFIX = tuple(f"a{i}" for i in range(256))


def _default_ids(n: int) -> tuple[str, ...]:
    """The atom ids a0, ..., a{n-1}; those of up to 256 atoms are built once."""
    return _ID_PREFIX[:n] if n <= len(_ID_PREFIX) else tuple(f"a{i}" for i in range(n))


def _check_weights(w: np.ndarray) -> None:
    if w.size and (not np.isfinite(w).all() or (w <= 0.0).any()):
        raise DomainError("every weight must be a positive finite real")


def _check_magnitudes(m: np.ndarray) -> None:
    if m.size and (not np.isfinite(m).all() or (m < 0.0).any()):
        raise DomainError("magnitudes must be nonnegative finite reals")


@dataclass(frozen=True, eq=False)
class DiscreteMeasureSpace:
    """Ordered atoms with strictly positive weights."""

    weights: np.ndarray
    atom_ids: tuple[str, ...] = ()

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if w.ndim != 1:
            raise UsageError("weights must be a 1-d sequence")
        _check_weights(w)
        object.__setattr__(self, "weights", _freeze(w))
        ids = tuple(self.atom_ids) if self.atom_ids else _default_ids(w.size)
        if len(ids) != w.size:
            raise UsageError(
                f"atom_ids length {len(ids)} does not match weight count {w.size}"
            )
        object.__setattr__(self, "atom_ids", ids)

    @property
    def n_atoms(self) -> int:
        return self.weights.size

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())


@dataclass(frozen=True, eq=False)
class SimpleFunction:
    """Magnitudes aligned with a space's atoms; the support is where they are > 0."""

    magnitudes: np.ndarray

    def __post_init__(self):
        m = np.atleast_1d(np.asarray(self.magnitudes, dtype=float))
        if m.ndim != 1:
            raise UsageError("magnitudes must be a 1-d sequence")
        _check_magnitudes(m)
        object.__setattr__(self, "magnitudes", _freeze(m))


def _instances_from_block(
    weights: np.ndarray, mags: np.ndarray, sizes: list[int]
) -> list[tuple[DiscreteMeasureSpace, SimpleFunction]]:
    """(space, function) pairs over consecutive runs of `sizes` atoms.

    The flat weight and magnitude arrays are checked once, with the
    constructors' own predicates, and frozen; each pair holds read-only
    slices of them and default atom ids.  This is the only code that builds
    the two classes without __post_init__.
    """
    weights, mags = _freeze(weights), _freeze(mags)
    if not weights.shape == mags.shape == (sum(sizes),):
        raise UsageError("a block needs 1-d weights and magnitudes covering its sizes")
    _check_weights(weights)
    _check_magnitudes(mags)
    pairs = []
    stop = 0
    for n in sizes:
        start, stop = stop, stop + n
        sp = object.__new__(DiscreteMeasureSpace)
        object.__setattr__(sp, "weights", weights[start:stop])
        object.__setattr__(sp, "atom_ids", _default_ids(n))
        f = object.__new__(SimpleFunction)
        object.__setattr__(f, "magnitudes", mags[start:stop])
        pairs.append((sp, f))
    return pairs


def _check_aligned(f: SimpleFunction, sp: DiscreteMeasureSpace) -> None:
    if f.magnitudes.size != sp.n_atoms:
        raise UsageError(
            f"function has {f.magnitudes.size} magnitudes but space has "
            f"{sp.n_atoms} atoms"
        )


def sorted_mass_profile(
    f: SimpleFunction, sp: DiscreteMeasureSpace
) -> tuple[np.ndarray, np.ndarray]:
    """Magnitudes sorted descending (positives only) with cumulative weights.

    This single summation order backs every view of the distribution of |f|
    (through _tie_groups), which makes equimeasurability exact in floats,
    not just up to rounding.  Weights that sum past the float range give inf
    without a warning; the callers that need a finite mass raise NumericError.
    """
    _check_aligned(f, sp)
    pos = f.magnitudes > 0.0
    mags = f.magnitudes[pos]
    w = sp.weights[pos]
    order = np.argsort(-mags, kind="stable")
    with np.errstate(over="ignore"):
        return mags[order], np.cumsum(w[order])


def _tie_groups(
    f: SimpleFunction, sp: DiscreteMeasureSpace
) -> tuple[np.ndarray, np.ndarray]:
    """(ends, values): the tie groups of |f| > 0, highest first.

    values holds each group's magnitude and ends the cumulative weight at the
    group's last atom, in sorted_mass_profile's order.  f*, m(sigma), ||f||_0
    and the truncation profile are all read off these two arrays.  A mass past
    the float range is inf, without a warning; each reader raises where it
    reads one.
    """
    mags, cumw = sorted_mass_profile(f, sp)
    # an atom ends its group where the next magnitude differs, or none is left
    last = np.ones(mags.size, dtype=bool)
    last[:-1] = mags[1:] != mags[:-1]
    return cumw[last], mags[last]


def distribution_function(
    f: SimpleFunction, sp: DiscreteMeasureSpace, sigma: float
) -> float:
    """m(sigma, f): total weight of atoms with |f| > sigma (strict)."""
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise DomainError(f"sigma must be >= 0, got {sigma!r}")
    ends, values = _tie_groups(f, sp)
    # number of groups strictly above sigma
    k = int(np.searchsorted(-values, -sigma, side="left"))
    if k and not math.isfinite(ends[k - 1]):
        raise NumericError("the weights above sigma sum past the float range")
    return float(ends[k - 1]) if k > 0 else 0.0


def lp_norm(f: SimpleFunction, sp: DiscreteMeasureSpace, p: float) -> float:
    """L^p quasinorm: (sum w|f|^p)^(1/p); max for p=inf; support mass for p=0."""
    _check_aligned(f, sp)
    if p == 0:
        return distribution_function(f, sp, 0.0)
    if p == math.inf:
        return float(f.magnitudes.max()) if f.magnitudes.size else 0.0
    if not (isinstance(p, (int, float)) and math.isfinite(p) and p > 0):
        raise DomainError(f"p must be in (0,inf), inf, or 0; got {p!r}")
    return _lp_root(sp.weights, f.magnitudes, p)


def _lp_root(weights: np.ndarray, mags: np.ndarray, p: float) -> float:
    """(sum weights * mags^p)^(1/p); NumericError where it passes the float range."""
    with np.errstate(over="ignore"):
        total = float(np.sum(weights * mags**p))
    if not math.isfinite(total):
        raise NumericError(f"the L^{p:g} sum overflows a float")
    return _float_pow(total, 1.0 / p, f"the L^{p:g} norm overflows a float")


# CSV format: one atom per row.
_INSTANCE_CSV = {"atom_id": "text", "weight": "float > 0", "magnitude": "float >= 0"}


def load_instance_csv(path_or_text: str) -> tuple[DiscreteMeasureSpace, SimpleFunction]:
    """Read an instance from a CSV file path or text; errors name the file row."""
    _, (ids, weights, mags) = read_csv(path_or_text, "instance", _INSTANCE_CSV)
    return DiscreteMeasureSpace(weights=weights, atom_ids=ids), SimpleFunction(mags)


def instance_csv_text(sp: DiscreteMeasureSpace, f: SimpleFunction) -> str:
    _check_aligned(f, sp)
    columns = (sp.atom_ids, sp.weights.tolist(), f.magnitudes.tolist())
    return csv_text(_INSTANCE_CSV, columns)

"""Spectral measures of small Hermitian matrices and their rearrangement audits.

A unit state psi against a Hermitian matrix A induces the discrete measure
sum_i |<v_i, psi>|^2 delta_{lambda_i}.  Treating lambda -> |lambda| as a
simple function on that measure space lets every rearrangement tool and the
weak-type audit run unchanged; here ||f||_1 is exactly <psi, |A| psi>.

Scope is deliberately desk scale (n <= 64): eigh is exact enough there to
certify residuals, and the audits are about constants, not linear algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .audit import AuditReport, audit_weak_l1
from .errors import DomainError, NumericError, UsageError
from .jsonutil import csv_text, read_csv, require_unique_keys
from .measures import DiscreteMeasureSpace, SimpleFunction, _freeze
from .rearrange import StepFunction, decreasing_rearrangement

__all__ = [
    "MAX_MATRIX_DIM",
    "SpectralModel",
    "spectral_measure",
    "spectral_instance",
    "spectral_rearrangement",
    "audit_spectral_bound",
    "load_matrix_csv",
    "load_state_csv",
    "matrix_csv_text",
    "state_csv_text",
]

MAX_MATRIX_DIM = 64

# spectral_measure's tolerances: the Hermitian defect max |A - A^H| and the
# eigen residual ||A v - lambda v||, both relative to max(1, their scale), and
# the gap below which neighbouring eigenvalues merge.
_HERM_TOL = 1e-10
_RESIDUAL_TOL = 1e-8
_MERGE_TOL = 1e-10


@dataclass(frozen=True)
class SpectralModel:
    """Finite spectral measure: distinct eigenvalues with state weights.

    Eigenvalues ascend and are distinct after degeneracy merging; weights are
    |projection|^2 weights summing to 1 (some may be exactly 0).
    """

    eigenvalues: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        evs = np.asarray(self.eigenvalues, dtype=float)
        ws = np.asarray(self.weights, dtype=float)
        if evs.ndim != 1 or ws.shape != evs.shape or evs.size == 0:
            raise DomainError("eigenvalues and weights must be matching 1-d arrays")
        if np.any(np.diff(evs) <= 0):
            raise DomainError("eigenvalues must be strictly increasing after merging")
        if np.any(ws < 0) or not np.all(np.isfinite(ws)):
            raise DomainError("weights must be nonnegative finite")
        object.__setattr__(self, "eigenvalues", _freeze(evs))
        object.__setattr__(self, "weights", _freeze(ws))

    @property
    def n_points(self) -> int:
        return int(self.eigenvalues.size)


def _merge_degenerate(evals: np.ndarray, weights: np.ndarray):
    """Collapse eigenvalues closer than _MERGE_TOL; weights add, values average."""
    groups = np.concatenate(([0], np.cumsum(np.diff(evals) > _MERGE_TOL)))
    # bincount adds each group's entries in input order, from 0.0
    return np.bincount(groups, evals) / np.bincount(groups), np.bincount(groups, weights)


# Entries near the float range take the checks' norms and products to inf,
# or inf - inf to nan; every check fails on those, so they need no warning.
@np.errstate(over="ignore", invalid="ignore")
def spectral_measure(matrix, psi) -> SpectralModel:
    """Diagonalize a Hermitian matrix and project a unit state onto it.

    Residuals ||A v - lambda v|| are checked after the fact; if any exceeds
    _RESIDUAL_TOL (relative to the spectral scale) the decomposition is not
    trusted and a NumericError is raised.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"matrix must be square, got shape {a.shape}")
    n = a.shape[0]
    if n < 1 or n > MAX_MATRIX_DIM:
        raise DomainError(f"matrix dimension must lie in 1..{MAX_MATRIX_DIM}, got {n}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise DomainError("matrix entries must be finite")
    scale = max(1.0, float(np.max(np.abs([a.real, a.imag]))))  # |A_ij| may overflow
    herm_defect = float(np.max(np.abs(a - a.conj().T)))
    if herm_defect > _HERM_TOL * scale:
        raise DomainError(
            f"matrix is not Hermitian: max |A - A^H| = {herm_defect:.3e}"
        )
    v = np.asarray(psi, dtype=complex).ravel()
    if v.size != n:
        raise DomainError(f"state has length {v.size}, matrix has dimension {n}")
    if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
        raise DomainError("state entries must be finite")
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > 1e-10:
        raise DomainError(f"state must be unit norm, got ||psi|| = {nrm!r}")

    sym = 0.5 * a + 0.5 * a.conj().T  # A + A^H may overflow, and eigh fails on inf
    evals, evecs = np.linalg.eigh(sym)
    resid = np.linalg.norm(a @ evecs - evecs * evals, axis=0)
    resid_scale = max(1.0, float(np.max(np.abs(evals))))
    worst = float(np.max(resid))
    if not worst <= _RESIDUAL_TOL * resid_scale:
        raise NumericError(
            f"eigendecomposition residual {worst:.3e} exceeds "
            f"{_RESIDUAL_TOL:.1e} * {resid_scale:g}"
        )

    weights = np.abs(evecs.conj().T @ v) ** 2
    merged_ev, merged_w = _merge_degenerate(evals, weights)
    total = float(merged_w.sum())
    if abs(total - 1.0) > 1e-10:
        raise NumericError(f"projection weights sum to {total!r}, expected 1")
    # Exact-zero weights carry no measure; drop them so aligned eigenbases
    # yield exactly the atoms the state sees.
    keep = merged_w > 0.0
    return SpectralModel(eigenvalues=merged_ev[keep], weights=merged_w[keep])


def _identity(x: float) -> float:
    return x


def spectral_instance(
    model: SpectralModel, g=None
) -> tuple[DiscreteMeasureSpace, SimpleFunction]:
    """The measure-space instance carried by a spectral model.

    Atoms are the positive-weight spectral points weighted by the state; the
    function value at each is |g(lambda)| (g defaults to the identity).
    """
    if g is None:
        g = _identity
    keep = model.weights > 0
    if not np.any(keep):
        raise DomainError("spectral model has no positive-weight points")
    ws = model.weights[keep]
    evs = model.eigenvalues[keep]
    vals = np.empty(evs.size)
    for i, lam in enumerate(evs):
        y = float(g(float(lam)))
        if not math.isfinite(y):
            raise DomainError(f"g is not finite at eigenvalue {lam!r}: {y!r}")
        vals[i] = abs(y)
    ids = tuple(f"lam{i}" for i in np.nonzero(keep)[0])
    sp = DiscreteMeasureSpace(weights=ws, atom_ids=ids)
    return sp, SimpleFunction(vals)


def spectral_rearrangement(model: SpectralModel, g=None) -> StepFunction:
    """Decreasing rearrangement of lambda -> |g(lambda)| under state weights."""
    sp, f = spectral_instance(model, g)
    return decreasing_rearrangement(f, sp)


def audit_spectral_bound(model: SpectralModel, g, variant: str, grid=None) -> AuditReport:
    """Weak-type audit of the spectral rearrangement of g.

    Same inequality as audit_weak_l1 (here ||f||_1 is the quadratic form of
    |g|(A) at the state), with the report renamed so downstream consumers can
    tell the source apart.
    """
    sp, f = spectral_instance(model, g)
    rep = audit_weak_l1(f, sp, variant, grid)
    return replace(rep, inequality_name="spectral_weak_l1")


# CSV formats.  Matrix: all n^2 entries, 0-based.  State: all n entries, 0-based.
_MATRIX_CSV = {"row": "int >= 0", "col": "int >= 0", "re": "float", "im": "float"}
_STATE_CSV = {"index": "int >= 0", "re": "float", "im": "float"}


def load_matrix_csv(path_or_text: str) -> np.ndarray:
    """Read a dense complex matrix; every entry must be listed exactly once."""
    rownums, (i, j, re, im) = read_csv(path_or_text, "matrix", _MATRIX_CSV)
    require_unique_keys(rownums, ("row", "col"), i, j)
    n = 1 + max(max(i), max(j))
    if n > MAX_MATRIX_DIM:
        raise UsageError(f"matrix dimension {n} exceeds the limit {MAX_MATRIX_DIM}")
    return _dense("matrix CSV implies dimension", (i, j), re, im)


def load_state_csv(path_or_text: str) -> np.ndarray:
    """Read a complex state vector; indices must cover 0..n-1 exactly."""
    rownums, (i, re, im) = read_csv(path_or_text, "state", _STATE_CSV)
    require_unique_keys(rownums, ("index",), i)
    return _dense("state CSV implies length", (i,), re, im)


def _dense(claim: str, index: tuple[list[int], ...], re: np.ndarray, im: np.ndarray):
    """The n x ... x n complex array with re + i*im at each distinct index
    tuple, n = 1 + the largest index.  They cover it when there are n^d of
    them, which is checked on Python ints before any index array is built."""
    n = 1 + max(map(max, index))
    size = n ** len(index)
    if len(re) != size:
        raise UsageError(f"{claim} {n} but lists {len(re)} of {size} entries")
    a = np.zeros((n,) * len(index), dtype=complex)
    at = tuple(map(np.array, index))
    a.real[at] = re
    a.imag[at] = im
    return a


def matrix_csv_text(matrix) -> str:
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"matrix must be square, got shape {a.shape}")
    rows, cols = np.divmod(np.arange(a.size), a.shape[0])
    columns = (rows.tolist(), cols.tolist(), a.real.ravel().tolist(), a.imag.ravel().tolist())
    return csv_text(_MATRIX_CSV, columns)


def state_csv_text(psi) -> str:
    v = np.asarray(psi, dtype=complex).ravel()
    return csv_text(_STATE_CSV, (range(v.size), v.real.tolist(), v.imag.tolist()))

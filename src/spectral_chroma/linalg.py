"""Symmetric and Hermitian eigensolving, and Ky Fan sums.

All graph-matrix spectra go through the real symmetric path; complex
arithmetic appears only where coloring unitaries demand it. Every
eigenvalue vector returned here is validated against residual and trace
guarantees rather than trusted blindly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError, NumericError
from .graphs import Graph, GraphMatrixKind, build_matrix

# Centralized tolerances; tests reference these by name.
SPECTRUM_TOL = 1e-9
UNITARY_TOL = 1e-12
PROPERTY_TOL = 1e-8

SpectrumKind = Union[GraphMatrixKind, str]


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted non-increasing, tagged with their source matrix kind."""

    kind: SpectrumKind
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64).copy()
        if v.ndim != 1 or v.size < 1:
            raise DomainError("spectrum needs a nonempty 1-d value vector")
        if not np.isfinite(v).all():
            raise DomainError("spectrum contains non-finite values")
        if (np.diff(v) > 0).any():
            raise DomainError("spectrum values must be sorted non-increasing")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return int(self.values.size)

    def __len__(self) -> int:
        return self.n


def _validate_symmetric(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise DomainError("matrix must have dimension at least 1")
    if not np.isfinite(a).all():
        raise DomainError("matrix contains non-finite entries")
    if not np.array_equal(a, a.T):
        raise DomainError("matrix is not exactly symmetric; use symmetrize() first")
    return a


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Mirror the mean of a and its transpose so symmetry holds to the last bit."""

    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    s = 0.5 * (a + a.T)
    return 0.5 * (s + s.T)


def eigenvalues_sym(a: np.ndarray, kind: SpectrumKind = "custom") -> Spectrum:
    """Full spectrum of a real symmetric matrix, sorted non-increasing.

    The decomposition is validated: each eigenpair satisfies
    ||A v - lambda v|| <= SPECTRUM_TOL * max(1, ||A||_F) and the
    eigenvalue sum matches the trace to SPECTRUM_TOL * max(1, |trace|).
    Solver non-convergence raises rather than returning silently.
    """

    a = _validate_symmetric(a)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"symmetric eigensolver failed to converge: {exc}") from None
    scale = max(1.0, float(np.linalg.norm(a, "fro")))
    residual = a @ v
    residual -= v * w
    worst = float(np.linalg.norm(residual, axis=0).max())
    if worst > SPECTRUM_TOL * scale:
        raise NumericError(
            f"eigenpair residual {worst:.3e} exceeds {SPECTRUM_TOL * scale:.3e}"
        )
    tr = float(np.trace(a))
    if abs(float(w.sum()) - tr) > SPECTRUM_TOL * max(1.0, abs(tr)):
        raise NumericError("eigenvalue sum disagrees with the trace")
    return Spectrum(kind, w[::-1])


def hermitian_eigenvalues(a: np.ndarray, kind: SpectrumKind = "custom") -> Spectrum:
    """Spectrum of a (possibly complex) Hermitian matrix, sorted non-increasing.

    Accepts numerically Hermitian input: the anti-Hermitian part must be
    below SPECTRUM_TOL * max(1, ||A||_F) and is projected away before
    solving.
    """

    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DomainError("matrix contains non-finite entries")
    if not np.iscomplexobj(a):
        return eigenvalues_sym(symmetrize(a), kind)
    scale = max(1.0, float(np.linalg.norm(a, "fro")))
    skew = float(np.abs(a - a.conj().T).max())
    if skew > SPECTRUM_TOL * scale:
        raise DomainError(f"matrix is not Hermitian: max asymmetry {skew:.3e}")
    h = 0.5 * (a + a.conj().T)
    try:
        w = np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Hermitian eigensolver failed to converge: {exc}") from None
    return Spectrum(kind, w[::-1])


def graph_spectrum(g: Graph, kind: GraphMatrixKind) -> Spectrum:
    """Spectrum of one of a graph's derived matrices."""

    return eigenvalues_sym(build_matrix(g, kind), kind)


def _check_m(m: int, n: int) -> int:
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool):
        raise DomainError(f"m must be an integer, got {m!r}")
    if not 1 <= m <= n:
        raise DomainError(f"m={m} outside the valid range 1..{n}")
    return int(m)


def ky_fan(spec: Spectrum, m: int) -> float:
    """Sum of the m largest eigenvalues (1-based m)."""

    m = _check_m(m, spec.n)
    return float(spec.values[:m].sum())


def ky_fan_tail(spec: Spectrum, m: int) -> float:
    """Sum of the m smallest eigenvalues (1-based m)."""

    m = _check_m(m, spec.n)
    return float(spec.values[spec.n - m:].sum())


def random_hermitian(n: int, seed: int) -> np.ndarray:
    """Random real symmetric matrix: iid uniform [-1, 1] entries, symmetrized."""

    if not isinstance(n, int) or n < 1:
        raise DomainError(f"dimension must be a positive integer, got {n!r}")
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-1.0, 1.0, size=(n, n))
    return symmetrize(raw)

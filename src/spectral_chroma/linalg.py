"""Validated eigensolving of real symmetric matrices, and the package's tolerances.

Every eigensolve of the package runs here. Each graph-matrix spectrum
goes through spectra_batch, one solve per (G, n, n) stack, or is
derived from a solved one by negated_spectra; each integer-search probe
goes through eigenvalues_batch. Every eigenvalue vector returned here is
checked against its trace, and spectra_batch's against residuals too.
validate_symmetric_stack is the package's one check of a raw matrix
(square, finite, exactly symmetric): spectra_batch runs it on every
stack, and certify on a raw adjacency matrix before its own zero-diagonal
rule.

A spectrum is a float64 row sorted non-increasing; check_spectra checks
a (G, n) array of them once, and eigenvalues_sym returns a checked
read-only row.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator

import numpy as np

from .errors import DomainError, MatrixError, NumericError

# Centralized tolerances; tests reference these by name.
SPECTRUM_TOL = 1e-9
UNITARY_TOL = 1e-12
PROPERTY_TOL = 1e-8
BOUND_FLOOR_TOL = 1e-12  # a valid bound is at least 1 - BOUND_FLOOR_TOL
CONVERSION_TOL = 1e-9  # certify's residual limit, times c * max(1, ||X||_F)
SOUNDNESS_SLACK = 1e-6  # corpus-check: sound when ceil(bound - slack) <= chi
CERT_RESIDUAL_LIMIT = 1e-10  # corpus-check: certified below this conversion residual


def check_spectra(w: np.ndarray) -> None:
    """Check a (G, n) array of spectra at once: n >= 1, finite, rows sorted non-increasing.

    A failure raises DomainError; finiteness is checked before order,
    over the whole array.
    """

    if w.ndim != 2 or w.shape[1] < 1:
        raise DomainError("spectrum needs a nonempty 1-d value vector")
    if not np.isfinite(w).all():
        raise DomainError("spectrum contains non-finite values")
    if (np.diff(w, axis=1) > 0).any():
        raise DomainError("spectrum values must be sorted non-increasing")


def _first(mask: np.ndarray) -> int:
    """Index of the first matrix of a stack whose entries are flagged."""

    return int(mask.reshape(mask.shape[0], -1).any(axis=1).argmax())


def validate_symmetric_stack(stack: np.ndarray) -> np.ndarray:
    """A (G, n, n) stack as float64, after DomainError unless it is square, finite and symmetric.

    Symmetry is exact; the first failing check names the first matrix
    that fails it.
    """

    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise DomainError(f"expected a (G, n, n) stack of square matrices, got shape {stack.shape}")
    if stack.shape[0] < 1 or stack.shape[1] < 1:
        raise DomainError("stack needs at least one matrix of dimension at least 1")
    finite = np.isfinite(stack)
    if not finite.all():
        raise DomainError(f"matrix {_first(~finite)} contains non-finite entries")
    asymmetric = stack != stack.transpose(0, 2, 1)
    if asymmetric.any():
        raise DomainError(f"matrix {_first(asymmetric)} is not exactly symmetric")
    return stack


def frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a (G, n, n) stack, real or complex.

    Each norm is the square root of the same dot products that
    np.linalg.norm(m, "fro") takes, so it equals that value to the bit.
    """

    flat = stack.reshape(stack.shape[0], -1)
    if np.iscomplexobj(flat):
        return np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))
    return np.sqrt(np.vecdot(flat, flat))


def _solve(routine, stack: np.ndarray):
    """routine (np.linalg.eigh or eigvalsh) on a stack, non-convergence raised as NumericError."""

    try:
        return routine(stack)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"symmetric eigensolver failed to converge: {exc}") from None


def _check_trace(stack: np.ndarray, w: np.ndarray) -> None:
    """MatrixError for the first matrix whose eigenvalue sum misses its trace; NaN fails."""

    tr = np.trace(stack, axis1=1, axis2=2)
    bad = ~(np.abs(w.sum(axis=1) - tr) <= SPECTRUM_TOL * np.maximum(1.0, np.abs(tr)))
    if bad.any():
        raise MatrixError(int(bad.argmax()), "eigenvalue sum disagrees with the trace")


def spectra_batch(stack: np.ndarray) -> np.ndarray:
    """Spectra of a (G, n, n) stack of real symmetric matrices, one solve.

    Row g holds the eigenvalues of matrix g, sorted non-increasing. Each
    matrix is validated on its own: every eigenpair satisfies
    ||M v - lambda v|| <= SPECTRUM_TOL * max(1, ||M||_F), and the
    eigenvalue sum matches the trace to SPECTRUM_TOL * max(1, |trace|).
    A failing matrix, NaN results included, raises MatrixError naming
    its index in the stack (see matrices_named); solver non-convergence
    raises NumericError.
    """

    stack = validate_symmetric_stack(stack)
    w, v = _solve(np.linalg.eigh, stack)
    limit = SPECTRUM_TOL * np.maximum(1.0, frobenius_norms(stack))
    worst = _worst_residuals(stack, w, v)
    bad = ~(worst <= limit)  # NaN fails
    if bad.any():
        g = int(bad.argmax())
        raise MatrixError(g, f"eigenpair residual {worst[g]:.3e} exceeds {limit[g]:.3e}")
    _check_trace(stack, w)
    return np.ascontiguousarray(w[:, ::-1])


def _worst_residuals(stack: np.ndarray, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Each matrix's largest ||M v - lambda v||, bit for bit np.linalg.norm's; overwrites v."""

    residual = stack @ v
    residual -= np.multiply(v, w[:, None, :], out=v)
    np.square(residual, out=residual)
    return np.sqrt(np.add.reduce(residual, axis=1)).max(axis=1)


def eigenvalues_batch(stack: np.ndarray) -> np.ndarray:
    """Eigenvalues of a (G, n, n) stack of real symmetric matrices, one eigvalsh call.

    Rows as in spectra_batch (a reversed view), with its trace check and
    errors; no eigenvectors, so no residuals. The stack is not validated.
    """

    w = _solve(np.linalg.eigvalsh, stack)
    _check_trace(stack, w)
    return w[:, ::-1]


def negated_spectra(w: np.ndarray) -> np.ndarray:
    """Spectra of -M from the (..., n) spectra of M: each row negated and reversed.

    The rows stay sorted non-increasing. No solve is needed, and none of
    the validation of spectra_batch is lost: -M has the eigenvectors of
    M, so its eigenpair residuals and its trace error are those of M,
    against the same limits (||-M||_F = ||M||_F, |tr -M| = |tr M|).
    """

    return -w[..., ::-1]


@contextlib.contextmanager
def matrices_named(name: Callable[[int], str]) -> Iterator[None]:
    """Re-raise a MatrixError from the block as a NumericError naming name(k), not matrix k.

    k is the failing matrix's index in its stack; a caller whose stack
    holds a chunk or a subset of its inputs maps it back to the input.
    """

    try:
        yield
    except MatrixError as exc:
        raise NumericError(f"{name(exc.matrix)}: {exc.detail}") from None


def eigenvalues_sym(a: np.ndarray) -> np.ndarray:
    """Full spectrum of a real symmetric matrix: a read-only row sorted non-increasing.

    The solve is spectra_batch on a stack of one, with the same
    residual and trace validation, and its row passes check_spectra.
    """

    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    w = spectra_batch(a[None])
    check_spectra(w)
    w.setflags(write=False)
    return w[0]

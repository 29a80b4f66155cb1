"""The paper's lemmas that the tool never runs, and per-graph references.

The pinching lemma (C(X) = sum_a P_a X P_a as a mixture of unitary
conjugations, and its Ky Fan corollary) and unit-modulus orthogonal
representations are proof devices: the acceptance criteria and the
tests check them on random instances, and the command line needs
neither. Their spectra come from hermitian_eigenvalues, which accepts
complex Hermitian input, and ky_fan sums them.

reference_build_matrix and graph_spectrum build and solve one graph's
matrix at a time, from a loop over its edges, where the tool builds and
solves stacks of them from index arrays.
conversion_unitaries, conversion_residual and check_proper are the
per-graph forms of what certify computes for a batch, written out one
coloring at a time for the tests to compare against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from spectral_chroma.errors import DomainError, NumericError, VerificationError
from spectral_chroma.graphs import Graph, GraphMatrixKind
from spectral_chroma.linalg import (
    PROPERTY_TOL,
    SPECTRUM_TOL,
    UNITARY_TOL,
    check_spectra,
    eigenvalues_sym,
)
from spectral_chroma.oracle import Coloring

PROJECTOR_TOL = 1e-10


def _adjacency(a) -> np.ndarray:
    return a.adjacency() if isinstance(a, Graph) else np.asarray(a, dtype=np.float64)


# --------------------------------------------------------------------------
# Hermitian spectra and Ky Fan sums


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Mirror the mean of a and its transpose so symmetry holds to the last bit."""

    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    s = 0.5 * (a + a.T)
    return 0.5 * (s + s.T)


def random_hermitian(n: int, seed: int) -> np.ndarray:
    """Random real symmetric matrix: iid uniform [-1, 1] entries, symmetrized."""

    if not isinstance(n, int) or n < 1:
        raise DomainError(f"dimension must be a positive integer, got {n!r}")
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-1.0, 1.0, size=(n, n))
    return symmetrize(raw)


def hermitian_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Spectrum of a (possibly complex) Hermitian matrix, sorted non-increasing.

    Accepts numerically Hermitian input: the anti-Hermitian part must be
    below SPECTRUM_TOL * max(1, ||A||_F) and is projected away before
    solving. Real input goes through eigenvalues_sym; complex input has
    its eigenvalue sum checked against the trace to the same tolerance.
    Either way the result is a read-only row that passed check_spectra.
    """

    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DomainError("matrix contains non-finite entries")
    if not np.iscomplexobj(a):
        return eigenvalues_sym(symmetrize(a))
    scale = max(1.0, float(np.linalg.norm(a, "fro")))
    skew = float(np.abs(a - a.conj().T).max())
    if skew > SPECTRUM_TOL * scale:
        raise DomainError(f"matrix is not Hermitian: max asymmetry {skew:.3e}")
    h = 0.5 * (a + a.conj().T)
    try:
        w = np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Hermitian eigensolver failed to converge: {exc}") from None
    tr = float(np.trace(h).real)
    if not abs(float(w.sum()) - tr) <= SPECTRUM_TOL * max(1.0, abs(tr)):  # NaN fails
        raise NumericError("Hermitian eigenvalue sum disagrees with the trace")
    spec = w[::-1].copy()
    check_spectra(spec[None])
    spec.setflags(write=False)
    return spec


def _check_m(m: int, n: int) -> int:
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool):
        raise DomainError(f"m must be an integer, got {m!r}")
    if not 1 <= m <= n:
        raise DomainError(f"m={m} outside the valid range 1..{n}")
    return int(m)


def ky_fan(spec: np.ndarray, m: int) -> float:
    """Sum of the m largest eigenvalues of a spectrum (1-based m)."""

    m = _check_m(m, spec.size)
    return float(spec[:m].sum())


# --------------------------------------------------------------------------
# per-graph matrices and their spectra


def reference_build_matrix(g: Graph, kind: GraphMatrixKind) -> np.ndarray:
    """One of the four derived matrices of one graph, entry by entry from its edge set.

    The per-graph form of the stack builders of graphs (build_matrix is
    one of them on a stack of one), written out for the tests to compare
    against: the same entries, signed zeros included.
    """

    n = g.n
    deg = np.zeros(n, dtype=np.int64)
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    if kind is GraphMatrixKind.NORMALIZED_ADJACENCY:
        isolated = np.nonzero(deg == 0)[0]
        if isolated.size:
            raise DomainError(
                f"normalized matrix undefined: vertex {int(isolated[0])} is isolated"
            )
    a = np.zeros((n, n), dtype=np.float64)
    if kind is GraphMatrixKind.NORMALIZED_ADJACENCY:
        inv_sqrt = 1.0 / np.sqrt(deg.astype(np.float64))
        for u, v in g.edges:
            w = inv_sqrt[u] * inv_sqrt[v]
            a[u, v] = w
            a[v, u] = w
    else:
        for u, v in g.edges:
            a[u, v] = 1.0
            a[v, u] = 1.0
    if kind is GraphMatrixKind.ADJACENCY or kind is GraphMatrixKind.NORMALIZED_ADJACENCY:
        return a
    if kind is GraphMatrixKind.LAPLACIAN:
        return np.diag(deg.astype(np.float64)) - a
    return np.diag(deg.astype(np.float64)) + a


def graph_spectrum(g: Graph, kind: GraphMatrixKind) -> np.ndarray:
    """Spectrum of one of a graph's derived matrices, solved on its own."""

    return eigenvalues_sym(reference_build_matrix(g, kind))


# --------------------------------------------------------------------------
# per-graph references for the certificates


def check_proper(a: np.ndarray, col: Coloring) -> None:
    """Raise unless col is proper for adjacency a, naming the first bad edge in row-major order."""

    if a.shape[0] != col.n:
        raise DomainError(f"coloring covers {col.n} vertices, graph has {a.shape[0]}")
    rows, cols = np.nonzero(np.triu(a, 1))
    colors = np.asarray(col.colors)
    clash = colors[rows] == colors[cols]
    if clash.any():
        first = clash.argmax()
        k, l = int(rows[first]), int(cols[first])
        raise DomainError(
            f"improper coloring: edge ({k}, {l}) has both endpoints colored {col.colors[k]}"
        )


def conversion_unitaries(col: Coloring) -> np.ndarray:
    """Diagonals of U_s = diag(omega^(s*colors[k])), s = 1..c; row s-1 is U_s.

    The last row (s = c) is the identity since omega^c = 1.
    """

    s = np.arange(1, col.c + 1)
    return np.exp(2j * np.pi * s[:, None] * np.array(col.colors)[None, :] / col.c)


def conversion_residual(a, col: Coloring) -> float:
    """Frobenius norm of sum_s U_s^dag A U_s, with no properness gate.

    Entry (k, l) of the sum is a_kl times the geometric sum of
    omega^(s*(colors[l] - colors[k])) over s = 1..c: zero when the colors
    differ, c when they agree. Improper colorings therefore leave a
    residual of at least c per violating edge.
    """

    a = _adjacency(a)
    if a.shape[0] != col.n:
        raise DomainError(f"coloring covers {col.n} vertices, graph has {a.shape[0]}")
    total = np.zeros(a.shape, dtype=np.complex128)
    for u in conversion_unitaries(col):
        total += np.conj(u)[:, None] * a * u[None, :]
    return float(np.linalg.norm(total, "fro"))


# --------------------------------------------------------------------------
# unit-modulus orthogonal representations


@dataclass(frozen=True)
class OrthoRepresentation:
    """n vectors of dimension d with every entry of modulus one."""

    vectors: np.ndarray  # shape (n, d)

    def __post_init__(self) -> None:
        v = np.asarray(self.vectors, dtype=np.complex128)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise DomainError(f"representation needs shape (n, d), got {v.shape}")
        off = float(np.abs(np.abs(v) - 1.0).max())
        if not off <= UNITARY_TOL:  # NaN fails
            raise DomainError(
                f"representation entries deviate from unit modulus by {off:.3e}"
            )
        object.__setattr__(self, "vectors", v)

    @property
    def n(self) -> int:
        return int(self.vectors.shape[0])

    @property
    def d(self) -> int:
        return int(self.vectors.shape[1])


@dataclass(frozen=True)
class OrthoCheckResult:
    valid: bool
    max_edge_inner: float       # max |<Psi_k, Psi_l>| over edges
    identity_residual: float    # || sum_s U_s^dag U_s - d I ||_max
    conversion_max_entry: float  # max entry of | sum_s U_s A U_s^dag |

    def __bool__(self) -> bool:
        return self.valid


def check_ortho_representation(a, rep: OrthoRepresentation) -> OrthoCheckResult:
    """Decide whether rep is orthogonal across every edge of adjacency a.

    Two independent routes must agree: the direct inner-product test
    |<Psi_k, Psi_l>| <= 1e-9 d per edge, and the unitary route building
    U_s from s-th coordinates and requiring sum_s U_s^dag U_s = d I with
    sum_s U_s A U_s^dag = 0. Disagreement raises, since it would mean
    the certification machinery itself is broken.
    """

    a = _adjacency(a)
    if a.shape[0] != rep.n:
        raise DomainError(f"representation covers {rep.n} vertices, graph has {a.shape[0]}")
    n, d = rep.n, rep.d
    v = rep.vectors
    gram = np.conj(v) @ v.T  # gram[k, l] = <Psi_k, Psi_l>
    edge_mask = np.triu(a, 1) != 0
    max_edge = float(np.abs(gram[edge_mask]).max()) if edge_mask.any() else 0.0
    edge_ok = max_edge <= 1e-9 * d

    identity_sum = np.zeros((n, n), dtype=np.complex128)
    conversion_sum = np.zeros((n, n), dtype=np.complex128)
    for s in range(d):
        u = v[:, s]
        identity_sum += np.diag(np.conj(u) * u)
        conversion_sum += u[:, None] * a * np.conj(u)[None, :]
    identity_residual = float(np.abs(identity_sum - d * np.eye(n)).max())
    conversion_max = float(np.abs(conversion_sum).max())
    unitary_ok = identity_residual <= 1e-10 * d and conversion_max <= 1e-9 * d

    if edge_ok != unitary_ok:
        raise VerificationError(
            "inner-product and unitary-identity tests disagree: "
            f"edge max {max_edge:.3e}, conversion max {conversion_max:.3e}"
        )
    return OrthoCheckResult(
        valid=edge_ok,
        max_edge_inner=max_edge,
        identity_residual=identity_residual,
        conversion_max_entry=conversion_max,
    )


def coloring_representation(col: Coloring) -> OrthoRepresentation:
    """Psi_k = (omega^(colors[k] * 1), ..., omega^(colors[k] * c)): d = c."""

    s = np.arange(1, col.c + 1)[None, :]
    k = np.asarray(col.colors)[:, None]
    return OrthoRepresentation(np.exp(2j * np.pi * k * s / col.c))


# --------------------------------------------------------------------------
# pinching


@dataclass(frozen=True)
class PinchingInstance:
    """Orthogonal projectors resolving the identity, plus a test matrix."""

    projectors: tuple[np.ndarray, ...]
    test_matrix: np.ndarray

    def __post_init__(self) -> None:
        projs = tuple(np.asarray(p, dtype=np.complex128) for p in self.projectors)
        if not projs:
            raise DomainError("pinching needs at least one projector")
        n = projs[0].shape[0]
        total = np.zeros((n, n), dtype=np.complex128)
        # each deviation is compared as `not dev <= tol`, so a NaN fails
        for idx, p in enumerate(projs):
            if p.shape != (n, n):
                raise DomainError(f"projector {idx} has shape {p.shape}, expected {(n, n)}")
            if not float(np.abs(p - p.conj().T).max()) <= PROJECTOR_TOL:
                raise DomainError(f"projector {idx} is not Hermitian")
            if not float(np.abs(p @ p - p).max()) <= PROJECTOR_TOL:
                raise DomainError(f"projector {idx} is not idempotent")
            total += p
        if not float(np.abs(total - np.eye(n)).max()) <= PROJECTOR_TOL:
            raise DomainError("projectors do not sum to the identity")
        x = np.asarray(self.test_matrix)
        if x.shape != (n, n):
            raise DomainError(f"test matrix has shape {x.shape}, expected {(n, n)}")
        object.__setattr__(self, "projectors", projs)
        object.__setattr__(self, "test_matrix", x)

    @property
    def c(self) -> int:
        return len(self.projectors)

    @property
    def n(self) -> int:
        return int(self.projectors[0].shape[0])


def pinch(inst: PinchingInstance) -> np.ndarray:
    """C(X) = sum_a P_a X P_a."""

    x = inst.test_matrix
    out = np.zeros(x.shape, dtype=np.complex128)
    for p in inst.projectors:
        out += p @ x @ p
    return out


def pinch_via_unitaries(inst: PinchingInstance) -> np.ndarray:
    """(1/c) sum_{s=1}^c U_s X U_s^dag with U_s = sum_a omega^(a s) P_a."""

    c = inst.c
    x = inst.test_matrix
    out = np.zeros(x.shape, dtype=np.complex128)
    for s in range(1, c + 1):
        u = np.zeros(x.shape, dtype=np.complex128)
        for a_idx, p in enumerate(inst.projectors):
            u += np.exp(2j * np.pi * a_idx * s / c) * p
        out += u @ x @ u.conj().T
    return out / c


def pinching_corollary_check(inst: PinchingInstance, m: int) -> bool:
    """Top-m sums: eig(X) majorizes eig((c/(c-1)) C(X) - X/(c-1)) at index m."""

    if inst.c < 2:
        raise DomainError("corollary needs at least 2 projectors (division by c-1)")
    x = inst.test_matrix
    c = inst.c
    spec_x = hermitian_eigenvalues(x)
    mixed = (c / (c - 1)) * pinch(inst) - x / (c - 1)
    spec_mixed = hermitian_eigenvalues(mixed)
    return ky_fan(spec_x, m) >= ky_fan(spec_mixed, m) - PROPERTY_TOL


def coloring_projectors(col: Coloring) -> tuple[np.ndarray, ...]:
    """Coordinate projectors of the color classes; empty classes give zero blocks."""

    colors = np.asarray(col.colors)
    return tuple(
        np.diag((colors == a).astype(np.complex128)) for a in range(col.c)
    )

"""Constructive certificates for coloring-based matrix identities.

A proper c-coloring yields c diagonal root-of-unity unitaries that sum
adjacency conjugates to zero. This module builds those certificates,
checks the related matrix identities behind the eigenvalue bounds, runs
the pinching-as-unitary-mixture equivalence, and validates unit-modulus
orthogonal representations. Everything here is checked numerically
against explicit tolerances; nothing is taken on faith.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, VerificationError
from .graphs import Graph, GraphMatrixKind
from .linalg import (
    PROPERTY_TOL,
    SPECTRUM_TOL,
    UNITARY_TOL,
    eigenvalues_sym,
    hermitian_eigenvalues,
    ky_fan,
)

CONVERSION_TOL = 1e-9
PINCH_AGREE_TOL = 1e-10
PROJECTOR_TOL = 1e-10


@dataclass(frozen=True)
class Coloring:
    """Vertex color assignment with an explicit palette size.

    Color classes may be empty; properness is relative to a graph and
    checked where a graph is in hand.
    """

    colors: tuple[int, ...]
    c: int

    def __post_init__(self) -> None:
        if not isinstance(self.c, int) or self.c < 1:
            raise DomainError(f"palette size must be a positive integer, got {self.c!r}")
        colors = tuple(int(x) for x in self.colors)
        if not colors:
            raise DomainError("coloring needs at least one vertex")
        for k, x in enumerate(colors):
            if not 0 <= x < self.c:
                raise DomainError(f"vertex {k} has color {x} outside [0, {self.c})")
        object.__setattr__(self, "colors", colors)

    @property
    def n(self) -> int:
        return len(self.colors)

    def with_palette(self, c: int) -> "Coloring":
        """Same assignment over a (weakly) larger palette."""

        return Coloring(self.colors, c)


def _as_adjacency(a) -> np.ndarray:
    if isinstance(a, Graph):
        return a.adjacency()
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"adjacency must be square, got shape {a.shape}")
    if not np.array_equal(a, a.T):
        raise DomainError("adjacency matrix is not symmetric")
    return a


def check_proper(a, col: Coloring) -> None:
    """Raise unless col is proper for the graph of adjacency a."""

    a = _as_adjacency(a)
    if a.shape[0] != col.n:
        raise DomainError(f"coloring covers {col.n} vertices, graph has {a.shape[0]}")
    rows, cols = np.nonzero(np.triu(a, 1))  # edges in row-major order
    colors = np.asarray(col.colors)
    clash = colors[rows] == colors[cols]
    if clash.any():
        first = clash.argmax()
        k, l = int(rows[first]), int(cols[first])
        raise DomainError(
            f"improper coloring: edge ({k}, {l}) has both endpoints colored "
            f"{col.colors[k]}"
        )


def conversion_unitaries(col: Coloring) -> np.ndarray:
    """Diagonals of U_s = diag(omega^(s*colors[k])), s = 1..c; row s-1 is U_s.

    The last row (s = c) is the identity since omega^c = 1.
    """

    s = np.arange(1, col.c + 1)[:, None]
    k = np.asarray(col.colors)[None, :]
    return np.exp(2j * np.pi * s * k / col.c)


def conversion_residual(a, col: Coloring) -> float:
    """Frobenius norm of sum_s U_s^dag A U_s, with no properness gate.

    Entry (k, l) of the sum is a_kl times the geometric sum of
    omega^(s*(colors[l] - colors[k])) over s = 1..c: zero when the colors
    differ, c when they agree. Improper colorings therefore leave a
    residual of at least c per violating edge.
    """

    a = _as_adjacency(a)
    if a.shape[0] != col.n:
        raise DomainError(f"coloring covers {col.n} vertices, graph has {a.shape[0]}")
    diags = conversion_unitaries(col)
    total = np.zeros(a.shape, dtype=np.complex128)
    for s in range(col.c):
        u = diags[s]
        total += np.conj(u)[:, None] * a * u[None, :]
    return float(np.linalg.norm(total, "fro"))


@dataclass(frozen=True)
class ColoringCertificate:
    """A verified conversion-to-zero certificate for one proper coloring."""

    coloring: Coloring
    unitaries: np.ndarray  # shape (c, n); row s-1 holds the diagonal of U_s
    residual: float
    tolerance: float

    def __post_init__(self) -> None:
        u = np.asarray(self.unitaries)
        last = u[-1]
        if np.abs(last - 1.0).max() > UNITARY_TOL:
            raise VerificationError("final conversion unitary is not the identity")
        object.__setattr__(self, "unitaries", u)


def build_conversion(a, col: Coloring) -> ColoringCertificate:
    """Certificate that the coloring's unitaries convert adjacency a to zero."""

    a = _as_adjacency(a)
    if col.c < 2:
        raise DomainError(f"conversion needs at least 2 colors, got c={col.c}")
    check_proper(a, col)
    residual = conversion_residual(a, col)
    tol = CONVERSION_TOL * col.c * max(1.0, float(np.linalg.norm(a, "fro")))
    if residual > tol:
        raise VerificationError(
            f"conversion residual {residual:.3e} exceeds tolerance {tol:.3e}"
        )
    return ColoringCertificate(col, conversion_unitaries(col), residual, tol)


# --------------------------------------------------------------------------
# matrix identity behind the generalized bounds

@dataclass(frozen=True)
class MajorizationStepReport:
    identity_residual: float
    identity_tolerance: float
    identity_ok: bool
    spectral_margins: np.ndarray  # per m: lhs - rhs, must be >= -PROPERTY_TOL
    spectral_ok: bool

    @property
    def ok(self) -> bool:
        return self.identity_ok and self.spectral_ok


def verify_majorization_step(a, b: np.ndarray, col: Coloring) -> MajorizationStepReport:
    """Check sum_{s<c} U_s^dag (B-A) U_s = (c-1)B + A and its spectral consequence.

    B must be diagonal (it then commutes with every U_s). The spectral
    consequence compared for every m is
    sum_{i<=m} eig_i(B-A) >= sum_{i<=m} eig_i(B + A/(c-1)).
    """

    a = _as_adjacency(a)
    b = np.asarray(b, dtype=np.float64)
    if b.shape != a.shape:
        raise DomainError(f"B has shape {b.shape}, expected {a.shape}")
    if np.abs(b - np.diag(np.diag(b))).max() != 0.0:
        raise DomainError("B must be diagonal")
    check_proper(a, col)
    if col.c < 2:
        raise DomainError(f"identity needs at least 2 colors, got c={col.c}")
    c = col.c
    diags = conversion_unitaries(col)
    x = b - a
    total = np.zeros(a.shape, dtype=np.complex128)
    for s in range(c - 1):
        u = diags[s]
        total += np.conj(u)[:, None] * x * u[None, :]
    target = (c - 1) * b + a
    residual = float(np.linalg.norm(total - target, "fro"))
    tol = CONVERSION_TOL * c * max(1.0, float(np.linalg.norm(x, "fro")))
    n = a.shape[0]
    lhs = eigenvalues_sym(x)
    rhs = eigenvalues_sym(b + a / (c - 1))
    margins = np.array(
        [ky_fan(lhs, m) - ky_fan(rhs, m) for m in range(1, n + 1)]
    )
    return MajorizationStepReport(
        identity_residual=residual,
        identity_tolerance=tol,
        identity_ok=residual <= tol,
        spectral_margins=margins,
        spectral_ok=bool((margins >= -PROPERTY_TOL).all()),
    )


# --------------------------------------------------------------------------
# average-degree bound identity

@dataclass(frozen=True)
class LoanIdentityReport:
    identity_residual: float
    identity_tolerance: float
    identity_ok: bool
    rayleigh_value: float       # v^dag A v with v the normalized all-ones vector
    rayleigh_ok: bool           # equals 2E/n within SPECTRUM_TOL
    conjugate_minima: np.ndarray  # v^dag U_s Q U_s^dag v per s = 1..c-1
    minima_ok: bool             # each >= delta_n - PROPERTY_TOL
    inequality_ok: bool         # 2E/n <= (c-1)(2E/n - delta_n) + PROPERTY_TOL

    @property
    def ok(self) -> bool:
        return self.identity_ok and self.rayleigh_ok and self.minima_ok and self.inequality_ok


def verify_loan_identity(g: Graph, col: Coloring) -> LoanIdentityReport:
    """Check A = (c-1)D - sum_{s<c} U_s Q U_s^dag and the scalar chain under it."""

    if g.edge_count < 1:
        raise DomainError("identity needs at least one edge")
    a = g.adjacency()
    check_proper(a, col)
    if col.c < 2:
        raise DomainError(f"identity needs at least 2 colors, got c={col.c}")
    c = col.c
    n = g.n
    d = np.diag(g.degrees().astype(np.float64))
    q = d + a
    diags = conversion_unitaries(col)
    total = np.zeros((n, n), dtype=np.complex128)
    conj_values = []
    v = np.full(n, 1.0 / np.sqrt(n))
    for s in range(c - 1):
        u = diags[s]
        term = u[:, None] * q * np.conj(u)[None, :]
        total += term
        conj_values.append(float(np.real(v @ term @ v)))
    residual = float(np.linalg.norm(((c - 1) * d - total) - a, "fro"))
    tol = CONVERSION_TOL * c * max(1.0, float(np.linalg.norm(q, "fro")))
    avg = 2.0 * g.edge_count / n
    rayleigh = float(np.real(v @ a @ v))
    delta_n = float(eigenvalues_sym(q, GraphMatrixKind.SIGNLESS_LAPLACIAN).values[-1])
    minima = np.array(conj_values)
    return LoanIdentityReport(
        identity_residual=residual,
        identity_tolerance=tol,
        identity_ok=residual <= tol,
        rayleigh_value=rayleigh,
        rayleigh_ok=abs(rayleigh - avg) <= SPECTRUM_TOL * max(1.0, avg),
        conjugate_minima=minima,
        minima_ok=bool((minima >= delta_n - PROPERTY_TOL).all()),
        inequality_ok=avg <= (c - 1) * (avg - delta_n) + PROPERTY_TOL,
    )


# --------------------------------------------------------------------------
# the whole certification sequence for one graph

@dataclass(frozen=True)
class GraphCertificationReport:
    conversion: ColoringCertificate
    steps: dict[str, MajorizationStepReport]  # keyed by B: "zero", "deg", "negdeg"
    loan: LoanIdentityReport | None             # None for an edgeless graph

    @property
    def ok(self) -> bool:
        steps_ok = all(step.ok for step in self.steps.values())
        return steps_ok and (self.loan is None or self.loan.ok)


def greedy_certificate_coloring(g: Graph) -> Coloring:
    """The greedy coloring, widened to two colors if it uses one.

    The conversion construction needs at least two color classes, and
    an edgeless graph colors greedily with one.
    """

    from .oracle import greedy_coloring  # oracle imports Coloring from here

    col = greedy_coloring(g)
    return col.with_palette(2) if col.c < 2 else col


def certify_graph(g: Graph, col: Coloring) -> GraphCertificationReport:
    """Conversion certificate, majorization step for B in {0, D, -D}, loan identity.

    The loan identity needs an edge and is skipped (None) without one.
    Raises DomainError for an improper coloring and VerificationError
    when the conversion residual exceeds its tolerance.
    """

    a = g.adjacency()
    conversion = build_conversion(a, col)
    deg = np.diag(g.degrees().astype(np.float64))
    steps = {
        label: verify_majorization_step(a, b, col)
        for label, b in (("zero", np.zeros_like(a)), ("deg", deg), ("negdeg", -deg))
    }
    loan = verify_loan_identity(g, col) if g.edge_count >= 1 else None
    return GraphCertificationReport(conversion, steps, loan)


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
        if off > UNITARY_TOL:
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

    a = _as_adjacency(a)
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
        for idx, p in enumerate(projs):
            if p.shape != (n, n):
                raise DomainError(f"projector {idx} has shape {p.shape}, expected {(n, n)}")
            if float(np.abs(p - p.conj().T).max()) > PROJECTOR_TOL:
                raise DomainError(f"projector {idx} is not Hermitian")
            if float(np.abs(p @ p - p).max()) > PROJECTOR_TOL:
                raise DomainError(f"projector {idx} is not idempotent")
            total += p
        if float(np.abs(total - np.eye(n)).max()) > PROJECTOR_TOL:
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

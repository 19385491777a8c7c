"""Graph data structures, normalized Laplacians, heterophily metrics, and
dense symmetric eigendecomposition.

All matrices are dense float64; training passes its graphs to
``normalized_laplacian`` as edge columns instead.  ``edge_pairs`` is the
one reader of an undirected edge list off a dense matrix.  The eigensolver wraps
LAPACK ``eigh``; it is only used on analysis paths, never inside
training.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ContractError, DimensionError, NumericError

SYMMETRY_TOL = 1e-9
SIGN_TOL = 1e-12


@dataclass
class LabeledGraph:
    """Node-attributed, undirected graph with one-hot labels and splits.

    adjacency : (n, n) symmetric nonnegative, zero diagonal
    features  : (n, f) finite
    labels    : (n, c) one-hot rows
    splits    : list of (train, val, test) index arrays, disjoint, in [0, n)

    The class holds these facts and does not check them: whoever builds
    a graph establishes them (``datasets.load_dataset_dir`` for files,
    ``datasets.gen_synthetic`` for draws).
    """

    adjacency: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    splits: list = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return self.labels.shape[1]


@dataclass
class SpectralDecomposition:
    """Eigenpairs of a symmetric matrix, eigenvalues ascending."""

    eigenvalues: np.ndarray   # (n,)
    eigenvectors: np.ndarray  # (n, n), columns

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.T

    def normalized_vectors(self) -> np.ndarray:
        """The eigenvectors with ``normalized_eigenvectors``' sign convention."""
        return _sign_normalize(self.eigenvectors)


def check_symmetric(m: np.ndarray, what: str):
    """Raise unless ``m`` is square and symmetric within ``SYMMETRY_TOL``;
    ``what`` names the caller in the message."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"{what}: expected square matrix, got {m.shape}")
    worst = np.max(np.abs(m - m.T)) if m.size else 0.0
    if worst > SYMMETRY_TOL:
        raise ContractError(
            f"{what}: matrix asymmetry {worst:.3e} exceeds {SYMMETRY_TOL:.0e}")


def edge_pairs(a: np.ndarray, threshold: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) index arrays of the entries of ``a`` above ``threshold`` with
    i < j, in row-major order: each undirected edge once."""
    i_idx, j_idx = np.nonzero(np.triu(np.asarray(a) > threshold, 1))
    # nonzero returns strided views of one buffer; every pair op would
    # copy them, so return contiguous arrays
    return np.ascontiguousarray(i_idx), np.ascontiguousarray(j_idx)


def heterophilic_fraction(labels: np.ndarray, pairs) -> float:
    """Fraction of the pairs (i, j) whose one-hot labels differ."""
    y = np.argmax(labels, axis=1)
    i_idx, j_idx = pairs
    return float(np.mean(y[i_idx] != y[j_idx]))


def normalized_laplacian(weights, pairs=None, n: int | None = None):
    """I - D^{-1/2} W D^{-1/2} with degrees clamped below at ``ad.DEGREE_EPS``.

    Dense form: an n x n ndarray W gives the n x n ndarray L.  Rows of
    isolated nodes come out as identity rows because their incident
    weights are all zero.

    Edge form, with the pairs (i, j) and the node count ``n``: ``weights``
    is an |E| x 1 Tensor holding W once per undirected pair, and the
    result is the Tensor column a_e = w_e / sqrt(d_i d_j) over the same
    pairs, one ``ad.edge_normalize`` node, differentiable w.r.t. the
    weights.  L = I - A, where A holds a_e at (i, j) and (j, i); it is
    symmetric by construction, so this form skips the symmetry check.
    """
    if pairs is not None:
        return ad.edge_normalize(weights, pairs, n)
    w = np.asarray(weights, dtype=np.float64)
    check_symmetric(w, "normalized_laplacian")
    n = w.shape[0]
    r = 1.0 / np.sqrt(np.maximum(w @ np.ones((n, 1)), ad.DEGREE_EPS))
    return np.eye(n) - (r @ r.T) * w


def heterophily_ratio(adjacency: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of the undirected edges (positive weights) joining distinct classes."""
    a = np.asarray(adjacency, dtype=np.float64)
    check_symmetric(a, "heterophily_ratio")
    pairs = edge_pairs(a)
    if pairs[0].size == 0:
        raise ContractError("heterophily_ratio: graph has no edges")
    return heterophilic_fraction(labels, pairs)


def symmetric_eig(m: np.ndarray) -> SpectralDecomposition:
    """LAPACK eigendecomposition (``np.linalg.eigh``) of a symmetric matrix.

    Raises NumericError on non-finite entries, which would otherwise come
    back as NaN eigenvalues, and when LAPACK fails to converge.
    """
    a = np.asarray(m, dtype=np.float64)
    if not np.isfinite(a).all():
        raise NumericError("symmetric_eig: matrix has NaN/Inf entries")
    check_symmetric(a, "symmetric_eig")
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"symmetric_eig: {exc}") from exc
    return SpectralDecomposition(values, vectors)


def operator_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Spectral norm of (a - b) for symmetric arguments."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"operator_distance: shapes differ, {a.shape} vs {b.shape}")
    diff = a - b
    check_symmetric(diff, "operator_distance")
    if not np.any(diff):
        return 0.0
    values = symmetric_eig(diff).eigenvalues
    return float(np.max(np.abs(values)))


def _sign_normalize(vectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns so the first non-negligible entry is positive."""
    out = vectors.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        nz = np.nonzero(np.abs(col) > SIGN_TOL)[0]
        if nz.size and col[nz[0]] < 0:
            out[:, k] = -col
    return out


def normalized_eigenvectors(m: np.ndarray) -> np.ndarray:
    """Eigenvector basis sorted by ascending eigenvalue, sign-normalized.

    Eigendecompositions are unique only up to column sign and ordering of
    repeated eigenvalues; this convention makes ||U - V||_2 well-defined.
    """
    return symmetric_eig(m).normalized_vectors()


def perturbation_direction(n: int, seed: int) -> tuple[np.ndarray, float, np.ndarray]:
    """The random symmetric n x n direction e0 that ``seed`` draws, its
    spectral norm, and its sign-normalized eigenvectors."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, n))
    e0 = 0.5 * (raw + raw.T)
    dec = symmetric_eig(e0)
    return e0, float(np.max(np.abs(dec.eigenvalues))), dec.normalized_vectors()


def misalignment(u: np.ndarray, v: np.ndarray) -> float:
    """delta = (||U - V||_2 + 1)^2 - 1 between two sign-normalized bases."""
    return (np.linalg.norm(u - v, 2) + 1.0) ** 2 - 1.0


def perturb_laplacian(l: np.ndarray, magnitude: float, seed: int,
                      l_eigenvectors: np.ndarray | None = None):
    """Additive symmetric perturbation with spectral norm exactly ``magnitude``.

    Returns (l_hat, e, delta) where delta is the eigenvector-misalignment
    statistic between l and e.  Callers probing one Laplacian repeatedly
    may pass its ``normalized_eigenvectors`` to skip re-decomposing it.
    """
    if magnitude < 0:
        raise ContractError(f"perturb_laplacian: negative magnitude {magnitude}")
    l = np.asarray(l, dtype=np.float64)
    check_symmetric(l, "perturb_laplacian")
    n = l.shape[0]
    if magnitude == 0.0:
        e = np.zeros((n, n))
        v = np.eye(n)
    else:
        e0, norm, v = perturbation_direction(n, seed)
        # rescaling by a positive constant keeps eigenvectors and their order
        e = e0 * (magnitude / norm)
    u = l_eigenvectors if l_eigenvectors is not None else normalized_eigenvectors(l)
    return l + e, e, misalignment(u, v)

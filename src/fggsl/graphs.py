"""Graph data structures, normalized Laplacians, heterophily metrics,
dense symmetric eigendecomposition and the spectral-norm distance.

All matrices are dense float64; training passes its graphs to
``normalized_laplacian`` as edge columns instead.  ``edge_pairs`` is the
one reader of an undirected edge list off a dense matrix.  The eigensolver wraps
LAPACK ``eigh``, or ``eigvalsh`` for eigenvalues alone; it is only used on
analysis paths, never inside training.  How the stability probe perturbs
a Laplacian and measures delta is decided in ``analysis``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ContractError, DimensionError, NumericError

SYMMETRY_TOL = 1e-9


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

    eigenvalues: np.ndarray           # (n,)
    eigenvectors: np.ndarray | None   # (n, n), columns; None from a values-only call


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


def symmetric_eig(m: np.ndarray, vectors: bool = True) -> SpectralDecomposition:
    """LAPACK eigendecomposition of a symmetric matrix: ``np.linalg.eigh``,
    or with ``vectors=False`` ``np.linalg.eigvalsh``, which computes the
    eigenvalues alone and leaves ``eigenvectors`` None.

    Raises NumericError on non-finite entries, which would otherwise come
    back as NaN eigenvalues, and when LAPACK fails to converge.
    """
    a = np.asarray(m, dtype=np.float64)
    if not np.isfinite(a).all():
        raise NumericError("symmetric_eig: matrix has NaN/Inf entries")
    check_symmetric(a, "symmetric_eig")
    try:
        if vectors:
            return SpectralDecomposition(*np.linalg.eigh(a))
        return SpectralDecomposition(np.linalg.eigvalsh(a), None)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"symmetric_eig: {exc}") from exc


def operator_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Spectral norm of (a - b) for symmetric arguments, from the
    eigenvalues of the difference alone."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"operator_distance: shapes differ, {a.shape} vs {b.shape}")
    diff = a - b
    if not np.any(diff):
        return 0.0
    values = symmetric_eig(diff, vectors=False).eigenvalues
    return float(np.max(np.abs(values)))

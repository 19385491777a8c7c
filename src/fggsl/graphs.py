"""Graph data structures, normalized Laplacians, heterophily metrics,
dense symmetric eigendecomposition and the spectral-norm distance.

A graph holds its edges as an ``EdgeList``: each undirected pair once,
unweighted, O(|E|) memory.  It builds the ``ad.PairIndex`` of its pairs
once, on first use (``EdgeList.index``), which training passes, with an
edge column, to ``normalized_laplacian``; a dense n x n matrix is built
only on demand (``EdgeList.dense``, a graph's ``.adjacency``), for
analysis.  The other matrices here are dense float64.  One reader,
``EdgeList.from_dense``, lists the edges of a dense matrix, and one
scatter, ``ad.EdgeOperator.dense``, writes them back on the index,
which carries n.  The eigensolver wraps LAPACK ``eigh``, or
``eigvalsh`` for eigenvalues alone; it is only used on analysis paths,
never inside training.  How the stability probe perturbs a Laplacian
and measures delta is decided in ``analysis``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ContractError, DimensionError, NumericError

SYMMETRY_TOL = 1e-9


@dataclass(frozen=True)
class EdgeList:
    """An unweighted undirected graph on ``n`` nodes as its pairs (i, j),
    i < j, in row-major order (sorted by i, then j): each edge once.

    A ContractError names the first pair out of 0 <= i < j < n or out of
    order; i and j must be 1-D integer arrays of one length, made read-only
    here, so a graph sharing them (the ``given`` candidate) copies nothing.
    """

    n: int
    i: np.ndarray
    j: np.ndarray

    def __post_init__(self):
        i, j, n = self.i, self.j, self.n
        if not all(isinstance(a, np.ndarray) and a.ndim == 1 and a.dtype.kind in "iu"
                   and a.size == i.size for a in (i, j)):
            raise ContractError("EdgeList: i and j must be 1-D integer arrays of one length")
        key = i * n + j
        bad = (i < 0) | (i >= j) | (j >= n)
        bad[1:] |= key[1:] <= key[:-1]
        if bad.any():
            k = int(np.argmax(bad))
            raise ContractError(f"EdgeList: pair {k} ({i[k]}, {j[k]}) breaks 0 <= i < j < {n} "
                                "or row-major order")
        i.flags.writeable = j.flags.writeable = False

    @classmethod
    def from_dense(cls, a) -> EdgeList:
        """The positive entries of the square matrix ``a`` (a boolean's True
        ones) with i < j, in row-major order: each undirected edge once."""
        a = np.asarray(a)
        i_idx, j_idx = np.nonzero(np.triu(a > 0, 1))
        # nonzero returns strided views of one buffer; every pair op would
        # copy them, so hold contiguous arrays
        return cls(a.shape[0], np.ascontiguousarray(i_idx), np.ascontiguousarray(j_idx))

    @property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        return self.i, self.j

    @functools.cached_property
    def index(self) -> ad.PairIndex:
        """The ``ad.PairIndex`` of the pairs, built once, on first use."""
        return ad.PairIndex(self.i, self.j, self.n)

    def dense(self) -> np.ndarray:
        """The symmetric n x n 0/1 matrix: the read-only T of the all-ones
        column on ``index``, built anew on each call, so an item assignment
        raises instead of changing a copy."""
        ones = ad.constant(np.ones((self.i.size, 1)))
        return ad.EdgeOperator(ones, self.index, 0.0, 1.0).matrix


@dataclass
class LabeledGraph:
    """Node-attributed, undirected graph with one-hot labels and splits.

    edges     : EdgeList over n nodes (``EdgeList.from_dense`` reads one
                off a dense symmetric matrix)
    features  : (n, f) finite
    labels    : (n, c) one-hot rows
    splits    : list of (train, val, test) index arrays, disjoint, in [0, n)

    ``adjacency`` is the dense (n, n) 0/1 matrix, built on each read and
    read-only.  The class checks only that ``edges`` is an ``EdgeList``:
    whoever builds a graph establishes the rest (``datasets.load_dataset_dir``
    for files, ``datasets.gen_synthetic`` for draws).
    """

    edges: EdgeList
    features: np.ndarray
    labels: np.ndarray
    splits: list = field(default_factory=list)

    def __post_init__(self):
        if not isinstance(self.edges, EdgeList):
            raise ContractError(
                f"LabeledGraph: edges must be an EdgeList, got {type(self.edges).__name__}")

    @property
    def adjacency(self) -> np.ndarray:
        return self.edges.dense()

    @property
    def n(self) -> int:
        return self.edges.n

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


def heterophilic_fraction(labels: np.ndarray, pairs) -> float:
    """Fraction of the pairs (i, j) whose one-hot labels differ; no pairs
    raise ContractError."""
    i_idx, j_idx = pairs
    if i_idx.size == 0:
        raise ContractError("heterophily ratio: graph has no edges")
    y = np.argmax(labels, axis=1)
    return float(np.mean(y[i_idx] != y[j_idx]))


def normalized_laplacian(weights, index: ad.PairIndex | None = None):
    """I - D^{-1/2} W D^{-1/2} with degrees clamped below at ``ad.DEGREE_EPS``.

    Dense form: an n x n ndarray W gives the n x n ndarray L.  Rows of
    isolated nodes come out as identity rows because their incident
    weights are all zero.

    Edge form, with the ``ad.PairIndex`` of the pairs (i, j): ``weights``
    is an |E| x 1 Tensor holding W once per undirected pair, and the
    result is the Tensor column a_e = w_e / sqrt(d_i d_j) over the same
    pairs, one ``ad.edge_normalize`` node, differentiable w.r.t. the
    weights.  L = I - A, where A holds a_e at (i, j) and (j, i); it is
    symmetric by construction, so this form skips the symmetry check.
    """
    if index is not None:
        return ad.edge_normalize(weights, index)
    w = np.asarray(weights, dtype=np.float64)
    check_symmetric(w, "normalized_laplacian")
    n = w.shape[0]
    r = 1.0 / np.sqrt(np.maximum(w @ np.ones((n, 1)), ad.DEGREE_EPS))
    return np.eye(n) - (r @ r.T) * w


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

"""Graph data structures, normalized Laplacians, heterophily metrics, and
dense symmetric eigendecomposition.

All matrices are dense float64.  The eigensolver wraps LAPACK ``eigh``;
it is only used on analysis paths, never inside training.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ContractError, DimensionError, NumericError, ValidationError

DEGREE_EPS = 1e-8
SYMMETRY_TOL = 1e-9


@dataclass
class LabeledGraph:
    """Node-attributed, undirected graph with one-hot labels and splits.

    adjacency : (n, n) symmetric nonnegative, zero diagonal
    features  : (n, f)
    labels    : (n, c) one-hot rows
    splits    : list of (train, val, test) index arrays
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

    def validate(self):
        a = self.adjacency
        if a.shape[0] != a.shape[1]:
            raise ValidationError(f"adjacency is not square: {a.shape}")
        if np.max(np.abs(a - a.T)) > 1e-12:
            raise ValidationError("adjacency is not symmetric within 1e-12")
        if np.any(np.diag(a) != 0.0):
            raise ValidationError("adjacency diagonal must be exactly zero")
        if np.any(a < 0):
            raise ValidationError("adjacency has negative weights")
        n = self.n
        if self.features.shape[0] != n or self.labels.shape[0] != n:
            raise ValidationError("features/labels row count differs from node count")
        if not np.isfinite(self.features).all():
            raise ValidationError("features contain NaN/Inf")
        onehot_ok = (np.all((self.labels == 0) | (self.labels == 1))
                     and np.all(self.labels.sum(axis=1) == 1))
        if not onehot_ok:
            raise ValidationError("label rows must be one-hot")
        for k, (train, val, test) in enumerate(self.splits):
            parts = [np.asarray(p, dtype=np.intp) for p in (train, val, test)]
            cat = np.concatenate(parts)
            if cat.size and (cat.min() < 0 or cat.max() >= n):
                raise ValidationError(f"split {k} has out-of-range indices")
            if len(np.unique(cat)) != cat.size:
                raise ValidationError(f"split {k} has overlapping index sets")
        return self


@dataclass
class SpectralDecomposition:
    """Eigenpairs of a symmetric matrix, eigenvalues ascending."""

    eigenvalues: np.ndarray   # (n,)
    eigenvectors: np.ndarray  # (n, n), columns

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.T


def _check_symmetric(m: np.ndarray, what: str, tol: float = SYMMETRY_TOL):
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"{what}: expected square matrix, got {m.shape}")
    worst = np.max(np.abs(m - m.T)) if m.size else 0.0
    if worst > tol:
        raise ContractError(f"{what}: matrix asymmetry {worst:.3e} exceeds {tol:.0e}")


def normalized_laplacian(weights, eps: float = DEGREE_EPS):
    """I - D^{-1/2} W D^{-1/2} with degrees clamped below at ``eps``.

    Accepts a plain ndarray (returns an ndarray) or an autodiff Tensor
    (returns a Tensor differentiable w.r.t. the weights).  Rows of
    isolated nodes come out as identity rows because their incident
    weights are all zero.
    """
    is_tensor = isinstance(weights, ad.Tensor)
    w = weights if is_tensor else ad.constant(np.asarray(weights, dtype=np.float64))
    _check_symmetric(w.data, "normalized_laplacian")
    n = w.shape[0]
    ones_col = ad.constant(np.ones((n, 1)))
    degrees = ad.matmul(w, ones_col)
    r = ad.rsqrt_clamped(degrees, eps)
    scaling = ad.matmul(r, ad.transpose(r))       # outer product d_i^-1/2 d_j^-1/2
    lap = ad.sub(ad.constant(np.eye(n)), ad.hadamard(scaling, w))
    return lap if is_tensor else lap.data


def heterophily_ratio(adjacency: np.ndarray, labels: np.ndarray,
                      edge_threshold: float = 0.0) -> float:
    """Fraction of above-threshold undirected edges joining distinct classes."""
    a = np.asarray(adjacency, dtype=np.float64)
    _check_symmetric(a, "heterophily_ratio")
    iu, ju = np.triu_indices(a.shape[0], k=1)
    on = a[iu, ju] > edge_threshold
    if not np.any(on):
        raise ContractError("heterophily_ratio: graph has no edges above threshold")
    y = np.argmax(labels, axis=1)
    return float(np.mean(y[iu[on]] != y[ju[on]]))


def symmetric_eig(m: np.ndarray) -> SpectralDecomposition:
    """LAPACK eigendecomposition (``np.linalg.eigh``) of a symmetric matrix.

    Raises NumericError on non-finite entries, which would otherwise come
    back as NaN eigenvalues, and when LAPACK fails to converge.
    """
    a = np.asarray(m, dtype=np.float64)
    if not np.isfinite(a).all():
        raise NumericError("symmetric_eig: matrix has NaN/Inf entries")
    _check_symmetric(a, "symmetric_eig")
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
    _check_symmetric(diff, "operator_distance")
    if not np.any(diff):
        return 0.0
    values = symmetric_eig(diff).eigenvalues
    return float(np.max(np.abs(values)))


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value; symmetric inputs take the single-eig path."""
    m = np.asarray(m, dtype=np.float64)
    if not np.any(m):
        return 0.0
    if m.shape[0] == m.shape[1] and np.max(np.abs(m - m.T)) <= SYMMETRY_TOL:
        values = symmetric_eig(m).eigenvalues
        return float(np.max(np.abs(values)))
    gram = m.T @ m
    gram = 0.5 * (gram + gram.T)
    values = symmetric_eig(gram).eigenvalues
    return float(np.sqrt(max(values.max(), 0.0)))


def _sign_normalize(vectors: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Flip eigenvector columns so the first non-negligible entry is positive."""
    out = vectors.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        nz = np.nonzero(np.abs(col) > tol)[0]
        if nz.size and col[nz[0]] < 0:
            out[:, k] = -col
    return out


def normalized_eigenvectors(m: np.ndarray) -> np.ndarray:
    """Eigenvector basis sorted by ascending eigenvalue, sign-normalized.

    Eigendecompositions are unique only up to column sign and ordering of
    repeated eigenvalues; this convention makes ||U - V||_2 well-defined.
    """
    return _sign_normalize(symmetric_eig(m).eigenvectors)


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
    _check_symmetric(l, "perturb_laplacian")
    n = l.shape[0]
    if magnitude == 0.0:
        e = np.zeros((n, n))
        v = np.eye(n)
    else:
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((n, n))
        e0 = 0.5 * (raw + raw.T)
        dec = symmetric_eig(e0)
        # rescaling by a positive constant keeps eigenvectors and their order
        e = e0 * (magnitude / float(np.max(np.abs(dec.eigenvalues))))
        v = _sign_normalize(dec.eigenvectors)
    u = l_eigenvectors if l_eigenvectors is not None else normalized_eigenvectors(l)
    delta = (spectral_norm(u - v) + 1.0) ** 2 - 1.0
    return l + e, e, delta

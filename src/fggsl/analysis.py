"""Empirical probes for the stability bounds plus reporting utilities:
cosine-similarity distributions, spectral-response tables, and audits of
learned edge masks.

The stability probe builds its filter matrices from an explicit
eigendecomposition (never from the training-time matrix-power path), so
it doubles as an independent oracle for the filter implementation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .autodiff import pair_cosines
from .errors import ContractError
from .graphs import (LabeledGraph, heterophily_ratio, normalized_eigenvectors,
                     normalized_laplacian, operator_distance, perturb_laplacian,
                     symmetric_eig)
from .model import kernel_value


@dataclass
class PairBoundRecord:
    lhs: float
    rhs: float
    holds: bool


def prop1_check(y: np.ndarray, yhat: np.ndarray, pairs) -> list[PairBoundRecord]:
    """Check |cos(y_i,y_j) - cos(yhat_i,yhat_j)| <= 2*sqrt(C)(eps_i + eps_j)
    per pair, where eps_i = ||y_i - yhat_i||_2.

    ``y`` must be one-hot; ``yhat`` rows are probability vectors.
    """
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    onehot_ok = np.all((y == 0) | (y == 1), axis=1) & (y.sum(axis=1) == 1)
    if not np.all(onehot_ok):
        bad = int(np.argmin(onehot_ok))
        raise ContractError(f"prop1_check: label row {bad} is not one-hot")
    c = y.shape[1]
    i_idx = np.asarray(pairs[0], dtype=np.intp).ravel()
    j_idx = np.asarray(pairs[1], dtype=np.intp).ravel()

    def row_cos(m):
        return pair_cosines(m, m, i_idx, j_idx, "prop1_check")[0]

    eps = np.linalg.norm(y - yhat, axis=1)
    lhs = np.abs(row_cos(y) - row_cos(yhat))
    rhs = 2.0 * np.sqrt(c) * (eps[i_idx] + eps[j_idx])
    return [PairBoundRecord(float(l), float(r), bool(l <= r + 1e-12))
            for l, r in zip(lhs, rhs)]


@dataclass
class BoundProbeRecord:
    epsilon: float
    observed_distance: float
    bound_value: float
    delta: float
    j: int
    holds_with_slack: bool


def spectral_filter_matrix(lap: np.ndarray, j: int, mode: str, kind: str) -> np.ndarray:
    """Dense h_j(L) = U h_j(Lambda) U^T via explicit eigendecomposition."""
    dec = symmetric_eig(lap)
    hvals = kernel_value(j, dec.eigenvalues, mode, kind)
    u = dec.eigenvectors
    return (u * hvals) @ u.T


def _as_laplacian(graph_or_l) -> np.ndarray:
    if isinstance(graph_or_l, LabeledGraph):
        return normalized_laplacian(graph_or_l.adjacency)
    return np.asarray(graph_or_l, dtype=np.float64)


def stability_probe(graph_or_l, j: int, mode: str, kind: str, epsilon_list,
                    trials: int, seed: int) -> list[BoundProbeRecord]:
    """Perturb a Laplacian and compare filter deviation against the bound
    2^(j-1) (1 + delta sqrt(N)) eps, with slack (1 + 10 eps) absorbing the
    second-order remainder.
    """
    lap = _as_laplacian(graph_or_l)
    n = lap.shape[0]
    records = []
    h_base = spectral_filter_matrix(lap, j, mode, kind)
    lap_basis = normalized_eigenvectors(lap)
    for eps in epsilon_list:
        if eps < 0:
            raise ContractError(f"stability_probe: negative epsilon {eps}")
        for trial in range(trials):
            l_hat, _, delta = perturb_laplacian(lap, eps, seed=seed * 10007 + trial,
                                                l_eigenvectors=lap_basis)
            h_pert = spectral_filter_matrix(l_hat, j, mode, kind)
            observed = operator_distance(h_base, h_pert)
            bound = 2.0 ** (j - 1) * (1.0 + delta * np.sqrt(n)) * eps
            holds = observed <= bound * (1.0 + 10.0 * eps) + 1e-12
            records.append(BoundProbeRecord(
                epsilon=float(eps), observed_distance=float(observed),
                bound_value=float(bound), delta=float(delta), j=j,
                holds_with_slack=bool(holds)))
    return records


def distance_slope(records: list[BoundProbeRecord]) -> float:
    """Least-squares slope of log(mean observed distance) against log(eps)."""
    by_eps: dict[float, list[float]] = {}
    for rec in records:
        if rec.epsilon > 0:
            by_eps.setdefault(rec.epsilon, []).append(rec.observed_distance)
    if len(by_eps) < 2:
        raise ContractError("distance_slope: need records at >= 2 positive epsilons")
    xs = np.log(np.array(sorted(by_eps)))
    ys = np.log(np.array([np.mean(by_eps[e]) for e in sorted(by_eps)]))
    return float(np.polyfit(xs, ys, 1)[0])


@dataclass
class SimilarityHistogram:
    bin_edges: np.ndarray
    intra_counts: np.ndarray
    inter_counts: np.ndarray
    intra_mean: float
    inter_mean: float
    n_intra: int
    n_inter: int
    sampling: str

    @property
    def mean_gap(self) -> float:
        return self.intra_mean - self.inter_mean


def similarity_histogram(vectors: np.ndarray, labels: np.ndarray,
                         max_pairs: int = 20000, bins: int = 50,
                         seed: int = 0) -> SimilarityHistogram:
    """Histogram cosine similarity of same-class vs different-class row pairs.

    Enumerates all pairs when a group is small enough, otherwise samples
    ``max_pairs`` pairs uniformly.  Classes with fewer than two members
    are skipped with a warning.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    y = np.argmax(labels, axis=1)
    rng = np.random.default_rng(seed)
    classes, counts = np.unique(y, return_counts=True)
    for c, cnt in zip(classes, counts):
        if cnt < 2:
            warnings.warn(f"similarity_histogram: class {int(c)} has {int(cnt)} "
                          "member(s); no intra-class pairs", stacklevel=2)
    keep = np.isin(y, classes[counts >= 2])

    n = vectors.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    same = y[iu] == y[ju]
    intra_mask = same & keep[iu]
    intra_i, intra_j = iu[intra_mask], ju[intra_mask]
    inter_i, inter_j = iu[~same], ju[~same]

    sampling = "exhaustive"
    if intra_i.size > max_pairs:
        pick = rng.choice(intra_i.size, size=max_pairs, replace=False)
        intra_i, intra_j = intra_i[pick], intra_j[pick]
        sampling = f"sampled:{max_pairs}"
    if inter_i.size > max_pairs:
        pick = rng.choice(inter_i.size, size=max_pairs, replace=False)
        inter_i, inter_j = inter_i[pick], inter_j[pick]
        sampling = f"sampled:{max_pairs}"

    def cosines(i, j):
        if not i.size:
            return np.array([])
        # tolerate 1-ulp overshoot from rounding
        return np.clip(pair_cosines(vectors, vectors, i, j, "similarity_histogram")[0],
                       -1.0, 1.0)

    edges = np.linspace(-1.0, 1.0, bins + 1)
    intra_cos = cosines(intra_i, intra_j)
    inter_cos = cosines(inter_i, inter_j)
    return SimilarityHistogram(
        bin_edges=edges,
        intra_counts=np.histogram(intra_cos, bins=edges)[0],
        inter_counts=np.histogram(inter_cos, bins=edges)[0],
        intra_mean=float(np.mean(intra_cos)) if intra_cos.size else float("nan"),
        inter_mean=float(np.mean(inter_cos)) if inter_cos.size else float("nan"),
        n_intra=int(intra_cos.size), n_inter=int(inter_cos.size),
        sampling=sampling)


def spectral_response_export(j_max: int, mode: str, grid_points: int = 200):
    """Tabulate every kernel over a frequency grid: rows (lam, j, kind, value)."""
    lam = np.linspace(0.0, 2.0, grid_points)
    rows = []
    for kind in ("low", "high"):
        for j in range(2, j_max + 1):
            values = kernel_value(j, lam, mode, kind)
            rows.extend((float(l), j, kind, float(v)) for l, v in zip(lam, values))
    return rows


@dataclass
class EdgeAuditStats:
    threshold: float
    ho_edges: int | None
    ho_r_het: float | None
    ht_edges: int | None
    ht_r_het: float | None


def learned_edge_audit(w1, w2, labels: np.ndarray,
                       threshold: float = 0.5) -> EdgeAuditStats:
    """Binarize each learned mask and report edge counts and heterophily.

    A mask that keeps no edge above threshold is reported with zero edges
    and no ratio rather than raising.
    """
    def audit_one(w):
        if w is None:
            return None, None
        binary = (np.asarray(w) > threshold).astype(np.float64)
        np.fill_diagonal(binary, 0.0)
        iu, ju = np.triu_indices(binary.shape[0], k=1)
        edges = int(np.sum(binary[iu, ju] > 0))
        if edges == 0:
            return 0, None
        return edges, heterophily_ratio(binary, labels)

    ho_edges, ho_r = audit_one(w1)
    ht_edges, ht_r = audit_one(w2)
    return EdgeAuditStats(threshold=threshold, ho_edges=ho_edges, ho_r_het=ho_r,
                          ht_edges=ht_edges, ht_r_het=ht_r)

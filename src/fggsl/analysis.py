"""Empirical probes for the stability bounds plus reporting utilities:
cosine-similarity distributions, spectral-response tables, and audits of
learned edge masks.

The stability probe builds its filter matrices from an explicit
eigendecomposition (never from the repeated products with T that
``model.filter_bank_apply`` and training use), so it doubles as an
independent oracle for the filter implementation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ContractError
from .graphs import (SpectralDecomposition, edge_pairs, heterophilic_fraction,
                     misalignment, operator_distance, perturb_laplacian,
                     perturbation_direction, symmetric_eig)
from .model import BANK_KINDS, kernel_value


@dataclass
class PairBoundRecord:
    lhs: float
    rhs: float
    holds: bool


def _cosines(m: np.ndarray, pairs, what: str) -> np.ndarray:
    """cos(m_i, m_j) per pair (i, j), by the pair layer of ``autodiff``."""
    unit = ad.unit_rows(ad.constant(m), pairs, what)
    return ad.pair_dots(unit, pairs).data[:, 0]


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
    pairs = (i_idx, j_idx)
    eps = np.linalg.norm(y - yhat, axis=1)
    lhs = np.abs(_cosines(y, pairs, "prop1_check") - _cosines(yhat, pairs, "prop1_check"))
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


def _filter_matrix(dec: SpectralDecomposition, j: int, mode: str, kind: str) -> np.ndarray:
    hvals = kernel_value(j, dec.eigenvalues, mode, kind)
    u = dec.eigenvectors
    return (u * hvals) @ u.T


def spectral_filter_matrix(lap: np.ndarray, j: int, mode: str, kind: str) -> np.ndarray:
    """Dense h_j(L) = U h_j(Lambda) U^T via explicit eigendecomposition."""
    return _filter_matrix(symmetric_eig(lap), j, mode, kind)


def stability_probe(lap, j: int, mode: str, kind: str, epsilon_list,
                    trials: int, seed: int) -> list[BoundProbeRecord]:
    """Perturb the Laplacian ``lap`` and compare filter deviation against
    the bound 2^(j-1) (1 + delta sqrt(N)) eps, with slack (1 + 10 eps)
    absorbing the second-order remainder.

    Records run over epsilons, then trials.  ``lap`` is decomposed once,
    each trial's direction (``perturbation_direction``) and its delta once
    for all positive epsilons, and epsilon 0 (where the direction is 0 and
    its basis I) once for all trials.
    """
    lap = np.asarray(lap, dtype=np.float64)
    for eps in epsilon_list:
        if not (np.isfinite(eps) and eps >= 0):
            raise ContractError(f"stability_probe: epsilon {eps} is not a finite number >= 0")
    n = lap.shape[0]
    dec = symmetric_eig(lap)
    h_base = _filter_matrix(dec, j, mode, kind)
    lap_basis = dec.normalized_vectors()

    def record(eps, l_hat, delta):
        observed = operator_distance(h_base, spectral_filter_matrix(l_hat, j, mode, kind))
        bound = 2.0 ** (j - 1) * (1.0 + delta * np.sqrt(n)) * eps
        holds = observed <= bound * (1.0 + 10.0 * eps) + 1e-12
        return BoundProbeRecord(
            epsilon=float(eps), observed_distance=float(observed),
            bound_value=float(bound), delta=float(delta), j=j,
            holds_with_slack=bool(holds))

    at_zero = {}                     # epsilon index -> its record, one for all trials
    for k, eps in enumerate(epsilon_list):
        if eps == 0:
            l_hat, _, delta = perturb_laplacian(lap, 0.0, seed, l_eigenvectors=lap_basis)
            at_zero[k] = record(eps, l_hat, delta)
    per_trial = []
    for trial in range(trials):
        if len(at_zero) < len(epsilon_list):
            e0, norm, v = perturbation_direction(n, seed * 10007 + trial)
            delta = misalignment(lap_basis, v)
        per_trial.append([at_zero[k] if k in at_zero
                          else record(eps, lap + e0 * (eps / norm), delta)
                          for k, eps in enumerate(epsilon_list)])
    return [recs[k] for k in range(len(epsilon_list)) for recs in per_trial]


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
    are skipped with a warning.  The cosines come from the pair layer,
    which reads the Gram matrix of the unit rows one row block of about
    1 MiB at a time, so they take O(n d) memory and one block beyond the
    pair lists.  The lists start from all n (n - 1) / 2 pairs, so the
    function as a whole takes O(n d + n^2).
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
    sampling = "exhaustive"
    groups = []                          # (i, j) of the intra, then the inter pairs
    for member in (same & keep[iu], ~same):
        i, j = iu[member], ju[member]
        if i.size > max_pairs:
            pick = rng.choice(i.size, size=max_pairs, replace=False)
            i, j = i[pick], j[pick]
            sampling = f"sampled:{max_pairs}"
        groups.append((i, j))

    # intra pairs first, so a zero-norm row is named as when they were
    # checked before the inter pairs; clip a 1-ulp overshoot from rounding
    pairs = tuple(np.concatenate(side) for side in zip(*groups))
    cos = np.clip(_cosines(vectors, pairs, "similarity_histogram"), -1.0, 1.0)
    n_intra = groups[0][0].size
    intra_cos, inter_cos = cos[:n_intra], cos[n_intra:]

    edges = np.linspace(-1.0, 1.0, bins + 1)
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
    for kind in BANK_KINDS:
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


def learned_edge_audit(w1, w2, labels: np.ndarray, threshold: float = 0.5,
                       pairs=None) -> EdgeAuditStats:
    """Binarize each learned mask and report edge counts and heterophily.

    With ``pairs`` (i, j), each mask is an edge column over those pairs,
    each undirected edge once; without, it is a dense symmetric n x n
    matrix, read on its upper triangle.  The threshold must lie in
    [0, 1], so a weight of zero is never kept and both forms count the
    same edges.  A mask that keeps no edge above threshold is reported
    with zero edges and no ratio rather than raising.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ContractError(f"learned_edge_audit: threshold {threshold} is not in [0, 1]")

    def audit_one(w):
        if w is None:
            return None, None
        w = np.asarray(w, dtype=np.float64)
        if pairs is None:
            kept = edge_pairs(w, threshold)
        else:
            keep = w.ravel() > threshold
            kept = pairs[0][keep], pairs[1][keep]
        edges = int(kept[0].size)
        if edges == 0:
            return 0, None
        return edges, heterophilic_fraction(labels, kept)

    ho_edges, ho_r = audit_one(w1)
    ht_edges, ht_r = audit_one(w2)
    return EdgeAuditStats(threshold=threshold, ho_edges=ho_edges, ho_r_het=ho_r,
                          ht_edges=ht_edges, ht_r_het=ht_r)

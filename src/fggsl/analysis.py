"""Empirical probes for the stability bounds plus reporting utilities:
cosine-similarity distributions, spectral-response tables, and audits of
learned edge masks.

The stability probe builds its filter matrices from an explicit
eigendecomposition (never from the repeated products with T that
``model.filter_bank_apply`` and training use), so it doubles as an
independent oracle for the filter implementation.

``stability_table`` probes every kernel (j, kind) of a bank set against
one set of perturbations, and ``stability_probe`` is its one-kernel case.
How the probe perturbs L and measures delta is decided here alone: each
trial's Gaussian direction, the eigenvector sign convention, and delta.
The kernels share every decomposition: L's, each trial's direction with
its delta, and each (eps > 0, trial) perturbed Laplacian's.  Only the
spectral norm of each kernel's difference is its own, and it is read from
eigenvalues alone.  With K kernels, T trials and E+ positive epsilons a
table makes 1 + T + E+ T decompositions with vectors, K E+ T values-only
ones and T SVDs (one more for an epsilon 0), where one probe per kernel
would make K (1 + T + 2 E+ T) decompositions and K T SVDs.

``embedding_similarity`` histograms the cosines of a trained model's
embedding.  Those read the features X only through X X^T, so where X is
at least twice as wide as the graph has nodes it runs the banks on the
n x n factor of X X^T (``_gram_factor``), n columns per kernel in place
of F, and never builds the n x ``embedding_width()`` embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ContractError, NumericError
from .datasets import CandidateGraph
from .graphs import (EdgeList, LabeledGraph, SpectralDecomposition, heterophilic_fraction,
                     operator_distance, symmetric_eig)
from .model import BANK_KINDS, FgGSLModel, FilterBankSpec, embedding, kernel_value


@dataclass
class PairBoundRecord:
    lhs: float            # |cos(y_i, y_j) - cos(yhat_i, yhat_j)|
    rhs: float            # the paper's bound 2 sqrt(C) (eps_i + eps_j)
    holds: bool           # lhs <= rhs, within 1e-12
    proved_rhs: float     # the bound 2 (eps_i + eps_j) that ``prop1_check`` derives


def _cosines(m: np.ndarray, index: ad.PairIndex, what: str) -> np.ndarray:
    """cos(m_i, m_j) per pair (i, j) of ``index``, by the pair layer of
    ``autodiff``."""
    return ad.pair_dots(ad.unit_rows(ad.constant(m), index, what), index).data[:, 0]


def prop1_check(y: np.ndarray, yhat: np.ndarray, pairs) -> list[PairBoundRecord]:
    """Check |cos(y_i,y_j) - cos(yhat_i,yhat_j)| <= 2*sqrt(C)(eps_i + eps_j)
    per pair, where eps_i = ||y_i - yhat_i||_2.

    ``y`` must be one-hot; ``yhat`` rows are probability vectors.  Each
    record also carries ``proved_rhs`` = 2 (eps_i + eps_j), which holds for
    any nonzero rows of ``yhat``.  With u = yhat / ||yhat||, y_i is a unit
    vector, so by Cauchy-Schwarz

        |y_i . y_j - u_i . u_j| = |y_i . (y_j - u_j) + (y_i - u_i) . u_j|
                                <= ||y_j - u_j|| + ||y_i - u_i||,

    and ||y - u|| <= ||y - yhat|| + ||yhat - u|| = eps + | ||yhat|| - 1 |
    <= 2 eps, since | ||yhat|| - ||y|| | <= ||yhat - y|| and ||y|| = 1.
    It is 2 sqrt(C) with the sqrt(C) dropped.  Off the simplex it is
    approached: lhs / (eps_i + eps_j) = 2 / (1 + d) for yhat_i = -d y_i
    and yhat_j = y_j = y_i.  On probability rows the worst ratio measured
    was 1, reached at yhat_i halfway between y_i and y_j = yhat_j.
    """
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    onehot_ok = np.all((y == 0) | (y == 1), axis=1) & (y.sum(axis=1) == 1)
    if not np.all(onehot_ok):
        bad = int(np.argmin(onehot_ok))
        raise ContractError(f"prop1_check: label row {bad} is not one-hot")
    c = y.shape[1]
    index = ad.PairIndex(*pairs, y.shape[0])
    eps = np.linalg.norm(y - yhat, axis=1)
    lhs = np.abs(_cosines(y, index, "prop1_check") - _cosines(yhat, index, "prop1_check"))
    pair_eps = eps[index.i] + eps[index.j]
    rhs = 2.0 * np.sqrt(c) * pair_eps
    return [PairBoundRecord(float(l), float(r), bool(l <= r + 1e-12), float(2.0 * e))
            for l, r, e in zip(lhs, rhs, pair_eps)]


@dataclass
class BoundProbeRecord:
    epsilon: float
    observed_distance: float
    bound_value: float
    delta: float
    j: int
    holds_with_slack: bool


def _filter_matrix(dec: SpectralDecomposition, j: int, mode: str, kind: str) -> np.ndarray:
    """U h_j(Lambda) U^T with its lower triangle copied onto the upper one,
    in blocks of 128 rows so that no n x n temporary is made.  Where h_j is
    large, rounding would leave the product too asymmetric for
    ``operator_distance``; LAPACK reads the lower triangle alone, so the
    copy moves no distance."""
    hvals = kernel_value(j, dec.eigenvalues, mode, kind)
    u = dec.eigenvectors
    h = (u * hvals) @ u.T
    for lo in range(0, len(h), 128):
        hi = lo + 128
        h[lo:hi, hi:] = h[hi:, lo:hi].T
        block = h[lo:hi, lo:hi]
        np.copyto(block, block.T, where=~np.tri(len(block), dtype=bool))
    return h


def spectral_filter_matrix(lap: np.ndarray, j: int, mode: str, kind: str) -> np.ndarray:
    """Dense h_j(L) = U h_j(Lambda) U^T via explicit eigendecomposition,
    exactly symmetric."""
    return _filter_matrix(symmetric_eig(lap), j, mode, kind)


SIGN_TOL = 1e-12        # an entry this small does not fix a column's sign


def _sign_normalize(vectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns so the first entry above ``SIGN_TOL`` in
    magnitude is positive, which makes ||U - V||_2 well defined."""
    big = np.abs(vectors) > SIGN_TOL
    first = np.argmax(big, axis=0)                # row 0 where a column has none
    cols = np.arange(vectors.shape[1])
    flip = big[first, cols] & (vectors[first, cols] < 0)
    out = vectors.copy()
    np.negative(out, out=out, where=flip)
    return out


def _perturbation_direction(n: int, seed: int) -> tuple[np.ndarray, float, np.ndarray]:
    """The random symmetric n x n direction e0 that ``seed`` draws, its
    spectral norm, and its sign-normalized eigenvectors."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, n))
    e0 = 0.5 * (raw + raw.T)
    dec = symmetric_eig(e0)
    return e0, float(np.max(np.abs(dec.eigenvalues))), _sign_normalize(dec.eigenvectors)


def _misalignment(u: np.ndarray, v: np.ndarray) -> float:
    """delta = (||U - V||_2 + 1)^2 - 1 between two sign-normalized bases."""
    return (np.linalg.norm(u - v, 2) + 1.0) ** 2 - 1.0


def stability_table(lap, scales, mode: str, kinds, epsilon_list, trials: int,
                    seed: int) -> dict[tuple[int, str], list[BoundProbeRecord]]:
    """Perturb the Laplacian ``lap`` and compare each kernel's filter
    deviation ||h_j(L) - h_j(L + E)||_2 against the bound
    2^(j-1) (1 + delta sqrt(N)) eps, with slack (1 + 10 eps) absorbing the
    second-order remainder.

    Returns one record list per kernel (j, kind), j in ``scales`` outer and
    kind in ``kinds`` inner; each list runs over epsilons, then trials, as
    ``stability_probe``'s does.  Trial t perturbs along the direction that
    seed ``seed * 10007 + t`` draws, rescaled to spectral norm eps.

    Every kernel shares the decompositions.  With K kernels, T trials and
    E+ positive epsilons the table makes
    - 1 + T + E+ T eigendecompositions with vectors: L once, each trial's
      direction once (none when E+ = 0), and each (eps > 0, trial)
      perturbed Laplacian once;
    - at most K E+ T values-only ones, for the spectral norm of each
      difference (``operator_distance``);
    - T 2-norm SVDs for the trials' deltas, plus one shared by every
      epsilon 0 entry, where L + 0 E is L itself, each distance is exactly
      0 and the direction's basis is I.
    Live memory does not grow with K or T: each h_j(L) is rebuilt from L's
    eigenpairs for the one comparison that reads it.
    A large eps pushes the spectrum out of [0, 2], where h_j grows as
    t^(2^j); a distance that overflows raises a NumericError naming the
    epsilon and the trial.
    """
    lap = np.asarray(lap, dtype=np.float64)
    for eps in epsilon_list:
        if not (np.isfinite(eps) and eps >= 0):
            raise ContractError(
                f"stability_table: epsilon {eps} is not a finite number >= 0")
    n = lap.shape[0]
    kernels = [(j, kind) for j in scales for kind in kinds]
    dec = symmetric_eig(lap)
    lap_basis = _sign_normalize(dec.eigenvectors)

    def distances(dec_hat):
        return [operator_distance(_filter_matrix(dec, j, mode, kind),
                                  _filter_matrix(dec_hat, j, mode, kind))
                for j, kind in kernels]

    def records(eps, observed, delta):
        out = []
        for (j, _), distance in zip(kernels, observed):
            bound = 2.0 ** (j - 1) * (1.0 + delta * np.sqrt(n)) * eps
            out.append(BoundProbeRecord(
                epsilon=float(eps), observed_distance=float(distance),
                bound_value=float(bound), delta=float(delta), j=j,
                holds_with_slack=bool(distance <= bound * (1.0 + 10.0 * eps) + 1e-12)))
        return out

    if any(eps == 0 for eps in epsilon_list):
        zero_delta = _misalignment(lap_basis, np.eye(n))
    drawn = any(eps != 0 for eps in epsilon_list)
    grid = {}                        # (epsilon index, trial) -> one record per kernel
    for trial in range(trials):
        if drawn:
            e0, norm, v = _perturbation_direction(n, seed * 10007 + trial)
            delta = _misalignment(lap_basis, v)
            del v                    # not read again; keeps one n x n array off the peak
        for k, eps in enumerate(epsilon_list):
            if eps == 0:
                grid[k, trial] = records(eps, [0.0] * len(kernels), zero_delta)
                continue
            try:
                with np.errstate(over="raise", invalid="raise"):
                    observed = distances(symmetric_eig(lap + e0 * (eps / norm)))
                    grid[k, trial] = records(eps, observed, delta)
            except (NumericError, FloatingPointError) as exc:
                raise NumericError(f"stability_table: epsilon {eps:g}, "
                                   f"trial {trial}: {exc}") from exc
    return {kernel: [grid[k, t][i] for k in range(len(epsilon_list)) for t in range(trials)]
            for i, kernel in enumerate(kernels)}


def stability_probe(lap, j: int, mode: str, kind: str, epsilon_list,
                    trials: int, seed: int) -> list[BoundProbeRecord]:
    """``stability_table`` for the one kernel (j, kind): its records over
    epsilons, then trials, from 1 + T + E+ T decompositions with vectors,
    at most E+ T values-only ones and T 2-norm SVDs (plus one for any
    epsilon 0)."""
    return stability_table(lap, [j], mode, [kind], epsilon_list, trials, seed)[j, kind]


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
    skipped_classes: tuple[int, ...]     # classes of one node: no intra-class pair

    @property
    def mean_gap(self) -> float:
        return self.intra_mean - self.inter_mean


def similarity_histogram(vectors: np.ndarray, labels: np.ndarray,
                         max_pairs: int = 20000, bins: int = 50,
                         seed: int = 0) -> SimilarityHistogram:
    """Histogram cosine similarity of same-class vs different-class row pairs.

    Enumerates all pairs when a group is small enough, otherwise samples
    ``max_pairs`` pairs uniformly.  A class of one node has no
    intra-class pair; such classes are listed in ``skipped_classes``.
    The cosines come from the pair layer, which reads the Gram matrix of
    the unit rows one row block of about 1 MiB at a time, so they take
    O(n d) memory and one block beyond the pair lists.  The lists start
    from all n (n - 1) / 2 pairs, so the function as a whole takes
    O(n d + n^2).  For a model's embedding on wide features,
    ``embedding_similarity`` passes rows of n columns per kernel, filtered
    from the n x n factor of X X^T, in place of F per kernel.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    y = np.argmax(labels, axis=1)
    rng = np.random.default_rng(seed)
    classes, counts = np.unique(y, return_counts=True)

    n = vectors.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    same = y[iu] == y[ju]
    sampling = "exhaustive"
    groups = []                          # (i, j) of the intra, then the inter pairs
    for member in (same, ~same):
        i, j = iu[member], ju[member]
        if i.size > max_pairs:
            pick = rng.choice(i.size, size=max_pairs, replace=False)
            i, j = i[pick], j[pick]
            sampling = f"sampled:{max_pairs}"
        groups.append((i, j))

    # intra pairs first, so a zero-norm row is named as when they were
    # checked before the inter pairs; clip a 1-ulp overshoot from rounding
    index = ad.PairIndex(*(np.concatenate(side) for side in zip(*groups)), n)
    cos = np.clip(_cosines(vectors, index, "similarity_histogram"), -1.0, 1.0)
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
        sampling=sampling, skipped_classes=tuple(int(c) for c in classes[counts < 2]))


def _gram_factor(x: np.ndarray) -> np.ndarray:
    """An n x n L = V sqrt(Lambda) with L L^T = Xs Xs^T, from the
    eigendecomposition of the Gram matrix of Xs = X / max|X|.

    The rescale keeps every Gram entry at most F, so no feature scale
    overflows it; a negative eigenvalue from rounding counts as zero.  A
    zero row of X gives an exactly zero row of L, so a row that is zero in
    the embedding of X is zero in that of L, and a cosine that would read
    it raises as it does on X.
    """
    top = np.max(np.abs(x), initial=0.0)
    xs = x / top if top > 0 else x
    dec = symmetric_eig(xs @ xs.T)
    factor = dec.eigenvectors * np.sqrt(np.maximum(dec.eigenvalues, 0.0))
    factor[~x.any(axis=1)] = 0.0
    return factor


def embedding_similarity(model: FgGSLModel, graph: LabeledGraph, a_f: CandidateGraph,
                         max_pairs: int = 20000, bins: int = 50,
                         seed: int = 0) -> SimilarityHistogram:
    """``similarity_histogram`` of the rows of ``model.embedding`` on
    ``graph``'s features over the candidate ``a_f``.

    Kernel k of a bank maps X to H_k X, so the embedding E = [H_k X]_k has
    E E^T = sum_k H_k X X^T H_k^T, and its cosines read X only through
    X X^T.  Where the features are at least twice as wide as the graph
    has nodes (F >= 2n, as on WebKB), the banks filter the n x n factor L
    of X X^T (``_gram_factor``) instead of X: each propagation is n
    columns wide, not F, and the n x ``embedding_width()`` matrix is never
    built.  Otherwise they filter X, and the result is bitwise that of
    ``similarity_histogram(embedding(model, X, a_f).data, ...)``.

    Milliseconds for the embedding and its histogram, filtering X and
    filtering L, both in the chain order, for the ``full`` variant on the
    ``full`` candidate at the histogram's defaults (medians of seven, or
    three at n F > 5e5, one BLAS thread on the host of ``autodiff._step``'s
    table, ``webkb_standin`` features on five classes); in every row the
    counts were equal and the means agreed within 4e-17:

        n x F          J      X      L
        300 x 300      4     63.9   73.7
        300 x 450      4     84.2   71.2
        300 x 600      4    111.9   85.5
        300 x 900      4    156.3   68.7
        600 x 1200     4    701.5  441.8
        183 x 1703     4    111.2   22.4    (Texas's shape)
        100 x 1703     3     23.8    5.6    (``analyze-probe``'s)

    So L loses at F = n, where the Gram matrix and its eigendecomposition
    cost more than the narrower steps save, and pays from F = 2n on.  The
    crossover rises as J falls, so the rule stays F >= 2n: at J = 4 L
    already paid from about 1.5 n, at J = 3 the two tied at 1.75 n on
    n = 100, and at J = 2 X was still the faster at 2 n (13.7 against
    14.3 ms at n = 183, 3.4 against 4.7 ms at n = 100).
    """
    x = graph.features
    features = ad.constant(x)
    block = features
    if x.shape[1] >= 2 * x.shape[0]:
        block = ad.constant(_gram_factor(x))
    with ad.no_grad():
        vectors = embedding(model, features, a_f, block).data
    return similarity_histogram(vectors, graph.labels, max_pairs=max_pairs, bins=bins,
                                seed=seed)


def spectral_response_export(j_max: int, mode: str, grid_points: int = 200):
    """Tabulate every kernel over a frequency grid: rows (lam, j, kind, value)."""
    lam = np.linspace(0.0, 2.0, grid_points)
    rows = []
    for kind in BANK_KINDS:
        for j in FilterBankSpec(j_max, mode, kind).scales():
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

    With ``pairs`` (i, j), each mask is an edge column of one weight per
    pair (a ContractError otherwise), each undirected edge once; without,
    it is a dense symmetric n x n matrix, read by
    ``EdgeList.from_dense(w > threshold)``.  The threshold must lie in
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
            kept = EdgeList.from_dense(w > threshold).pairs
        elif w.size != pairs[0].size:
            raise ContractError(f"learned_edge_audit: {w.size} weights for {pairs[0].size} pairs")
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

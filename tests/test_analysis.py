import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fggsl import analysis, datasets, graphs, model
from fggsl import autodiff as ad
from fggsl.errors import ContractError
from fggsl.graphs import normalized_laplacian


def _random_probs(rng, n, c):
    z = rng.standard_normal((n, c)) * rng.uniform(0.5, 4.0)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# prop1_check


def test_prop1_exact_predictions():
    y = np.eye(3)[[0, 1, 2, 0]]
    recs = analysis.prop1_check(y, y.copy(), ([0, 1], [2, 3]))
    for rec in recs:
        assert rec.lhs == 0.0
        assert rec.rhs == 0.0
        assert rec.holds


def test_prop1_hand_computed_pair():
    # y_i=(1,0), yhat_i=(0.9,0.1), y_j=yhat_j=(0,1):
    # eps_i = sqrt(0.02), rhs = 2*sqrt(2)*eps_i = 0.4
    # lhs = |0 - 0.1/sqrt(0.82)| = 0.110432
    y = np.array([[1.0, 0.0], [0.0, 1.0]])
    yhat = np.array([[0.9, 0.1], [0.0, 1.0]])
    (rec,) = analysis.prop1_check(y, yhat, ([0], [1]))
    assert rec.rhs == pytest.approx(0.4, abs=1e-9)
    assert rec.lhs == pytest.approx(0.1 / np.sqrt(0.82), abs=1e-9)
    assert rec.holds


def test_prop1_randomized_sweep_no_violations():
    rng = np.random.default_rng(0)
    for c in range(2, 9):
        n = 60
        y = np.eye(c)[rng.integers(0, c, size=n)]
        yhat = _random_probs(rng, n, c)
        i_idx = rng.integers(0, n, size=500)
        j_idx = rng.integers(0, n, size=500)
        recs = analysis.prop1_check(y, yhat, (i_idx, j_idx))
        assert all(rec.holds for rec in recs)


def test_prop1_memory_follows_the_pairs_not_n_squared():
    # 10 pairs at n = 3000: the pair layer computes only the row blocks
    # that hold a pair, about 1 MiB each; one n x n Gram matrix is 68.7 MiB
    rng = np.random.default_rng(1)
    n = 3000
    y = np.eye(3)[rng.integers(0, 3, size=n)]
    yhat = _random_probs(rng, n, 3)
    pairs = (rng.integers(0, n, size=10), rng.integers(0, n, size=10))
    tracemalloc.start()
    try:
        recs = analysis.prop1_check(y, yhat, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(recs) == 10 and all(rec.holds for rec in recs)
    assert peak < 4 * 2 ** 20


def test_prop1_zero_norm_prediction_names_row():
    y = np.eye(2)[[0, 1, 0]]
    yhat = np.array([[0.9, 0.1], [0.0, 0.0], [0.5, 0.5]])
    with pytest.raises(ContractError, match=r"^prop1_check: zero-norm row 1$"):
        analysis.prop1_check(y, yhat, ([0, 2], [1, 1]))


def test_prop1_builds_one_pair_index_per_call(monkeypatch):
    # both cosine columns and the eps gathers read one index of the pairs
    built, init = [], ad.PairIndex.__init__

    def counted_init(self, *args):
        built.append(args[2])
        init(self, *args)

    monkeypatch.setattr(ad.PairIndex, "__init__", counted_init)
    rng = np.random.default_rng(3)
    y = np.eye(3)[rng.integers(0, 3, size=8)]
    for _ in range(3):
        recs = analysis.prop1_check(y, _random_probs(rng, 8, 3),
                                    (rng.integers(0, 8, size=5), rng.integers(0, 8, size=5)))
        assert len(recs) == 5
    assert built == [8] * 3


def test_prop1_rejects_non_one_hot():
    y = np.array([[1.0, 0.0], [0.4, 0.6]])
    with pytest.raises(ContractError, match="row 1"):
        analysis.prop1_check(y, y, ([0], [1]))


# ---------------------------------------------------------------------------
# stability_probe


def _laplacian(seed, n=12):
    rng = np.random.default_rng(seed)
    a = np.triu((rng.random((n, n)) < 0.4).astype(float), 1)
    a = a + a.T
    return normalized_laplacian(a)


def test_stability_zero_epsilon_zero_distance():
    recs = analysis.stability_probe(_laplacian(1), j=2, mode="fig3", kind="low",
                                    epsilon_list=[0.0], trials=2, seed=0)
    for rec in recs:
        assert rec.observed_distance == 0.0
        assert rec.holds_with_slack


def test_stability_bound_holds_on_small_sweep():
    recs = analysis.stability_probe(_laplacian(2), j=3, mode="fig3", kind="high",
                                    epsilon_list=[1e-3, 1e-2], trials=5, seed=1)
    assert all(rec.holds_with_slack for rec in recs)


def test_stability_slope_near_linear():
    recs = analysis.stability_probe(_laplacian(3), j=2, mode="fig3", kind="low",
                                    epsilon_list=[1e-3, 1e-2], trials=5, seed=2)
    assert analysis.distance_slope(recs) >= 0.9


def test_stability_rejects_negative_epsilon():
    with pytest.raises(ContractError):
        analysis.stability_probe(_laplacian(4), 2, "fig3", "low", [-1e-3], 1, 0)


@pytest.mark.parametrize("epsilons", [[np.nan], [np.inf], [1e-2, np.nan], [-np.inf]],
                         ids=["nan", "inf", "nan-in-list", "minus-inf"])
def test_stability_rejects_a_non_finite_epsilon(epsilons):
    with pytest.raises(ContractError, match="epsilon"):
        analysis.stability_probe(_laplacian(4), 2, "fig3", "low", epsilons, 1, 0)


def _sign_normalize_per_column(vectors):
    out = vectors.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        nz = np.nonzero(np.abs(col) > analysis.SIGN_TOL)[0]
        if nz.size and col[nz[0]] < 0:
            out[:, k] = -col
    return out


def test_sign_normalize_is_bitwise_the_per_column_loop():
    rng = np.random.default_rng(11)
    v = rng.standard_normal((9, 40))
    v[rng.random(v.shape) < 0.5] *= 1e-13          # below SIGN_TOL
    v[rng.random(v.shape) < 0.2] = 0.0
    v[rng.random(v.shape) < 0.1] = -0.0
    v[:, :3] = [-1e-13, 0.0, -0.0]                  # columns with no entry above SIGN_TOL
    for m in (v, graphs.symmetric_eig(_laplacian(11, n=30)).eigenvectors):
        expected = _sign_normalize_per_column(m)
        assert analysis._sign_normalize(m).tobytes() == expected.tobytes()


def _reference_probe(lap, j, mode, kind, epsilons, trials, seed):
    """The probe, one (epsilon, trial) at a time, with its own draw: trial
    t's direction comes from seed ``seed * 10007 + t``, is decomposed by
    ``np.linalg.eigh`` and rescaled to spectral norm epsilon.  An epsilon
    of 0 leaves L as it is, and its direction's basis is I."""
    n = lap.shape[0]
    h_base = analysis.spectral_filter_matrix(lap, j, mode, kind)
    basis = _sign_normalize_per_column(np.linalg.eigh(lap)[1])
    records = []
    for eps in epsilons:
        for trial in range(trials):
            raw = np.random.default_rng(seed * 10007 + trial).standard_normal((n, n))
            e0 = 0.5 * (raw + raw.T)
            values, vectors = np.linalg.eigh(e0)
            if eps == 0:
                l_hat, v = lap, np.eye(n)
            else:
                l_hat = lap + e0 * (eps / np.max(np.abs(values)))
                v = _sign_normalize_per_column(vectors)
            delta = (np.linalg.norm(basis - v, 2) + 1.0) ** 2 - 1.0
            observed = graphs.operator_distance(
                h_base, analysis.spectral_filter_matrix(l_hat, j, mode, kind))
            bound = 2.0 ** (j - 1) * (1.0 + delta * np.sqrt(n)) * eps
            records.append(analysis.BoundProbeRecord(
                epsilon=float(eps), observed_distance=float(observed),
                bound_value=float(bound), delta=float(delta), j=j,
                holds_with_slack=bool(observed <= bound * (1.0 + 10.0 * eps) + 1e-12)))
    return records


def _count_decompositions(monkeypatch):
    """Count ``symmetric_eig`` calls with vectors and values-only, and
    2-norm SVDs, from here on."""
    counts = {"vectors": 0, "values": 0, "svd": 0}
    eig, norm = graphs.symmetric_eig, np.linalg.norm

    def counted_eig(m, vectors=True):
        counts["vectors" if vectors else "values"] += 1
        return eig(m, vectors)

    def counted_norm(x, ord=None, **kw):
        counts["svd"] += ord == 2
        return norm(x, ord, **kw)

    monkeypatch.setattr(graphs, "symmetric_eig", counted_eig)
    monkeypatch.setattr(analysis, "symmetric_eig", counted_eig)
    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    return counts


def _expected_counts(kernels, epsilons, trials):
    """1 + T + E+ T decompositions with vectors (no direction when E+ = 0),
    K E+ T values-only ones, and T SVDs plus one for any epsilon 0."""
    e_pos = sum(eps > 0 for eps in epsilons)
    drawn = trials if e_pos else 0
    return {"vectors": 1 + drawn + e_pos * trials, "values": kernels * e_pos * trials,
            "svd": drawn + any(eps == 0 for eps in epsilons)}


# max_eigs and max_svds: the decompositions of both kinds together and the
# SVDs that the probe made when each epsilon decomposed its own perturbed
# Laplacian twice (once for the filter, once for the distance's norm)
@pytest.mark.parametrize("epsilons,trials,max_eigs,max_svds", [
    ([1e-3, 1e-2], 1, 6, 1),           # the reference makes 8 and 2
    ([1e-3, 1e-2, 1e-1], 2, 15, 2),    # 20 and 6
    ([0.0, 1e-3, 0.0, 1e-2], 3, 18, 5),  # 26 and 12
])
def test_stability_probe_decomposes_each_matrix_once(monkeypatch, epsilons, trials,
                                                     max_eigs, max_svds):
    lap = _laplacian(6, n=10)
    expected = _reference_probe(lap, 3, "fig3", "high", epsilons, trials, 7)
    counts = _count_decompositions(monkeypatch)
    recs = analysis.stability_probe(lap, 3, "fig3", "high", epsilons, trials, 7)
    assert recs == expected
    assert counts == _expected_counts(1, epsilons, trials)
    assert counts["vectors"] + counts["values"] <= max_eigs
    assert counts["svd"] <= max_svds


@pytest.mark.parametrize("epsilons", [[1e-3, 1e-2], [0.0, 1e-3, 1e-2], [1e-2, 0.0], [0.0]],
                         ids=["positive", "zero-first", "zero-last", "zero-alone"])
@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("j_max", [2, 4])
def test_stability_table_shares_every_decomposition_across_kernels(monkeypatch, j_max,
                                                                   trials, epsilons):
    # the unshared path makes 2(J - 1)(1 + T + 2 E+ T) decompositions and
    # 2(J - 1) T SVDs: 96 and 18 at J = 4, T = 3 with two positive epsilons
    lap = _laplacian(8, n=10)
    scales = range(2, j_max + 1)
    expected = {(j, kind): _reference_probe(lap, j, "fig3", kind, epsilons, trials, 3)
                for j in scales for kind in ("low", "high")}
    counts = _count_decompositions(monkeypatch)
    table = analysis.stability_table(lap, scales, "fig3", ("low", "high"), epsilons,
                                     trials, 3)
    assert table == expected
    assert list(table) == list(expected)
    assert counts == _expected_counts(len(expected), epsilons, trials)


def test_spectral_filter_matrix_symmetric():
    h = analysis.spectral_filter_matrix(_laplacian(5), 3, "fig3", "low")
    assert np.allclose(h, h.T, atol=1e-12)


@pytest.mark.parametrize("n", [5, 128, 300])
def test_filter_matrix_is_exactly_symmetric_with_the_products_lower_triangle(n):
    # a spectrum reaching 3 makes the high kernel at j = 6 about 1e11, where
    # U h U^T is asymmetric by far more than operator_distance's 1e-9
    rng = np.random.default_rng(n)
    u = np.linalg.qr(rng.standard_normal((n, n)))[0]
    dec = graphs.SpectralDecomposition(np.linspace(0.0, 3.0, n), u)
    h = analysis._filter_matrix(dec, 6, "fig3", "high")
    product = (u * model.kernel_value(6, dec.eigenvalues, "fig3", "high")) @ u.T
    assert np.array_equal(h, h.T)
    assert np.array_equal(np.tril(h), np.tril(product))
    assert np.max(np.abs(product - product.T)) > graphs.SYMMETRY_TOL


# ---------------------------------------------------------------------------
# similarity_histogram


def test_similarity_one_hot_features_separate_cleanly():
    labels = np.eye(2)[[0, 0, 1, 1]]
    hist = analysis.similarity_histogram(labels.copy(), labels, bins=4, seed=0)
    assert hist.intra_mean == pytest.approx(1.0)
    assert hist.inter_mean == pytest.approx(0.0)
    # intra mass in the top bin, inter mass in the middle
    assert hist.intra_counts[-1] == hist.n_intra
    assert hist.mean_gap == pytest.approx(1.0)


def test_similarity_counts_sum_to_samples():
    rng = np.random.default_rng(1)
    vecs = rng.standard_normal((30, 5))
    labels = np.eye(3)[rng.integers(0, 3, size=30)]
    hist = analysis.similarity_histogram(vecs, labels, seed=2)
    assert hist.intra_counts.sum() == hist.n_intra
    assert hist.inter_counts.sum() == hist.n_inter


def test_similarity_invariant_to_positive_rescaling():
    rng = np.random.default_rng(3)
    vecs = rng.standard_normal((20, 4))
    labels = np.eye(2)[rng.integers(0, 2, size=20)]
    h1 = analysis.similarity_histogram(vecs, labels, seed=4)
    h2 = analysis.similarity_histogram(vecs * 37.5, labels, seed=4)
    assert h1.intra_mean == pytest.approx(h2.intra_mean, abs=1e-12)
    assert np.array_equal(h1.intra_counts, h2.intra_counts)
    assert np.array_equal(h1.inter_counts, h2.inter_counts)


@pytest.mark.filterwarnings("error::UserWarning")
def test_similarity_names_the_one_node_classes_without_a_warning():
    vecs = np.ones((4, 2))
    labels = np.eye(4)[[0, 0, 1, 3]]
    hist = analysis.similarity_histogram(vecs, labels, seed=5)
    assert hist.skipped_classes == (1, 3)
    assert hist.n_intra == 1


def test_similarity_sampling_cap():
    rng = np.random.default_rng(6)
    vecs = rng.standard_normal((60, 3))
    labels = np.eye(2)[rng.integers(0, 2, size=60)]
    hist = analysis.similarity_histogram(vecs, labels, max_pairs=50, seed=7)
    assert hist.n_intra <= 50 and hist.n_inter <= 50
    assert hist.sampling.startswith("sampled")


def test_similarity_zero_norm_row_rejected():
    vecs = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0], [2.0, 1.0]])
    labels = np.eye(2)[[0, 0, 1, 1]]
    with pytest.raises(ContractError, match="row 1"):
        analysis.similarity_histogram(vecs, labels, seed=8)


def test_similarity_zero_norm_names_the_first_intra_pair():
    # rows 2 and 3 are zero; intra pairs (0, 3), (1, 2) are checked before
    # the inter pairs (0, 1), (0, 2), ...
    vecs = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    labels = np.eye(2)[[0, 1, 1, 0]]
    with pytest.raises(ContractError, match=r"^similarity_histogram: zero-norm row 3$"):
        analysis.similarity_histogram(vecs, labels, seed=8)


def _pair_cosine(u, v):
    return float(np.clip(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)), -1.0, 1.0))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 24), width=st.integers(1, 6),
       classes=st.integers(2, 3), bins=st.integers(2, 12))
def test_similarity_counts_equal_the_per_pair_formula(seed, n, width, classes, bins):
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((n, width))
    y = np.arange(n) % classes
    labels = np.eye(classes)[y]
    hist = analysis.similarity_histogram(vecs, labels, bins=bins, seed=0)
    edges = np.linspace(-1.0, 1.0, bins + 1)
    intra, inter = [], []
    for i in range(n):
        for j in range(i + 1, n):
            (intra if y[i] == y[j] else inter).append(_pair_cosine(vecs[i], vecs[j]))
    for got, cos, mean in ((hist.intra_counts, intra, hist.intra_mean),
                           (hist.inter_counts, inter, hist.inter_mean)):
        cos = np.array(cos)
        # a cosine within 1e-12 of a bin edge may round into either bin
        near_edge = int(np.sum(np.min(np.abs(cos[:, None] - edges), axis=1) <= 1e-12))
        expected = np.histogram(cos, bins=edges)[0]
        assert np.sum(np.abs(got - expected)) <= 2 * near_edge
        assert mean == pytest.approx(np.mean(cos), abs=1e-12)


# ---------------------------------------------------------------------------
# spectral_response_export


def test_response_low_bank_vanishes_at_zero():
    rows = analysis.spectral_response_export(4, "fig3", grid_points=11)
    at_zero = [v for lam, j, kind, v in rows if lam == 0.0 and kind == "low"]
    assert at_zero and all(v == 0.0 for v in at_zero)


def test_response_row_count():
    rows = analysis.spectral_response_export(5, "fig3", grid_points=33)
    assert len(rows) == 33 * (5 - 1) * 2


def _trapezoid(y, x):
    # the trapezoid rule; numpy 1.24, the declared floor, has no np.trapezoid
    return float(np.sum((y[1:] + y[:-1]) * np.diff(x)) / 2.0)


def test_response_low_bank_mass_concentrated_below_one():
    rows = analysis.spectral_response_export(4, "fig3", grid_points=201)
    low = {}
    for lam, j, kind, v in rows:
        if kind == "low":
            low[lam] = low.get(lam, 0.0) + v
    lams = np.array(sorted(low))
    mass = np.array([low[l] for l in lams])
    below = _trapezoid(mass[lams < 1.0], lams[lams < 1.0])
    above = _trapezoid(mass[lams >= 1.0], lams[lams >= 1.0])
    assert below > above


def test_response_matches_kernel_value_bitwise():
    from fggsl.model import kernel_value
    rows = analysis.spectral_response_export(3, "verbatim", grid_points=7)
    for lam, j, kind, v in rows:
        assert v == kernel_value(j, lam, "verbatim", kind)


# ---------------------------------------------------------------------------
# learned_edge_audit


def test_audit_threshold_one_keeps_nothing():
    rng = np.random.default_rng(9)
    w = rng.uniform(0.0, 0.999, size=(6, 6))
    w = 0.5 * (w + w.T)
    np.fill_diagonal(w, 0.0)
    labels = np.eye(2)[[0, 1] * 3]
    pairs = np.triu_indices(6, k=1)
    stats = analysis.learned_edge_audit(w[pairs], w[pairs], labels, threshold=1.0,
                                        pairs=pairs)
    assert stats.ho_edges == 0 and stats.ho_r_het is None
    assert stats.ht_edges == 0


def test_audit_threshold_zero_keeps_all_candidate_edges():
    w = np.array([[0.7], [0.3]])            # the edges (0, 1) and (1, 2)
    labels = np.eye(2)[[0, 1, 0]]
    stats = analysis.learned_edge_audit(w, None, labels, threshold=0.0,
                                        pairs=(np.array([0, 1]), np.array([1, 2])))
    assert stats.ho_edges == 2
    assert stats.ht_edges is None
    assert stats.ho_r_het == 1.0  # both surviving edges cross classes


def test_audit_counts_match_heterophily():
    g = datasets.gen_synthetic(20, 2, 0.1, 0.4, 0.3, seed=10, n_splits=1)
    pairs = datasets.candidate_graph(g, "given").edge_pairs()
    stats = analysis.learned_edge_audit(g.adjacency[pairs], None, g.labels,
                                        threshold=0.5, pairs=pairs)
    from fggsl.graphs import EdgeList, heterophilic_fraction
    dense_pairs = EdgeList.from_dense(g.adjacency).pairs
    assert stats.ho_r_het == heterophilic_fraction(g.labels, dense_pairs)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12),
       threshold=st.sampled_from([0.0, 0.25, 0.5, 1.0]))
def test_audit_edge_columns_equal_the_dense_masks(seed, n, threshold):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < 0.5, k=1)
    pairs = np.nonzero(upper)
    # weights on a grid, so some of them equal the threshold
    col = rng.integers(0, 5, size=pairs[0].size) / 4.0
    dense = np.zeros((n, n))
    dense[pairs] = col
    dense = dense + dense.T
    labels = np.eye(3)[rng.integers(0, 3, size=n)]
    assert (analysis.learned_edge_audit(col, None, labels, threshold, pairs=pairs)
            == analysis.learned_edge_audit(dense, None, labels, threshold))


def test_audit_rejects_a_mask_of_another_length_than_the_pairs():
    pairs = (np.array([0, 1]), np.array([1, 2]))
    with pytest.raises(ContractError, match="3 weights for 2 pairs$"):
        analysis.learned_edge_audit(None, np.ones(3), np.eye(2)[[0, 1, 0]], pairs=pairs)


@pytest.mark.parametrize("threshold", [-1.0, 1.5, float("nan"), float("inf")])
def test_audit_rejects_a_threshold_outside_the_unit_interval(threshold):
    with pytest.raises(ContractError, match="threshold"):
        analysis.learned_edge_audit(np.ones(1), None, np.eye(2),
                                    threshold, pairs=(np.array([0]), np.array([1])))

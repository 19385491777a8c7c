import numpy as np
import pytest

from fggsl import autodiff as ad
from fggsl import graphs
from fggsl.errors import ContractError, DimensionError, NumericError


def _sym(rng, n, scale=1.0):
    m = rng.standard_normal((n, n)) * scale
    return 0.5 * (m + m.T)


def _random_adjacency(rng, n, p=0.4):
    a = (rng.random((n, n)) < p).astype(np.float64)
    a = np.triu(a, 1)
    a = a + a.T
    return a


# ---------------------------------------------------------------------------
# normalized_laplacian


def test_laplacian_single_edge():
    w = np.array([[0.0, 1.0], [1.0, 0.0]])
    expected = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(graphs.normalized_laplacian(w), expected)


def test_laplacian_empty_graph_is_identity():
    assert np.allclose(graphs.normalized_laplacian(np.zeros((4, 4))), np.eye(4))


def test_laplacian_triangle_eigenvalues():
    a = np.ones((3, 3)) - np.eye(3)
    lap = graphs.normalized_laplacian(a)
    # independent oracle: LAPACK eigensolve of the 3x3
    vals = np.sort(np.linalg.eigvalsh(lap))
    assert np.allclose(vals, [0.0, 1.5, 1.5], atol=1e-12)


def test_laplacian_rejects_asymmetric():
    w = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ContractError):
        graphs.normalized_laplacian(w)


def test_laplacian_isolated_node_rows_are_identity_rows():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 2.0
    lap = graphs.normalized_laplacian(w)
    assert np.array_equal(lap[2], [0.0, 0.0, 1.0])
    assert np.array_equal(lap[:, 2], [0.0, 0.0, 1.0])


def test_laplacian_nullvector_property():
    rng = np.random.default_rng(0)
    for seed in range(5):
        a = _random_adjacency(np.random.default_rng(seed), 7, p=0.6)
        a[a.sum(axis=1) == 0, 0] = 1.0  # ensure no isolated nodes
        a[0, a.sum(axis=1) == 0] = 1.0
        a = np.triu(a, 1) + np.triu(a, 1).T
        if np.any(a.sum(axis=1) == 0):
            continue
        lap = graphs.normalized_laplacian(a)
        x = np.sqrt(a.sum(axis=1))
        assert np.linalg.norm(lap @ x) <= 1e-10 * np.linalg.norm(x)


def test_laplacian_differentiable_wrt_weights():
    rng = np.random.default_rng(1)
    base = _random_adjacency(rng, 4, p=0.8) * rng.uniform(0.5, 1.0)
    # the edge form holds each undirected weight once, so single-entry
    # FD probes keep the graph symmetric
    pairs = np.nonzero(np.triu(base, 1))
    params = ad.ParameterSet()
    w = params.add("w", base[pairs].reshape(-1, 1))
    x = ad.constant(rng.standard_normal((4, 2)))
    coeffs = np.array([[[0.0]], [[1.0]], [[1.0]]])         # L X + L^2 X

    index = ad.PairIndex(*pairs, 4)

    def loss_fn():
        a_hat = graphs.normalized_laplacian(w, index)
        lx = ad.propagate(ad.EdgeOperator(a_hat, index, 1.0, -1.0), x, coeffs)
        return ad.sum_all(ad.hadamard(lx, lx))

    assert ad.grad_check(loss_fn, params, 1e-6).relative <= 1e-4


def test_laplacian_edge_form_matches_the_dense_form():
    rng = np.random.default_rng(2)
    base = _random_adjacency(rng, 8, p=0.5) * rng.uniform(0.5, 1.0, size=(8, 8))
    base = np.triu(base, 1) + np.triu(base, 1).T
    pairs = np.nonzero(np.triu(base, 1))
    a_hat = graphs.normalized_laplacian(ad.constant(base[pairs].reshape(-1, 1)),
                                        ad.PairIndex(*pairs, 8)).data
    dense = graphs.normalized_laplacian(base)
    assert np.max(np.abs(a_hat[:, 0] + dense[pairs])) <= 1e-15


# ---------------------------------------------------------------------------
# EdgeList.from_dense, LabeledGraph and heterophilic_fraction


@pytest.mark.parametrize("threshold", [0.0, 0.5])
def test_from_dense_equals_the_upper_triangle_scan(threshold):
    rng = np.random.default_rng(13)
    w = rng.uniform(0, 1, size=(9, 9)) * (rng.random((9, 9)) < 0.6)
    w = w + w.T
    iu, ju = np.triu_indices(9, k=1)
    on = w[iu, ju] > threshold
    i_idx, j_idx = graphs.EdgeList.from_dense(w > threshold).pairs
    assert np.array_equal(i_idx, iu[on]) and np.array_equal(j_idx, ju[on])
    # the pair ops take the arrays as they are, without a copy each
    assert i_idx.flags.c_contiguous and j_idx.flags.c_contiguous


def test_dense_and_adjacency_build_no_row_block_layout(monkeypatch):
    # the scatter reads the index's flat offsets alone; the row blocks are
    # built on a pair read's first use, which a dense matrix never makes
    a = _random_adjacency(np.random.default_rng(14), 30)
    edges = graphs.EdgeList.from_dense(a)
    graph = graphs.LabeledGraph(edges, np.ones((30, 2)), np.eye(2)[np.arange(30) % 2])

    def refuse(n):
        raise AssertionError("a row-block layout was built")

    monkeypatch.setattr(ad, "_block_rows", refuse)
    assert np.array_equal(edges.dense(), a)
    assert np.array_equal(graph.adjacency, a)


def test_labeled_graph_rejects_edges_that_are_not_an_edge_list():
    # a dense matrix in place of the EdgeList fails here, not at a later read
    with pytest.raises(ContractError, match="edges must be an EdgeList, got ndarray$"):
        graphs.LabeledGraph(np.zeros((4, 4)), np.ones((4, 3)), np.eye(2)[[0, 1, 0, 1]])


@pytest.mark.parametrize("i,j,message", [
    (np.array([0, 1]), np.array([5, 2]), r"pair 0 \(0, 5\) breaks 0 <= i < j < 3 "),
    (np.array([-1]), np.array([1]), r"pair 0 \(-1, 1\)"),
    (np.array([0, 2]), np.array([1, 1]), r"pair 1 \(2, 1\)"),
    (np.array([1, 0]), np.array([2, 1]), r"pair 1 \(0, 1\) .* row-major order$"),
    (np.array([0, 0]), np.array([1, 1]), r"pair 1 \(0, 1\)"),
    ([0], [1], "1-D integer arrays of one length$"),
    (np.array([0.0]), np.array([1.0]), "1-D integer arrays"),
    (np.array([[0]]), np.array([[1]]), "1-D integer arrays"),
    (np.array([0, 1]), np.array([1]), "of one length"),
], ids=["j-beyond-n", "negative-i", "i-above-j", "out-of-order", "listed-twice",
        "lists", "floats", "2-d", "unequal-lengths"])
def test_edge_list_rejects_pairs_it_cannot_hold(i, j, message):
    # each fault fails where the list is built, not at a later pair read
    with pytest.raises(ContractError, match=message):
        graphs.EdgeList(3, i, j)


def _path_graph(n):
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i, i + 1] = a[i + 1, i] = 1.0
    return a


def test_heterophily_all_cross_class():
    labels = np.array([[1, 0], [0, 1], [1, 0]], dtype=float)
    pairs = graphs.EdgeList.from_dense(_path_graph(3)).pairs
    assert graphs.heterophilic_fraction(labels, pairs) == 1.0


def test_heterophily_all_same_class():
    labels = np.array([[1, 0], [1, 0], [1, 0]], dtype=float)
    pairs = graphs.EdgeList.from_dense(_path_graph(3)).pairs
    assert graphs.heterophilic_fraction(labels, pairs) == 0.0


def test_heterophily_no_edges_rejected():
    with pytest.raises(ContractError):
        graphs.heterophilic_fraction(np.eye(3), graphs.EdgeList.from_dense(np.zeros((3, 3))).pairs)


def test_heterophily_scale_invariant():
    rng = np.random.default_rng(3)
    a = _random_adjacency(rng, 8) * rng.uniform(0.1, 2.0)
    labels = np.eye(3)[rng.integers(0, 3, size=8)]
    r1 = graphs.heterophilic_fraction(labels, graphs.EdgeList.from_dense(a).pairs)
    r2 = graphs.heterophilic_fraction(labels, graphs.EdgeList.from_dense(7.3 * a).pairs)
    assert r1 == r2


# ---------------------------------------------------------------------------
# symmetric_eig


def test_eig_diagonal_input():
    dec = graphs.symmetric_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(dec.eigenvalues, [1.0, 2.0, 3.0])
    # eigenvectors form a permutation matrix
    assert np.allclose(np.abs(dec.eigenvectors).sum(axis=0), 1.0)
    assert np.allclose(np.abs(dec.eigenvectors).sum(axis=1), 1.0)


def test_eig_two_node_path():
    lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
    dec = graphs.symmetric_eig(lap)
    assert np.allclose(dec.eigenvalues, [0.0, 2.0], atol=1e-12)


def test_eig_reconstruction_and_orthonormality():
    rng = np.random.default_rng(4)
    m = _sym(rng, 8)
    dec = graphs.symmetric_eig(m)
    u = dec.eigenvectors
    assert np.linalg.norm((u * dec.eigenvalues) @ u.T - m) <= 1e-8
    assert np.linalg.norm(u.T @ u - np.eye(8)) <= 1e-8


def test_eig_matches_lapack_eigenvalues():
    rng = np.random.default_rng(5)
    for seed in range(5):
        m = _sym(np.random.default_rng(seed), 6)
        ours = graphs.symmetric_eig(m).eigenvalues
        ref = np.linalg.eigvalsh(m)
        assert np.allclose(ours, ref, atol=1e-10)


def test_eig_laplacian_spectrum_in_range():
    rng = np.random.default_rng(6)
    a = _random_adjacency(rng, 10)
    lap = graphs.normalized_laplacian(a)
    vals = graphs.symmetric_eig(lap).eigenvalues
    assert vals.min() >= -1e-10
    assert vals.max() <= 2.0 + 1e-10


def test_eig_permutation_invariant_eigenvalues():
    rng = np.random.default_rng(7)
    m = _sym(rng, 6)
    perm = rng.permutation(6)
    mp = m[np.ix_(perm, perm)]
    v1 = graphs.symmetric_eig(m).eigenvalues
    v2 = graphs.symmetric_eig(mp).eigenvalues
    assert np.allclose(v1, v2, atol=1e-10)


def test_eig_rejects_asymmetric():
    with pytest.raises(ContractError):
        graphs.symmetric_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_eig_non_finite_raises_numeric(bad):
    m = _sym(np.random.default_rng(8), 5)
    m[1, 3] = m[3, 1] = bad
    with pytest.raises(NumericError, match="symmetric_eig"):
        graphs.symmetric_eig(m)


# ---------------------------------------------------------------------------
# operator_distance


def test_operator_distance_zero_for_equal():
    m = np.ones((3, 3))
    assert graphs.operator_distance(m, m) == 0.0


def test_operator_distance_diagonal_case():
    a = np.diag([0.3, -0.5])
    assert graphs.operator_distance(a, np.zeros((2, 2))) == pytest.approx(0.5)


def test_operator_distance_shape_mismatch():
    with pytest.raises(DimensionError):
        graphs.operator_distance(np.zeros((2, 2)), np.zeros((3, 3)))


def _power_iteration_norm(m, iters=600):
    # independent oracle for the spectral norm of a symmetric matrix:
    # power iteration on m @ m
    rng = np.random.default_rng(0)
    v = rng.standard_normal(m.shape[0])
    m2 = m @ m
    for _ in range(iters):
        v = m2 @ v
        v /= np.linalg.norm(v)
    return float(np.sqrt(v @ m2 @ v))


def test_operator_distance_matches_power_iteration():
    rng = np.random.default_rng(9)
    a, b = _sym(rng, 7), _sym(rng, 7)
    ours = graphs.operator_distance(a, b)
    assert ours == pytest.approx(_power_iteration_norm(a - b), abs=1e-6)


def test_operator_distance_metric_properties():
    rng = np.random.default_rng(10)
    for seed in range(5):
        r = np.random.default_rng(seed)
        a, b, c = _sym(r, 5), _sym(r, 5), _sym(r, 5)
        dab = graphs.operator_distance(a, b)
        dba = graphs.operator_distance(b, a)
        dac = graphs.operator_distance(a, c)
        dcb = graphs.operator_distance(c, b)
        assert dab == pytest.approx(dba, abs=1e-9)
        assert dab <= dac + dcb + 1e-9

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from fggsl import datasets
from fggsl.errors import ContractError, ParseError, ValidationError
from fggsl.graphs import heterophily_ratio


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_raw_constructive(tmp_path):
    nodes = _write(tmp_path / "n.tsv",
                   "0\t1.0,2.0\t0\n1\t0.5,0.5\t1\n2\t0.0,1.0\t0\n")
    edges = _write(tmp_path / "e.tsv", "0\t1\n1\t2\n")
    g = datasets.load_raw(nodes, edges)
    assert g.n == 3
    assert g.num_classes == 2
    assert g.adjacency.sum() == 4.0  # two undirected edges
    assert np.array_equal(g.labels[1], [0.0, 1.0])


def test_load_raw_rejects_a_label_beyond_the_node_count(tmp_path):
    nodes = _write(tmp_path / "n.tsv", "0\t1.0\t0\n1\t2.0\t1\n2\t0.5\t10000000\n")
    edges = _write(tmp_path / "e.tsv", "0\t1\n")
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=r":3: label 10000000 >= node count 3"):
            datasets.load_raw(nodes, edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_load_raw_drops_self_loops_and_duplicates(tmp_path):
    nodes = _write(tmp_path / "n.tsv", "0\t1.0\t0\n1\t2.0\t0\n")
    edges = _write(tmp_path / "e.tsv", "0\t0\n0\t1\n1\t0\n0\t1\n")
    g = datasets.load_raw(nodes, edges)
    assert np.array_equal(g.adjacency, [[0.0, 1.0], [1.0, 0.0]])


def test_load_raw_unknown_id_names_line(tmp_path):
    nodes = _write(tmp_path / "n.tsv",
                   "".join(f"{i}\t1.0\t0\n" for i in range(10)))
    edges = _write(tmp_path / "e.tsv", "0\t1\n999\t2\n")
    with pytest.raises(ParseError, match=":2:"):
        datasets.load_raw(nodes, edges)


def test_load_raw_ragged_features(tmp_path):
    nodes = _write(tmp_path / "n.tsv", "0\t1.0,2.0\t0\n1\t1.0\t0\n")
    edges = _write(tmp_path / "e.tsv", "")
    with pytest.raises(ParseError, match=":2:"):
        datasets.load_raw(nodes, edges)


def test_load_raw_skips_comments_and_blank_lines(tmp_path):
    nodes = _write(tmp_path / "n.tsv", "# header\n\n0\t1.0\t0\n1\t2.0\t1\n")
    edges = _write(tmp_path / "e.tsv", "# pairs\n0\t1\n")
    g = datasets.load_raw(nodes, edges)
    assert g.n == 2


def test_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    graph = datasets.gen_synthetic(20, 3, 0.1, 0.3, 0.7, seed=5, n_splits=2)
    nodes, edges = str(tmp_path / "n.tsv"), str(tmp_path / "e.tsv")
    datasets.save_raw(graph, nodes, edges)
    back = datasets.load_raw(nodes, edges)
    assert np.array_equal(back.adjacency, graph.adjacency)
    assert np.array_equal(back.labels, graph.labels)
    assert np.max(np.abs(back.features - graph.features)) <= 1e-15


def test_load_splits_round_trip(tmp_path):
    splits = [(np.array([0, 1]), np.array([2]), np.array([3, 4])),
              (np.array([4, 3]), np.array([0]), np.array([1, 2]))]
    paths = datasets.save_splits(splits, tmp_path / "splits")
    loaded = datasets.load_splits(paths, n=5)
    assert len(loaded) == 2
    assert np.array_equal(loaded[0][0], [0, 1])
    assert np.array_equal(loaded[1][0], [4, 3])  # order preserved


def test_load_splits_rejects_overlap(tmp_path):
    p = _write(tmp_path / "s.txt", "0 1\n1\n2\n")
    with pytest.raises(ValidationError, match="overlap"):
        datasets.load_splits([p], n=3)


def test_load_splits_rejects_out_of_range(tmp_path):
    p = _write(tmp_path / "s.txt", "0\n1\n7\n")
    with pytest.raises(ValidationError, match="range"):
        datasets.load_splits([p], n=3)


def test_load_splits_rejects_empty_val(tmp_path):
    p = _write(tmp_path / "s.txt", "0 1\n\n2\n")
    with pytest.raises(ValidationError):
        datasets.load_splits([p], n=3)


def test_row_normalize_cases():
    feats = np.array([[2.0, 2.0], [0.0, 0.0], [0.25, 0.75]])
    out = datasets.row_normalize(feats)
    assert np.allclose(out[0], [0.5, 0.5])
    assert np.array_equal(out[1], [0.0, 0.0])
    assert np.max(np.abs(datasets.row_normalize(out) - out)) <= 1e-15


def test_gen_synthetic_pure_heterophilic():
    g = datasets.gen_synthetic(30, 3, intra_p=0.0, inter_p=0.4, proto_noise=0.1, seed=1)
    assert heterophily_ratio(g.adjacency, g.labels) == 1.0


def test_gen_synthetic_pure_homophilic():
    g = datasets.gen_synthetic(30, 3, intra_p=0.4, inter_p=0.0, proto_noise=0.1, seed=2)
    assert heterophily_ratio(g.adjacency, g.labels) == 0.0


def test_gen_synthetic_matches_sbm_expectation():
    # closed-form SBM oracle: balanced classes of 100, expected intra edges
    # 3*C(100,2)*0.005 = 74.25, expected inter edges 3*100*100*0.05 = 1500
    g = datasets.gen_synthetic(300, 3, intra_p=0.005, inter_p=0.05,
                               proto_noise=0.1, seed=3)
    expected = 1500.0 / (1500.0 + 74.25)
    realized = heterophily_ratio(g.adjacency, g.labels)
    assert realized == pytest.approx(expected, abs=0.03)


def test_gen_synthetic_reproducible():
    a = datasets.gen_synthetic(40, 2, 0.1, 0.3, 0.5, seed=9)
    b = datasets.gen_synthetic(40, 2, 0.1, 0.3, 0.5, seed=9)
    assert np.array_equal(a.adjacency, b.adjacency)
    assert np.array_equal(a.features, b.features)
    for (t1, v1, s1), (t2, v2, s2) in zip(a.splits, b.splits):
        assert np.array_equal(t1, t2) and np.array_equal(v1, v2) and np.array_equal(s1, s2)


def test_gen_synthetic_rejects_small_n():
    with pytest.raises(ContractError):
        datasets.gen_synthetic(2, 3, 0.1, 0.1, 0.1, seed=0)


def test_gen_synthetic_validates():
    datasets.gen_synthetic(25, 4, 0.2, 0.2, 0.3, seed=4).validate()


def test_candidate_full_edge_count():
    g = datasets.gen_synthetic(4, 2, 0.5, 0.5, 0.1, seed=0, n_splits=1)
    cand = datasets.candidate_graph(g, "full")
    assert cand.num_edges == 6  # N(N-1)/2


def test_candidate_edge_pairs_cached_and_read_only():
    g = datasets.gen_synthetic(12, 3, 0.3, 0.5, 0.1, seed=2, n_splits=1)
    cand = datasets.candidate_graph(g, "given")
    i_idx, j_idx = cand.edge_pairs()
    again = cand.edge_pairs()
    assert again[0] is i_idx and again[1] is j_idx
    iu, ju = np.triu_indices(12, k=1)
    on = g.adjacency[iu, ju] > 0
    assert np.array_equal(i_idx, iu[on]) and np.array_equal(j_idx, ju[on])
    assert cand.num_edges == i_idx.size
    for idx in (i_idx, j_idx):
        with pytest.raises(ValueError, match="read-only"):
            idx[0] = 0


def test_candidate_given_binarizes():
    g = datasets.gen_synthetic(10, 2, 0.3, 0.3, 0.1, seed=1, n_splits=1)
    g.adjacency *= 2.5
    cand = datasets.candidate_graph(g, "given")
    assert set(np.unique(cand.adjacency)) <= {0.0, 1.0}
    assert np.array_equal(cand.adjacency > 0, g.adjacency > 0)


def test_candidate_knn_tie_break_lower_index():
    from fggsl.graphs import LabeledGraph
    feats = np.ones((4, 3))
    g = LabeledGraph(np.zeros((4, 4)), feats, np.eye(2)[[0, 1, 0, 1]])
    cand = datasets.candidate_graph(g, "knn:2")
    # all similarities tie at 1.0, so everyone picks the two lowest other indices:
    # 0 -> {1,2}, 1 -> {0,2}, 2 -> {0,1}, 3 -> {0,1}; mutual edges: 01, 02, 12
    expected = np.zeros((4, 4))
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        expected[i, j] = expected[j, i] = 1.0
    assert np.array_equal(cand.adjacency, expected)


def test_candidate_knn_rejects_large_k():
    g = datasets.gen_synthetic(5, 2, 0.3, 0.3, 0.1, seed=1, n_splits=1)
    with pytest.raises(ContractError):
        datasets.candidate_graph(g, "knn:5")


@given(st.integers(min_value=1, max_value=10 ** 12))
def test_candidate_k_reads_every_knn_spec(k):
    assert datasets.candidate_k("knn:%d" % k) == k


def _is_knn_spec(text: str) -> bool:
    """Whether ``text`` is "knn:%d" % k for some k >= 1."""
    tail = text[4:]
    return (text.startswith("knn:") and tail.isascii() and tail.isdigit()
            and int(tail) >= 1 and text == "knn:%d" % int(tail))


@given(st.one_of(st.text(), st.text().map("knn:".__add__),
                 st.integers(max_value=0).map("knn:{}".format),
                 st.integers(min_value=1).map("knn:0{}".format),
                 st.integers(min_value=1).map("knn:+{}".format)))
def test_candidate_k_rejects_any_other_text(text):
    assume(text not in ("full", "given") and not _is_knn_spec(text))
    with pytest.raises(ValidationError, match="^candidate: ") as caught:
        datasets.candidate_k(text)
    assert "\n" not in str(caught.value)


def test_candidate_always_symmetric_zero_diagonal():
    g = datasets.gen_synthetic(12, 3, 0.2, 0.4, 0.5, seed=7, n_splits=1)
    for spec in ("full", "given", "knn:3"):
        cand = datasets.candidate_graph(g, spec)
        assert np.array_equal(cand.adjacency, cand.adjacency.T)
        assert not np.any(np.diag(cand.adjacency))


def test_load_dataset_dir(tmp_path):
    graph = datasets.gen_synthetic(15, 3, 0.1, 0.4, 0.5, seed=11, n_splits=3)
    datasets.save_raw(graph, tmp_path / "nodes.tsv", tmp_path / "edges.tsv")
    datasets.save_splits(graph.splits, tmp_path / "splits")
    bundle = datasets.load_dataset_dir(str(tmp_path), normalize_features=False)
    assert bundle.graph.n == 15
    assert len(bundle.graph.splits) == 3
    fp = datasets.dataset_fingerprint(bundle)
    assert fp["nodes"] == 15 and fp["classes"] == 3
    assert fp["heterophily_ratio"] == heterophily_ratio(graph.adjacency, graph.labels)

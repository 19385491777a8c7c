import dataclasses
import os
import pathlib
import re
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fggsl import cli, datasets, graphs
from fggsl.errors import ContractError, ParseError, ValidationError
from fggsl.graphs import EdgeList, heterophilic_fraction


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


def _scattered_adjacency(edge_rows, n):
    """The 0/1 adjacency of the (src, dst) rows by one numpy scatter, each
    edge written both ways and self-loops dropped: the dense form the
    loader built before it held an edge list."""
    i, j = np.array(edge_rows, dtype=np.int64).reshape(-1, 2).T
    keep = i != j
    i, j = i[keep], j[keep]
    adjacency = np.zeros((n, n))
    adjacency[np.concatenate((i, j)), np.concatenate((j, i))] = 1.0
    return adjacency


def test_edge_list_is_the_scattered_adjacency(tmp_path):
    rows = [(0, 1), (3, 2), (0, 1), (1, 0), (4, 4), (2, 5), (5, 0), (1, 4), (2, 3)]
    lines = [f"{i}\t{j}" for i, j in rows]
    lines[3:3] = ["# a comment", ""]
    nodes = _write(tmp_path / "n.tsv", "".join(
        f"{i}\t{0.5 + i},{1.0 - i}\t{i % 2}\n" for i in range(6)))
    edges = _write(tmp_path / "e.tsv", "\n".join(lines) + "\n")
    g = datasets.load_raw(nodes, edges)
    adjacency = g.adjacency
    assert np.array_equal(adjacency, _scattered_adjacency(rows, 6))
    i_idx, j_idx = g.edges.pairs
    assert np.array_equal(i_idx, [0, 0, 1, 2, 2]) and np.array_equal(j_idx, [1, 5, 4, 3, 5])

    full = datasets.candidate_graph(g, "full")
    given = datasets.candidate_graph(g, "given")
    knn = datasets.candidate_graph(g, "knn:3")
    for cand, dense in ((full, np.ones((6, 6)) - np.eye(6)), (given, adjacency > 0)):
        expected = graphs.EdgeList.from_dense(dense).pairs
        assert all(np.array_equal(a, b) for a, b in zip(cand.edge_pairs(), expected))
    # the given candidate shares the graph's arrays
    assert all(a is b for a, b in zip(given.edge_pairs(), g.edges.pairs))
    again = datasets.CandidateGraph(knn.adjacency, "knn:3")
    assert all(np.array_equal(a, b) for a, b in zip(again.edge_pairs(), knn.edge_pairs()))

    for graph in (g, full, given, knn, again):
        dense = graph.adjacency
        assert dense is not graph.adjacency           # built on each read
        with pytest.raises(ValueError, match="read-only"):
            dense[0, 1] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            dense *= 2.0


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


# the edge reader's shortcuts: ids that are their own rows, and a first
# parse of the file as it is, with no skipped line cut out
_GRID_N = 7
_GRID_IDS = {
    "0..n-1": list(range(_GRID_N)),
    "shuffled": [3, 6, 0, 5, 1, 4, 2],
    "shifted": [row + 5 for row in range(_GRID_N)],
    "negative": [-3, 2, -1, 0, -7, 1, -2],
}
_GRID_PAIRS = [(0, 1), (0, 4), (1, 2), (1, 6), (2, 5), (3, 4), (3, 6), (5, 6)]
_GRID_ORDERS = {
    "row-major": _GRID_PAIRS,
    "reversed": _GRID_PAIRS[::-1],
    "both ways, duplicates, self-loops": (
        [(j, i) for i, j in _GRID_PAIRS] + _GRID_PAIRS[::2] + [(2, 2), (0, 1), (6, 6)]
        + _GRID_PAIRS),
}
# line kind -> (the lines put before every third edge line, the line end)
_GRID_LINE_KINDS = {
    "plain": ((), "\n"),
    "skipped-lines": (("", "# comment", " \t "), "\n"),
    "CR-line-ends": (("", "# comment", " \t "), "\r"),
    "form-feed-line": (("\f",), "\n"),
    "tab-indented-#": (("\t# comment",), "\n"),
}


def _grid_files(tmp_path, ids, edge_rows, line_kind):
    """Node and edge files of the grid: node ``ids`` in file order, and one
    edge line per (row, row) of ``edge_rows``, laid out as ``line_kind``
    of ``_GRID_LINE_KINDS`` says."""
    skipped, end = _GRID_LINE_KINDS[line_kind]
    lines = []
    for k, (a, b) in enumerate(edge_rows):
        if k % 3 == 0:
            lines += skipped
        lines.append(f"{ids[a]}\t{ids[b]}")
    nodes = _write(tmp_path / "nodes.tsv", "".join(
        f"{node_id}\t{0.5 * row},1.0\t{row % 2}\n" for row, node_id in enumerate(ids)))
    return nodes, _write(tmp_path / "edges.tsv", end.join(lines) + end)


@pytest.mark.parametrize("line_kind", list(_GRID_LINE_KINDS))
@pytest.mark.parametrize("order", sorted(_GRID_ORDERS))
@pytest.mark.parametrize("ids", sorted(_GRID_IDS))
def test_edge_reader_matches_the_dense_scatter(tmp_path, ids, order, line_kind):
    edge_rows = _GRID_ORDERS[order]
    dense = np.zeros((_GRID_N, _GRID_N))
    for a, b in edge_rows:
        dense[a, b] = dense[b, a] = 1.0
    expected = EdgeList.from_dense(dense)          # reads the upper triangle
    edges = datasets.load_raw(*_grid_files(tmp_path, _GRID_IDS[ids], edge_rows,
                                           line_kind)).edges
    assert edges.n == expected.n
    assert np.array_equal(edges.i, expected.i) and np.array_equal(edges.j, expected.j)


@pytest.mark.parametrize("line_kind", ["plain", "skipped-lines"])
@pytest.mark.parametrize("fault", [
    lambda ids: (f"{max(ids) + 1}\t{ids[0]}", f"unknown node id {max(ids) + 1}"),
    lambda ids: (f"{ids[0]}\t{min(ids) - 1}", f"unknown node id {min(ids) - 1}"),
    lambda ids: (f"{ids[0]}\t{ids[1]}\t{ids[2]}", "expected 2 tab-separated fields"),
    lambda ids: (f"{ids[0]} {ids[1]}", "expected 2 tab-separated fields"),
], ids=["id-above", "id-below", "3-fields", "space-separated"])
@pytest.mark.parametrize("ids", sorted(_GRID_IDS))
def test_edge_reader_names_the_line_of_a_fault(tmp_path, ids, fault, line_kind):
    nodes, edges = _grid_files(tmp_path, _GRID_IDS[ids], _GRID_PAIRS, line_kind)
    lines = pathlib.Path(edges).read_text(encoding="utf-8").splitlines()
    bad, message = fault(_GRID_IDS[ids])
    k = len(lines) - 2
    lines.insert(k, bad)
    _write(tmp_path / "edges.tsv", "\n".join(lines) + "\n")
    with pytest.raises(ParseError) as info:
        datasets.load_raw(nodes, edges)
    assert str(info.value) == f"{edges}:{k + 1}: {message}"


def test_load_edge_list_is_the_loaded_graphs_edges(tmp_path):
    tiny, generated = tmp_path / "tiny", tmp_path / "gen"
    tiny.mkdir()
    _write(tiny / datasets.NODE_FILE, _NODES)
    _write(tiny / datasets.EDGE_FILE, _EDGES)
    assert cli.main(["gen", "--out", str(generated), "--n", "40", "--classes", "3",
                     "--seed", "3", "--splits", "2"]) == 0
    for directory in (tiny, generated):
        edges = datasets.load_edge_list(directory)
        loaded = datasets.load_dataset_dir(directory).graph.edges
        assert edges.n == loaded.n and edges.i.size > 0
        assert np.array_equal(edges.i, loaded.i) and np.array_equal(edges.j, loaded.j)


# ---------------------------------------------------------------------------
# load_raw against a per-value reference loop


def _reference_load_raw(node_file, edge_file):
    """The loader as one int() or float() per value and one edge line at a
    time: (adjacency, features, labels), or the error it raises."""
    ids, feats, labels = {}, [], []
    width, top = None, (-1, 0)
    for lineno, line in datasets._data_lines(node_file):
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(f"{node_file}:{lineno}: expected 3 tab-separated fields")
        try:
            node_id = int(parts[0])
            row = np.array([float(v) for v in parts[1].split(",")], dtype=np.float64)
            label = int(parts[2])
        except ValueError as exc:
            raise ParseError(f"{node_file}:{lineno}: {exc}") from exc
        if node_id in ids:
            raise ParseError(f"{node_file}:{lineno}: duplicate node id {node_id}")
        if label < 0:
            raise ParseError(f"{node_file}:{lineno}: negative label {label}")
        if width is None:
            width = row.size
        elif row.size != width:
            raise ParseError(f"{node_file}:{lineno}: feature length {row.size} != {width}")
        ids[node_id] = len(feats)
        feats.append(row)
        labels.append(label)
        if label > top[0]:
            top = (label, lineno)
    if not feats:
        raise ParseError(f"{node_file}: no node records")
    n = len(feats)
    if top[0] >= n:
        raise ValidationError(f"{node_file}:{top[1]}: label {top[0]} >= node count {n}")
    adjacency = np.zeros((n, n))
    for lineno, line in datasets._data_lines(edge_file):
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(f"{edge_file}:{lineno}: expected 2 tab-separated fields")
        try:
            src, dst = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(f"{edge_file}:{lineno}: {exc}") from exc
        for node_id in (src, dst):
            if node_id not in ids:
                raise ParseError(f"{edge_file}:{lineno}: unknown node id {node_id}")
        i, j = ids[src], ids[dst]
        if i != j:
            adjacency[i, j] = adjacency[j, i] = 1.0
    return adjacency, np.vstack(feats), np.eye(max(labels) + 1)[np.array(labels)]


def _where(exc):
    """(error class, "<file name>:<line>") of a loader error."""
    match = re.match(r"(.*?):(\d+): ", str(exc))
    assert match, str(exc)
    return type(exc), f"{os.path.basename(match.group(1))}:{match.group(2)}"


def _outcome(load, nodes_text, edges_text):
    """Arrays bytes and sign bits of what ``load`` returns on the two files,
    or where its error points."""
    with tempfile.TemporaryDirectory() as tmp:
        nodes, edges = os.path.join(tmp, "nodes.tsv"), os.path.join(tmp, "edges.tsv")
        with open(nodes, "wb") as fh:
            fh.write(nodes_text.encode("utf-8"))
        with open(edges, "wb") as fh:
            fh.write(edges_text.encode("utf-8"))
        try:
            arrays = load(nodes, edges)
        except (ParseError, ValidationError) as exc:
            return _where(exc)
    return [(a.dtype.str, a.shape, a.tobytes(), np.signbit(a).tobytes()) for a in arrays]


def _load_arrays(nodes, edges):
    g = datasets.load_raw(nodes, edges)
    return g.adjacency, g.features, g.labels


_NOISE = st.sampled_from(["", " ", " \t ", "\x0c", "# note", "  # indented", "#"])
_FEATURE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                     st.sampled_from([-0.0, 0.0, 5e-324, 2.2250738585072009e-308, 1e-310]))
_PAD = st.sampled_from(["", " ", "  "])


def _digits(k, d, m):
    """``k`` written as d digits, then a point and m digits when m > 0."""
    text = f"{k:0{d + m}d}"
    return f"{text[:d]}.{text[d:]}" if m else text


# the value of every feature of a file in one digit layout: %d of 0/1,
# repr of 0.0/1.0, or d digits and m decimals for every d + m up to one
# past the 15 digits whose integers float64 holds exactly
_DIGIT_LAYOUT = st.one_of(
    st.just(st.sampled_from(["0", "1"])),
    st.just(st.sampled_from(["0.0", "1.0"])),
    (st.integers(1, 14) | st.sampled_from([15, 16])).flatmap(lambda t: st.integers(0, t - 1).map(
        lambda m: st.integers(0, 10 ** t - 1).map(lambda k: _digits(k, t - m, m)))))
# the values of one row of a digit-layout file, rewritten to leave the
# layout; every value still parses (a one-byte value cannot be narrowed)
_LAYOUT_BREAKS = {
    "a byte wider": lambda r: ["0" + r[0]] + r[1:],
    "a byte narrower": lambda r: [r[0][1:] or r[0]] + r[1:],
    "a byte moved": lambda r: ["0" + r[0]] + [v[1:] or v for v in r[1:2]] + r[2:],
    "a plus sign": lambda r: ["+" + r[0]] + r[1:],
    "a minus sign": lambda r: ["-" + r[0]] + r[1:],
    "a space": lambda r: [" " + r[0]] + r[1:],
    "an exponent": lambda r: [r[0] + "e0"] + r[1:],
    "a 16th digit": lambda r: [r[0].zfill(16 + ("." in r[0]))] + r[1:],
    "a point replaced by a digit": lambda r: [r[0].replace(".", "0")] + r[1:],
}
# one fault per kind, applied to the fields of one node or edge line
_NODE_FAULTS = {
    "bad value": lambda f, ids, n: [f[0], "x," + f[1]] + f[2:],
    # a digit replaced by the byte before "0" or after "9"
    "slash in place": lambda f, ids, n: [f[0], re.sub("[0-9]", "/", f[1], count=1)] + f[2:],
    "colon in place": lambda f, ids, n: [f[0], re.sub("[0-9]", ":", f[1], count=1)] + f[2:],
    "ragged row": lambda f, ids, n: [f[0], f[1] + ",1.0"] + f[2:],
    "2 fields": lambda f, ids, n: f[:2],
    "non-integer id": lambda f, ids, n: [f[0] + ".5"] + f[1:],
    "duplicate id": lambda f, ids, n: [str(ids[0])] + f[1:],
    "negative label": lambda f, ids, n: f[:2] + ["-1"],
    "label >= n": lambda f, ids, n: f[:2] + [str(n)],
}
_EDGE_FAULTS = {
    "3 fields": lambda f, ids, n: f + ["0"],
    "1 field": lambda f, ids, n: f[:1],
    "non-integer id": lambda f, ids, n: [f[0], "x"],
    "unknown id": lambda f, ids, n: [f[0], str(max(ids) + 1)],
}


def _text(draw, lines):
    """``lines`` with comment, blank and whitespace lines between them, and
    LF or CRLF ends."""
    out = []
    for line in lines + [None]:
        out += draw(st.lists(_NOISE, max_size=2))
        if line is not None:
            out.append(line)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(out) + draw(st.sampled_from([end, ""]))


@st.composite
def _raw_dataset(draw, faults=0):
    """(nodes text, edges text) with ids permuted, sparse and negative,
    duplicate edges and self-loops, features written by repr or %.17g or
    all in one digit layout (maybe with one row's layout broken), and
    ``faults`` faults from the tables above."""
    n = draw(st.integers(1, 7))
    width = draw(st.integers(1, 3))
    ids = draw(st.lists(st.integers(-2 ** 62, 2 ** 62), min_size=n, max_size=n, unique=True))
    layout = draw(st.one_of(st.none(), _DIGIT_LAYOUT))
    nodes = []
    for node_id in ids:
        if layout is None:
            fmt = draw(st.sampled_from([repr, "%.17g".__mod__]))
            row = [fmt(v) for v in draw(st.lists(_FEATURE, min_size=width, max_size=width))]
        else:
            row = draw(st.lists(layout, min_size=width, max_size=width))
        nodes.append([str(node_id), ",".join(row), str(draw(st.integers(0, n - 1)))])
    if layout is not None and draw(st.booleans()):
        fields = draw(st.sampled_from(nodes))
        fields[1] = ",".join(_LAYOUT_BREAKS[draw(st.sampled_from(sorted(_LAYOUT_BREAKS)))](
            fields[1].split(",")))
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=10))
    edges = [[f"{draw(_PAD)}{i}{draw(_PAD)}", f"{draw(_PAD)}{j}"] for i, j in pairs]
    for _ in range(faults):
        lines, table = draw(st.sampled_from([(nodes, _NODE_FAULTS), (edges, _EDGE_FAULTS)]))
        if not lines:
            continue
        k = draw(st.integers(0, len(lines) - 1))
        lines[k] = table[draw(st.sampled_from(sorted(table)))](lines[k], ids, n)
    return (_text(draw, ["\t".join(f) for f in nodes]),
            _text(draw, ["\t".join(f) for f in edges]))


@settings(max_examples=150, deadline=None)
@given(_raw_dataset())
def test_load_raw_is_bitwise_the_per_value_loop(files):
    expected = _outcome(_reference_load_raw, *files)
    assert isinstance(expected, list)
    assert _outcome(_load_arrays, *files) == expected


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: _raw_dataset(faults=k)))
def test_load_raw_faults_name_the_per_value_loop_line(files):
    assert _outcome(_load_arrays, *files) == _outcome(_reference_load_raw, *files)


def _one_digit_layout(values):
    """Whether all ``values`` share one layout of d >= 1 digits, then
    optionally a point and m >= 1 digits, with d + m <= 15."""
    shapes = set()
    for value in values:
        match = re.fullmatch(r"([0-9]+)(?:\.([0-9]+))?", value)
        if not match:
            return False
        shapes.add((len(match.group(1)), len(match.group(2) or "")))
    return len(shapes) == 1 and sum(shapes.pop()) <= 15


class _FeatureParses:
    """Patches ``datasets._loadtxt`` to count its calls on feature fields."""

    def __init__(self, monkeypatch):
        self.calls = 0
        loadtxt = datasets._loadtxt

        def counted(lines, dtype, delimiter):
            self.calls += dtype is np.float64
            return loadtxt(lines, dtype, delimiter)

        monkeypatch.setattr(datasets, "_loadtxt", counted)


@settings(max_examples=150, deadline=None)
@given(_raw_dataset())
def test_numpy_parses_the_features_only_out_of_one_digit_layout(files):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as monkeypatch:
        nodes, edges = os.path.join(tmp, "nodes.tsv"), os.path.join(tmp, "edges.tsv")
        for path, text in ((nodes, files[0]), (edges, files[1])):
            with open(path, "wb") as fh:
                fh.write(text.encode("utf-8"))
        values = [v for _, line in datasets._data_lines(nodes)
                  for v in line.split("\t")[1].split(",")]
        parses = _FeatureParses(monkeypatch)
        datasets.load_raw(nodes, edges)
    assert parses.calls == (not _one_digit_layout(values))


def _assert_graph_invariants(g):
    """The facts ``LabeledGraph`` documents, which its builders establish."""
    n = g.n
    a = g.adjacency
    assert a.shape == (n, n)
    assert np.array_equal(a, a.T)
    assert not np.any(np.diag(a))
    assert np.all((a == 0.0) | (a == 1.0))
    assert g.features.shape[0] == n and g.labels.shape[0] == n
    assert np.isfinite(g.features).all()
    assert np.all((g.labels == 0.0) | (g.labels == 1.0))
    assert np.all(g.labels.sum(axis=1) == 1.0)
    for train, val, test in g.splits:
        cat = np.concatenate([train, val, test])
        assert cat.min() >= 0 and cat.max() < n
        assert np.unique(cat).size == cat.size


@st.composite
def _dataset_dir(draw):
    """(nodes text, edges text, split texts): a well-formed ``_raw_dataset``
    and up to two split files over its nodes, each set non-empty."""
    nodes, edges = draw(_raw_dataset())
    n = sum(1 for line in nodes.splitlines()
            if line.strip() and not line.lstrip().startswith("#"))
    splits = []
    for _ in range(draw(st.integers(0, 2)) if n >= 3 else 0):
        order = draw(st.permutations(range(n)))
        cut1, cut2 = sorted(draw(st.lists(st.integers(1, n - 1), min_size=2, max_size=2,
                                          unique=True)))
        end = draw(st.integers(cut2 + 1, n))
        parts = (order[:cut1], order[cut1:cut2], order[cut2:end])
        splits.append(_text(draw, [" ".join(map(str, p)) for p in parts]))
    return nodes, edges, splits


# a float64 overflow in loading (an L1 row sum past the maximum) fails the draw
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(_dataset_dir(), st.booleans())
def test_a_loaded_bundle_holds_the_graph_invariants(files, normalize):
    nodes, edges, splits = files
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        _write(root / datasets.NODE_FILE, nodes)
        _write(root / datasets.EDGE_FILE, edges)
        (root / datasets.SPLIT_DIR).mkdir()
        for k, text in enumerate(splits):
            _write(root / datasets.SPLIT_DIR / f"split_{k:02d}.txt", text)
        graph = datasets.load_dataset_dir(tmp, normalize_features=normalize).graph
    _assert_graph_invariants(graph)
    assert len(graph.splits) == len(splits)
    assert all(idx.size for split in graph.splits for idx in split)


_NODES = "# nodes\n0\t1.0,2.0\t0\n1\t0.5,0.5\t1\n2\t0.0,1.0\t0\n"
_EDGES = "# edges\n# more\n0\t1\n1\t2\n"
# (nodes.tsv, edges.tsv, error class, "<file>:<line>") with one fault each
SINGLE_FAULTS = {
    "bad feature value": (_NODES.replace("0.5,0.5", "0.5,x"), _EDGES, ParseError, "nodes.tsv:3"),
    "ragged row": (_NODES.replace("0.5,0.5", "0.5"), _EDGES, ParseError, "nodes.tsv:3"),
    "node line with 2 fields": (_NODES.replace("0.5,0.5\t1", "0.5,0.5"), _EDGES,
                                ParseError, "nodes.tsv:3"),
    "non-integer id": (_NODES.replace("1\t0.5", "1.5\t0.5"), _EDGES, ParseError, "nodes.tsv:3"),
    "duplicate id": (_NODES.replace("2\t0.0", "0\t0.0"), _EDGES, ParseError, "nodes.tsv:4"),
    "negative label": (_NODES.replace("0.5\t1", "0.5\t-1"), _EDGES, ParseError, "nodes.tsv:3"),
    "label >= n": (_NODES.replace("0.5\t1", "0.5\t3"), _EDGES, ValidationError, "nodes.tsv:3"),
    "edge line with 3 fields": (_NODES, _EDGES.replace("1\t2", "1\t2\t0"),
                                ParseError, "edges.tsv:4"),
    "non-integer edge id": (_NODES, _EDGES.replace("1\t2", "1\tx"), ParseError, "edges.tsv:4"),
    # data row 2, physical line 4
    "unknown id after comments": (_NODES, _EDGES.replace("1\t2", "1\t9"),
                                  ParseError, "edges.tsv:4"),
}


@pytest.mark.parametrize("case", sorted(SINGLE_FAULTS))
def test_single_fault_names_its_line(case):
    nodes, edges, error, where = SINGLE_FAULTS[case]
    assert _outcome(_load_arrays, nodes, edges) == (error, where)
    assert _outcome(_reference_load_raw, nodes, edges) == (error, where)


@pytest.mark.parametrize("case", sorted(SINGLE_FAULTS))
def test_single_fault_exits_1_with_one_line(case, tmp_path, capsys):
    nodes, edges, _, where = SINGLE_FAULTS[case]
    _write(tmp_path / "nodes.tsv", nodes)
    _write(tmp_path / "edges.tsv", edges)
    assert cli.main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"{where}: " in err[0]


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e400"])
def test_load_raw_names_the_line_of_a_non_finite_feature(tmp_path, capsys, value):
    _write(tmp_path / "nodes.tsv", _NODES.replace("0.5,0.5", f"0.5,{value}"))
    _write(tmp_path / "edges.tsv", _EDGES)
    with pytest.raises(ValidationError, match=r"nodes\.tsv:3: non-finite feature$"):
        datasets.load_raw(str(tmp_path / "nodes.tsv"), str(tmp_path / "edges.tsv"))
    assert cli.main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "run")]) == 1
    assert len(capsys.readouterr().err.splitlines()) == 1


@pytest.mark.parametrize("edges", ["", "# only a comment\n", "\n  \n# a\r\n\t\n"])
def test_empty_edge_file_loads_without_a_warning(tmp_path, edges):
    nodes = _write(tmp_path / "n.tsv", _NODES)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = datasets.load_raw(nodes, _write(tmp_path / "e.tsv", edges))
    assert g.n == 3 and not g.adjacency.any()


# (text, value) per form; None where every integer field rejects it
INTEGER_FORMS = [("7", 7), (" 7 ", 7), ("+7", 7), ("07", 7), ("-0", 0),
                 ("7.0", None), ("7e0", None), ("1_0", None), ("７", None),
                 ("0x7", None)]
FLOAT_FORMS = [("1.5", 1.5), (" 1.5 ", 1.5), ("+1.5", 1.5), (".5", 0.5), ("5.", 5.0),
               ("7", 7.0), ("-0", -0.0), ("1E-3", 1e-3), ("5e-324", 5e-324),
               ("1_0.5", None), ("１.5", None), ("0x1p3", None), ("1.5j", None),
               ("1d5", None), ("", None)]


def _load_id(tmp_path, text, value):
    """Node 0 has id ``text``; an edge written as ``value`` reaches it."""
    nodes = _write(tmp_path / "n.tsv", f"{text}\t1.0\t0\n100\t1.0\t0\n")
    edges = _write(tmp_path / "e.tsv", f"{value}\t100\n")
    return datasets.load_raw(nodes, edges).adjacency[0, 1] == 1.0


def _load_edge(tmp_path, text, value):
    """An edge ``text``-100 reaches the node with id ``value``."""
    nodes = _write(tmp_path / "n.tsv", f"{value}\t1.0\t0\n100\t1.0\t0\n")
    edges = _write(tmp_path / "e.tsv", f"{text}\t100\n")
    return datasets.load_raw(nodes, edges).adjacency[0, 1] == 1.0


def _load_label(tmp_path, text, value):
    lines = "".join(f"{i}\t1.0\t0\n" for i in range(1, 9))
    nodes = _write(tmp_path / "n.tsv", f"0\t1.0\t{text}\n" + lines)
    g = datasets.load_raw(nodes, _write(tmp_path / "e.tsv", ""))
    return int(np.argmax(g.labels[0])) == value


def _load_split(tmp_path, text, value):
    path = _write(tmp_path / "s.txt", f"{text}\n8\n9\n")
    train = datasets.load_splits([path], n=10)[0][0]
    return train.dtype == np.intp and train.tolist() == [value]


@pytest.mark.parametrize("kind", [_load_id, _load_edge, _load_label, _load_split],
                         ids=["id", "edge", "label", "split"])
@pytest.mark.parametrize("text,value", INTEGER_FORMS)
def test_integer_fields_share_one_syntax(tmp_path, kind, text, value):
    if value is None:
        with pytest.raises(ParseError, match=r":1: "):
            kind(tmp_path, text, 7)
    else:
        assert kind(tmp_path, text, value)


@pytest.mark.parametrize("text,value", FLOAT_FORMS)
def test_feature_syntax(tmp_path, text, value):
    nodes = _write(tmp_path / "n.tsv", f"0\t2.0,{text}\t0\n")
    edges = _write(tmp_path / "e.tsv", "")
    if value is None:
        with pytest.raises(ParseError, match=r":1: "):
            datasets.load_raw(nodes, edges)
    else:
        got = datasets.load_raw(nodes, edges).features[0, 1]
        assert got.tobytes() == np.float64(value).tobytes()


# (one row's features, whether numpy's parser reads them): one digit
# layout of up to 15 digits is read without it
LAYOUT_FORMS = [("0,1,1", False), ("0.0,1.0", False), ("12.345,00.001", False),
                ("123456789012345", False), ("1.23456789012345", False),
                ("0.00000000000001", False), ("1234567890123456", True),
                ("1.234567890123456", True), ("9007199254740993", True), ("1.5,125", True),
                ("12.5,1.25", True), ("01,1", True), ("1,+1", True), ("-0,1", True),
                ("1, 1", True), ("1e0,1", True), (".5,1.", True), ("1.,2.", True)]


@pytest.mark.parametrize("text,parsed", LAYOUT_FORMS)
def test_one_digit_layout_is_read_without_numpy(tmp_path, monkeypatch, text, parsed):
    nodes = _write(tmp_path / "n.tsv", f"0\t{text}\t0\n1\t{text}\t1\n")
    parses = _FeatureParses(monkeypatch)
    got = datasets.load_raw(nodes, _write(tmp_path / "e.tsv", "")).features
    assert got.tobytes() == np.array([[float(v) for v in text.split(",")]] * 2).tobytes()
    assert parses.calls == parsed


@pytest.mark.parametrize("text", ["0,/", "0,:", "0,x", "0.0,1.:", "0.0,1/0"])
def test_a_byte_out_of_a_digit_layout_names_its_line(tmp_path, text):
    nodes = _write(tmp_path / "n.tsv", f"0\t1,0\t0\n1\t{text}\t1\n")
    with pytest.raises(ParseError, match=r"n\.tsv:2: could not convert"):
        datasets.load_raw(nodes, _write(tmp_path / "e.tsv", ""))


def _texas_shaped_node_file(tmp_path, write):
    """A node file of Texas's shape (183 nodes, 1703 words, 5 classes),
    each feature written by ``write``; returns its path and features."""
    rng = np.random.default_rng(3)
    x = rng.random((183, 1703)) < 0.012
    with open(tmp_path / "nodes.tsv", "w", encoding="utf-8") as fh:
        fh.writelines(f"{i}\t{','.join(map(write, row))}\t{i % 5}\n" for i, row in enumerate(x))
    return str(tmp_path / "nodes.tsv"), x


@pytest.mark.parametrize("write", [lambda v: "%d" % v, lambda v: repr(float(v))],
                         ids=["0/1", "0.0/1.0"])
def test_texas_shaped_digit_features_load_without_numpy_in_bounded_memory(tmp_path, monkeypatch,
                                                                         write):
    nodes, x = _texas_shaped_node_file(tmp_path, write)
    edges = _write(tmp_path / "edges.tsv", "0\t1\n")
    parses = _FeatureParses(monkeypatch)
    tracemalloc.start()
    try:
        features = datasets.load_raw(nodes, edges).features
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parses.calls == 0
    assert np.array_equal(features, x)
    assert peak < 3 * features.nbytes


def test_texas_shaped_float_features_take_one_numpy_parse(tmp_path, monkeypatch):
    nodes, _ = _texas_shaped_node_file(tmp_path, lambda v: repr(float(v) - 0.1))
    parses = _FeatureParses(monkeypatch)
    datasets.load_raw(nodes, _write(tmp_path / "edges.tsv", "0\t1\n"))
    assert parses.calls == 1


@pytest.mark.parametrize("text,ok", [("9223372036854775807", True),
                                     ("-9223372036854775808", True),
                                     ("9223372036854775808", False),
                                     ("-9223372036854775809", False)])
def test_ids_fit_in_a_signed_64_bit_integer(tmp_path, text, ok):
    nodes = _write(tmp_path / "n.tsv", f"{text}\t1.0\t0\n5\t1.0\t0\n")
    edges = _write(tmp_path / "e.tsv", f"5\t{text}\n")
    if ok:
        assert datasets.load_raw(nodes, edges).adjacency[0, 1] == 1.0
    else:
        with pytest.raises(ParseError, match=r"n\.tsv:1: "):
            datasets.load_raw(nodes, edges)
        nodes = _write(tmp_path / "n.tsv", "5\t1.0\t0\n")
        with pytest.raises(ParseError, match=r"e\.tsv:1: "):
            datasets.load_raw(nodes, edges)
        split = _write(tmp_path / "s.txt", f"0\n1\n{text}\n")
        with pytest.raises(ParseError, match=r"s\.txt:3: "):
            datasets.load_splits([split], n=3)


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


def test_stratified_splits_of_small_classes_keep_a_training_node():
    # classes of 1 to 6 nodes: per-class (train, val, test) sizes
    sizes = {1: (1, 0, 0), 2: (1, 1, 0), 3: (1, 1, 1), 4: (2, 1, 1), 5: (3, 1, 1),
             6: (4, 1, 1)}
    y = np.concatenate([np.full(s, c) for c, s in enumerate(sizes)])
    labels = np.eye(len(sizes))[y]
    splits = datasets.make_stratified_splits(labels, n_splits=2, seed=0)
    assert len(splits) == 2
    for split in splits:
        assert np.array_equal(np.sort(np.concatenate(split)), np.arange(y.size))
        for c, s in enumerate(sizes):
            assert tuple(int(np.sum(y[part] == c)) for part in split) == sizes[s]


def test_row_normalize_cases():
    feats = np.array([[2.0, 2.0], [0.0, 0.0], [0.25, 0.75]])
    out = datasets.row_normalize(feats)
    assert np.allclose(out[0], [0.5, 0.5])
    assert np.array_equal(out[1], [0.0, 0.0])
    assert np.max(np.abs(datasets.row_normalize(out) - out)) <= 1e-15


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_row_normalize_scales_a_row_whose_sum_overflows():
    big = np.finfo(np.float64).max
    feats = np.array([[big, big, 1.0], [1.0, 3.0, 0.0], [-big, 0.0, big / 2],
                      [0.0, 0.0, 0.0]])
    out = datasets.row_normalize(feats)
    assert np.isfinite(out).all()
    assert np.allclose(out[0], [0.5, 0.5, 0.0]) and out[0, 2] > 0.0
    assert np.allclose(out[2], [-2 / 3, 0.0, 1 / 3])
    assert np.allclose(np.abs(out[:3]).sum(axis=1), 1.0)
    # the rows whose sums are finite are divided by their sums alone
    assert np.array_equal(out[1], feats[1] / 4.0)
    assert np.array_equal(out[3], feats[3])


def test_gen_synthetic_pure_heterophilic():
    g = datasets.gen_synthetic(30, 3, intra_p=0.0, inter_p=0.4, proto_noise=0.1, seed=1)
    assert heterophilic_fraction(g.labels, EdgeList.from_dense(g.adjacency).pairs) == 1.0


def test_gen_synthetic_pure_homophilic():
    g = datasets.gen_synthetic(30, 3, intra_p=0.4, inter_p=0.0, proto_noise=0.1, seed=2)
    assert heterophilic_fraction(g.labels, EdgeList.from_dense(g.adjacency).pairs) == 0.0


def test_gen_synthetic_matches_sbm_expectation():
    # closed-form SBM oracle: balanced classes of 100, expected intra edges
    # 3*C(100,2)*0.005 = 74.25, expected inter edges 3*100*100*0.05 = 1500
    g = datasets.gen_synthetic(300, 3, intra_p=0.005, inter_p=0.05,
                               proto_noise=0.1, seed=3)
    expected = 1500.0 / (1500.0 + 74.25)
    realized = heterophilic_fraction(g.labels, EdgeList.from_dense(g.adjacency).pairs)
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


def test_gen_synthetic_holds_the_graph_invariants():
    _assert_graph_invariants(datasets.gen_synthetic(25, 4, 0.2, 0.2, 0.3, seed=4))


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
    g = datasets.LabeledGraph(graphs.EdgeList.from_dense(g.adjacency * 2.5), g.features,
                              g.labels, g.splits)
    cand = datasets.candidate_graph(g, "given")
    assert set(np.unique(cand.adjacency)) <= {0.0, 1.0}
    assert np.array_equal(cand.adjacency > 0, g.adjacency > 0)
    # a weighted dense matrix is read by its support
    a = np.array([[0, 2.5, 0], [2.5, 0, 0.5], [0, 0.5, 0]])
    weighted = graphs.LabeledGraph(graphs.EdgeList.from_dense(a), np.ones((3, 1)),
                                   np.eye(2)[[0, 1, 0]])
    for graph in (datasets.CandidateGraph(a, "given"), weighted):
        assert np.array_equal(graph.adjacency, (a > 0).astype(float))


def test_candidate_knn_tie_break_lower_index():
    from fggsl.graphs import LabeledGraph
    feats = np.ones((4, 3))
    g = LabeledGraph(graphs.EdgeList.from_dense(np.zeros((4, 4))), feats,
                     np.eye(2)[[0, 1, 0, 1]])
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


def _arrays(value):
    """Every ndarray reachable from ``value`` through dataclass fields,
    lists and tuples."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _arrays(item)
    elif dataclasses.is_dataclass(value):
        for item in vars(value).values():
            yield from _arrays(item)


def test_a_loaded_graph_and_its_candidate_hold_no_n_by_n_array(tmp_path):
    n = 2000
    graph = datasets.gen_synthetic(n, 4, 0.002, 0.006, 0.5, seed=3, n_splits=1)
    datasets.save_raw(graph, tmp_path / "nodes.tsv", tmp_path / "edges.tsv")
    datasets.save_splits(graph.splits, tmp_path / "splits")
    del graph
    edges = (tmp_path / "edges.tsv").read_text(encoding="utf-8").count("\n")
    assert 8000 <= edges <= 12000
    tracemalloc.start()
    try:
        bundle = datasets.load_dataset_dir(str(tmp_path))
        cand = datasets.candidate_graph(bundle.graph, "given")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8                        # one n x n float64 array
    assert cand.num_edges == edges
    held = list(_arrays(bundle)) + list(_arrays(cand))
    assert held and max(a.size for a in held) < n * n


def test_load_dataset_dir(tmp_path):
    graph = datasets.gen_synthetic(15, 3, 0.1, 0.4, 0.5, seed=11, n_splits=3)
    datasets.save_raw(graph, tmp_path / "nodes.tsv", tmp_path / "edges.tsv")
    datasets.save_splits(graph.splits, tmp_path / "splits")
    bundle = datasets.load_dataset_dir(str(tmp_path), normalize_features=False)
    assert bundle.graph.n == 15
    assert len(bundle.graph.splits) == 3
    fp = datasets.dataset_fingerprint(bundle)
    assert fp["nodes"] == 15 and fp["classes"] == 3
    dense_pairs = EdgeList.from_dense(graph.adjacency).pairs
    assert fp["heterophily_ratio"] == heterophilic_fraction(graph.labels, dense_pairs)

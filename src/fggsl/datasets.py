"""Dataset ingestion, synthetic heterophilic generators, and candidate graphs.

Native file formats (UTF-8; LF, CRLF or CR line ends; a line that is blank
or whose first non-blank character is ``#`` is skipped):

* node file -- one line per node: ``id<TAB>f1,f2,...<TAB>label``
* edge file -- one line per edge: ``src<TAB>dst``
* split file -- exactly three data lines (train / val / test), each a
  space-separated list of node indices

Ids, labels, edge endpoints and split indices are signed decimal integers
within int64 (``_int``); features are ASCII float literals without digit
separators (``_float``); both allow whitespace around a value.  numpy's
text parser reads all feature values of a node file in one call, all
edges of an edge file in another, and each split line in one; ``_int``
and ``_float`` state the same syntax for the scans that name the line of
a fault, which run only when a file does not load.

These match the common tab-separated exports of the WebKB-style
benchmarks; converters for other layouts are documented in the README
rather than bundled.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ContractError, ParseError, ValidationError
from .graphs import EdgeList, LabeledGraph, heterophilic_fraction

NODE_FILE = "nodes.tsv"
EDGE_FILE = "edges.tsv"
SPLIT_DIR = "splits"
TRAIN_FRAC = 0.6
VAL_FRAC = 0.2


@dataclass
class DatasetBundle:
    graph: LabeledGraph
    name: str
    feature_normalized: bool


@dataclass
class CandidateGraph:
    """Binary symmetric edge superset the masks select from, held as its
    ``EdgeList``.  ``adjacency`` is the dense (n, n) 0/1 matrix, built on
    each read and read-only.  A dense matrix given in place of the
    ``EdgeList`` is read by its support (``EdgeList.from_dense``); only
    perfbench's self-test builds one so, until ROADMAP item 3 moves it to
    ``candidate_graph``."""

    edges: EdgeList
    mode: str

    def __post_init__(self):
        if not isinstance(self.edges, EdgeList):
            self.edges = EdgeList.from_dense(self.edges)

    def edge_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Upper-triangle (i, j) index arrays of candidate edges, read-only."""
        return self.edges.pairs

    @property
    def adjacency(self) -> np.ndarray:
        return self.edges.dense()

    @property
    def n(self) -> int:
        return self.edges.n

    @property
    def num_edges(self) -> int:
        return int(self.edges.i.size)


# a line that ``_data_lines`` skips, with the newline in front of it
_SKIPPED_LINE = re.compile(r"\n[^\S\n]*(?:#[^\n]*)?(?=\n|\Z)")
_INT = re.compile(r"\s*([+-]?[0-9]+)\s*")
_INT64 = np.iinfo(np.int64)


@contextlib.contextmanager
def open_text(path):
    """``path`` opened as UTF-8 text; bytes that are not UTF-8 raise a
    one-line ParseError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _data_lines(path):
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            yield lineno, line


def _int(text: str) -> int:
    """An id, label, edge endpoint or split index: ASCII decimal digits with
    an optional sign and surrounding whitespace, within int64 (the syntax
    numpy's integer parser reads)."""
    match = _INT.fullmatch(text)
    value = int(match.group(1)) if match else None
    if value is None or not _INT64.min <= value <= _INT64.max:
        raise ValueError(f"not a 64-bit decimal integer: {text!r}")
    return value


def _float(text: str) -> float:
    """A feature value: an ASCII Python float literal without underscores,
    with surrounding whitespace (the syntax numpy's float parser reads)."""
    literal = text.strip()
    if "_" in literal or not literal.isascii():
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(literal)


def _feature_values(field: str):
    for value in field.split(","):
        _float(value)


def _loadtxt(lines, dtype, delimiter):
    """All values of ``lines`` by numpy's text parser as a 2-D array, or
    None if it rejects a value or a change of row width."""
    with warnings.catch_warnings():
        # numpy 1.x reads "1.0" as an integer with a DeprecationWarning
        warnings.simplefilter("error")
        try:
            return np.loadtxt(lines, dtype=dtype, delimiter=delimiter, ndmin=2,
                              comments=None)
        except (ValueError, Warning):
            return None


def _raise_first_fault(path, lines, check, otherwise: Exception):
    """Raise ParseError at the first (lineno, text) of ``lines`` that
    ``check`` rejects with a ValueError, or ``otherwise`` if it rejects none."""
    for lineno, text in lines:
        try:
            check(text)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    raise otherwise


def load_raw(node_file, edge_file) -> LabeledGraph:
    """Build a LabeledGraph from the tab-separated node and edge files.

    Duplicate edges, in either orientation, and self-loops are dropped;
    the graph holds each undirected edge once, with unit weight.  Unknown
    node ids, ragged feature rows and values that do not parse raise
    ParseError with the offending line number; a label >= the node count
    raises ValidationError before anything of its size is allocated, and
    so does a NaN or infinite feature, naming its line.

    Python reads the node lines for ids, labels and row widths; numpy's
    text parser reads all feature values in one call and all edges in
    another.  The faulty line is found by a scan that runs only on error.
    """
    ids: dict[int, int] = {}             # node id -> row
    fields: list[str] = []               # feature field of each row
    linenos: list[int] = []
    labels: list[int] = []
    width = None
    top = (-1, 0)                        # (largest label, its line)

    def fail(lineno, message):
        # a feature value read before the fault that does not parse comes first
        _raise_first_fault(node_file, zip(linenos, fields), _feature_values,
                           ParseError(f"{node_file}:{lineno}: {message}"))

    for lineno, line in _data_lines(node_file):
        parts = line.split("\t")
        if len(parts) != 3:
            fail(lineno, "expected 3 tab-separated fields")
        try:
            node_id = _int(parts[0])
        except ValueError as exc:
            fail(lineno, exc)
        fields.append(parts[1])
        linenos.append(lineno)
        try:
            label = _int(parts[2])
        except ValueError as exc:
            fail(lineno, exc)
        if node_id in ids:
            fail(lineno, f"duplicate node id {node_id}")
        if label < 0:
            fail(lineno, f"negative label {label}")
        row_width = parts[1].count(",") + 1
        if width is None:
            width = row_width
        elif row_width != width:
            fail(lineno, f"feature length {row_width} != {width}")
        ids[node_id] = len(labels)
        labels.append(label)
        if label > top[0]:
            top = (label, lineno)
    if not fields:
        raise ParseError(f"{node_file}: no node records")

    n = len(fields)
    features = _loadtxt(fields, np.float64, ",")
    if features is None or features.shape != (n, width):
        _raise_first_fault(node_file, zip(linenos, fields), _feature_values,
                           ParseError(f"{node_file}: a feature value does not parse"))
    # the one-hot matrix has max label + 1 columns; more classes than
    # nodes cannot be a labelling, and a huge label would allocate first
    if top[0] >= n:
        raise ValidationError(
            f"{node_file}:{top[1]}: label {top[0]} >= node count {n}")
    edges = _read_edges(edge_file, ids)
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        raise ValidationError(
            f"{node_file}:{linenos[int(np.argmin(finite))]}: non-finite feature")
    onehot = np.eye(top[0] + 1)[np.array(labels)]
    return LabeledGraph(edges, features, onehot)


def _read_edges(edge_file, ids: dict[int, int]) -> EdgeList:
    """The undirected edges of ``edge_file``, rows in the order of ``ids``
    (node id -> row): one parse of the edge lines, ids mapped to rows by a
    sorted search, and one sort of the pairs, which a pass over adjacent
    keys rids of duplicates."""
    with open_text(edge_file) as fh:
        text = _SKIPPED_LINE.sub("", "\n" + fh.read())
    pairs = (_loadtxt(io.StringIO(text), np.int64, "\t") if text
             else np.empty((0, 2), dtype=np.int64))
    n = len(ids)
    node_ids = np.fromiter(ids, dtype=np.int64, count=n)
    order = np.argsort(node_ids)
    known = False
    if pairs is not None and pairs.shape[1] == 2:
        rows = order[np.minimum(np.searchsorted(node_ids[order], pairs), n - 1)]
        known = bool(np.all(node_ids[rows] == pairs))
    if not known:
        def check(line):
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError("expected 2 tab-separated fields")
            for node_id in [_int(part) for part in parts]:
                if node_id not in ids:
                    raise ValueError(f"unknown node id {node_id}")

        _raise_first_fault(edge_file, _data_lines(edge_file), check,
                           ParseError(f"{edge_file}: an edge line does not parse"))
    rows = rows[rows[:, 0] != rows[:, 1]]        # self-loops dropped
    # pair (i, j), i < j, as the key i n + j: sorted keys are row-major order
    keys = np.sort(rows.min(axis=1) * n + rows.max(axis=1))
    keys = keys[np.diff(keys, prepend=-1) != 0]
    return EdgeList(n, *np.divmod(keys, n))


def load_splits(split_files, n: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Read (train, val, test) index triples, one file per split."""
    splits = []
    for path in split_files:
        lines = list(_data_lines(path))
        if len(lines) != 3:
            raise ValidationError(f"{path}: expected 3 index lines, found {len(lines)}")
        sets = []
        for lineno, line in lines:
            idx = _loadtxt([line], np.intp, None)
            if idx is None:
                _raise_first_fault(path, [(lineno, line)],
                                   lambda text: [_int(v) for v in text.split()],
                                   ParseError(f"{path}:{lineno}: an index does not parse"))
            sets.append(idx[0])
        train, val, test = sets
        for name, idx in (("train", train), ("val", val), ("test", test)):
            if idx.size == 0:
                raise ValidationError(f"{path}: empty {name} set")
            if idx.min() < 0 or idx.max() >= n:
                raise ValidationError(f"{path}: {name} index out of range [0, {n})")
        cat = np.concatenate(sets)
        if len(np.unique(cat)) != cat.size:
            raise ValidationError(f"{path}: train/val/test sets overlap")
        splits.append((train, val, test))
    return splits


def row_normalize(features: np.ndarray) -> np.ndarray:
    """Scale each nonzero row to unit L1 norm by ``ad.row_units``; zero
    rows pass through, and a finite row whose L1 sum overflows normalizes
    too instead of coming back as zeros."""
    return ad.row_units(features, 1)[0]


def save_raw(graph: LabeledGraph, node_file, edge_file):
    labels = np.argmax(graph.labels, axis=1)
    with open(node_file, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(graph.n):
            row = ",".join("%.17g" % v for v in graph.features[i])
            fh.write(f"{i}\t{row}\t{labels[i]}\n")
    with open(edge_file, "w", encoding="utf-8", newline="\n") as fh:
        for i, j in zip(*graph.edges.pairs):
            fh.write(f"{i}\t{j}\n")


def save_splits(splits, directory):
    os.makedirs(directory, exist_ok=True)
    paths = []
    for k, (train, val, test) in enumerate(splits):
        path = os.path.join(directory, f"split_{k:02d}.txt")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for idx in (train, val, test):
                fh.write(" ".join(str(int(v)) for v in idx) + "\n")
        paths.append(path)
    return paths


def load_dataset_dir(directory, normalize_features=True) -> DatasetBundle:
    """Load ``nodes.tsv`` / ``edges.tsv`` / ``splits/*.txt`` from a directory.

    This is the one place a dataset on disk is checked; a fault raises
    with its file and line.  The graph returned holds, with n nodes:

    * the edges are an ``EdgeList`` over n nodes: each undirected edge
      once as (i, j), i < j, in row-major order (``_read_edges`` drops
      self-loops and duplicates), so ``adjacency`` is n x n, symmetric
      and 0/1 with a zero diagonal;
    * features and labels have n rows; every feature is finite
      (``load_raw``), and stays so under ``row_normalize``;
    * every label row is one-hot, over max label + 1 <= n classes;
    * each split's train, val and test sets are non-empty, disjoint and
      within [0, n) (``load_splits``).

    The bundle is named after the directory.
    """
    node_file = os.path.join(directory, NODE_FILE)
    edge_file = os.path.join(directory, EDGE_FILE)
    graph = load_raw(node_file, edge_file)
    split_dir = os.path.join(directory, SPLIT_DIR)
    if os.path.isdir(split_dir):
        files = sorted(
            os.path.join(split_dir, f) for f in os.listdir(split_dir)
            if f.endswith(".txt"))
        graph.splits = load_splits(files, graph.n)
    if normalize_features:
        graph.features = row_normalize(graph.features)
    return DatasetBundle(graph=graph, name=os.path.basename(os.path.normpath(directory)),
                         feature_normalized=normalize_features)


def make_stratified_splits(labels: np.ndarray, n_splits: int, seed: int):
    """Per-class random train/val/test partitions: TRAIN_FRAC of each
    class to train, VAL_FRAC to val, the remainder to test.

    Every class keeps at least one training node; val and test each get a
    member only when the class is large enough.
    """
    y = np.argmax(labels, axis=1)
    rng = np.random.default_rng(seed)
    splits = []
    for _ in range(n_splits):
        train, val, test = [], [], []
        for c in np.unique(y):
            members = np.flatnonzero(y == c)
            perm = members[rng.permutation(members.size)]
            s = members.size
            n_tr = max(1, min(int(round(TRAIN_FRAC * s)), s - 2))
            n_va = max(1, min(int(round(VAL_FRAC * s)), s - 1 - n_tr))
            train.extend(perm[:n_tr])
            val.extend(perm[n_tr:n_tr + n_va])
            test.extend(perm[n_tr + n_va:])
        splits.append((np.sort(np.array(train, dtype=np.intp)),
                       np.sort(np.array(val, dtype=np.intp)),
                       np.sort(np.array(test, dtype=np.intp))))
    return splits


def gen_synthetic(n: int, classes: int, intra_p: float, inter_p: float,
                  proto_noise: float, seed: int, n_splits: int = 10) -> LabeledGraph:
    """Stochastic block model with class-prototype features.

    Nodes get balanced labels; an edge appears independently with
    probability ``intra_p`` inside a class and ``inter_p`` across
    classes, so ``inter_p > intra_p`` yields a heterophilic graph.
    Features are the one-hot class prototype plus Gaussian noise of
    scale ``proto_noise``; a feature that overflows raises a ContractError.
    """
    if n < classes:
        raise ContractError(f"gen_synthetic: n={n} smaller than classes={classes}")
    for pname, p in (("intra_p", intra_p), ("inter_p", inter_p)):
        if not 0.0 <= p <= 1.0:
            raise ContractError(f"gen_synthetic: {pname}={p} outside [0, 1]")
    rng = np.random.default_rng(seed)
    y = np.arange(n) % classes
    same = y[:, None] == y[None, :]
    prob = np.where(same, intra_p, inter_p)
    draw = rng.random((n, n))
    edges = EdgeList.from_dense(draw < prob)
    with np.errstate(over="ignore"):
        features = np.eye(classes)[y] + proto_noise * rng.standard_normal((n, classes))
    if not np.isfinite(features).all():
        raise ContractError(f"gen_synthetic: noise {proto_noise:g} makes a feature non-finite")
    labels = np.eye(classes)[y]
    graph = LabeledGraph(edges, features, labels)
    graph.splits = make_stratified_splits(labels, n_splits, seed=seed + 1)
    return graph


def candidate_k(spec) -> int | None:
    """K of a ``knn:K`` candidate spec (K >= 1, written without sign or
    leading zeros); None for ``full`` and ``given``.  Any other spec
    raises a one-line ValidationError."""
    if spec in ("full", "given"):
        return None
    match = re.fullmatch(r"knn:([1-9][0-9]*)", spec) if isinstance(spec, str) else None
    if match is None:
        raise ValidationError(
            f"candidate: expected full, given or knn:K with K >= 1, got {spec!r}")
    return int(match.group(1))


def candidate_graph(graph: LabeledGraph, spec: str) -> CandidateGraph:
    """Edge superset named by ``spec`` (see ``candidate_k``): the complete
    graph, the given graph, or a mutual kNN graph.  ``given`` holds the
    graph's own ``EdgeList`` and copies nothing.

    kNN uses feature cosine similarity with ties broken toward the lower
    node index; an edge survives only if each endpoint ranks the other
    among its k nearest.
    """
    k = candidate_k(spec)
    n = graph.n
    if spec == "full":
        edges = EdgeList(n, *np.triu_indices(n, 1))
    elif spec == "given":
        edges = graph.edges
    else:
        if k >= n:
            raise ContractError(f"candidate_graph: k={k} must be < n={n}")
        unit = ad.row_units(graph.features, 2)[0]
        sims = unit @ unit.T
        np.fill_diagonal(sims, -np.inf)
        # stable sort on -sims: equal similarities keep ascending index order
        nearest = np.argsort(-sims, axis=1, kind="stable")[:, :k]
        picks = np.zeros((n, n), dtype=bool)
        np.put_along_axis(picks, nearest, True, axis=1)
        edges = EdgeList.from_dense(picks & picks.T)
    return CandidateGraph(edges, spec)


def dataset_fingerprint(bundle: DatasetBundle) -> dict:
    """Summary statistics recorded in run manifests."""
    g = bundle.graph
    pairs = g.edges.pairs
    edges = int(pairs[0].size)
    return {
        "name": bundle.name,
        "nodes": g.n,
        "edges": edges,
        "features": g.num_features,
        "classes": g.num_classes,
        "splits": len(g.splits),
        "heterophily_ratio": heterophilic_fraction(g.labels, pairs) if edges else None,
        "feature_normalized": bundle.feature_normalized,
    }

"""Dataset ingestion, synthetic heterophilic generators, and candidate graphs.

Native file formats (UTF-8, LF, ``#`` comment lines ignored):

* node file -- one line per node: ``id<TAB>f1,f2,...<TAB>label``
* edge file -- one line per edge: ``src<TAB>dst``
* split file -- exactly three data lines (train / val / test), each a
  space-separated list of node indices

These match the common tab-separated exports of the WebKB-style
benchmarks; converters for other layouts are documented in the README
rather than bundled.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, ParseError, ValidationError
from .graphs import LabeledGraph, edge_pairs, heterophilic_fraction

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
    """Binary symmetric edge superset the masks select from.

    The adjacency is not to be changed after construction: the edge list
    is built from it once, on first use.
    """

    adjacency: np.ndarray
    mode: str
    _pairs: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False)

    def edge_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Upper-triangle (i, j) index arrays of candidate edges, read-only."""
        if self._pairs is None:
            pairs = edge_pairs(self.adjacency)
            for idx in pairs:
                idx.flags.writeable = False
            self._pairs = pairs
        return self._pairs

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def num_edges(self) -> int:
        return int(self.edge_pairs()[0].size)


def _data_lines(path):
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            yield lineno, line


def load_raw(node_file, edge_file) -> LabeledGraph:
    """Build a LabeledGraph from the tab-separated node and edge files.

    Duplicate edges and self-loops are dropped; the adjacency is
    symmetrized.  Unknown node ids or ragged feature rows raise
    ParseError with the offending line number; a label >= the node count
    raises ValidationError before anything of its size is allocated.
    """
    ids: dict[int, int] = {}
    feats: list[np.ndarray] = []
    labels: list[int] = []
    width = None
    top = (-1, 0)                    # (largest label, its line)
    for lineno, line in _data_lines(node_file):
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
            raise ParseError(
                f"{node_file}:{lineno}: feature length {row.size} != {width}")
        ids[node_id] = len(feats)
        feats.append(row)
        labels.append(label)
        if label > top[0]:
            top = (label, lineno)
    if not feats:
        raise ParseError(f"{node_file}: no node records")

    n = len(feats)
    # the one-hot matrix has max label + 1 columns; more classes than
    # nodes cannot be a labelling, and a huge label would allocate first
    if top[0] >= n:
        raise ValidationError(
            f"{node_file}:{top[1]}: label {top[0]} >= node count {n}")
    adjacency = np.zeros((n, n))
    for lineno, line in _data_lines(edge_file):
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
        if i == j:
            continue
        adjacency[i, j] = adjacency[j, i] = 1.0

    c = max(labels) + 1
    onehot = np.eye(c)[np.array(labels)]
    features = np.vstack(feats)
    return LabeledGraph(adjacency, features, onehot)


def load_splits(split_files, n: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Read (train, val, test) index triples, one file per split."""
    splits = []
    for path in split_files:
        lines = list(_data_lines(path))
        if len(lines) != 3:
            raise ValidationError(f"{path}: expected 3 index lines, found {len(lines)}")
        sets = []
        for lineno, line in lines:
            try:
                idx = np.array([int(v) for v in line.split()], dtype=np.intp)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            sets.append(idx)
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
    """Scale each nonzero row to unit L1 norm; zero rows pass through."""
    norms = np.abs(features).sum(axis=1, keepdims=True)
    safe = np.where(norms == 0.0, 1.0, norms)
    return features / safe


def save_raw(graph: LabeledGraph, node_file, edge_file):
    labels = np.argmax(graph.labels, axis=1)
    with open(node_file, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(graph.n):
            row = ",".join("%.17g" % v for v in graph.features[i])
            fh.write(f"{i}\t{row}\t{labels[i]}\n")
    with open(edge_file, "w", encoding="utf-8", newline="\n") as fh:
        for i, j in zip(*edge_pairs(graph.adjacency)):
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


def load_dataset_dir(directory, name=None, normalize_features=True) -> DatasetBundle:
    """Load ``nodes.tsv`` / ``edges.tsv`` / ``splits/*.txt`` from a directory."""
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
    graph.validate()
    return DatasetBundle(graph=graph, name=name or os.path.basename(os.path.normpath(directory)),
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
            if s == 1:
                train.extend(perm)
                continue
            if s == 2:
                train.append(perm[0])
                val.append(perm[1])
                continue
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
    scale ``proto_noise``.
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
    upper = np.triu(draw < prob, k=1).astype(np.float64)
    adjacency = upper + upper.T
    features = np.eye(classes)[y] + proto_noise * rng.standard_normal((n, classes))
    labels = np.eye(classes)[y]
    graph = LabeledGraph(adjacency, features, labels)
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
    graph, the given graph, or a mutual kNN graph.

    kNN uses feature cosine similarity with ties broken toward the lower
    node index; an edge survives only if each endpoint ranks the other
    among its k nearest.
    """
    k = candidate_k(spec)
    n = graph.n
    if spec == "full":
        adj = np.ones((n, n)) - np.eye(n)
    elif spec == "given":
        adj = (graph.adjacency > 0).astype(np.float64)
    else:
        if k >= n:
            raise ContractError(f"candidate_graph: k={k} must be < n={n}")
        feats = graph.features
        norms = np.linalg.norm(feats, axis=1, keepdims=True)
        unit = feats / np.where(norms == 0.0, 1.0, norms)
        sims = unit @ unit.T
        np.fill_diagonal(sims, -np.inf)
        # stable sort on -sims: equal similarities keep ascending index order
        nearest = np.argsort(-sims, axis=1, kind="stable")[:, :k]
        picks = np.zeros((n, n), dtype=bool)
        np.put_along_axis(picks, nearest, True, axis=1)
        adj = (picks & picks.T).astype(np.float64)
    return CandidateGraph(adjacency=adj, mode=spec)


def dataset_fingerprint(bundle: DatasetBundle) -> dict:
    """Summary statistics recorded in run manifests."""
    g = bundle.graph
    pairs = edge_pairs(g.adjacency)
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

"""A seeded WebKB-shaped stand-in for the Texas, Wisconsin and Cornell files.

The stand-in matches Texas's published shape by construction: its class
sizes, its word count and its edge heterophily are inputs here, not
results.  A run on it checks that the code of the data-gated tests runs,
not that the model reproduces Texas's numbers.

Written as a script, it draws one dataset into a directory in the
``nodes.tsv``/``edges.tsv``/``splits`` layout that
``fggsl.datasets.load_dataset_dir`` reads:

    python tests/webkb_standin.py --out DATA/texas --seed 1 --splits 10

so that ``FGGSL_DATA=DATA python -m pytest tests/test_benchmarks.py``
runs the tests that skip without the data.
"""

from __future__ import annotations

import argparse
import os

import numpy as np

from fggsl import datasets
from fggsl.graphs import EdgeList, LabeledGraph

# Texas's class sizes with every class at least 9, so each split has
# val/test nodes, its 1,703 words and 300 edges, 88% of them heterophilic
TEXAS_CLASS_SIZES = (33, 9, 18, 93, 30)
TEXAS_FEATURES = 1703
TEXAS_EDGES = 300
HETEROPHILY = 0.88
# the calibration: each class owns TOPIC_WORDS words, which its pages take
# with probability TOPIC_P, and a page takes every other word with
# probability OTHER_P.  At n = 183, F = 1,703 and seed 1 the in-repo MLP
# reads 0.757, inside criterion 7's band [0.71, 0.87], and the raw-feature
# similarity gap 0.025, below criterion 9's 0.10; at perfbench's topic
# probability of 0.5 both fall outside.
TOPIC_WORDS = 60
TOPIC_P = 0.1
OTHER_P = 0.008


def draw(n: int, features: int, n_splits: int, seed: int) -> LabeledGraph:
    """A graph of ``n`` pages with Texas's class proportions and binary word
    features, with stratified 60/20/20 splits.

    Class sizes and the edge count scale with n from Texas's, and
    exactly round(0.88 |E|) edges join two classes; each edge is a
    distinct pair drawn uniformly from its kind.  A class owns
    min(TOPIC_WORDS, features // classes) topic words, and a page with no
    word takes its class's first topic word, so no feature row is zero.
    """
    rng = np.random.default_rng(seed)
    sizes = np.array(TEXAS_CLASS_SIZES, dtype=float)
    sizes = np.maximum(np.round(sizes * n / sizes.sum()), 1).astype(int)
    sizes[np.argmax(sizes)] += n - sizes.sum()
    classes = sizes.size
    y = rng.permutation(np.repeat(np.arange(classes), sizes))

    words = min(TOPIC_WORDS, features // classes)
    topic = rng.permutation(features)[:words * classes].reshape(classes, words)
    prob = np.full((classes, features), OTHER_P)
    for c in range(classes):
        prob[c, topic[c]] = TOPIC_P
    x = (rng.random((n, features)) < prob[y]).astype(np.float64)
    empty = np.flatnonzero(x.sum(axis=1) == 0)
    x[empty, topic[y[empty], 0]] = 1.0

    n_edges = int(round(TEXAS_EDGES * n / sum(TEXAS_CLASS_SIZES)))
    n_cross = int(round(HETEROPHILY * n_edges))
    iu, ju = np.triu_indices(n, 1)
    cross = y[iu] != y[ju]
    picks = [rng.choice(np.flatnonzero(cross == kind), size, replace=False)
             for kind, size in ((True, n_cross), (False, n_edges - n_cross))]
    adjacency = np.zeros((n, n), dtype=bool)
    kept = np.concatenate(picks)
    adjacency[iu[kept], ju[kept]] = True

    labels = np.eye(classes)[y]
    graph = LabeledGraph(EdgeList.from_dense(adjacency), x, labels)
    graph.splits = datasets.make_stratified_splits(labels, n_splits,
                                                   seed=int(rng.integers(2 ** 31)))
    return graph


def write(graph: LabeledGraph, directory: str):
    """Write ``graph`` in the layout ``load_dataset_dir`` reads."""
    os.makedirs(directory, exist_ok=True)
    datasets.save_raw(graph, os.path.join(directory, datasets.NODE_FILE),
                      os.path.join(directory, datasets.EDGE_FILE))
    datasets.save_splits(graph.splits, os.path.join(directory, datasets.SPLIT_DIR))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--n", type=int, default=sum(TEXAS_CLASS_SIZES))
    parser.add_argument("--features", type=int, default=TEXAS_FEATURES)
    parser.add_argument("--splits", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    write(draw(args.n, args.features, args.splits, args.seed), args.out)


if __name__ == "__main__":
    main()

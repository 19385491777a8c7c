"""Seeded input generators for the benchmark workloads.

Every input is made here with numpy from ``--seed`` alone, then written in
the dataset directory format that ``fggsl.datasets.load_dataset_dir``
reads (``nodes.tsv``, ``edges.tsv``, ``splits/split_XX.txt``).  The
``analyze-probe`` inputs also hold one checkpoint per split, trained by
the package itself while the inputs are made.

Run as a script it writes one workload's inputs into a directory:

    python3 perfbench/inputs.py --workload sbm1k-given --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import os

import numpy as np

# Texas (WebKB) has 183 pages in 5 classes, 1703 bag-of-words features and
# an edge heterophily ratio of about 0.88.  Its smallest class has a single
# page; here every class keeps at least 9 so each split has val/test nodes.
TEXAS_CLASS_SIZES = (33, 9, 18, 93, 30)
TEXAS_FEATURES = 1703
TEXAS_EDGES = 300
TEXAS_HETEROPHILY = 0.88

# analyze-probe has 19 test nodes per split, so one node moves the accuracy
# of a single split by 5%; its test_acc is the mean over 5 splits, where one
# node moves it by 1%.
SPLITS = {"texas-full": 2, "sbm1k-given": 1, "analyze-probe": 5}
PROBE_N = 100
PROBE_TRAIN_EPOCHS = 60


def probe_checkpoint(split: int) -> str:
    """File name of the analyze-probe checkpoint trained on ``split``; the
    analyze commands use split 0's."""
    return f"model_split_{split:02d}.fgck"


PROBE_CHECKPOINT = probe_checkpoint(0)


def _stratified_splits(y: np.ndarray, n_splits: int, rng) -> list:
    """Per class: 60% train, 20% val, the rest test."""
    splits = []
    for _ in range(n_splits):
        parts = ([], [], [])
        for c in np.unique(y):
            members = rng.permutation(np.flatnonzero(y == c))
            n_tr = int(round(0.6 * members.size))
            n_va = int(round(0.2 * members.size))
            parts[0].extend(members[:n_tr])
            parts[1].extend(members[n_tr:n_tr + n_va])
            parts[2].extend(members[n_tr + n_va:])
        splits.append(tuple(np.sort(np.array(p, dtype=np.int64)) for p in parts))
    return splits


def texas_like(n: int, seed: int) -> dict:
    """Texas-shaped graph: sparse binary word features that carry the class.

    Each class owns 60 topic words.  A page takes each word of its class's
    topics with probability 0.5 and each of the other words with
    probability 0.008, so rows hold about 43 ones.  The signal is strong
    enough that test accuracy sits near 1 on every seed, so it moves only
    when training breaks.  Edges join pages of different classes with
    probability ``TEXAS_HETEROPHILY``.
    """
    rng = np.random.default_rng(seed)
    sizes = np.array(TEXAS_CLASS_SIZES, dtype=float)
    sizes = np.maximum(np.round(sizes * n / sizes.sum()), 1).astype(int)
    sizes[np.argmax(sizes)] += n - sizes.sum()
    y = rng.permutation(np.repeat(np.arange(sizes.size), sizes))
    classes = sizes.size
    topic = rng.permutation(TEXAS_FEATURES)[:60 * classes].reshape(classes, 60)
    prob = np.full((classes, TEXAS_FEATURES), 0.008)
    for c in range(classes):
        prob[c, topic[c]] = 0.5
    x = (rng.random((n, TEXAS_FEATURES)) < prob[y]).astype(np.float64)
    empty = np.flatnonzero(x.sum(axis=1) == 0)
    x[empty, topic[y[empty], 0]] = 1.0

    n_edges = int(round(TEXAS_EDGES * n / sum(TEXAS_CLASS_SIZES)))
    edges = set()
    while len(edges) < n_edges:
        i = int(rng.integers(n))
        same = rng.random() >= TEXAS_HETEROPHILY
        pool = np.flatnonzero((y == y[i]) == same)
        pool = pool[pool != i]
        j = int(pool[rng.integers(pool.size)])
        edges.add((min(i, j), max(i, j)))
    return {"x": x, "y": y, "edges": sorted(edges), "rng": rng}


def sbm1k(seed: int) -> dict:
    """n=1000, F=100, C=5 heterophilic SBM with about 42k edges.

    Pairs in one class are joined with probability 0.02 and pairs across
    classes with probability 0.1, so about 8% of all pairs are edges and
    about 95% of edges join two classes.  Features are a class prototype
    plus Gaussian noise.
    """
    n, f, classes = 1000, 100, 5
    rng = np.random.default_rng(seed)
    y = rng.permutation(np.arange(n) % classes)
    prob = np.where(y[:, None] == y[None, :], 0.02, 0.1)
    upper = np.triu(rng.random((n, n)) < prob, k=1)
    iu, ju = np.nonzero(upper)
    protos = rng.standard_normal((classes, f))
    x = protos[y] + 1.5 * rng.standard_normal((n, f))
    return {"x": x, "y": y, "edges": list(zip(iu.tolist(), ju.tolist())), "rng": rng}


def write_dataset(data: dict, n_splits: int, directory: str):
    x, y = data["x"], data["y"]
    os.makedirs(os.path.join(directory, "splits"), exist_ok=True)
    with open(os.path.join(directory, "nodes.tsv"), "w", encoding="utf-8") as fh:
        for i in range(x.shape[0]):
            row = ",".join(repr(float(v)) for v in x[i])
            fh.write(f"{i}\t{row}\t{int(y[i])}\n")
    with open(os.path.join(directory, "edges.tsv"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{i}\t{j}\n" for i, j in data["edges"])
    for k, parts in enumerate(_stratified_splits(y, n_splits, data["rng"])):
        path = os.path.join(directory, "splits", f"split_{k:02d}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(" ".join(map(str, p)) + "\n" for p in parts)


def train_probe_checkpoints(directory: str, seed: int):
    """Train the analyze-probe model on each split with the package and save
    its checkpoints."""
    from fggsl import datasets, model, training
    bundle = datasets.load_dataset_dir(directory)
    config = training.TrainConfig(lr=0.05, epochs_max=PROBE_TRAIN_EPOCHS,
                                  patience=PROBE_TRAIN_EPOCHS, j_max=3,
                                  candidate_mode="full", seed=seed)
    for k, split in enumerate(bundle.graph.splits):
        net, _ = training.train_single_split(bundle, split, config)
        model.save_checkpoint(os.path.join(directory, probe_checkpoint(k)), net,
                              alpha=config.alpha, beta=config.beta)


def make_inputs(workload: str, seed: int, directory: str):
    if workload == "texas-full":
        data = texas_like(sum(TEXAS_CLASS_SIZES), seed)
    elif workload == "sbm1k-given":
        data = sbm1k(seed)
    elif workload == "analyze-probe":
        data = texas_like(PROBE_N, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    write_dataset(data, SPLITS[workload], directory)
    if workload == "analyze-probe":
        train_probe_checkpoints(directory, seed)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPLITS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    make_inputs(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()

"""Tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py

The file name keeps it out of the package's own test run; the last two
tests start five short benchmark processes (under a minute).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
from fggsl import autodiff as ad  # noqa: E402
from fggsl import datasets, graphs  # noqa: E402
from fggsl import model as fm  # noqa: E402

PERTURB = 1.0 + 1e-6


def all_ok(results) -> bool:
    return all(ok for _, ok, _ in results)


@pytest.fixture(scope="module")
def small_graph():
    rng = np.random.default_rng(5)
    n, f = 12, 4
    upper = np.triu(rng.random((n, n)) < 0.5, k=1)
    cand = (upper | upper.T).astype(float)
    z = rng.standard_normal((n, 3))
    w = cand / (1.0 + np.exp(-(z @ z.T)))
    x = rng.standard_normal((n, f))
    labels = np.eye(3)[np.arange(n) % 3]
    return {"cand": cand, "w": w, "x": x, "labels": labels}


def test_bank_check_catches_scaled_output(small_graph):
    lap = checks.laplacian(small_graph["w"])
    x = small_graph["x"]
    for kind in ("low", "high"):
        answer = fm.filter_bank_apply(ad.constant(lap), ad.constant(x),
                                      fm.FilterBankSpec(4, "fig3", kind)).data
        assert all_ok(checks.check_bank("bank", answer, lap, x, 4, kind))
        assert not all_ok(checks.check_bank("bank", answer * PERTURB, lap, x, 4, kind))


def test_laplacian_matches_package(small_graph):
    np.testing.assert_allclose(checks.laplacian(small_graph["w"]),
                               graphs.normalized_laplacian(small_graph["w"]),
                               rtol=0, atol=1e-15)


def test_accuracy_check_catches_one_node():
    labels = np.eye(2)[[0, 1, 0, 1, 0, 1, 1, 1]]
    probs = labels * 0.8 + 0.1
    probs[7] = [0.9, 0.1]                     # one wrong test node
    train, test = [0, 1, 2, 3], [4, 5, 6, 7]
    assert all_ok(checks.check_accuracy("acc", 0.75, probs, labels, train, test))
    assert not all_ok(checks.check_accuracy("acc", 1.0, probs, labels, train, test))
    assert not all_ok(checks.check_accuracy("acc", 0.5, probs, labels, train, test))


def test_accuracy_check_requires_lead_over_prior():
    labels = np.eye(2)[[0, 0, 0, 1, 0, 0, 0, 1]]
    probs = np.tile([0.9, 0.1], (8, 1))       # always the majority class
    assert not all_ok(checks.check_accuracy("acc", 0.75, probs, labels,
                                            [0, 1, 2, 3], [4, 5, 6, 7]))


def test_mask_and_probability_checks(small_graph):
    w, cand = small_graph["w"], small_graph["cand"]
    probs = np.full((w.shape[0], 3), 1.0 / 3.0)
    assert all_ok(checks.check_masks_probs("m", [w], cand, probs))
    asym = w.copy()
    i, j = np.argwhere(cand > 0)[0]
    asym[i, j] *= PERTURB
    off = w.copy()
    off[np.argwhere(cand == 0)[0][0], np.argwhere(cand == 0)[0][1]] = 1e-9
    for bad in (asym, off, w * 2.5):
        assert not all_ok(checks.check_masks_probs("m", [bad], cand, probs))
    assert not all_ok(checks.check_masks_probs("m", [w], cand, probs * PERTURB))


def test_mask_recompute_check(small_graph):
    cand, x = small_graph["cand"], small_graph["x"]
    net = fm.FgGSLModel(x.shape[1], 3, j_max=3, seed=1)
    fwd = fm.forward(net, ad.constant(x), datasets.CandidateGraph(cand, "given"))
    masks = [fwd.w1.data, fwd.w2.data]
    expected = checks.numpy_masks({name: t.data for name, t in net.params}, x, cand)
    assert all_ok(checks.check_masks_recomputed("m", masks, expected))
    assert not all_ok(checks.check_masks_recomputed("m", [masks[0] * PERTURB, masks[1]],
                                                    expected))


def test_gradient_check_catches_scaled_gradient():
    rng = np.random.default_rng(2)
    a, p = rng.standard_normal((6, 4)), rng.standard_normal((4, 3))

    def loss_with(offsets):
        return float(np.sum(np.tanh(a @ (p + offsets["p"])) ** 2))

    t = np.tanh(a @ p)
    grad = a.T @ (2.0 * t * (1.0 - t * t))
    assert all_ok(checks.check_gradient("g", {"p": grad}, loss_with))
    assert not all_ok(checks.check_gradient("g", {"p": grad * PERTURB}, loss_with))
    off = grad.copy()
    off[0, 0] += 1e-6 * np.abs(grad).max()
    assert not all_ok(checks.check_gradient("g", {"p": off}, loss_with))


def test_audit_check_catches_one_edge(small_graph):
    from fggsl.analysis import learned_edge_audit
    w, labels = small_graph["w"], small_graph["labels"]
    audit = learned_edge_audit(w, w, labels).__dict__
    assert all_ok(checks.check_audit("a", audit, [w, w], labels, 0.5))
    assert not all_ok(checks.check_audit("a", dict(audit, ho_edges=audit["ho_edges"] + 1),
                                         [w, w], labels, 0.5))


def test_stability_check_catches_perturbed_distance(small_graph):
    from fggsl.analysis import stability_probe
    lap = checks.laplacian(small_graph["cand"])
    recs = stability_probe(lap, 3, "fig3", "high", [1e-3, 1e-2], trials=2, seed=4)
    rows = [{"j": r.j, "kind": "high", "epsilon": repr(r.epsilon),
             "observed_distance": repr(r.observed_distance),
             "bound_value": repr(r.bound_value), "delta": repr(r.delta)} for r in recs]
    assert all_ok(checks.check_stability("s", rows, lap, 4))
    scaled = [dict(rows[0], observed_distance=repr(recs[0].observed_distance * PERTURB))]
    assert not all_ok(checks.check_stability("s", scaled, lap, 4))


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc


def last_json(proc) -> dict:
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(record["attempted"], int) and record["attempted"] >= 1
    assert isinstance(record["failed"], int)
    return record


def test_fixed_seed_repeats_accuracy_epochs_and_counts():
    base = ("--workload", "texas-full", "--seed", "3", "--seconds", "1")
    for trace in ("0", "1"):
        first, second = (last_json(run_bench(*base, "--trace", trace)) for _ in range(2))
        for record in (first, second):
            assert record["correct"] and record["failed"] == 0
        assert first["attempted"] == second["attempted"]
        exact = [name for name, m in first["metrics"].items()
                 if m["unit"] in ("count", "fraction", "GFLOP", "MiB")
                 and name != "trace.coverage"]
        assert exact
        for name in exact:
            assert first["metrics"][name] == second["metrics"][name], name


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench("--workload", "texas-full", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"attempted"' not in proc.stdout

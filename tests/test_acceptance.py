"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 5-9 need the Texas/Wisconsin/Cornell benchmark files on disk
(see README); they skip with an explicit message when the data is not
mounted, and a smoke test runs their code on a small WebKB-shaped
stand-in (``webkb_standin``) without asserting their gates.  Everything
else is self-contained and runs in seconds to a couple of minutes.
"""

import dataclasses
import re
import time

import numpy as np
import pytest

import webkb_standin
from conftest import require_dataset
from fggsl import analysis, autodiff as ad, datasets, model as fm, training
from fggsl.graphs import normalized_laplacian, symmetric_eig


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:2d} {name}: {status}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _spec_default_config(seed=0):
    """Reproduction defaults for the benchmark datasets."""
    return training.TrainConfig(lr=0.01, weight_decay=5e-4, epochs_max=500,
                                patience=100, alpha=1.0, beta=1.0, j_max=4,
                                kernel_mode="fig3", variant="full",
                                candidate_mode="full", mask_dim=16, seed=seed)


# ---------------------------------------------------------------------------
# 1. gradient correctness across modes and variants


def test_criterion_01_gradient_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = worst_abs = 0.0
    instances = 0
    combos = [(mode, variant, j)
              for mode in fm.KERNEL_MODES
              for variant in fm.VARIANTS
              for j in (2, 3)]
    combos += [(fm.KERNEL_MODES[int(rng.integers(2))],
                fm.VARIANTS[int(rng.integers(4))],
                int(rng.integers(2, 4))) for _ in range(8)]
    for k, (mode, variant, j_max) in enumerate(combos):
        n = int(rng.integers(5, 9))
        c = int(rng.integers(2, 4))
        graph = datasets.gen_synthetic(n, c, 0.35, 0.55, 0.5,
                                       seed=1000 + k, n_splits=1)
        net = fm.FgGSLModel(graph.num_features, graph.num_classes, j_max=j_max,
                            mask_dim=3, kernel_mode=mode, variant=variant,
                            seed=2000 + k)
        cand_mode = "given" if variant == "NM" else "full"
        a_f = datasets.candidate_graph(graph, cand_mode)
        if a_f.num_edges == 0:
            a_f = datasets.candidate_graph(graph, "full")
        train_idx = graph.splits[0][0]

        def loss_fn():
            loss, _, _ = fm.total_loss(net, graph, a_f, 1.0, 1.0, train_idx)
            return loss

        errors = ad.grad_check(loss_fn, net.params, 1e-5)
        worst = max(worst, errors.relative)
        worst_abs = max(worst_abs, errors.absolute)
        instances += 1
    elapsed = time.perf_counter() - started
    _report(1, "total_loss gradients match finite differences",
            instances >= 20 and worst <= 1e-4 and elapsed < 60,
            f"{instances} instances, max rel err {worst:.2e}, "
            f"max abs err {worst_abs:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. spectral-theorem oracle for filter_bank_apply


def test_criterion_02_spectral_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    combos = [(m, k) for m in fm.KERNEL_MODES for k in fm.BANK_KINDS]
    for g in range(50):
        n = int(rng.integers(3, 13))
        a = np.triu((rng.random((n, n)) < 0.5) * rng.random((n, n)), 1)
        a = a + a.T
        lap = normalized_laplacian(a)
        x = rng.standard_normal((n, int(rng.integers(1, 5))))
        mode, kind = combos[g % len(combos)]
        for j in (2, 3, 4, 5):
            # scale j is the last column block of the bank up to j
            bank = fm.filter_bank_apply(ad.constant(lap), ad.constant(x),
                                        fm.FilterBankSpec(j, mode, kind))
            got = bank.data[:, -x.shape[1]:]
            want = analysis.spectral_filter_matrix(lap, j, mode, kind) @ x
            worst = max(worst, float(np.linalg.norm(got - want)))
    _report(2, "filter_bank_apply equals U h(Lambda) U^T X at every scale",
            worst <= 1e-8, f"50 graphs, j<=5, worst Frobenius error {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. label-vs-prediction cosine bound


def test_criterion_03_prediction_similarity_bound():
    rng = np.random.default_rng(11)
    total = 0
    violations = 0
    per_class = 100_000 // 7 + 1
    for c in range(2, 9):
        n = 400
        y = np.eye(c)[rng.integers(0, c, size=n)]
        z = rng.standard_normal((n, c)) * rng.uniform(0.3, 5.0, size=(n, 1))
        e = np.exp(z - z.max(axis=1, keepdims=True))
        yhat = e / e.sum(axis=1, keepdims=True)
        # half the rows mimic near-converged predictions
        sharp = slice(0, n // 2)
        yhat[sharp] = 0.9 * y[sharp] + 0.1 * yhat[sharp]
        recs = analysis.prop1_check(
            y, yhat, (rng.integers(0, n, per_class), rng.integers(0, n, per_class)))
        total += len(recs)
        violations += sum(not r.holds for r in recs)
    _report(3, "cosine deviation bounded by 2 sqrt(C)(eps_i + eps_j)",
            total >= 100_000 and violations == 0,
            f"{violations} violations over {total} pairs")


# ---------------------------------------------------------------------------
# 4. filter stability under Laplacian perturbations


def test_criterion_04_stability_bound():
    started = time.perf_counter()
    rng = np.random.default_rng(13)
    kinds = ("low", "high")
    all_hold = True
    slopes = []
    for j in (2, 3, 4):
        records = []
        for trial in range(50):
            n = 20
            a = np.triu((rng.random((n, n)) < 0.3).astype(float), 1)
            a = a + a.T
            lap = normalized_laplacian(a)
            recs = analysis.stability_probe(lap, j, "fig3", kinds[trial % 2],
                                            [1e-3, 1e-2], trials=1,
                                            seed=j * 100_003 + trial)
            records.extend(recs)
            all_hold &= all(r.holds_with_slack for r in recs)
        slopes.append(analysis.distance_slope(records))
    elapsed = time.perf_counter() - started
    _report(4, "operator distance within 2^(j-1)(1+delta sqrt(N))eps bound",
            all_hold and all(s >= 0.9 for s in slopes) and elapsed < 60,
            f"slopes {[f'{s:.3f}' for s in slopes]}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5-9. the benchmark datasets: each criterion is a function of the runs and
# bundles it reads, returning (ok, detail), so the smoke test below runs
# the same code on a stand-in


def criterion_05(full_run, mlp_run):
    mean = full_run.mean_acc
    mlp_mean = mlp_run.mean_acc
    return (mean >= 0.85 and mean > mlp_mean,
            f"mean {mean:.3f} +/- {full_run.std_acc:.3f}, MLP {mlp_mean:.3f}")


CRITERION_06_FLOORS = {"wisconsin": 0.85, "cornell": 0.80}


def criterion_06(runs):
    """``runs`` maps each name in ``CRITERION_06_FLOORS`` to its run."""
    means = {name: runs[name].mean_acc for name in CRITERION_06_FLOORS}
    ok = all(means[name] >= floor for name, floor in CRITERION_06_FLOORS.items())
    detail = ", ".join(f"{name} {means[name]:.3f} (floor {floor})"
                       for name, floor in CRITERION_06_FLOORS.items())
    return ok, detail


def criterion_07(mlp_run):
    mean = mlp_run.mean_acc
    return 0.71 <= mean <= 0.87, f"mean {mean:.3f}"


def criterion_08(ablation):
    means = {v: r.mean_acc for v, r in ablation.items()}
    ok = all(means["full"] >= means[v] - 0.03 for v in ("NM", "FBL", "FBH"))
    ok = ok and means["full"] > means["NM"]
    return ok, ", ".join(f"{v} {m:.3f}" for v, m in means.items())


def criterion_09(bundle, full_run):
    graph = bundle.graph
    raw = analysis.similarity_histogram(graph.features, graph.labels, seed=0)
    net = full_run.models[0]
    a_f = datasets.candidate_graph(graph, "full")
    with ad.no_grad():
        h = fm.embedding(net, ad.constant(graph.features), a_f).data
    emb = analysis.similarity_histogram(h, graph.labels, seed=0)
    return (raw.mean_gap < 0.10 and emb.mean_gap > 0.20,
            f"raw gap {raw.mean_gap:.3f}, embedding gap {emb.mean_gap:.3f}")


@pytest.fixture(scope="module")
def texas_bundle():
    path = require_dataset("texas")
    return datasets.load_dataset_dir(path)


@pytest.fixture(scope="module")
def texas_full_run(texas_bundle):
    return training.run_protocol(texas_bundle, _spec_default_config())


@pytest.fixture(scope="module")
def texas_mlp_run(texas_bundle):
    return training.run_protocol(texas_bundle, _spec_default_config(), baseline=True)


@pytest.fixture(scope="module")
def texas_ablation(texas_bundle):
    return training.run_ablation(texas_bundle, _spec_default_config())


def test_criterion_05_texas_reproduction(texas_bundle, texas_full_run, texas_mlp_run):
    _report(5, "Texas mean accuracy >= 0.85 and beats the MLP baseline",
            *criterion_05(texas_full_run, texas_mlp_run))


def test_criterion_06_wisconsin_and_cornell():
    runs = {}
    for name in CRITERION_06_FLOORS:
        bundle = datasets.load_dataset_dir(require_dataset(name))
        runs[name] = training.run_protocol(bundle, _spec_default_config())
    _report(6, "Wisconsin >= 0.85 and Cornell >= 0.80", *criterion_06(runs))


def test_criterion_07_mlp_calibration(texas_mlp_run):
    _report(7, "in-repo MLP mean on Texas within [0.71, 0.87]",
            *criterion_07(texas_mlp_run))


def test_criterion_08_ablation_ordering(texas_ablation):
    _report(8, "full variant leads the ablations on Texas", *criterion_08(texas_ablation))


def test_criterion_09_embedding_separation(texas_bundle, texas_full_run):
    _report(9, "trained embeddings separate classes where raw features overlap",
            *criterion_09(texas_bundle, texas_full_run))


def test_criteria_05_to_09_run_on_a_small_stand_in(tmp_path):
    # the criteria's code on a small WebKB-shaped draw, through the loader;
    # a stand-in's accuracy is not the paper's claim, so no gate is asserted
    started = time.perf_counter()
    cfg = dataclasses.replace(_spec_default_config(), epochs_max=20, patience=20, j_max=3)
    bundles = {}
    for seed, name in enumerate(("texas", "wisconsin", "cornell"), start=1):
        webkb_standin.write(webkb_standin.draw(60, 200, n_splits=2, seed=seed),
                            str(tmp_path / name))
        bundles[name] = datasets.load_dataset_dir(str(tmp_path / name))
    texas = bundles["texas"]
    full_run = training.run_protocol(texas, cfg)
    mlp_run = training.run_protocol(texas, cfg, baseline=True)
    runs = {name: training.run_protocol(bundles[name], cfg) for name in CRITERION_06_FLOORS}
    results = [criterion_05(full_run, mlp_run), criterion_06(runs), criterion_07(mlp_run),
               criterion_08(training.run_ablation(texas, cfg)),
               criterion_09(texas, full_run)]
    for ok, detail in results:
        numbers = re.findall(r"nan|inf|\d+(?:\.\d+)?(?:e[-+]?\d+)?", detail, re.IGNORECASE)
        assert isinstance(ok, bool) and numbers, detail
        assert all(np.isfinite(float(v)) for v in numbers), detail
    assert time.perf_counter() - started < 10


# ---------------------------------------------------------------------------
# 10. synthetic end-to-end


def test_criterion_10_synthetic_end_to_end():
    started = time.perf_counter()
    graph = datasets.gen_synthetic(150, 3, intra_p=0.06, inter_p=0.3,
                                   proto_noise=1.0, seed=42, n_splits=3)
    bundle = datasets.DatasetBundle(graph, "synthetic-het", False)
    cfg = training.TrainConfig(lr=0.05, weight_decay=5e-4, epochs_max=500,
                               patience=250, alpha=1.0, beta=1.0, j_max=3,
                               mask_dim=8, candidate_mode="given", seed=3)
    fg = training.run_protocol(bundle, cfg)
    mlp = training.run_protocol(bundle, cfg, baseline=True)
    margin = fg.mean_acc - mlp.mean_acc
    audit_gaps = [r["audit"]["ht_r_het"] - r["audit"]["ho_r_het"] for r in fg.rows]
    elapsed = time.perf_counter() - started
    ok = margin >= 0.05 and all(g > 0 for g in audit_gaps) and elapsed < 120
    _report(10, "synthetic heterophilic graphs: beats MLP and audit orders masks",
            ok, f"FgGSL {fg.mean_acc:.3f} vs MLP {mlp.mean_acc:.3f} "
                f"(margin {margin:+.3f}), audit gaps "
                f"{[f'{g:+.3f}' for g in audit_gaps]}, {elapsed:.0f}s")

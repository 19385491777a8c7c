import json
import os

import numpy as np
import pytest

from fggsl import cli, datasets
from fggsl.graphs import heterophily_ratio


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    code = run_cli("gen", "--out", str(root), "--n", "24", "--classes", "2",
                   "--intra-p", "0.05", "--inter-p", "0.4", "--noise", "0.3",
                   "--seed", "5", "--splits", "2")
    assert code == 0
    return str(root)


FAST_CONFIG = {"lr": 0.05, "epochs_max": 12, "patience": 12, "j_max": 2,
               "mask_dim": 4, "alpha": 1.0, "beta": 1.0}


def _write_config(tmp_path, **overrides):
    payload = dict(FAST_CONFIG)
    payload.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# gen


def test_gen_round_trips_and_reports_heterophily(tiny_dataset, capsys):
    bundle = datasets.load_dataset_dir(tiny_dataset, normalize_features=False)
    assert bundle.graph.n == 24
    assert len(bundle.graph.splits) == 2
    manifest = json.loads(
        open(os.path.join(tiny_dataset, "manifest.json"), encoding="utf-8").read())
    assert manifest["realized_heterophily_ratio"] == pytest.approx(
        heterophily_ratio(bundle.graph.adjacency, bundle.graph.labels))


def test_gen_deterministic(tmp_path):
    for sub in ("a", "b"):
        assert run_cli("gen", "--out", str(tmp_path / sub), "--n", "15",
                       "--classes", "3", "--seed", "9", "--splits", "1") == 0
    for name in ("nodes.tsv", "edges.tsv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b


# ---------------------------------------------------------------------------
# train


def test_train_writes_reports_and_checkpoints(tiny_dataset, tmp_path):
    out = tmp_path / "run"
    cfg = _write_config(tmp_path)
    code = run_cli("train", "--config", cfg, "--data", tiny_dataset,
                   "--out", str(out), "--seed", "1")
    assert code == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["aggregate"]["n_splits"] == 2
    assert len(report["splits"]) == 2
    csv_lines = (out / "results.csv").read_text(encoding="utf-8").strip().splitlines()
    assert csv_lines[0] == "split_id,test_acc,best_epoch,seconds"
    assert len(csv_lines) == 3
    assert (out / "ckpt_split_00.fgck").exists()
    assert (out / "ckpt_split_01.fgck").exists()
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["seeds"]["per_split"] == [1000, 1001]
    assert manifest["dataset"]["nodes"] == 24


def test_train_missing_edge_file_exits_3(tiny_dataset, tmp_path):
    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / "nodes.tsv").write_text("0\t1.0\t0\n1\t2.0\t1\n", encoding="utf-8")
    code = run_cli("train", "--data", str(broken), "--out", str(tmp_path / "o"))
    assert code == 3


def test_train_negative_alpha_exits_1_naming_field(tiny_dataset, tmp_path, capsys):
    cfg = _write_config(tmp_path, alpha=-1.0)
    code = run_cli("train", "--config", cfg, "--data", tiny_dataset,
                   "--out", str(tmp_path / "o"))
    assert code == 1
    assert "alpha" in capsys.readouterr().err


def test_train_unknown_config_key_exits_1(tiny_dataset, tmp_path, capsys):
    cfg = _write_config(tmp_path, learning_rate=0.1)
    code = run_cli("train", "--config", cfg, "--data", tiny_dataset,
                   "--out", str(tmp_path / "o"))
    assert code == 1
    assert "learning_rate" in capsys.readouterr().err


@pytest.mark.parametrize("overrides,field", [
    ({"lr": "abc"}, "lr"),
    ({"epochs_max": "5"}, "epochs_max"),
    ({"mask_dim": 0}, "mask_dim"),
    ({"alpha": True}, "alpha"),
    ({"feature_normalize": "no"}, "feature_normalize"),
])
def test_train_malformed_config_value_exits_1(tiny_dataset, tmp_path, capsys,
                                              overrides, field):
    cfg = _write_config(tmp_path, **overrides)
    code = run_cli("train", "--config", cfg, "--data", tiny_dataset,
                   "--out", str(tmp_path / "o"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and field in err
    assert "Traceback" not in err


def test_train_config_not_an_object_exits_1(tiny_dataset, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("[1, 2]", encoding="utf-8")
    code = run_cli("train", "--config", str(path), "--data", tiny_dataset,
                   "--out", str(tmp_path / "o"))
    assert code == 1
    assert "JSON object" in capsys.readouterr().err


def test_train_idempotent_outputs(tiny_dataset, tmp_path):
    cfg = _write_config(tmp_path)
    outs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        assert run_cli("train", "--config", cfg, "--data", tiny_dataset,
                       "--out", str(out), "--seed", "2") == 0
        outs.append(out)

    def normalized_report(path):
        doc = json.loads((path / "report.json").read_text(encoding="utf-8"))
        for row in doc["splits"]:
            row.pop("seconds")
        return doc

    assert normalized_report(outs[0]) == normalized_report(outs[1])
    assert ((outs[0] / "ckpt_split_00.fgck").read_bytes()
            == (outs[1] / "ckpt_split_00.fgck").read_bytes())


def test_train_parallel_splits_matches_serial(tiny_dataset, tmp_path):
    cfg = _write_config(tmp_path)
    accs = []
    for sub, workers in (("serial", "1"), ("para", "2")):
        out = tmp_path / sub
        assert run_cli("train", "--config", cfg, "--data", tiny_dataset,
                       "--out", str(out), "--seed", "4",
                       "--parallel-splits", workers) == 0
        doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
        accs.append([r["test_acc"] for r in doc["splits"]])
    assert accs[0] == accs[1]


def test_train_mlp_baseline(tiny_dataset, tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "mlp"
    code = run_cli("train", "--config", cfg, "--data", tiny_dataset,
                   "--out", str(out), "--baseline-mlp")
    assert code == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["aggregate"]["n_splits"] == 2
    assert not list(out.glob("*.fgck"))


# ---------------------------------------------------------------------------
# ablate


def test_ablate_writes_variant_table(tiny_dataset, tmp_path):
    cfg = _write_config(tmp_path, epochs_max=6, patience=6)
    out = tmp_path / "ab"
    code = run_cli("ablate", "--config", cfg, "--data", tiny_dataset,
                   "--out", str(out), "--seed", "3")
    assert code == 0
    lines = (out / "ablation.csv").read_text(encoding="utf-8").strip().splitlines()
    data = [l for l in lines[1:] if l.split(",")[1].isdigit()]
    assert len(data) == 4 * 2  # four variants x two splits
    for variant in ("full", "NM", "FBL", "FBH"):
        assert (out / f"report_{variant}.json").exists()


# ---------------------------------------------------------------------------
# analyze


def test_analyze_response(tmp_path):
    out = tmp_path / "resp"
    code = run_cli("analyze", "response", "--out", str(out), "--J", "4",
                   "--grid", "50")
    assert code == 0
    lines = (out / "response.csv").read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "lambda,j,kind,value"
    assert len(lines) - 1 == 50 * 3 * 2  # (J-1) kernels x 2 kinds


def test_analyze_prop1_zero_violations(tmp_path):
    out = tmp_path / "p1"
    code = run_cli("analyze", "prop1", "--out", str(out), "--trials", "1000")
    assert code == 0
    doc = json.loads((out / "prop1.json").read_text(encoding="utf-8"))
    assert doc["violations"] == 0


def test_analyze_stability(tmp_path):
    out = tmp_path / "st"
    code = run_cli("analyze", "stability", "--out", str(out), "--n", "10",
                   "--trials", "2", "--J", "3", "--seed", "1")
    assert code == 0
    doc = json.loads((out / "stability.json").read_text(encoding="utf-8"))
    assert doc["all_hold"] is True


def test_analyze_stability_nan_epsilon_exits_2(tmp_path, capsys):
    code = run_cli("analyze", "stability", "--out", str(tmp_path / "st"),
                   "--n", "10", "--trials", "1", "--J", "2", "--epsilons", "nan")
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("numeric failure:")
    assert "Traceback" not in err


def test_analyze_similarity_and_audit_from_checkpoint(tiny_dataset, tmp_path):
    cfg = _write_config(tmp_path)
    run_dir = tmp_path / "run"
    assert run_cli("train", "--config", cfg, "--data", tiny_dataset,
                   "--out", str(run_dir), "--seed", "6") == 0
    ckpt = str(run_dir / "ckpt_split_00.fgck")

    sim_raw = tmp_path / "sim_raw"
    assert run_cli("analyze", "similarity", "--out", str(sim_raw),
                   "--data", tiny_dataset, "--no-normalize") == 0
    raw_doc = json.loads((sim_raw / "similarity.json").read_text(encoding="utf-8"))
    assert raw_doc["source"] == "features"

    sim_emb = tmp_path / "sim_emb"
    assert run_cli("analyze", "similarity", "--out", str(sim_emb),
                   "--data", tiny_dataset, "--checkpoint", ckpt) == 0
    emb_doc = json.loads((sim_emb / "similarity.json").read_text(encoding="utf-8"))
    assert emb_doc["source"] == "embedding"

    audit = tmp_path / "audit"
    assert run_cli("analyze", "audit", "--out", str(audit),
                   "--data", tiny_dataset, "--checkpoint", ckpt) == 0
    doc = json.loads((audit / "audit.json").read_text(encoding="utf-8"))
    assert "ho_r_het" in doc and "ht_r_het" in doc


def test_analyze_audit_requires_checkpoint(tiny_dataset, tmp_path, capsys):
    code = run_cli("analyze", "audit", "--out", str(tmp_path / "a"),
                   "--data", tiny_dataset)
    assert code == 1


def test_analyze_unknown_kind_lists_valid_kinds(tmp_path, capsys):
    code = run_cli("analyze", "bogus", "--out", str(tmp_path / "x"))
    assert code == 1
    err = capsys.readouterr().err
    for kind in ("similarity", "prop1", "stability", "response", "audit"):
        assert kind in err

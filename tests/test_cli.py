import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fggsl
from fggsl import analysis, cli, datasets, model
from fggsl import autodiff as ad
from fggsl.errors import ContractError, NumericError
from fggsl.graphs import EdgeList, LabeledGraph, heterophilic_fraction


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
    with open(os.path.join(tiny_dataset, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["realized_heterophily_ratio"] == pytest.approx(
        heterophilic_fraction(bundle.graph.labels,
                              EdgeList.from_dense(bundle.graph.adjacency).pairs))


def test_gen_manifest_records_the_tool_version(tiny_dataset):
    with open(os.path.join(tiny_dataset, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["command"] == "gen"
    assert manifest["tool_version"] == fggsl.__version__


def test_gen_deterministic(tmp_path):
    for sub in ("a", "b"):
        assert run_cli("gen", "--out", str(tmp_path / sub), "--n", "15",
                       "--classes", "3", "--seed", "9", "--splits", "1") == 0
    for name in ("nodes.tsv", "edges.tsv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b


def test_gen_edgeless_draw_exits_1_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "o"
    code = run_cli("gen", "--out", str(out), "--n", "1", "--classes", "1",
                   "--splits", "1")
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and "no edges" in err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gen_noise_that_overflows_a_feature_exits_1_and_writes_nothing(tmp_path, capsys):
    # the loader rejects a non-finite feature, so gen refuses the draw
    out = tmp_path / "o"
    code = run_cli("gen", "--out", str(out), "--n", "30", "--noise", "1e308",
                   "--splits", "2")
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and "noise 1e+308" in err
    assert not out.exists()


@pytest.mark.parametrize("n, classes", [(6, 3), (8, 4)])
def test_gen_split_with_an_empty_set_exits_1_and_writes_nothing(tmp_path, capsys,
                                                                n, classes):
    # two nodes per class give every split an empty test set, which the
    # loader would reject
    out = tmp_path / "o"
    code = run_cli("gen", "--out", str(out), "--n", str(n), "--classes", str(classes))
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and "empty test set" in err
    assert not out.exists()


# records OPENBLAS_NUM_THREADS at the moment numpy is first imported
_THREAD_PROBE = """
import os, sys
class Probe:
    seen = None
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and Probe.seen is None:
            Probe.seen = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
sys.meta_path.insert(0, Probe())
import fggsl.cli
print(Probe.seen)
"""


def test_fggsl_threads_is_set_before_numpy_loads():
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["FGGSL_THREADS"] = "1"
    src = os.path.dirname(os.path.dirname(os.path.abspath(fggsl.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "1"


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
    ({"lr": 10 ** 400}, "lr"),
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


# a valid value other than the default for every config key
_CONFIG_VALUES = {"lr": 0.5, "weight_decay": 0.0, "epochs_max": 200, "patience": 7,
                  "alpha": 0.5, "beta": 2.0, "j_max": 3, "kernel_mode": "verbatim",
                  "variant": "NM", "candidate": "knn:3", "seed": 9, "mask_dim": 2,
                  "true_labels_on_train": True, "feature_normalize": False}


@pytest.mark.parametrize("key", sorted(cli.CONFIG_KEYS))
def test_every_config_key_is_accepted(tmp_path, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: _CONFIG_VALUES[key]}), encoding="utf-8")
    args = cli._build_parser().parse_args(
        ["train", "--config", str(path), "--out", str(tmp_path / "o")])
    config, normalize = cli._resolve_config(args)
    if key == "feature_normalize":
        assert normalize is False
    else:
        field = "candidate_mode" if key == "candidate" else key
        assert getattr(config, field) == _CONFIG_VALUES[key]


# one case per flag that names a config key: the flag, the key, the
# config's value and the value the flag sets
_FLAG_OVER_CONFIG = [
    (["--seed", "2"], "seed", 9, 2),
    (["--variant", "FBL"], "variant", "NM", "FBL"),
    (["--kernel-mode", "fig3"], "kernel_mode", "verbatim", "fig3"),
    (["--candidate", "given"], "candidate", "knn:3", "given"),
    (["--no-normalize"], "feature_normalize", True, False),
]


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("flag,key,in_config,expected", _FLAG_OVER_CONFIG,
                         ids=[case[1] for case in _FLAG_OVER_CONFIG])
def test_every_flag_beats_the_config_file(tmp_path, command, flag, key, in_config,
                                          expected):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: in_config}), encoding="utf-8")
    args = cli._build_parser().parse_args(
        [command, "--config", str(path), "--out", str(tmp_path / "o"), *flag])
    config, normalize = cli._resolve_config(args)
    if key == "feature_normalize":
        assert normalize is expected
    else:
        field = "candidate_mode" if key == "candidate" else key
        assert getattr(config, field) == expected


def test_no_normalize_over_a_normalizing_config_trains_on_raw_features(tiny_dataset,
                                                                       tmp_path):
    """``--no-normalize`` over ``"feature_normalize": true`` gives the run of a
    config holding ``"feature_normalize": false``, and the manifest says so."""
    reports = []
    for name, normalize, flags in (("flag", True, ["--no-normalize"]),
                                   ("config", False, [])):
        out = tmp_path / name
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({**FAST_CONFIG, "feature_normalize": normalize}),
                       encoding="utf-8")
        assert run_cli("train", "--config", str(cfg), "--data", tiny_dataset,
                       "--out", str(out), *flags) == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["dataset"]["feature_normalized"] is False
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        for row in report["splits"]:
            assert "max_update_scale" in row
            del row["seconds"]
        reports.append(report)
    assert reports[0] == reports[1]


def test_train_config_not_an_object_exits_1(tiny_dataset, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("[1, 2]", encoding="utf-8")
    code = run_cli("train", "--config", str(path), "--data", tiny_dataset,
                   "--out", str(tmp_path / "o"))
    assert code == 1
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["nodes.tsv", "edges.tsv", "splits/split_00.txt",
                                  "config.json"])
def test_input_that_is_not_utf8_exits_1_naming_the_file(tiny_dataset, tmp_path, capsys,
                                                        name):
    data = tmp_path / "data"
    shutil.copytree(tiny_dataset, data)
    (data / "config.json").write_text(json.dumps(FAST_CONFIG), encoding="utf-8")
    path = data / name
    path.write_bytes(path.read_bytes() + b"\xff\xfe\n")
    out = tmp_path / "out"
    code = run_cli("train", "--config", str(data / "config.json"), "--data", str(data),
                   "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {path}: not UTF-8 text")
    assert not out.exists()


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


def test_ablate_manifest_lists_the_variants_that_ran(tmp_path):
    data = tmp_path / "data"
    assert run_cli("gen", "--out", str(data), "--n", "40", "--classes", "2",
                   "--seed", "3", "--splits", "1") == 0
    cfg = _write_config(tmp_path, epochs_max=2, patience=2)
    out = tmp_path / "ab"
    assert run_cli("ablate", "--config", cfg, "--data", str(data), "--out", str(out),
                   "--variant", "FBL") == 0
    config = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["config"]
    assert config["variants"] == ["full", "NM", "FBL", "FBH"]
    assert "variant" not in config


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


def test_analyze_prop1_memory_grows_linearly_in_the_class_count(tmp_path):
    # one-hot rows by index: 256 x C floats, not a C x C identity
    tracemalloc.start()
    try:
        code = run_cli("analyze", "prop1", "--out", str(tmp_path / "p1"),
                       "--classes", "4000", "--trials", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 4000 * 4000 * 8              # one 4000 x 4000 float64 identity


def test_analyze_stability(tmp_path, capsys):
    out = tmp_path / "st"
    code = run_cli("analyze", "stability", "--out", str(out), "--n", "10",
                   "--trials", "2", "--J", "3", "--seed", "1")
    assert code == 0
    doc = json.loads((out / "stability.json").read_text(encoding="utf-8"))
    assert doc["all_hold"] is True
    assert capsys.readouterr().out == "stability: bound holds on all 16 probes\n"


# a large epsilon pushes the perturbed spectrum out of [0, 2], where the
# kernels grow as t^(2^j); the filter matrices then differ by far more than
# rounding, and the probe reports the bound violated
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("j_max, epsilon, probes", [("10", "0.5", 36), ("4", "10", 12)],
                         ids=["J10-eps0.5", "J4-eps10"])
def test_analyze_stability_reports_a_large_epsilon_as_a_violation(tmp_path, capsys, j_max,
                                                                  epsilon, probes):
    out = tmp_path / "st"
    code = run_cli("analyze", "stability", "--out", str(out), "--n", "30", "--trials", "2",
                   "--J", j_max, "--epsilons", epsilon)
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    rows = (out / "stability.csv").read_text(encoding="utf-8").splitlines()[1:]
    violated = sum(row.endswith(",0") for row in rows)
    assert len(rows) == probes and violated > 0
    assert captured.out == f"stability: bound VIOLATED on {violated} of {probes} probes\n"
    doc = json.loads((out / "stability.json").read_text(encoding="utf-8"))
    assert doc["all_hold"] is False


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_analyze_stability_overflow_exits_2_naming_the_epsilon(tmp_path, capsys):
    code = run_cli("analyze", "stability", "--out", str(tmp_path / "st"), "--n", "20",
                   "--J", "3", "--trials", "2", "--epsilons", "1e200")
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("numeric failure: stability_table: epsilon 1e+200, trial 0: ")
    assert not (tmp_path / "st").exists()


def test_numeric_failure_in_an_analysis_exits_2(tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise NumericError("symmetric_eig: matrix has NaN/Inf entries")

    monkeypatch.setattr(analysis, "stability_table", fail)
    code = run_cli("analyze", "stability", "--out", str(tmp_path / "st"),
                   "--n", "10", "--trials", "1", "--J", "2")
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("numeric failure:")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    ("gen",),
    ("analyze", "stability", "--n", "10", "--trials", "1", "--J", "2"),
], ids=["gen", "analyze-stability"])
def test_negative_seed_exits_1(tmp_path, capsys, command):
    code = run_cli(*command, "--out", str(tmp_path / "o"), "--seed", "-1")
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and "--seed" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, flag", [
    (("gen", "--classes", "0"), "--classes"),
    (("gen", "--classes", "-1", "--n", "5"), "--classes"),
    (("analyze", "stability", "--n", "0"), "--n"),
    (("analyze", "stability", "--epsilons", "1e-3,abc"), "--epsilons"),
    (("analyze", "stability", "--J", "1"), "--J"),
    (("analyze", "stability", "--trials", "0"), "--trials"),
    (("analyze", "prop1", "--classes", "0"), "--classes"),
    (("analyze", "prop1", "--classes", "a"), "--classes"),
    (("analyze", "similarity", "--data", "D", "--max-pairs", "-1"), "--max-pairs"),
    (("analyze", "response", "--J", "1"), "--J"),
    (("gen", "--noise", "nan"), "--noise"),
    (("gen", "--noise", "inf"), "--noise"),
    (("analyze", "stability", "--J", str(model.MAX_J + 1)), "--J"),
    (("analyze", "response", "--J", str(model.MAX_J + 1)), "--J"),
    (("analyze", "stability", "--epsilons", "nan"), "--epsilons"),
    (("analyze", "stability", "--epsilons", "inf"), "--epsilons"),
    (("analyze", "stability", "--epsilons", "0.01,nan"), "--epsilons"),
    (("analyze", "stability", "--epsilons", "-0.1"), "--epsilons"),
    (("gen", "--intra-p", "nan"), "--intra-p"),
    (("gen", "--intra-p", "-0.1"), "--intra-p"),
    (("gen", "--inter-p", "2"), "--inter-p"),
    (("gen", "--inter-p", "inf"), "--inter-p"),
], ids=["gen-classes-0", "gen-classes-negative", "stability-n-0",
        "stability-epsilons-abc", "stability-J-1", "stability-trials-0",
        "prop1-classes-0", "prop1-classes-a", "similarity-max-pairs-negative",
        "response-J-1", "gen-noise-nan", "gen-noise-inf", "stability-J-over-max",
        "response-J-over-max", "stability-epsilons-nan", "stability-epsilons-inf",
        "stability-epsilons-nan-in-list", "stability-epsilons-negative",
        "gen-intra-p-nan", "gen-intra-p-negative", "gen-inter-p-2", "gen-inter-p-inf"])
def test_out_of_range_flags_exit_1(tmp_path, capsys, command, flag):
    code = run_cli(*command, "--out", str(tmp_path / "o"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and flag in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [
    ("gen",),
    ("analyze", "stability", "--trials", "1", "--J", "2"),
], ids=["gen", "analyze-stability"])
@pytest.mark.parametrize("n", [cli.MAX_DRAWN_NODES + 1, 10 ** 9])
def test_node_count_over_the_cap_exits_1_before_drawing(tmp_path, capsys, command, n):
    tracemalloc.start()
    try:
        code = run_cli(*command, "--out", str(tmp_path / "o"), "--n", str(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert peak < 2 ** 20                      # nothing of n^2 size was drawn
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and "--n" in err
    assert str(cli.MAX_DRAWN_NODES) in err
    assert not (tmp_path / "o").exists()


def test_node_count_at_the_cap_is_accepted():
    args = cli._build_parser().parse_args(
        ["gen", "--out", "o", "--n", str(cli.MAX_DRAWN_NODES)])
    assert args.n == cli.MAX_DRAWN_NODES


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


def _with_features(tiny_dataset, root, values):
    """A copy of the dataset with node 0's features set to ``values``."""
    data = root / "data"
    shutil.copytree(tiny_dataset, data)
    nodes = data / datasets.NODE_FILE
    rows = [line.split("\t") for line in nodes.read_text(encoding="utf-8").splitlines()]
    rows[0][1] = values
    nodes.write_text("".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")
    return str(data)


def test_analyze_similarity_scales_a_feature_row_whose_norm_overflows(tiny_dataset,
                                                                       tmp_path, capsys):
    # the cosines of (1e308, 1e308) are those of (1, 1)
    means = []
    for sub, values in (("huge", "1e308,1e308"), ("unit", "1,1")):
        data = _with_features(tiny_dataset, tmp_path / sub, values)
        out = tmp_path / sub / "sim"
        assert run_cli("analyze", "similarity", "--out", str(out), "--data", data,
                       "--no-normalize") == 0
        assert capsys.readouterr().err == ""
        doc = json.loads((out / "similarity.json").read_text(encoding="utf-8"))
        means.append((doc["intra_mean"], doc["inter_mean"]))
    assert means[0] == pytest.approx(means[1], rel=0, abs=1e-12)


def test_analyze_similarity_scales_a_feature_row_whose_norm_underflows(tiny_dataset,
                                                                        tmp_path, capsys):
    # the squares of 1e-170 underflow, yet its cosines are those of (1, 1)
    means = []
    for sub, values in (("tiny", "1e-170,1e-170"), ("unit", "1,1")):
        data = _with_features(tiny_dataset, tmp_path / sub, values)
        out = tmp_path / sub / "sim"
        assert run_cli("analyze", "similarity", "--out", str(out), "--data", data,
                       "--no-normalize") == 0
        assert capsys.readouterr().err == ""
        doc = json.loads((out / "similarity.json").read_text(encoding="utf-8"))
        means.append((doc["intra_mean"], doc["inter_mean"]))
    assert means[0] == pytest.approx(means[1], rel=0, abs=1e-12)


@pytest.mark.filterwarnings("error::UserWarning")
def test_analyze_similarity_names_a_one_node_class_in_one_line(tiny_dataset, tmp_path,
                                                               capsys):
    data = tmp_path / "data"
    shutil.copytree(tiny_dataset, data)
    nodes = data / datasets.NODE_FILE
    rows = [line.split("\t") for line in nodes.read_text(encoding="utf-8").splitlines()]
    rows[0][2] = "2"                    # node 0 alone in a new class
    nodes.write_text("".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")
    assert run_cli("analyze", "similarity", "--out", str(tmp_path / "sim"),
                   "--data", str(data)) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == ["warning: no intra-class pairs in the one-node class(es) 2"]


def _nm_checkpoint(tiny_dataset, tmp_path):
    graph = datasets.load_dataset_dir(tiny_dataset).graph
    net = model.FgGSLModel(graph.num_features, graph.num_classes, j_max=2,
                           mask_dim=4, variant="NM", seed=2)
    path = tmp_path / "nm.fgck"
    model.save_checkpoint(path, net, alpha=1.0, beta=1.0)
    return net, str(path)


def test_analyze_similarity_runs_nm_on_the_given_graph(tiny_dataset, tmp_path):
    net, ckpt = _nm_checkpoint(tiny_dataset, tmp_path)
    out = tmp_path / "sim"
    # the default --candidate full is NM's spec too, and NM ignores it
    assert run_cli("analyze", "similarity", "--out", str(out), "--data", tiny_dataset,
                   "--checkpoint", ckpt) == 0
    doc = json.loads((out / "similarity.json").read_text(encoding="utf-8"))
    graph = datasets.load_dataset_dir(tiny_dataset).graph
    with ad.no_grad():
        vectors = model.embedding(net, ad.constant(graph.features),
                                  datasets.candidate_graph(graph, "given")).data
    hist = analysis.similarity_histogram(vectors, graph.labels)
    assert (doc["intra_mean"], doc["inter_mean"]) == (hist.intra_mean, hist.inter_mean)


def _wide_dataset(root, scale=1.0, isolated=None):
    """A dataset of 40 nodes with F = 300 >= 2n features, each times
    ``scale``, and a ``full`` model for it; node ``isolated``, if given,
    has no edge and zero features.  Returns (directory, model, checkpoint)."""
    g = datasets.gen_synthetic(40, 3, 0.2, 0.4, 0.4, seed=33, n_splits=1)
    features = np.random.default_rng(34).random((40, 300)) * scale
    edges = g.edges
    if isolated is not None:
        features[isolated] = 0.0
        keep = (edges.i != isolated) & (edges.j != isolated)
        edges = EdgeList(40, edges.i[keep], edges.j[keep])
    data = root / "data"
    data.mkdir(parents=True)
    datasets.save_raw(LabeledGraph(edges, features, g.labels), data / datasets.NODE_FILE,
                      data / datasets.EDGE_FILE)
    datasets.save_splits(g.splits, data / datasets.SPLIT_DIR)
    net = model.FgGSLModel(300, 3, j_max=3, mask_dim=4, seed=35)
    model.save_checkpoint(root / "wide.fgck", net, alpha=1.0, beta=1.0)
    return str(data), net, str(root / "wide.fgck")


def _materialized_similarity(net, graph, candidate):
    with ad.no_grad():
        vectors = model.embedding(net, ad.constant(graph.features),
                                  model.bank_graph(graph, net.variant, candidate)).data
    return analysis.similarity_histogram(vectors, graph.labels)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_analyze_similarity_of_wide_features_near_the_float_limit(tmp_path, capsys):
    # X X^T of features near 1e200 overflows; its factor is taken of X / max|X|
    data, net, ckpt = _wide_dataset(tmp_path, scale=1e200)
    out = tmp_path / "sim"
    assert run_cli("analyze", "similarity", "--data", data, "--out", str(out),
                   "--checkpoint", ckpt, "--no-normalize") == 0
    assert capsys.readouterr().err == ""
    hist = _materialized_similarity(
        net, datasets.load_dataset_dir(data, normalize_features=False).graph, "full")
    rows = (out / "similarity.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [tuple(int(v) for v in row.split(",")[2:]) for row in rows] == list(
        zip(hist.intra_counts, hist.inter_counts))
    doc = json.loads((out / "similarity.json").read_text(encoding="utf-8"))
    assert doc["source"] == "embedding"
    assert doc["intra_mean"] == pytest.approx(hist.intra_mean, rel=0, abs=1e-12)
    assert doc["inter_mean"] == pytest.approx(hist.inter_mean, rel=0, abs=1e-12)


def test_analyze_similarity_names_an_isolated_zero_feature_node_of_wide_features(tmp_path,
                                                                                capsys):
    # the factor keeps the node's zero row exactly zero, so its embedding
    # row is zero as with X, and the histogram names it in one line
    data, net, ckpt = _wide_dataset(tmp_path, isolated=7)
    assert run_cli("analyze", "similarity", "--data", data, "--out", str(tmp_path / "sim"),
                   "--checkpoint", ckpt, "--candidate", "given") == 1
    message = "similarity_histogram: zero-norm row 7"
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    with pytest.raises(ContractError, match=f"^{message}$"):
        _materialized_similarity(net, datasets.load_dataset_dir(data).graph, "given")


def test_analyze_audit_of_nm_exits_1(tiny_dataset, tmp_path, capsys):
    _, ckpt = _nm_checkpoint(tiny_dataset, tmp_path)
    code = run_cli("analyze", "audit", "--out", str(tmp_path / "audit"),
                   "--data", tiny_dataset, "--checkpoint", ckpt)
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and "learns no masks" in err
    assert not (tmp_path / "audit").exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_knn_k_of_at_least_n_exits_1_and_leaves_no_out(tiny_dataset, tmp_path, capsys,
                                                       command):
    # K >= n is only known once the 24-node dataset is loaded
    out = tmp_path / "o"
    code = run_cli(command, "--config", _write_config(tmp_path), "--data", tiny_dataset,
                   "--out", str(out), "--candidate", "knn:24")
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:")
    assert not out.exists()


_BAD_SPECS = ["knn:0", "knn:-1", "knn:abc", "knn:", "foo", ""]


@pytest.mark.parametrize("entry, spec", [
    *[(entry, spec) for entry in ("train --candidate", "analyze similarity --candidate",
                                  "train --config") for spec in _BAD_SPECS],
    *[("train --config", spec) for spec in (5, None, True, ["knn:5"])]])
def test_bad_candidate_spec_exits_1_before_writing(tiny_dataset, tmp_path, capsys,
                                                   entry, spec):
    out = tmp_path / "o"
    if entry == "train --config":
        argv = ["train", "--config", _write_config(tmp_path, candidate=spec)]
    else:
        argv = entry.split() + [spec]
    code = run_cli(*argv, "--data", tiny_dataset, "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and "candidate" in err
    assert not out.exists()


@pytest.mark.parametrize("spec", [5, None, True, ["knn:5"]])
def test_config_candidate_of_the_wrong_type_is_reported_under_its_key(
        tiny_dataset, tmp_path, capsys, spec):
    code = run_cli("train", "--config", _write_config(tmp_path, candidate=spec),
                   "--data", tiny_dataset, "--out", str(tmp_path / "o"))
    assert code == 1
    err = capsys.readouterr().err
    assert err == ("error: candidate: expected full, given or knn:K with K >= 1, "
                   f"got {spec!r}\n")


@pytest.mark.parametrize("message", ["Unable to allocate 7.45 GiB for an array", ""])
def test_memory_error_exits_3_with_one_line(monkeypatch, tmp_path, capsys, message):
    def exhausted(args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "_cmd_gen", exhausted)
    assert run_cli("gen", "--out", str(tmp_path / "g")) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("out of memory:")
    assert message in err


def _stability_csv(data, out, *flags):
    """The exit code of ``analyze stability --data`` and the CSV it wrote."""
    code = run_cli("analyze", "stability", "--data", str(data), "--out", str(out),
                   "--J", "3", "--trials", "2", *flags)
    return code, (out / "stability.csv").read_bytes() if code == 0 else None


def test_analyze_stability_reads_the_graph_alone(tiny_dataset, tmp_path, monkeypatch):
    code, clean = _stability_csv(tiny_dataset, tmp_path / "clean")
    assert code == 0

    def refuse(*args, **kwargs):
        raise AssertionError("analyze stability read more than the graph")

    for name in ("load_dataset_dir", "load_raw", "load_splits", "row_normalize"):
        monkeypatch.setattr(datasets, name, refuse)
    monkeypatch.setattr(cli, "load_dataset_dir", refuse)
    assert _stability_csv(tiny_dataset, tmp_path / "patched") == (0, clean)
    assert _stability_csv(tiny_dataset, tmp_path / "raw", "--no-normalize") == (0, clean)


def _counted_pair_indexes(monkeypatch):
    """The node count of every ``ad.PairIndex`` built from now on, in order."""
    built, init = [], ad.PairIndex.__init__

    def counted_init(self, *args):
        built.append(args[2])
        init(self, *args)

    monkeypatch.setattr(ad.PairIndex, "__init__", counted_init)
    return built


@pytest.mark.parametrize("kind, checkpoint, expected", [
    ("similarity", True, [24, 24]),      # the candidate's, then the histogram's
    ("audit", True, [24]),               # the candidate's
    ("stability", False, [24]),          # EdgeList.dense's, for the Laplacian
])
def test_analyze_builds_one_pair_index_per_list_of_pairs(tiny_dataset, fuzz_inputs, tmp_path,
                                                         monkeypatch, kind, checkpoint,
                                                         expected):
    flags = ["--checkpoint", fuzz_inputs[1]] if checkpoint else ["--J", "2", "--trials", "1"]
    built = _counted_pair_indexes(monkeypatch)
    assert run_cli("analyze", kind, "--data", tiny_dataset, "--out", str(tmp_path / "a"),
                   *flags) == 0
    assert built == expected


@pytest.mark.parametrize("flags, classes", [([], 7), (["--classes", "2,5,3"], 3)])
def test_analyze_prop1_builds_one_pair_index_per_class_count(tmp_path, monkeypatch, flags,
                                                            classes):
    built = _counted_pair_indexes(monkeypatch)
    assert run_cli("analyze", "prop1", "--out", str(tmp_path / "p1"), "--trials", "14",
                   *flags) == 0
    assert built == [256] * classes


def test_main_calls_build_no_parser(tmp_path, monkeypatch):
    # the parser is built once per process, when the module is imported;
    # the defaults a handler reads are tuples, so no call can change them
    def refuse():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "_build_parser", refuse)
    for k in range(3):
        assert run_cli("analyze", "response", "--out", str(tmp_path / str(k)),
                       "--grid", "5") == 0
    args = cli._PARSER.parse_args(["analyze", "prop1", "--out", "o"])
    assert args.epsilons == (1e-3, 1e-2) and args.classes == (2, 3, 4, 5, 6, 7, 8)


def _edit_node_line(data, lineno, pattern, replacement):
    path = data / "nodes.tsv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[lineno - 1] = re.sub(pattern, replacement, lines[lineno - 1], count=1)
    path.write_text("".join(lines), encoding="utf-8")


def _bad_feature_and_no_splits(data):
    _edit_node_line(data, 2, ",", ",x")
    shutil.rmtree(data / "splits")


# dataset faults that analyze stability does not read: (edit of a copy,
# where a command that reads the whole dataset names the fault)
_FAULTS_BESIDE_THE_GRAPH = {
    "feature-and-no-splits": (_bad_feature_and_no_splits, "nodes.tsv:2: could not convert"),
    "non-finite-feature": (lambda data: _edit_node_line(data, 5, r"\t[^,]*", "\tnan"),
                           "nodes.tsv:5: non-finite feature"),
    "label-n": (lambda data: _edit_node_line(data, 3, r"\t\d+$", "\t24"),
                "nodes.tsv:3: label 24 >= node count 24"),
    "split-file": (lambda data: (data / "splits" / "split_00.txt").write_text(
        "0 1\n", encoding="utf-8"), "split_00.txt: expected 3 index lines"),
}


@pytest.mark.parametrize("fault", sorted(_FAULTS_BESIDE_THE_GRAPH))
def test_analyze_stability_exits_0_on_faults_beside_the_graph(tiny_dataset, tmp_path,
                                                              capsys, fault):
    edit, where = _FAULTS_BESIDE_THE_GRAPH[fault]
    _, clean = _stability_csv(tiny_dataset, tmp_path / "clean")
    data = tmp_path / "data"
    shutil.copytree(tiny_dataset, data)
    edit(data)
    assert _stability_csv(data, tmp_path / "faulty") == (0, clean)
    capsys.readouterr()
    assert run_cli("analyze", "similarity", "--data", str(data),
                   "--out", str(tmp_path / "similarity")) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and where in err[0]


def test_analyze_stability_names_a_duplicate_node_id(tiny_dataset, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(tiny_dataset, data)
    _edit_node_line(data, 4, r"^\d+", "0")
    assert _stability_csv(data, tmp_path / "st") == (1, None)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "nodes.tsv:4: duplicate node id 0" in err[0]


def test_analyze_audit_requires_checkpoint(tiny_dataset, tmp_path, capsys):
    code = run_cli("analyze", "audit", "--out", str(tmp_path / "a"),
                   "--data", tiny_dataset)
    assert code == 1


def _edited_checkpoint(tiny_dataset, tmp_path, edit_header, edit_body=lambda body: body):
    """A checkpoint for ``tiny_dataset`` whose header and parameter bytes
    were edited."""
    graph = datasets.load_dataset_dir(tiny_dataset).graph
    net = model.FgGSLModel(graph.num_features, graph.num_classes, j_max=2,
                           mask_dim=4, seed=1)
    path = tmp_path / "edited.fgck"
    model.save_checkpoint(path, net, alpha=1.0, beta=1.0)
    line, _, body = path.read_bytes().partition(b"\n")
    header = json.loads(line)
    edit_header(header)
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + edit_body(body))
    return str(path)


def _rename_first_param(header):
    header["params"][0]["name"] = "mask_ho_bogus"


def _drop_num_classes(header):
    del header["num_classes"]


def _widen_mask_dim(header):
    header["mask_dim"] = 8


def _nan_alpha(header):
    header["alpha"] = float("nan")        # json writes and reads the literal NaN


def _unchanged(body):
    return body


@pytest.mark.parametrize("edit, edit_body, message", [
    (_rename_first_param, _unchanged, "unknown parameter 'mask_ho_bogus'"),
    (_drop_num_classes, _unchanged, "header has no 'num_classes'"),
    (_widen_mask_dim, _unchanged, "parameter 'mask_ho_w' has shape"),
    (lambda header: None, lambda body: body + b"\x00", "trailing bytes"),
    (lambda header: None, lambda body: np.full(len(body) // 8, np.nan).tobytes(),
     "parameter 'mask_ho_w' has a non-finite value"),
    (lambda header: None, lambda body: body[:-8] + np.array([np.inf]).tobytes(),
     "parameter 'w_clf' has a non-finite value"),
    (_nan_alpha, _unchanged, "header 'alpha'=nan is not finite"),
    (lambda header: header.update(j_max=1), _unchanged,
     f"edited.fgck: j_max=1 must be in [2, {model.MAX_J}]"),
], ids=["unknown-name", "missing-key", "shape-mismatch", "trailing-bytes",
        "nan-parameters", "inf-last-value", "nan-alpha", "j-max-below-two"])
def test_analyze_audit_malformed_checkpoint_exits_1(tiny_dataset, tmp_path, capsys,
                                                    edit, edit_body, message):
    ckpt = _edited_checkpoint(tiny_dataset, tmp_path, edit, edit_body)
    code = run_cli("analyze", "audit", "--out", str(tmp_path / "audit"),
                   "--data", tiny_dataset, "--checkpoint", ckpt)
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and message in err


@pytest.mark.parametrize("threshold", ["-1", "nan", "1.5", "inf", "half"])
def test_analyze_audit_threshold_outside_unit_interval_exits_1(tiny_dataset, tmp_path,
                                                               capsys, threshold):
    ckpt = _edited_checkpoint(tiny_dataset, tmp_path, lambda header: None)
    code = run_cli("analyze", "audit", "--out", str(tmp_path / "audit"),
                   "--data", tiny_dataset, "--checkpoint", ckpt, "--threshold", threshold)
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and "--threshold" in err
    assert not (tmp_path / "audit").exists()


def test_analyze_unknown_kind_lists_valid_kinds(tmp_path, capsys):
    code = run_cli("analyze", "bogus", "--out", str(tmp_path / "x"))
    assert code == 1
    err = capsys.readouterr().err
    for kind in ("similarity", "prop1", "stability", "response", "audit"):
        assert kind in err


# ---------------------------------------------------------------------------
# byte fuzzing of every input file


@pytest.fixture(scope="module")
def fuzz_inputs(tiny_dataset, tmp_path_factory):
    """A 2-epoch config and a checkpoint for ``tiny_dataset``, written once."""
    root = tmp_path_factory.mktemp("fuzz")
    config = root / "config.json"
    config.write_text(json.dumps(dict(FAST_CONFIG, epochs_max=2, patience=2)),
                      encoding="utf-8")
    graph = datasets.load_dataset_dir(tiny_dataset).graph
    net = model.FgGSLModel(graph.num_features, graph.num_classes, j_max=2,
                           mask_dim=4, seed=1)
    model.save_checkpoint(root / "model.fgck", net, alpha=1.0, beta=1.0)
    return str(config), str(root / "model.fgck")


# (kind, position, byte): a position past the end wraps around
_MUTATION = st.tuples(st.sampled_from(["flip", "delete", "insert"]),
                      st.integers(0, 2 ** 16), st.integers(0, 255))


def _mutate(data: bytes, mutations) -> bytes:
    """``data`` with each mutation applied in turn: flip one bit of a byte,
    delete a byte, or insert an arbitrary byte."""
    buf = bytearray(data)
    for kind, where, byte in mutations:
        at = where % (len(buf) + 1)
        if kind == "insert":
            buf[at:at] = bytes([byte])
        elif at < len(buf):
            if kind == "flip":
                buf[at] ^= 1 << (byte % 8)
            else:
                del buf[at]
    return bytes(buf)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(target=st.sampled_from(["nodes.tsv", "edges.tsv", "splits/split_00.txt",
                               "checkpoint"]),
       mutations=st.lists(_MUTATION, min_size=1, max_size=4))
def test_mutated_inputs_exit_with_a_code_and_at_most_one_line(tiny_dataset, fuzz_inputs,
                                                               target, mutations):
    config, checkpoint = fuzz_inputs
    with tempfile.TemporaryDirectory() as root:
        data = os.path.join(root, "data")
        shutil.copytree(tiny_dataset, data)
        ckpt = shutil.copy(checkpoint, root)
        path = ckpt if target == "checkpoint" else os.path.join(data, target)
        with open(path, "rb") as fh:
            original = fh.read()
        with open(path, "wb") as fh:
            fh.write(_mutate(original, mutations))
        runs = [["analyze", "audit", "--data", data, "--checkpoint", ckpt]]
        if target != "checkpoint":
            runs.append(["train", "--config", config, "--data", data])
        for k, argv in enumerate(runs):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(argv + ["--out", os.path.join(root, f"out{k}")])
            lines = err.getvalue().splitlines()
            assert code in (0, 1, 2, 3)
            assert len(lines) == (code != 0)
            assert code != 2 or lines[0].startswith("numeric failure:")


# ---------------------------------------------------------------------------
# value fuzzing: loadable files with extreme or invalid values

# valid values of each config key, the size fields from small ranges so
# that no example allocates much or runs long; a drawn key replaces
# FAST_CONFIG's
_VALID_CONFIG = {"lr": [0.05, 1e308, 1e-308], "weight_decay": [5e-4, 0.0, 1e308],
                 "epochs_max": [1, 2], "patience": [0, 1, 2], "mask_dim": [1, 3],
                 "j_max": [2, 3], "alpha": [0.0, 1.0, 1e308, 1e-308],
                 "beta": [0.0, 1.0, 1e308, 1e-308], "seed": [3, 2 ** 64],
                 "kernel_mode": model.KERNEL_MODES, "variant": model.VARIANTS,
                 "candidate": ["full", "given", "knn:3"],
                 "true_labels_on_train": [True, False], "feature_normalize": [True, False]}
# values at and past a field's bound, and of the wrong type
_INVALID_CONFIG = [0, -1, float("nan"), True, "x"]


@st.composite
def _configs(draw):
    """A config with at most one invalid value, so that about half the
    examples reach training."""
    config = draw(st.fixed_dictionaries({}, optional={
        key: st.sampled_from(values) for key, values in _VALID_CONFIG.items()}))
    bad = draw(st.none() | st.sampled_from(sorted(_VALID_CONFIG)))
    if bad is not None:
        config[bad] = draw(st.sampled_from(_INVALID_CONFIG))
    return {**FAST_CONFIG, "epochs_max": 2, "patience": 2, **config}


_FEATURE_VALUES = st.sampled_from(["1e308", "-1e308", "1e-308", "1e-170", "0"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None, derandomize=True)
@given(config=_configs(),
       features=st.lists(st.tuples(st.integers(0, 23), st.integers(0, 1), _FEATURE_VALUES),
                         max_size=6),
       filled=st.lists(st.tuples(st.integers(0, 23), _FEATURE_VALUES), max_size=2),
       duplicates=st.lists(st.integers(0, 2 ** 16), max_size=3),
       isolated=st.lists(st.integers(0, 23), max_size=3))
def test_extreme_values_exit_with_a_code_and_at_most_one_line(tiny_dataset, config,
                                                              features, filled, duplicates,
                                                              isolated):
    with tempfile.TemporaryDirectory() as root:
        data = os.path.join(root, "data")
        shutil.copytree(tiny_dataset, data)
        nodes = os.path.join(data, datasets.NODE_FILE)
        with open(nodes, encoding="utf-8") as fh:
            rows = [line.split("\t") for line in fh.read().splitlines()]
        for node, col, value in features:
            values = rows[node][1].split(",")
            values[col] = value
            rows[node][1] = ",".join(values)
        for node, value in filled:          # every feature of the node
            rows[node][1] = ",".join([value] * len(rows[node][1].split(",")))
        edges = os.path.join(data, datasets.EDGE_FILE)
        with open(edges, encoding="utf-8") as fh:
            pairs = fh.read().splitlines()
        pairs += [pairs[k % len(pairs)] for k in duplicates]
        pairs = [line for line in pairs
                 if not {int(v) for v in line.split("\t")} & set(isolated)]
        for path, text in ((nodes, ["\t".join(row) for row in rows]), (edges, pairs)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("".join(line + "\n" for line in text))
        config_file = os.path.join(root, "config.json")
        with open(config_file, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        runs = (["train", "--config", config_file], ["ablate", "--config", config_file],
                ["analyze", "similarity", "--no-normalize"])
        for k, argv in enumerate(runs):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(argv + ["--data", data, "--out", os.path.join(root, f"out{k}")])
            lines = err.getvalue().splitlines()
            assert code in (0, 1, 2, 3)
            assert len(lines) == (code != 0)
            # a tiny or huge row has a direction; only a row of zeros has none
            zero = re.search(r"zero-norm row (\d+)$", lines[0]) if code else None
            assert zero is None or not any(map(float, rows[int(zero[1])][1].split(",")))

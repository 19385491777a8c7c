import dataclasses

import numpy as np
import pytest

from fggsl import autodiff as ad
from fggsl import datasets, graphs, training
from fggsl import model as fm
from fggsl.errors import ContractError, NumericError, ValidationError


def _bundle(seed=0, n=40, classes=2, intra=0.02, inter=0.3, noise=0.4, n_splits=2):
    graph = datasets.gen_synthetic(n, classes, intra, inter, noise,
                                   seed=seed, n_splits=n_splits)
    return datasets.DatasetBundle(graph=graph, name="synthetic", feature_normalized=False)


def _fast_config(**kw):
    base = dict(lr=0.05, weight_decay=5e-4, epochs_max=120, patience=40,
                alpha=1.0, beta=1.0, j_max=2, mask_dim=4, seed=3)
    base.update(kw)
    return training.TrainConfig(**base)


# ---------------------------------------------------------------------------
# Adam


def _single_param(value):
    params = ad.ParameterSet()
    p = params.add("w_clf", np.array([[value]]))
    return params, p


def test_adam_zero_gradient_leaves_params():
    params, p = _single_param(1.0)
    p.grad = np.zeros((1, 1))
    opt = training.Adam(params, lr=0.1, weight_decay=0.0)
    opt.step()
    assert p.data[0, 0] == 1.0


def test_adam_hand_first_step():
    # p=1, g=1, lr=0.1: mhat=1, vhat=1, update = 0.1/(1+eps)
    params, p = _single_param(1.0)
    p.grad = np.ones((1, 1))
    opt = training.Adam(params, lr=0.1, weight_decay=0.0)
    scale = opt.step()
    assert p.data[0, 0] == pytest.approx(1.0 - 0.1 / (1.0 + training.ADAM_EPS),
                                         abs=1e-12)
    assert scale == pytest.approx(1.0 / (1.0 + training.ADAM_EPS), abs=1e-12)


def test_adam_weight_decay_targets_named_params():
    params = ad.ParameterSet()
    clf = params.add("w_clf", np.array([[1.0]]))
    other = params.add("other", np.array([[1.0]]))
    clf.grad = np.zeros((1, 1))
    other.grad = np.zeros((1, 1))
    opt = training.Adam(params, lr=0.1, weight_decay=0.5)
    opt.step()
    assert clf.data[0, 0] == pytest.approx(1.0 - 0.1 * 0.5)
    assert other.data[0, 0] == 1.0


def test_adam_rejects_nan_gradient():
    params, p = _single_param(1.0)
    p.grad = np.array([[np.nan]])
    opt = training.Adam(params, lr=0.1)
    with pytest.raises(NumericError, match="w_clf"):
        opt.step()


def test_adam_bitwise_deterministic():
    def run():
        rng = np.random.default_rng(0)
        params = ad.ParameterSet()
        w = params.add("w_clf", rng.standard_normal((3, 3)))
        opt = training.Adam(params, lr=0.01, weight_decay=1e-3)
        for _ in range(25):
            params.zero_grad()
            loss = ad.sum_all(ad.sigmoid(ad.matmul(w, w)))
            ad.backward(loss, params)
            opt.step()
        return w.data.copy()

    assert np.array_equal(run(), run())


# ---------------------------------------------------------------------------
# accuracy


def test_accuracy_perfect_and_disjoint():
    labels = np.eye(3)[[0, 1, 2, 0]]
    assert training.accuracy_from_probs(labels.copy(), labels, [0, 1, 2, 3]) == 1.0
    shifted = np.eye(3)[[1, 2, 0, 1]]
    assert training.accuracy_from_probs(shifted, labels, [0, 1, 2, 3]) == 0.0


def test_accuracy_uniform_ties_predict_class_zero():
    labels = np.eye(2)[[0, 1, 0, 1]]
    uniform = np.full((4, 2), 0.5)
    # tie-break to class 0: exactly the class-0 rows are correct
    assert training.accuracy_from_probs(uniform, labels, [0, 1, 2, 3]) == 0.5


def test_accuracy_empty_set_rejected():
    with pytest.raises(ContractError):
        training.accuracy_from_probs(np.eye(2), np.eye(2), [])


# ---------------------------------------------------------------------------
# train_single_split


def test_patience_zero_runs_one_epoch():
    bundle = _bundle()
    cfg = _fast_config(patience=0, epochs_max=50)
    _, row = training.train_single_split(bundle, bundle.graph.splits[0], cfg)
    assert row["epochs_run"] == 1


def test_single_split_makes_one_forward_after_training(monkeypatch):
    bundle = _bundle(seed=2)
    split = bundle.graph.splits[0]
    calls = []
    forward = fm.forward

    def counted(*args, **kwargs):
        calls.append(1)
        return forward(*args, **kwargs)

    monkeypatch.setattr(fm, "forward", counted)
    cfg = _fast_config(epochs_max=5, patience=5)
    net, row = training.train_single_split(bundle, split, cfg)
    # one forward per epoch: the test accuracy and the audit are read off
    # the best epoch's, and none runs after training
    assert len(calls) == row["epochs_run"]
    monkeypatch.undo()
    a_f = datasets.candidate_graph(bundle.graph, "full")
    assert row["test_acc"] == training.evaluate(net, bundle, split[2], a_f)
    assert row["audit"] is not None


@pytest.mark.parametrize("epochs_max, patience, skipped", [
    (5, 5, 1),          # the budget ends the run: its last epoch only reads
    (50, 1, 0),         # patience ends it, after that epoch's forward
], ids=["budget", "patience"])
def test_only_the_budget_epoch_skips_backward_and_step(monkeypatch, epochs_max, patience,
                                                       skipped):
    bundle = _bundle(seed=2)
    calls = {"zero_grad": 0, "backward": 0, "step": 0}
    zero_grad, backward, step = ad.ParameterSet.zero_grad, ad.backward, training.Adam.step

    def counted(name, func):
        def wrapper(*args):
            calls[name] += 1
            return func(*args)
        return wrapper

    monkeypatch.setattr(ad.ParameterSet, "zero_grad", counted("zero_grad", zero_grad))
    monkeypatch.setattr(ad, "backward", counted("backward", backward))
    monkeypatch.setattr(training.Adam, "step", counted("step", step))
    cfg = _fast_config(epochs_max=epochs_max, patience=patience)
    with ad.recording() as caller:
        _, row = training.train_single_split(bundle, bundle.graph.splits[0], cfg)
    assert (row["epochs_run"] == epochs_max) == bool(skipped)
    learned = row["epochs_run"] - skipped
    assert calls == {"zero_grad": learned, "backward": learned, "step": learned}
    assert len(caller) == 0


def test_fit_clears_tape_when_step_raises():
    bundle = _bundle(seed=4)
    graph = bundle.graph
    net = fm.FgGSLModel(graph.num_features, graph.num_classes, j_max=2, mask_dim=4)
    a_f = datasets.candidate_graph(graph, "full")
    recorded = []

    def step_fn():
        fm.forward(net, ad.constant(graph.features), a_f)
        recorded.append(len(ad.tape()))
        raise ValidationError("step failed after recording nodes")

    with ad.recording() as caller, pytest.raises(ValidationError):
        training._fit(step_fn, net.params, _fast_config(), graph.labels,
                      graph.splits[0])
    assert recorded[0] > 0
    assert len(caller) == 0
    assert ad.tape() is not caller


def test_training_leaves_the_callers_recorded_loss_backpropagatable():
    bundle = _bundle(seed=5)
    graph = bundle.graph
    net = fm.FgGSLModel(graph.num_features, graph.num_classes, j_max=2, mask_dim=4)
    a_f = datasets.candidate_graph(graph, "full")
    with ad.recording() as caller:
        loss, _, _ = fm.total_loss(net, graph, a_f, 1.0, 1.0, graph.splits[0][0])
        recorded = len(caller)
        training.train_single_split(bundle, graph.splits[0],
                                    _fast_config(epochs_max=3, patience=3))
        assert ad.tape() is caller and len(caller) == recorded
        ad.backward(loss, net.params)
    assert all(np.any(t.grad) for _, t in net.params)


def test_separable_synthetic_reaches_full_train_accuracy():
    graph = datasets.gen_synthetic(30, 3, 0.05, 0.3, proto_noise=0.0,
                                   seed=1, n_splits=1)
    bundle = datasets.DatasetBundle(graph, "separable", False)
    cfg = _fast_config(epochs_max=200, patience=200, alpha=0.0, beta=0.0)
    net, row = training.train_single_split(bundle, graph.splits[0], cfg)
    a_f = datasets.candidate_graph(graph, "full")
    train_acc = training.evaluate(net, bundle, graph.splits[0][0], a_f)
    assert train_acc == 1.0


def test_restore_best_contract():
    # on these seeds a snapshot taken after the best epoch's Adam step held
    # parameters one step past it, whose validation accuracy was lower
    for seed in (4, 5, 9):
        graph = datasets.gen_synthetic(60, 3, 0.2, 0.3, proto_noise=1.0, seed=seed,
                                       n_splits=1)
        bundle = datasets.DatasetBundle(graph, "synthetic", False)
        cfg = training.TrainConfig(lr=0.05, epochs_max=8, patience=8, j_max=3, seed=seed)
        split = graph.splits[0]
        net, row = training.train_single_split(bundle, split, cfg)
        a_f = datasets.candidate_graph(graph, cfg.candidate_mode)
        assert training.evaluate(net, bundle, split[1], a_f) == row["best_val_acc"], seed
        assert row["best_val_acc"] == max(row["curves"]["val_acc"]), seed
        assert training.evaluate(net, bundle, split[2], a_f) == row["test_acc"], seed


def test_verbatim_kernel_mode_trains():
    bundle = _bundle(seed=33)
    cfg = _fast_config(kernel_mode="verbatim", epochs_max=25, patience=25)
    _, row = training.train_single_split(bundle, bundle.graph.splits[0], cfg)
    assert np.isfinite(row["curves"]["total"]).all()
    assert 0.0 <= row["test_acc"] <= 1.0


def test_knn_candidate_mode_trains():
    bundle = _bundle(seed=35)
    cfg = _fast_config(candidate_mode="knn:5", epochs_max=25, patience=25)
    _, row = training.train_single_split(bundle, bundle.graph.splits[0], cfg)
    assert np.isfinite(row["curves"]["total"]).all()


def test_degenerate_nm_still_trains():
    bundle = _bundle(seed=7)
    cfg = _fast_config(variant="NM", alpha=0.0, beta=0.0, j_max=2,
                       epochs_max=30, patience=30)
    _, row = training.train_single_split(bundle, bundle.graph.splits[0], cfg)
    assert row["epochs_run"] >= 1
    assert np.isfinite(row["curves"]["total"]).all()


def test_both_trainers_report_rows_of_one_key_set():
    bundle = _bundle(seed=6)
    split = bundle.graph.splits[0]
    cfg = _fast_config(epochs_max=4, patience=4)
    rows = {variant: training.train_single_split(
                bundle, split, dataclasses.replace(cfg, variant=variant))[1]
            for variant in ("full", "NM")}
    rows["mlp"] = training.train_mlp_single_split(bundle, split, cfg)[1]
    assert {name: list(row) for name, row in rows.items()} == dict.fromkeys(
        rows, ["test_acc", "best_epoch", "best_val_acc", "epochs_run", "curves",
               "max_update_scale", "seconds", "audit"])
    assert rows["full"]["audit"] is not None
    assert rows["NM"]["audit"] is None and rows["mlp"]["audit"] is None


def test_adam_update_magnitude_bounded_during_training():
    # provable per-coordinate cap of bias-corrected Adam: by Cauchy-Schwarz
    # |update| <= lr * (1-b1)/sqrt(1-b2) / sqrt(1 - b1^2/b2); a plain
    # lr*(1+tiny) bound is violated by benign runs (observed ~1.24*lr)
    b1, b2 = training.ADAM_BETA1, training.ADAM_BETA2
    cap = (1 - b1) / np.sqrt(1 - b2) / np.sqrt(1 - b1 * b1 / b2)
    bundle = _bundle(seed=9)
    cfg = _fast_config(epochs_max=80)
    _, row = training.train_single_split(bundle, bundle.graph.splits[0], cfg)
    assert row["max_update_scale"] <= cap + 1e-9


def test_training_loss_never_increases_over_50_epoch_windows():
    graph = datasets.gen_synthetic(30, 2, 0.05, 0.3, 0.2, seed=11, n_splits=1)
    bundle = datasets.DatasetBundle(graph, "smoke", False)
    cfg = _fast_config(epochs_max=150, patience=150, lr=0.01)
    _, row = training.train_single_split(bundle, graph.splits[0], cfg)
    total = row["curves"]["total"]
    for t in range(len(total) - 50):
        assert total[t + 50] <= total[t] * 1.001 + 1e-8


# ---------------------------------------------------------------------------
# protocol


def test_run_protocol_aggregate_identity():
    bundle = _bundle(seed=13, n_splits=3)
    cfg = _fast_config(epochs_max=25, patience=25)
    result = training.run_protocol(bundle, cfg)
    accs = np.array([r["test_acc"] for r in result.rows])
    assert abs(result.mean_acc - accs.mean()) <= 1e-12
    assert abs(result.std_acc - accs.std()) <= 1e-12


def test_run_protocol_single_split_zero_std():
    bundle = _bundle(seed=15, n_splits=1)
    cfg = _fast_config(epochs_max=20, patience=20)
    result = training.run_protocol(bundle, cfg)
    assert result.std_acc == 0.0


def test_run_protocol_deterministic():
    bundle = _bundle(seed=17, n_splits=2)
    cfg = _fast_config(epochs_max=25, patience=25)
    r1 = training.run_protocol(bundle, cfg)
    r2 = training.run_protocol(bundle, cfg)
    assert r1.mean_acc == r2.mean_acc
    assert [a["test_acc"] for a in r1.rows] == [a["test_acc"] for a in r2.rows]


def test_run_protocol_requires_splits():
    bundle = _bundle(seed=19, n_splits=1)
    bundle.graph.splits = []
    with pytest.raises(ContractError):
        training.run_protocol(bundle, _fast_config())


def test_run_protocol_parallel_matches_serial():
    bundle = _bundle(seed=21, n_splits=2)
    cfg = _fast_config(epochs_max=15, patience=15)
    serial = training.run_protocol(bundle, cfg, parallel=1)
    para = training.run_protocol(bundle, cfg, parallel=2)
    assert [r["test_acc"] for r in serial.rows] == [r["test_acc"] for r in para.rows]


def test_run_protocol_starts_no_more_workers_than_splits(monkeypatch):
    started = []

    class InProcessPool:
        """Records the worker count it is asked for and maps in this process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(training, "ProcessPoolExecutor", InProcessPool)
    cfg = _fast_config(epochs_max=2, patience=2)
    training.run_protocol(_bundle(seed=21, n_splits=2), cfg, parallel=64)
    training.run_ablation(_bundle(seed=21, n_splits=2), cfg, parallel=64)
    # one split runs in this process, with no pool at all
    training.run_protocol(_bundle(seed=21, n_splits=1), cfg, parallel=8)
    assert started == [2] * 5


# ---------------------------------------------------------------------------
# ablation


def test_ablation_covers_all_variants():
    bundle = _bundle(seed=23, n_splits=1)
    cfg = _fast_config(epochs_max=10, patience=10)
    results = training.run_ablation(bundle, cfg)
    assert set(results) == {"full", "NM", "FBL", "FBH"}
    table = training.ablation_table(results)
    data_rows = [l for l in table if l.split(",")[0] in results and l.split(",")[1].isdigit()]
    assert len(data_rows) == 4  # one split x four variants


def test_ablation_widths_differ_by_variant():
    bundle = _bundle(seed=25, n_splits=1)
    cfg = _fast_config(epochs_max=5, patience=5, j_max=3)
    results = training.run_ablation(bundle, cfg)
    f = bundle.graph.num_features
    assert results["full"].models[0].embedding_width() == 2 * 2 * f
    assert results["FBL"].models[0].embedding_width() == 2 * f
    assert results["FBH"].models[0].embedding_width() == 2 * f


def test_ablation_holds_no_operator_of_an_earlier_variant(monkeypatch):
    bundle = _bundle(seed=27, n_splits=1)
    held = []
    run_protocol = training.run_protocol

    def counted_protocol(b, cfg, parallel=1):
        held.append(len(b.graph.edges.operators))
        return run_protocol(b, cfg, parallel=parallel)

    monkeypatch.setattr(training, "run_protocol", counted_protocol)
    training.run_ablation(bundle, _fast_config(epochs_max=2, patience=2))
    # NM, second, builds its two constant operators on the graph's edge
    # list; neither is held as FBL and FBH start
    assert held == [0] * len(fm.VARIANTS)
    assert bundle.graph.edges.operators == {}


# ---------------------------------------------------------------------------
# MLP baseline


def test_mlp_perfect_on_noiseless_prototypes():
    graph = datasets.gen_synthetic(30, 3, 0.1, 0.3, proto_noise=0.0,
                                   seed=27, n_splits=1)
    bundle = datasets.DatasetBundle(graph, "clean", False)
    cfg = _fast_config(epochs_max=200, patience=200)
    result = training.run_protocol(bundle, cfg, baseline=True)
    assert result.mean_acc == 1.0


def test_mlp_deterministic():
    bundle = _bundle(seed=29, n_splits=1)
    cfg = _fast_config(epochs_max=30, patience=30)
    r1 = training.run_protocol(bundle, cfg, baseline=True)
    r2 = training.run_protocol(bundle, cfg, baseline=True)
    assert r1.mean_acc == r2.mean_acc


# ---------------------------------------------------------------------------
# config validation


def test_config_rejects_bad_values():
    with pytest.raises(ValidationError):
        training.TrainConfig(lr=0.0)
    with pytest.raises(ValidationError):
        training.TrainConfig(patience=10, epochs_max=5)
    with pytest.raises(ValidationError):
        training.TrainConfig(alpha=-0.5)
    with pytest.raises(ValidationError):
        training.TrainConfig(variant="nope")


@pytest.mark.parametrize("field,value", [
    ("lr", "abc"), ("epochs_max", "5"), ("epochs_max", 5.0), ("seed", True),
    ("true_labels_on_train", 1), ("variant", None), ("mask_dim", 0),
    ("lr", float("nan")), ("alpha", float("inf")), ("weight_decay", -5.0),
    ("patience", -1), ("seed", -1), ("j_max", fm.MAX_J + 1),
])
def test_config_rejects_malformed_values(field, value):
    with pytest.raises(ValidationError, match=field):
        training.TrainConfig(**{field: value})


def test_config_rejects_a_single_scale_before_the_model_is_built():
    with pytest.raises(ValidationError, match="j_max"):
        training.TrainConfig(j_max=1)


def test_config_accepts_int_for_float_fields():
    training.TrainConfig(lr=1, alpha=0, beta=2, seed=np.int64(3))


def test_config_replace_runs_the_checks():
    with pytest.raises(ValidationError, match=r"^lr=0\.0 must be > 0$"):
        dataclasses.replace(training.TrainConfig(), lr=0.0)


def test_config_fields_cannot_be_assigned():
    cfg = training.TrainConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.lr = 0.0
    assert cfg.lr == 0.01


@pytest.mark.parametrize("baseline", [False, True])
def test_report_rows_are_the_in_memory_rows(baseline):
    bundle = _bundle(seed=31, n_splits=2)
    cfg = _fast_config(epochs_max=8, patience=8)
    result = training.run_protocol(bundle, cfg, baseline=baseline)
    splits = result.to_json_dict()["splits"]
    assert len(splits) == len(result.rows) == 2
    for k, row in enumerate(result.rows):
        assert splits[k] == {"split_id": k, **row}


def test_result_serialization_round_trip():
    import json
    bundle = _bundle(seed=31, n_splits=1)
    cfg = _fast_config(epochs_max=8, patience=8)
    result = training.run_protocol(bundle, cfg)
    blob = json.dumps(result.to_json_dict())
    parsed = json.loads(blob)
    assert parsed["aggregate"]["n_splits"] == 1
    csv = result.csv_rows()
    assert csv[0] == "split_id,test_acc,best_epoch,seconds"
    assert len(csv) == 2


# ---------------------------------------------------------------------------
# work counts of one training step


# tape nodes of one training step per variant.  NM's 9 are the weights
# laid side by side, their product with X, its two blocks, the two banks,
# their sum, the softmax and the cross-entropy; the masks and the
# structural losses add the rest
TAPE_NODES = {"full": 34, "FBL": 21, "FBH": 20, "NM": 9}


@pytest.mark.parametrize("variant", fm.VARIANTS)
@pytest.mark.parametrize("n, num_features, candidate, form", [
    (183, 1703, "full", "direct"),      # Texas-shaped: T @ Y at n < 512
    (1000, 100, "given", "panels"),     # SBM-shaped: C = 5 columns in row panels
], ids=["texas-full", "sbm1k-given"])
def test_one_step_at_j4_and_one_evaluation_do_the_pinned_work(monkeypatch, n, num_features,
                                                               candidate, form, variant):
    graph = datasets.gen_synthetic(n, 5, 0.02, 0.1, 0.4, seed=1, n_splits=1)
    rng = np.random.default_rng(1)
    graph.features = (rng.random((n, num_features)) < 0.05).astype(np.float64)
    bundle = datasets.DatasetBundle(graph=graph, name="shape", feature_normalized=False)
    # epoch 1 takes the one step; epoch 2 spends the budget and only reads
    config = training.TrainConfig(epochs_max=2, patience=2, j_max=4, variant=variant,
                                  candidate_mode=candidate, seed=2)
    tape_nodes, steps, x_products, decompositions = [], [], [], []
    step, backward, matmul = ad._step, ad.backward, ad.matmul

    def counted_step(t, y):
        steps.append(ad._step_form(*y.shape))
        return step(t, y)

    def counted_backward(loss, params):
        tape_nodes.append(len(ad.tape().nodes()))
        return backward(loss, params)

    def counted_matmul(a, b):
        x_products.append(a.data is graph.features)
        return matmul(a, b)

    def no_decomposition(name):
        def record(*args, **kwargs):
            decompositions.append(name)
            raise AssertionError(f"np.linalg.{name} inside training")
        return record

    monkeypatch.setattr(ad, "_step", counted_step)
    monkeypatch.setattr(ad, "backward", counted_backward)
    monkeypatch.setattr(ad, "matmul", counted_matmul)
    for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, no_decomposition(name))
    with ad.recording() as caller:
        net, _ = training.train_single_split(bundle, graph.splits[0], config)
    banks = len(fm.BANKS[variant])
    assert tape_nodes == [TAPE_NODES[variant]]
    # each bank steps 2^J times forward and 2^J times back in epoch 1, and
    # 2^J times forward in epoch 2
    assert steps == [form] * (banks * 3 * 2 ** config.j_max)
    assert x_products == [True, True]
    assert len(caller) == 0
    steps.clear()
    x_products.clear()
    a_f = fm.bank_graph(graph, variant, candidate)
    with ad.recording() as caller:
        training.evaluate(net, bundle, graph.splits[0][2], a_f)
    assert steps == [form] * (banks * 2 ** config.j_max)
    assert x_products == [True]
    assert len(caller) == 0
    assert decompositions == []


@pytest.mark.parametrize("candidate", ["full", "given", "knn:5"])
def test_a_protocol_and_its_evaluations_build_one_pair_index_per_candidate(monkeypatch,
                                                                          candidate):
    bundle = _bundle(seed=5)
    graph = bundle.graph
    made, built = [], []
    post_init, init = datasets.CandidateGraph.__post_init__, ad.PairIndex.__init__

    def counted_post_init(self):
        made.append(self.mode)
        post_init(self)

    def counted_init(self, *args):
        built.append(args[2])
        init(self, *args)

    monkeypatch.setattr(datasets.CandidateGraph, "__post_init__", counted_post_init)
    monkeypatch.setattr(ad.PairIndex, "__init__", counted_init)
    result = training.run_protocol(bundle, _fast_config(candidate_mode=candidate, epochs_max=4,
                                                        patience=4))
    a_f = datasets.candidate_graph(graph, candidate)
    for _ in range(3):
        training.evaluate(result.models[0], bundle, graph.splits[0][2], a_f)
    # one candidate per split and one for the evaluations, and one index per
    # edge list, on first use: the given candidates hold the graph's own
    # edge list, so they share one, and no pair op of any forward or
    # backward builds another
    assert made == [candidate] * (len(graph.splits) + 1)
    assert built == [graph.n] * (1 if candidate == "given" else len(made))


def test_nm_builds_each_bank_operator_once_per_graph(monkeypatch):
    bundle = _bundle(seed=6)
    graph = bundle.graph
    normalized, built = [], []
    edge_normalize, dense = ad.edge_normalize, ad.EdgeOperator.dense

    def counted_normalize(w, index):
        normalized.append(index.n)
        return edge_normalize(w, index)

    def counted_dense(op):
        built.append(op.index.n)
        return dense(op)

    monkeypatch.setattr(ad, "edge_normalize", counted_normalize)
    monkeypatch.setattr(ad.EdgeOperator, "dense", counted_dense)
    config = _fast_config(variant="NM", epochs_max=5, patience=5)
    result = training.run_protocol(bundle, config)
    banks = len(fm.BANKS["NM"])
    assert len(graph.splits) > 1
    assert normalized == built == [graph.n] * banks
    # every split's candidate and the evaluations' fresh one hold the
    # graph's edge list, so none of them builds again
    a_f = fm.bank_graph(graph, "NM", config.candidate_mode)
    accs = [training.evaluate(result.models[0], bundle, graph.splits[0][2], a_f)
            for _ in range(3)]
    assert normalized == built == [graph.n] * banks
    assert accs == [result.rows[0]["test_acc"]] * 3


# ---------------------------------------------------------------------------
# invariants of a whole run: no label leak, permutation equivariance


# the nodes of a group share one feature row, so they are equally similar
# to every other node, and the kNN candidates break ties among them
TIE_GROUPS = ([2, 9, 17, 26], [4, 21])


def _tied_bundle():
    graph = datasets.gen_synthetic(30, 3, 0.1, 0.4, 0.5, seed=9, n_splits=1)
    for group in TIE_GROUPS:
        graph.features[group] = graph.features[group[0]]
    return datasets.DatasetBundle(graph=graph, name="ties", feature_normalized=False)


def _orders(n):
    """A random order of the nodes, and the same order with each tie
    group's members put back in their relative order; order[k] is the node
    that moves to position k."""
    raw = np.random.default_rng(0).permutation(n)
    kept = raw.copy()
    for group in TIE_GROUPS:
        kept[np.sort(np.nonzero(np.isin(kept, group))[0])] = group
    return raw, kept


def _permuted(graph, order):
    """``graph`` with node order[k] moved to position k: features, labels,
    edges and split indices alike."""
    position = np.argsort(order)                 # position[i]: where node i moves
    return datasets.LabeledGraph(
        graphs.EdgeList.from_dense(graph.adjacency[np.ix_(order, order)]),
        graph.features[order], graph.labels[order],
        [tuple(np.sort(position[part]) for part in split) for split in graph.splits])


@pytest.mark.parametrize("spec", ["knn:5", "knn:10"])
def test_the_knn_tie_rule_commutes_only_with_a_tie_preserving_order(spec):
    # kNN breaks ties toward the lower node index, so an order that swaps
    # two tied nodes swaps which of them is a neighbour
    graph = _tied_bundle().graph
    base = datasets.candidate_graph(graph, spec).adjacency
    moved = [np.array_equal(datasets.candidate_graph(_permuted(graph, order), spec).adjacency,
                            base[np.ix_(order, order)]) for order in _orders(graph.n)]
    assert moved == [False, True]


@pytest.mark.parametrize("true_labels_on_train", [False, True], ids=["predicted", "true"])
@pytest.mark.parametrize("variant", ["full", "NM"])
@pytest.mark.parametrize("candidate", ["full", "given", "knn:5"])
def test_test_labels_never_reach_the_checkpoint(tmp_path, candidate, variant,
                                                true_labels_on_train):
    bundle = _tied_bundle()
    graph = bundle.graph
    test_idx = graph.splits[0][2]
    labels = graph.labels.copy()
    labels[test_idx] = np.roll(labels[test_idx], 1, axis=1)    # every test label changes
    scrambled = dataclasses.replace(bundle, graph=dataclasses.replace(graph, labels=labels))
    config = _fast_config(epochs_max=15, patience=15, candidate_mode=candidate,
                          variant=variant, true_labels_on_train=true_labels_on_train)
    blobs = []
    for b in (bundle, scrambled):
        net, _ = training.train_single_split(b, b.graph.splits[0], config)
        path = tmp_path / f"{len(blobs)}.fgck"
        fm.save_checkpoint(path, net, alpha=config.alpha, beta=config.beta)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("candidate", ["full", "given", "knn:5", "knn:10"])
def test_a_whole_run_is_permutation_equivariant(candidate):
    # the order keeps each tie group's members in their relative order,
    # since the kNN tie rule is not itself permutation-invariant (above)
    bundle = _tied_bundle()
    permuted = _permuted(bundle.graph, _orders(bundle.graph.n)[1])
    config = _fast_config(epochs_max=20, patience=20, candidate_mode=candidate)
    rows = [training.train_single_split(b, b.graph.splits[0], config)[1]
            for b in (bundle, dataclasses.replace(bundle, graph=permuted))]
    for key in ("ce", "ho", "ht", "total"):
        assert np.allclose(rows[0]["curves"][key], rows[1]["curves"][key], rtol=0, atol=1e-12)
    assert rows[0]["curves"]["val_acc"] == rows[1]["curves"]["val_acc"]
    assert rows[0]["test_acc"] == rows[1]["test_acc"]

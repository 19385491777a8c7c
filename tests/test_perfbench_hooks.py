"""The benchmark's tracer patches package functions by name; a rename in
the package must fail here rather than only in traced benchmark runs."""

import importlib
import importlib.util
import os

import pytest

import fggsl
from conftest import REPO_ROOT


def _load_tracer():
    path = os.path.join(REPO_ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
# as the benchmark does: import every module the tracer patches
for _short in tracer.MODULES:
    importlib.import_module(f"fggsl.{_short}")


@pytest.mark.parametrize("span", sorted(tracer.SPANS))
def test_span_resolves_to_a_package_function(span):
    short, attr = tracer.SPANS[span]
    owner = getattr(fggsl, short)
    if "." in attr:
        cls_name, meth = attr.split(".")
        # the tracer reads methods from the class's own namespace
        assert callable(vars(getattr(owner, cls_name))[meth])
    else:
        assert callable(getattr(owner, attr))


def test_counter_and_epoch_hooks_resolve():
    for short in tracer.MODULES:
        assert getattr(fggsl, short).__name__ == f"fggsl.{short}"
    for cls, meth in ((fggsl.autodiff.ParameterSet, "zero_grad"),
                      (fggsl.training.Adam, "step")):
        assert callable(vars(cls)[meth])
    for name in ("matmul", "backward", "tape"):
        assert callable(getattr(fggsl.autodiff, name))


def test_install_then_uninstall_restores_the_package():
    before = {short: dict(vars(getattr(fggsl, short))) for short in tracer.MODULES}
    t = tracer.Tracer(fggsl)
    t.install()
    try:
        assert fggsl.model.forward is not before["model"]["forward"]
    finally:
        t.uninstall()
    for short, names in before.items():
        module = vars(getattr(fggsl, short))
        assert all(module[name] is value for name, value in names.items())


def test_the_calls_the_benchmark_makes_run_on_a_tiny_graph(tmp_path):
    # every call form of perfbench/run.py, selftest.py and inputs.py, on a
    # 30-node graph: a package change that the frozen benchmark would trip
    # on fails here by name
    ad, datasets, fm = fggsl.autodiff, fggsl.datasets, fggsl.model
    analysis, errors, graphs, training = (fggsl.analysis, fggsl.errors, fggsl.graphs,
                                          fggsl.training)
    drawn = datasets.gen_synthetic(30, 3, 0.1, 0.4, 0.5, seed=1, n_splits=2)
    datasets.save_raw(drawn, tmp_path / "nodes.tsv", tmp_path / "edges.tsv")
    datasets.save_splits(drawn.splits, tmp_path / "splits")
    bundle = datasets.load_dataset_dir(str(tmp_path))
    graph = bundle.graph
    x, labels = graph.features, graph.labels

    # run.py's training rounds and inputs.py's checkpoints
    config = training.TrainConfig(lr=0.05, epochs_max=3, patience=3, j_max=2,
                                  candidate_mode="full", seed=1)
    result = training.run_protocol(bundle, config)
    assert len(result.models) == len(result.rows) == len(graph.splits)
    assert 0.0 <= result.mean_acc <= 1.0
    assert all({"test_acc", "epochs_run", "audit"} <= set(row) for row in result.rows)
    a_f = datasets.candidate_graph(graph, "full")
    assert training.evaluate(result.models[0], bundle, graph.splits[0][2],
                             a_f) == result.rows[0]["test_acc"]
    net, _ = training.train_single_split(bundle, graph.splits[0], config)
    path = str(tmp_path / "net.fgck")
    fm.save_checkpoint(path, net, alpha=config.alpha, beta=config.beta)
    net, _ = fm.load_checkpoint(path)
    with ad.no_grad():
        fwd = fm.forward(net, ad.constant(x), a_f)
    masks = [fwd.w1.data, fwd.w2.data]
    assert fwd.yhat.data.shape == labels.shape
    assert all(w.shape == a_f.adjacency.shape == (30, 30) for w in masks)

    # run.py's gradient check: the loss is built on the default tape
    params = dict(net.params)
    loss = fm.total_loss(net, graph, a_f, config.alpha, config.beta, graph.splits[0][0])[0]
    net.params.zero_grad()
    ad.backward(loss, net.params)
    for name in ("mask_ho_w", "mask_ho_b", "mask_ht_w", "mask_ht_b", "w_clf"):
        assert params[name].grad.shape == params[name].data.shape, name
    net.params.zero_grad()

    # run.py's bank and audit checks and selftest.py's checks on dense matrices
    lap = graphs.normalized_laplacian(masks[0])
    for kind in ("low", "high"):
        for spec in (net.bank(kind), fm.FilterBankSpec(net.j_max, "fig3", kind)):
            with ad.no_grad():
                out = fm.filter_bank_apply(ad.constant(lap), ad.constant(x), spec).data
            assert out.shape[0] == 30
    small = fm.FgGSLModel(x.shape[1], labels.shape[1], j_max=3, seed=1)
    dense = fm.forward(small, ad.constant(x), datasets.CandidateGraph(graph.adjacency, "given"))
    assert dense.w1.data.shape == (30, 30)
    audit = analysis.learned_edge_audit(*masks, labels).__dict__
    assert {"ho_edges", "ho_r_het", "ht_edges", "ht_r_het"} <= set(audit)
    records = analysis.stability_probe(graphs.normalized_laplacian(graph.adjacency), 3,
                                       "fig3", "high", [1e-3], trials=1, seed=4)
    assert [(r.j, r.epsilon) for r in records] == [(3, 1e-3)]
    assert all(r.observed_distance >= 0 and r.bound_value >= 0 and r.delta >= 0
               for r in records)
    assert issubclass(errors.ValidationError, errors.FggslError)

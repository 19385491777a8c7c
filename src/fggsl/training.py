"""Optimizer, per-split training loop, and the multi-split evaluation protocol.

Each split trains a fresh model with Adam, tracks validation accuracy
every epoch, restores the best-validation parameters, and reports test
accuracy of the restored model.  The protocol aggregates mean and
population standard deviation over all splits; splits are independent
and may run in parallel processes.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import model as fm
from .analysis import learned_edge_audit
from .autodiff import ParameterSet
from .datasets import CandidateGraph, DatasetBundle, candidate_graph
from .errors import ContractError, NumericError, ValidationError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# annotation -> accepted runtime types; an int is a valid float
_FIELD_TYPES = {"float": numbers.Real, "int": numbers.Integral, "str": str,
                "bool": bool}


@dataclass
class TrainConfig:
    lr: float = 0.01
    weight_decay: float = 5e-4
    epochs_max: int = 500
    patience: int = 100
    alpha: float = 1.0
    beta: float = 1.0
    j_max: int = 4
    kernel_mode: str = "fig3"
    variant: str = "full"
    candidate_mode: str = "full"
    knn_k: int = 10
    seed: int = 0
    mask_dim: int = 16
    true_labels_on_train: bool = False

    def validate(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            # bool is an int subclass, so it passes only a bool field
            if (isinstance(value, bool) != (f.type == "bool")
                    or not isinstance(value, _FIELD_TYPES[f.type])
                    or (f.type == "float" and not math.isfinite(value))):
                raise ValidationError(f"{f.name}={value!r} is not a valid {f.type}")
        for name in ("weight_decay", "patience", "alpha", "beta", "seed"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name}={getattr(self, name)} must be >= 0")
        if self.mask_dim < 1:
            raise ValidationError(f"mask_dim={self.mask_dim} must be >= 1")
        if self.lr <= 0:
            raise ValidationError(f"lr={self.lr} must be > 0")
        if self.patience > self.epochs_max:
            raise ValidationError(
                f"patience={self.patience} exceeds epochs_max={self.epochs_max}")
        if self.variant not in fm.VARIANTS:
            raise ValidationError(f"variant={self.variant!r} not in {fm.VARIANTS}")
        if self.kernel_mode not in fm.KERNEL_MODES:
            raise ValidationError(
                f"kernel_mode={self.kernel_mode!r} not in {fm.KERNEL_MODES}")
        if self.candidate_mode not in ("full", "given", "knn"):
            raise ValidationError(
                f"candidate_mode={self.candidate_mode!r} not one of full/given/knn")
        if self.epochs_max < 1:
            raise ValidationError("epochs_max must be >= 1")
        return self


class Adam:
    """Adam with bias correction and decoupled weight decay.

    Decay applies only to the parameter names in ``decay_names`` (the
    classifier weights); moments live per parameter.  ``last_update_scale``
    records max |update| / lr of the most recent step for diagnostics.
    """

    def __init__(self, params: ParameterSet, lr: float, weight_decay: float = 0.0,
                 decay_names: tuple = ()):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.decay_names = set(decay_names)
        self.step_count = 0
        self.m = {name: np.zeros(t.shape) for name, t in params}
        self.v = {name: np.zeros(t.shape) for name, t in params}
        self.last_update_scale = 0.0

    def step(self):
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - ADAM_BETA1 ** t
        bc2 = 1.0 - ADAM_BETA2 ** t
        scale = 0.0
        for name, p in self.params:
            g = p.grad
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient for parameter {name!r} "
                                   f"at optimizer step {t}")
            m = self.m[name]
            v = self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            if update.size:
                scale = max(scale, float(np.max(np.abs(update))))
            p.data = p.data - self.lr * update
            if name in self.decay_names and self.weight_decay:
                p.data = p.data - self.lr * self.weight_decay * p.data
        self.last_update_scale = scale


def accuracy_from_probs(probs: np.ndarray, labels: np.ndarray, index_set) -> float:
    """Fraction of rows whose argmax matches; ties go to the lowest class."""
    idx = np.asarray(index_set, dtype=np.intp).ravel()
    if idx.size == 0:
        raise ContractError("accuracy: empty index set")
    pred = np.argmax(probs[idx], axis=1)
    truth = np.argmax(labels[idx], axis=1)
    return float(np.mean(pred == truth))


def evaluate(model: fm.FgGSLModel, bundle: DatasetBundle, index_set,
             a_f: CandidateGraph) -> float:
    """Test-time accuracy of a model on the given node index set."""
    with ad.no_grad():
        fwd = fm.forward(model, ad.constant(bundle.graph.features), a_f)
    return accuracy_from_probs(fwd.yhat.data, bundle.graph.labels, index_set)


def _resolve_candidate(bundle: DatasetBundle, config: TrainConfig) -> CandidateGraph:
    # the no-mask ablation always runs the banks on the given graph
    mode = "given" if config.variant == "NM" else config.candidate_mode
    k = config.knn_k if mode == "knn" else None
    return candidate_graph(bundle.graph, mode, k=k)


def _fit(step_fn, params: ParameterSet, config: TrainConfig, labels, val_idx) -> dict:
    """Shared early-stopping loop.

    ``step_fn`` runs one forward+loss on the tape and returns
    (loss tensor, LossBreakdown, probs ndarray).  Validation accuracy is
    read off the training forward, so the snapshot taken on improvement
    matches the parameters that produced it (the step comes after).
    """
    adam = Adam(params, config.lr, config.weight_decay, decay_names=("w_clf",))
    best_val = -1.0
    best_state = params.snapshot()
    best_epoch = 0
    stale = 0
    curves = {"ce": [], "ho": [], "ht": [], "total": [], "val_acc": []}
    max_update_scale = 0.0
    for epoch in range(1, config.epochs_max + 1):
        params.zero_grad()
        try:
            loss, breakdown, probs = step_fn()
            val_acc = accuracy_from_probs(probs, labels, val_idx)
            ad.backward(loss, params)
            adam.step()
        except NumericError as exc:
            raise NumericError(f"epoch {epoch}: {exc}") from exc
        max_update_scale = max(max_update_scale, adam.last_update_scale)
        curves["ce"].append(breakdown.ce)
        curves["ho"].append(breakdown.ho)
        curves["ht"].append(breakdown.ht)
        curves["total"].append(breakdown.total)
        curves["val_acc"].append(val_acc)
        if val_acc > best_val:
            best_val = val_acc
            best_state = params.snapshot()
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
        if stale >= config.patience:
            break
    params.restore(best_state)
    return {"best_epoch": best_epoch, "best_val_acc": best_val,
            "epochs_run": len(curves["total"]), "curves": curves,
            "max_update_scale": max_update_scale}


def _result_row(fit: dict, started: float, probs, labels, test_idx,
                audit: dict | None = None) -> dict:
    """One split's report row: test accuracy of ``probs``, the ``_fit``
    summary, wall time since ``started`` and the learned-edge audit."""
    return {"test_acc": accuracy_from_probs(probs, labels, test_idx), **fit,
            "seconds": time.perf_counter() - started, "audit": audit}


def train_single_split(bundle: DatasetBundle, split, config: TrainConfig):
    """Train one model on one (train, val, test) split; returns (model, row)."""
    config.validate()
    train_idx, val_idx, test_idx = split
    graph = bundle.graph
    a_f = _resolve_candidate(bundle, config)
    net = fm.FgGSLModel(graph.num_features, graph.num_classes, j_max=config.j_max,
                        mask_dim=config.mask_dim, kernel_mode=config.kernel_mode,
                        variant=config.variant, seed=config.seed)

    def step_fn():
        loss, breakdown, fwd = fm.total_loss(
            net, graph, a_f, config.alpha, config.beta, train_idx,
            true_labels_on_train=config.true_labels_on_train)
        return loss, breakdown, fwd.yhat.data

    started = time.perf_counter()
    fit = _fit(step_fn, net.params, config, graph.labels, val_idx)
    with ad.no_grad():
        fwd = fm.forward(net, ad.constant(graph.features), a_f)
    audit = None
    if config.variant != "NM":
        w1 = fwd.w1.data if fwd.w1 is not None else None
        w2 = fwd.w2.data if fwd.w2 is not None else None
        audit = dataclasses.asdict(learned_edge_audit(w1, w2, graph.labels))
    return net, _result_row(fit, started, fwd.yhat.data, graph.labels, test_idx, audit)


def train_mlp_single_split(bundle: DatasetBundle, split, config: TrainConfig):
    """Graph-agnostic two-layer perceptron under the identical protocol."""
    config.validate()
    train_idx, val_idx, test_idx = split
    graph = bundle.graph
    net = MlpModel(graph.num_features, graph.num_classes, seed=config.seed)

    def step_fn():
        logits = net.logits(ad.constant(graph.features))
        ce, probs = ad.softmax_cross_entropy(logits, ad.constant(graph.labels), train_idx)
        breakdown = fm.LossBreakdown(ce=ce.item(), ho=0.0, ht=0.0, total=ce.item(),
                                     alpha=0.0, beta=0.0)
        return ce, breakdown, probs.data

    def eval_fn():
        with ad.no_grad():
            logits = net.logits(ad.constant(graph.features))
            return ad.softmax_rows(logits).data

    started = time.perf_counter()
    fit = _fit(step_fn, net.params, config, graph.labels, val_idx)
    return net, _result_row(fit, started, eval_fn(), graph.labels, test_idx)


class MlpModel:
    """F -> 64 -> C perceptron with tanh hidden layer."""

    HIDDEN = 64

    def __init__(self, num_features: int, num_classes: int, seed: int = 0,
                 hidden: int | None = None):
        h = hidden or self.HIDDEN
        rng = np.random.default_rng(seed)
        self.params = ParameterSet()
        lim1 = np.sqrt(6.0 / (num_features + h))
        lim2 = np.sqrt(6.0 / (h + num_classes))
        self.w1 = self.params.add("w1", rng.uniform(-lim1, lim1, (num_features, h)))
        self.b1 = self.params.add("b1", np.zeros((1, h)))
        # named w_clf so the shared loop applies weight decay to it alone
        self.w_out = self.params.add("w_clf", rng.uniform(-lim2, lim2, (h, num_classes)))
        self.b_out = self.params.add("b_out", np.zeros((1, num_classes)))

    def logits(self, x: ad.Tensor) -> ad.Tensor:
        n = x.shape[0]
        ones = ad.constant(np.ones((n, 1)))
        hidden = ad.tanh(ad.add(ad.matmul(x, self.w1), ad.matmul(ones, self.b1)))
        return ad.add(ad.matmul(hidden, self.w_out), ad.matmul(ones, self.b_out))


@dataclass
class RunResult:
    rows: list
    mean_acc: float
    std_acc: float
    config: dict
    models: list = field(default_factory=list, repr=False)

    def to_json_dict(self, with_curves: bool = True) -> dict:
        rows = []
        for k, row in enumerate(self.rows):
            out = {"split_id": k, **{key: row[key] for key in
                                     ("test_acc", "best_epoch", "best_val_acc",
                                      "epochs_run", "seconds")}}
            out["audit"] = row.get("audit")
            if with_curves:
                out["curves"] = row["curves"]
            rows.append(out)
        return {"config": self.config,
                "aggregate": {"mean_acc": self.mean_acc, "std_acc": self.std_acc,
                              "n_splits": len(self.rows)},
                "splits": rows}

    def csv_rows(self) -> list[str]:
        lines = ["split_id,test_acc,best_epoch,seconds"]
        for k, row in enumerate(self.rows):
            lines.append(f"{k},{row['test_acc']:.6f},{row['best_epoch']},"
                         f"{row['seconds']:.3f}")
        return lines


def _per_split_config(config: TrainConfig, split_index: int) -> TrainConfig:
    return dataclasses.replace(config, seed=config.seed * 1000 + split_index)


def _protocol_worker(args):
    bundle, config, split_index, baseline = args
    cfg = _per_split_config(config, split_index)
    split = bundle.graph.splits[split_index]
    trainer = train_mlp_single_split if baseline else train_single_split
    return trainer(bundle, split, cfg)


def _aggregate(rows, config: TrainConfig, models) -> RunResult:
    accs = np.array([row["test_acc"] for row in rows])
    return RunResult(rows=rows, mean_acc=float(np.mean(accs)),
                     std_acc=float(np.std(accs)), config=dataclasses.asdict(config),
                     models=models)


def run_protocol(bundle: DatasetBundle, config: TrainConfig, parallel: int = 1,
                 baseline: bool = False) -> RunResult:
    """Train every split independently and aggregate test accuracy.

    Per-split seeds derive from the base seed (seed*1000 + split index),
    so results are reproducible yet splits are initialized differently.
    """
    config.validate()
    n_splits = len(bundle.graph.splits)
    if n_splits == 0:
        raise ContractError("run_protocol: dataset bundle has no splits")
    jobs = [(bundle, config, k, baseline) for k in range(n_splits)]
    if parallel > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            outcomes = list(pool.map(_protocol_worker, jobs))
    else:
        outcomes = [_protocol_worker(job) for job in jobs]
    models = [m for m, _ in outcomes]
    rows = [r for _, r in outcomes]
    return _aggregate(rows, config, models)


def mlp_baseline(bundle: DatasetBundle, config: TrainConfig,
                 parallel: int = 1) -> RunResult:
    """Run the split protocol with the graph-agnostic MLP."""
    return run_protocol(bundle, config, parallel=parallel, baseline=True)


def run_ablation(bundle: DatasetBundle, config: TrainConfig,
                 parallel: int = 1) -> dict[str, RunResult]:
    """One protocol per variant over identical splits and seeds."""
    results = {}
    for variant in fm.VARIANTS:
        cfg = dataclasses.replace(config, variant=variant)
        results[variant] = run_protocol(bundle, cfg, parallel=parallel)
    return results


def ablation_table(results: dict[str, RunResult]) -> list[str]:
    """CSV comparison: one row per (variant, split) plus aggregate rows."""
    lines = ["variant,split_id,test_acc,best_epoch,seconds"]
    for variant, result in results.items():
        for k, row in enumerate(result.rows):
            lines.append(f"{variant},{k},{row['test_acc']:.6f},"
                         f"{row['best_epoch']},{row['seconds']:.3f}")
    lines.append("variant,mean_acc,std_acc,,")
    for variant, result in results.items():
        lines.append(f"{variant},{result.mean_acc:.6f},{result.std_acc:.6f},,")
    return lines

"""Optimizer, per-split training loop, and the multi-split evaluation protocol.

Each split trains a fresh model with Adam, tracks validation accuracy
every epoch, restores the best-validation parameters, and reports test
accuracy of the restored model, read off the best epoch's training
forward: the parameters are snapshotted before that forward's backward,
and its probabilities and edge columns are kept with the snapshot, so no
forward runs after training.  The epoch that spends the budget records
no tape and takes no step, which the restore would discard.  The
protocol aggregates mean and population standard deviation over all
splits; splits are independent and may run in parallel processes.
"""

from __future__ import annotations

import contextlib
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
from .datasets import CandidateGraph, DatasetBundle, candidate_k
from .errors import ContractError, NumericError, ValidationError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# the parameters Adam's weight decay applies to: the classifier weights
DECAYED_PARAMETERS = frozenset({"w_clf"})

# annotation -> accepted runtime types; an int is a valid float
_FIELD_TYPES = {"float": numbers.Real, "int": numbers.Integral, "str": str,
                "bool": bool}


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:                # an int beyond float range
        return False


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one protocol run, checked when built.

    Every construction, ``dataclasses.replace`` included, runs the checks,
    and the fields cannot be assigned afterwards, so a TrainConfig that
    exists is valid and no caller checks it again.
    """

    lr: float = 0.01
    weight_decay: float = 5e-4
    epochs_max: int = 500
    patience: int = 100
    alpha: float = 1.0
    beta: float = 1.0
    j_max: int = 4
    kernel_mode: str = "fig3"
    variant: str = "full"
    candidate_mode: str = "full"         # a candidate spec: full, given or knn:K
    seed: int = 0
    mask_dim: int = 16
    true_labels_on_train: bool = False

    def __post_init__(self):
        # first, so that a spec of the wrong type is reported under the
        # config key and flag name ``candidate``
        candidate_k(self.candidate_mode)
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            # bool is an int subclass, so it passes only a bool field
            if (isinstance(value, bool) != (f.type == "bool")
                    or not isinstance(value, _FIELD_TYPES[f.type])
                    or (f.type == "float" and not _finite(value))):
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
        fm.check_config(self.variant, self.kernel_mode, self.j_max)
        if self.epochs_max < 1:
            raise ValidationError("epochs_max must be >= 1")


class Adam:
    """Adam with bias correction and decoupled weight decay.

    Decay applies only to the parameters named in ``DECAYED_PARAMETERS``;
    moments live per parameter.  ``last_update_scale`` records
    max |update| / lr of the most recent step for diagnostics.
    """

    def __init__(self, params: ParameterSet, lr: float, weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
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
            if name in DECAYED_PARAMETERS and self.weight_decay:
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


def _fit(step_fn, params: ParameterSet, config: TrainConfig, labels,
         val_idx) -> tuple[dict, np.ndarray, object]:
    """Shared early-stopping loop.

    ``step_fn`` runs one forward+loss on the tape and returns (loss
    tensor, LossBreakdown, probs ndarray, outputs), where ``outputs`` is
    anything else of that forward the caller wants back.  Validation
    accuracy is read off the training forward, and on an improvement the
    parameters are snapshotted before the backward, so the snapshot holds
    the parameters that produced that accuracy.  That forward's probs and
    outputs are kept with the snapshot.  Returns the summary, then the
    best forward's probs and outputs; the parameters are restored to it.

    Epoch ``config.epochs_max`` only reads: its forward runs under
    ``ad.no_grad`` and it takes no backward and no Adam step, since the
    restore would discard that step.  It skips ``zero_grad`` too, so every
    epoch that calls ``zero_grad`` ends in ``Adam.step``.  An epoch that
    ends the run by patience learns that only after its forward, and
    keeps its step.
    """
    adam = Adam(params, config.lr, config.weight_decay)
    best_val = -1.0
    best_state = params.snapshot()
    best_probs = best_outputs = None
    best_epoch = 0
    stale = 0
    curves = {"ce": [], "ho": [], "ht": [], "total": [], "val_acc": []}
    max_update_scale = 0.0
    for epoch in range(1, config.epochs_max + 1):
        learn = epoch < config.epochs_max
        if learn:
            params.zero_grad()
        try:
            # an overflow or a NaN, say from a huge lr or alpha, fails the epoch
            with np.errstate(over="raise", invalid="raise"), ad.tape_scope(), \
                    (contextlib.nullcontext() if learn else ad.no_grad()):
                loss, breakdown, probs, outputs = step_fn()
                val_acc = accuracy_from_probs(probs, labels, val_idx)
                if val_acc > best_val:
                    best_val, best_epoch, stale = val_acc, epoch, 0
                    best_state = params.snapshot()
                    best_probs, best_outputs = probs, outputs
                else:
                    stale += 1
                if learn:
                    ad.backward(loss, params)
                    adam.step()
        except (NumericError, FloatingPointError) as exc:
            raise NumericError(f"epoch {epoch}: {exc}") from exc
        max_update_scale = max(max_update_scale, adam.last_update_scale)
        curves["ce"].append(breakdown.ce)
        curves["ho"].append(breakdown.ho)
        curves["ht"].append(breakdown.ht)
        curves["total"].append(breakdown.total)
        curves["val_acc"].append(val_acc)
        if stale >= config.patience:
            break
    params.restore(best_state)
    fit = {"best_epoch": best_epoch, "best_val_acc": best_val,
           "epochs_run": len(curves["total"]), "curves": curves,
           "max_update_scale": max_update_scale}
    return fit, best_probs, best_outputs


def _result_row(fit: dict, started: float, probs, labels, test_idx,
                audit: dict | None = None) -> dict:
    """One split's report row: test accuracy of ``probs``, the ``_fit``
    summary, wall time since ``started`` and the learned-edge audit."""
    return {"test_acc": accuracy_from_probs(probs, labels, test_idx), **fit,
            "seconds": time.perf_counter() - started, "audit": audit}


def train_single_split(bundle: DatasetBundle, split, config: TrainConfig):
    """Train one model on one (train, val, test) split; returns (model, row).

    The test accuracy and the learned-edge audit are read off the
    training forward of the restored parameters, so none runs after.
    """
    train_idx, val_idx, test_idx = split
    graph = bundle.graph
    a_f = fm.bank_graph(graph, config.variant, config.candidate_mode)
    net = fm.FgGSLModel(graph.num_features, graph.num_classes, j_max=config.j_max,
                        mask_dim=config.mask_dim, kernel_mode=config.kernel_mode,
                        variant=config.variant, seed=config.seed)

    def step_fn():
        loss, breakdown, fwd = fm.total_loss(
            net, graph, a_f, config.alpha, config.beta, train_idx,
            true_labels_on_train=config.true_labels_on_train)
        return loss, breakdown, fwd.yhat.data, fwd.edge_columns()

    started = time.perf_counter()
    fit, probs, columns = _fit(step_fn, net.params, config, graph.labels, val_idx)
    audit = None
    if fm.learns_masks(config.variant):
        audit = dataclasses.asdict(learned_edge_audit(
            *columns, graph.labels, pairs=a_f.edge_pairs()))
    return net, _result_row(fit, started, probs, graph.labels, test_idx, audit)


def train_mlp_single_split(bundle: DatasetBundle, split, config: TrainConfig):
    """Graph-agnostic two-layer perceptron under the identical protocol."""
    train_idx, val_idx, test_idx = split
    graph = bundle.graph
    net = MlpModel(graph.num_features, graph.num_classes, seed=config.seed)

    def step_fn():
        logits = net.logits(ad.constant(graph.features))
        ce = ad.softmax_cross_entropy(logits, ad.constant(graph.labels), train_idx)
        breakdown = fm.LossBreakdown(ce=ce.item(), ho=0.0, ht=0.0, total=ce.item(),
                                     alpha=0.0, beta=0.0)
        return ce, breakdown, ad.softmax_rows(logits).data, None

    started = time.perf_counter()
    fit, probs, _ = _fit(step_fn, net.params, config, graph.labels, val_idx)
    return net, _result_row(fit, started, probs, graph.labels, test_idx)


class MlpModel:
    """F -> 64 -> C perceptron with tanh hidden layer."""

    HIDDEN = 64

    def __init__(self, num_features: int, num_classes: int, seed: int = 0):
        h = self.HIDDEN
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
        hidden = ad.tanh(ad.add_row(ad.matmul(x, self.w1), self.b1))
        return ad.add_row(ad.matmul(hidden, self.w_out), self.b_out)


@dataclass
class RunResult:
    rows: list
    mean_acc: float
    std_acc: float
    config: dict
    models: list = field(default_factory=list, repr=False)

    def to_json_dict(self) -> dict:
        rows = [{"split_id": k, **{key: row[key] for key in
                                   ("test_acc", "best_epoch", "best_val_acc",
                                    "epochs_run", "seconds", "audit", "curves")}}
                for k, row in enumerate(self.rows)]
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


def split_seed(seed: int, split_index: int) -> int:
    """The model seed of one split: seed * 1000 + split index."""
    return seed * 1000 + split_index


def _protocol_worker(args):
    bundle, config, split_index, baseline = args
    cfg = dataclasses.replace(config, seed=split_seed(config.seed, split_index))
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
    n_splits = len(bundle.graph.splits)
    if n_splits == 0:
        raise ContractError("run_protocol: dataset bundle has no splits")
    jobs = [(bundle, config, k, baseline) for k in range(n_splits)]
    # the pool starts all its workers at once: never more than there are splits
    workers = min(parallel, n_splits)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_protocol_worker, jobs))
    else:
        outcomes = [_protocol_worker(job) for job in jobs]
    models = [m for m, _ in outcomes]
    rows = [r for _, r in outcomes]
    return _aggregate(rows, config, models)


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
        lines += [f"{variant},{row}" for row in result.csv_rows()[1:]]
    lines.append("variant,mean_acc,std_acc,,")
    for variant, result in results.items():
        lines.append(f"{variant},{result.mean_acc:.6f},{result.std_acc:.6f},,")
    return lines

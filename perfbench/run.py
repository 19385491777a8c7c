"""Benchmark of fggsl: three workloads, end-to-end metrics and a traced per-layer run.

    python3 perfbench/run.py --workload texas-full --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  See
``perfbench/README.md`` for the workloads and the metric definitions.
"""

from __future__ import annotations

import os
import sys

# Set before numpy loads.  One BLAS thread: results differ in the last digits
# between thread counts, and the host has only two CPUs to share.  No
# huge-page advice from numpy: whether the kernel can back an array with huge
# pages depends on the host's memory at that moment, and it moved one
# similarity report between 0.7 and 1.3 s from one process to the next.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "FGGSL_THREADS")
PINNED_ENV = {**dict.fromkeys(THREAD_VARS, "1"), "NUMPY_MADVISE_HUGEPAGE": "0"}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
from tracer import EPOCH, Tracer  # noqa: E402

# ``round_s`` is the time one round takes on the reference host (2 CPUs,
# one BLAS thread); ``--seconds`` fixes the number of rounds from it, so
# every run with the same arguments does the same work.  ``setup_reps`` is
# the size of each of a round's two groups of timed set-up repetitions.
WORKLOADS = {
    "texas-full": {"kind": "train", "candidate": "full", "epochs": 10, "calls": 20,
                   "setup_reps": 1, "round_s": 3.0},
    "sbm1k-given": {"kind": "train", "candidate": "given", "epochs": 2, "calls": 4,
                    "setup_reps": 2, "round_s": 7.5},
    "analyze-probe": {"kind": "analyze", "candidate": "full", "calls": 2,
                      "setup_reps": 3, "round_s": 8.5},
}
# parameter groups of the gradient check: one check each
GRADIENT_GROUPS = {"mask_ho": ("mask_ho_w", "mask_ho_b"),
                   "mask_ht": ("mask_ht_w", "mask_ht_b"), "w_clf": ("w_clf",)}
MIN_ROUNDS = 2
TRAIN_LR = 0.05
TRAIN_J = 4
PROBE_J = 2
AUDIT_THRESHOLD = 0.5

E2E_UNITS = {"setup_s": "s", "work_s": "s", "call_s.p50": "s",
             "peak_rss_mb": "MB", "test_acc": "fraction"}
LAYER_UNITS = {
    "datasets.load_s": "s", "datasets.candidate_s": "s",
    "datasets.edge_pairs_s": "s", "datasets.edge_pairs_calls": "count",
    "graphs.laplacian_s": "s", "graphs.eig_s": "s", "graphs.eig_calls": "count",
    "model.mask_s": "s", "model.bank_s": "s", "model.head_s": "s",
    "model.loss_s": "s", "model.struct_loss_s": "s", "model.checkpoint_s": "s",
    "model.forward_calls": "count",
    "autodiff.backward_s": "s", "autodiff.matmul_s": "s",
    "autodiff.matmul_gflop": "GFLOP", "autodiff.tape_nodes": "count",
    "autodiff.tape_mb": "MiB",
    "training.epoch_s": "s", "training.adam_s": "s", "training.eval_s": "s",
    "training.epochs": "count",
    "analysis.probe_s": "s", "analysis.filter_matrix_s": "s",
    "analysis.similarity_s": "s", "analysis.audit_s": "s",
    "cli.self_s": "s",
    "trace.overhead": "ratio", "trace.coverage": "fraction",
}
# per round: span name -> metric, summing self time
SELF_TIME_METRICS = {
    "datasets.candidate": "datasets.candidate_s",
    "datasets.edge_pairs": "datasets.edge_pairs_s",
    "graphs.laplacian": "graphs.laplacian_s", "graphs.eig": "graphs.eig_s",
    "model.mask": "model.mask_s", "model.bank": "model.bank_s",
    "model.forward": "model.head_s", "model.loss": "model.loss_s",
    "model.struct_loss_ho": "model.struct_loss_s",
    "model.struct_loss_ht": "model.struct_loss_s",
    "autodiff.backward": "autodiff.backward_s", "training.adam": "training.adam_s",
    "analysis.probe": "analysis.probe_s",
    "analysis.filter_matrix": "analysis.filter_matrix_s",
    "analysis.similarity": "analysis.similarity_s",
    "analysis.audit": "analysis.audit_s", "cli.main": "cli.self_s",
}


class Failure(Exception):
    """The benchmark cannot produce a result."""


def import_package():
    """Import fggsl from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "fggsl", "__init__.py")):
        raise Failure(f"no fggsl package under {SRC}")
    sys.path.insert(0, SRC)
    fggsl = importlib.import_module("fggsl")
    for name in ("errors", "autodiff", "graphs", "datasets", "model", "training",
                 "analysis", "cli"):
        importlib.import_module(f"fggsl.{name}")
    if not os.path.abspath(fggsl.__file__).startswith(SRC + os.sep):
        raise Failure(f"fggsl imported from {fggsl.__file__}, not from {SRC}")
    return fggsl


def host_info() -> dict:
    blas = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "pinned_env": {var: os.environ.get(var) for var in PINNED_ENV},
        "platform": platform.platform(),
    }


def make_inputs(workload: str, seed: int, directory: str):
    """Write the workload's inputs in a child process, so neither its time
    nor its memory counts toward this process's figures."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "inputs.py"), "--workload", workload,
         "--seed", str(seed), "--out", directory],
        env=env, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise Failure(f"input generation failed:\n{proc.stderr}")


class Run:
    """State of one benchmark process: inputs, counters and samples."""

    def __init__(self, fggsl, workload: str, seed: int, seconds: int, trace: bool,
                 directory: str):
        self.pkg = fggsl
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.trace = trace
        self.dir = directory
        self.rounds = max(MIN_ROUNDS, round(seconds / self.spec["round_s"]))
        self.tracer = Tracer(fggsl) if trace else None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples = {"setup_s": [], "work_s": [], "call_s": [], "traced_work_s": []}
        self.windows: list[tuple[dict, dict, float]] = []   # traced rounds
        self.test_acc: float | None = None
        self.epochs: int | None = None

    # -- bookkeeping -------------------------------------------------------

    def op(self, ok: bool, what: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            print(f"failed: {what}", file=sys.stderr)

    def record_checks(self, results):
        for name, ok, detail in results:
            self.op(ok, f"check {name}: {detail}")

    @contextlib.contextmanager
    def traced(self, on: bool):
        if on:
            self.tracer.install()
        try:
            yield
        finally:
            if on:
                self.tracer.uninstall()

    def mark(self):
        return self.tracer.mark() if self.tracer else None

    # -- phases ------------------------------------------------------------

    def setup_once(self):
        bundle = self.pkg.datasets.load_dataset_dir(self.dir)
        model = None
        if self.spec["kind"] == "analyze":
            model, _ = self.pkg.model.load_checkpoint(
                os.path.join(self.dir, inputs.PROBE_CHECKPOINT))
        return bundle, model

    def setup(self):
        """Load the inputs the rounds use; timed set-up repeats in every round."""
        self.bundle, self.model = self.setup_once()
        self.a_f = self.pkg.datasets.candidate_graph(self.bundle.graph,
                                                     self.spec["candidate"])
        if self.spec["kind"] == "analyze":
            # one checkpoint per split, for test_acc; the analyze commands use split 0's
            self.nets = [self.model] + [
                self.pkg.model.load_checkpoint(os.path.join(self.dir, inputs.probe_checkpoint(k)))[0]
                for k in range(1, len(self.bundle.graph.splits))]

    def setup_reps(self):
        """Timed set-up repetitions, made twice per round: before its first
        timed call and after its main one.  Set-up is pure-Python parsing,
        and its speed follows the host's load, which holds for about a
        second; spreading the repetitions over the run lets their median
        average over more of these states.  Each repetition starts after a
        full garbage collection, so none pays for a round's garbage."""
        for _ in range(self.spec["setup_reps"]):
            gc.collect()
            started = time.perf_counter()
            self.setup_once()
            self.samples["setup_s"].append(time.perf_counter() - started)
            self.op(True)

    def run_rounds(self):
        work = self.train_round if self.spec["kind"] == "train" else self.analyze_round
        check = self.train_checks if self.spec["kind"] == "train" else self.analyze_checks
        work(warmup=True)
        for r in range(self.rounds):
            traced = self.trace and r % 2 == 0
            with self.traced(traced):
                outcome = work(warmup=False, traced=traced)
            check(outcome, r)

    # -- training workloads ------------------------------------------------

    def train_config(self, epochs: int):
        return self.pkg.training.TrainConfig(
            lr=TRAIN_LR, epochs_max=epochs, patience=epochs, j_max=TRAIN_J,
            candidate_mode=self.spec["candidate"], seed=self.seed)

    def train_round(self, warmup: bool, traced: bool = False):
        """One protocol run and the evaluation calls; a warm-up round does the
        same work and records nothing."""
        training = self.pkg.training
        graph = self.bundle.graph
        if not warmup:
            self.setup_reps()
        start = self.mark()
        started = time.perf_counter()
        try:
            result = training.run_protocol(self.bundle, self.train_config(self.spec["epochs"]))
        except self.pkg.errors.FggslError as exc:
            self.op(False, f"run_protocol raised {exc!r}")
            return None
        elapsed = time.perf_counter() - started
        middle = self.mark()
        if not warmup:
            self.samples["traced_work_s" if traced else "work_s"].append(elapsed)
            self.op(True)
            self.setup_reps()
        evaluations = []
        for _ in range(self.spec["calls"]):
            started = time.perf_counter()
            try:
                acc = training.evaluate(result.models[0], self.bundle, graph.splits[0][2],
                                        self.a_f)
            except self.pkg.errors.FggslError as exc:
                acc = None
                self.op(False, f"evaluate raised {exc!r}")
            elapsed = time.perf_counter() - started
            if not (warmup or traced or acc is None):
                self.samples["call_s"].append(elapsed)
            evaluations.append(acc)
            if not warmup and acc is not None:
                self.op(True)
        if traced:
            forwards = self.tracer.self_times(start["span"], middle["span"]).get(
                "model.forward", {}).get("calls", 0)
            self.windows.append((start, self.mark(), forwards / len(graph.splits)))
        return result, evaluations

    def train_checks(self, outcome, round_index: int):
        ad, fm = self.pkg.autodiff, self.pkg.model
        if outcome is None:
            self.record_checks([("round", False, f"round {round_index}: no result to check")])
            return
        result, evaluations = outcome
        graph = self.bundle.graph
        x = graph.features
        epochs = [row["epochs_run"] for row in result.rows]
        if self.test_acc is None:
            self.test_acc, self.epochs = result.mean_acc, epochs[0]
        self.record_checks([
            ("repeat", result.mean_acc == self.test_acc and epochs == [self.epochs] * len(epochs),
             f"round {round_index}: accuracy {result.mean_acc!r}, epochs {epochs}"),
            ("evaluate", all(acc == result.rows[0]["test_acc"] for acc in evaluations),
             f"evaluate gave {set(evaluations)}, protocol {result.rows[0]['test_acc']}"),
        ])
        for k, (net, row) in enumerate(zip(result.models, result.rows)):
            train_idx, _, test_idx = graph.splits[k]
            with ad.no_grad():
                fwd = fm.forward(net, ad.constant(x), self.a_f)
            probs = fwd.yhat.data
            self.record_checks(checks.check_accuracy(
                f"accuracy.split{k}", row["test_acc"], probs, graph.labels,
                train_idx, test_idx))
            if k == 0:
                masks = [fwd.w1.data, fwd.w2.data]
                self.mask_checks(net, masks, probs)
                self.record_checks(checks.check_audit(
                    "audit", row["audit"], masks, graph.labels, AUDIT_THRESHOLD))
                self.bank_checks(net, masks, x)
                if round_index == 0:
                    self.gradient_checks(net, train_idx)

    def mask_checks(self, net, masks, probs):
        params = {name: t.data for name, t in net.params}
        self.record_checks(checks.check_masks_probs("masks", masks, self.a_f.adjacency, probs))
        self.record_checks(checks.check_masks_recomputed(
            "masks.numpy", masks,
            checks.numpy_masks(params, self.bundle.graph.features, self.a_f.adjacency)))

    def gradient_checks(self, net, train_idx):
        """``ad.backward`` of ``total_loss`` against finite differences of the
        loss, one check per parameter group; made once per run."""
        ad, fm = self.pkg.autodiff, self.pkg.model
        config = self.train_config(self.spec["epochs"])
        params = dict(net.params)

        def loss():
            return fm.total_loss(net, self.bundle.graph, self.a_f, config.alpha,
                                 config.beta, train_idx)[0]

        def loss_with(offsets):
            saved = {name: params[name].data for name in offsets}
            for name, offset in offsets.items():
                params[name].data = saved[name] + offset
            try:
                with ad.no_grad():
                    return loss().item()
            finally:
                for name, data in saved.items():
                    params[name].data = data

        net.params.zero_grad()
        ad.backward(loss(), net.params)
        for group, names in GRADIENT_GROUPS.items():
            self.record_checks(checks.check_gradient(
                f"gradient.{group}", {name: params[name].grad for name in names}, loss_with))
        net.params.zero_grad()

    def bank_checks(self, net, masks, x):
        ad, fm = self.pkg.autodiff, self.pkg.model
        for kind, w in zip(("low", "high"), masks):
            lap = checks.laplacian(w)
            with ad.no_grad():
                answer = fm.filter_bank_apply(ad.constant(lap), ad.constant(x),
                                              net.bank(kind)).data
            self.record_checks(checks.check_bank(f"bank.{kind}", answer, lap, x,
                                                 net.j_max, kind))

    # -- analyze workload --------------------------------------------------

    def cli(self, *argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.pkg.cli.main(list(argv))

    def report_pair(self, out: str) -> tuple[float, list[int]]:
        started = time.perf_counter()
        rcs = [self.cli("analyze", kind, "--out", os.path.join(out, kind),
                        "--data", self.dir, "--checkpoint",
                        os.path.join(self.dir, inputs.PROBE_CHECKPOINT),
                        "--candidate", self.spec["candidate"])
               for kind in ("similarity", "audit")]
        return time.perf_counter() - started, rcs

    def analyze_round(self, warmup: bool, traced: bool = False):
        """Report pairs and a stability probe; returns the output directory
        and whether every CLI call exited 0.  Each round writes into an
        emptied directory, so its checks never read an earlier round's files."""
        out = os.path.join(self.dir, "out")
        shutil.rmtree(out, ignore_errors=True)
        # The first report after a probe runs slower than the next ones, so
        # each round starts with an untimed pair and every timed pair starts
        # from the same state.
        _, rcs = self.report_pair(out)
        if warmup:
            return None
        all_ok = rcs == [0, 0]
        self.op(all_ok, f"analyze similarity/audit exited {rcs}")
        self.setup_reps()
        start = self.mark()
        for _ in range(self.spec["calls"]):
            elapsed, rcs = self.report_pair(out)
            if rcs == [0, 0]:
                if not traced:
                    self.samples["call_s"].append(elapsed)
            else:
                all_ok = False
            self.op(rcs == [0, 0], f"analyze similarity/audit exited {rcs}")
        self.setup_reps()
        started = time.perf_counter()
        rc = self.cli("analyze", "stability", "--out", os.path.join(out, "stability"),
                      "--data", self.dir, "--J", str(PROBE_J), "--trials", "1",
                      "--seed", str(self.seed))
        if rc == 0:
            self.samples["traced_work_s" if traced else "work_s"].append(
                time.perf_counter() - started)
        else:
            all_ok = False
        self.op(rc == 0, f"analyze stability exited {rc}")
        if traced:
            self.windows.append((start, self.mark(), 0))
        return out, all_ok

    def analyze_checks(self, outcome, round_index: int):
        ad, fm = self.pkg.autodiff, self.pkg.model
        out, all_ok = outcome
        graph = self.bundle.graph
        x = graph.features
        net = self.model
        with ad.no_grad():
            fwd = fm.forward(net, ad.constant(x), self.a_f)
        probs = fwd.yhat.data
        masks = [fwd.w1.data, fwd.w2.data]
        accs = []
        for k, (net_k, (train_idx, _, test_idx)) in enumerate(zip(self.nets, graph.splits)):
            try:
                acc = self.pkg.training.evaluate(net_k, self.bundle, test_idx, self.a_f)
            except self.pkg.errors.FggslError as exc:
                self.op(False, f"evaluate raised {exc!r}")
                continue
            if k:
                with ad.no_grad():
                    probs_k = fm.forward(net_k, ad.constant(x), self.a_f).yhat.data
            else:
                probs_k = probs
            self.record_checks(checks.check_accuracy(
                f"accuracy.split{k}", acc, probs_k, graph.labels, train_idx, test_idx))
            accs.append(acc)
        if len(accs) == len(self.nets):
            acc = statistics.fmean(accs)
            if self.test_acc is None:
                self.test_acc = acc
            self.record_checks([("repeat", acc == self.test_acc,
                                 f"round {round_index}: accuracy {acc!r}")])
        self.mask_checks(net, masks, probs)
        self.bank_checks(net, masks, x)
        if not all_ok:
            self.record_checks([("outputs", False,
                                 f"round {round_index}: a CLI call failed; outputs not checked")])
            return

        with open(os.path.join(out, "stability", "stability.csv"), encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        self.record_checks(checks.check_stability(
            "stability", rows, checks.laplacian(graph.adjacency), self.seed))

        with open(os.path.join(out, "audit", "audit.json"), encoding="utf-8") as fh:
            audit = json.load(fh)
        _, params = checks.read_checkpoint(os.path.join(self.dir, inputs.PROBE_CHECKPOINT))
        self.record_checks(checks.check_audit(
            "audit", audit, checks.numpy_masks(params, x, self.a_f.adjacency), graph.labels,
            AUDIT_THRESHOLD))

    # -- metrics -----------------------------------------------------------

    def median(self, name: str) -> float:
        if not self.samples[name]:
            raise Failure(f"no {name} sample: every call of its kind failed")
        return statistics.median(self.samples[name])

    def end_to_end(self) -> dict:
        if self.test_acc is None:
            raise Failure("no test accuracy: every call that gives it failed")
        return {
            "setup_s": self.median("setup_s"),
            "work_s": self.median("work_s"),
            "call_s.p50": self.median("call_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "test_acc": self.test_acc,
        }

    def per_layer(self) -> dict:
        if not self.windows:
            raise Failure("no traced round finished")
        tracer = self.tracer
        per_round = []
        for start, end, forwards in self.windows:
            times = tracer.self_times(start["span"], end["span"])
            values = dict.fromkeys(SELF_TIME_METRICS.values(), 0.0)
            for span, metric in SELF_TIME_METRICS.items():
                values[metric] += times.get(span, {}).get("self", 0.0)
            tapes = tracer.tapes[start["tape"]:end["tape"]]
            values.update({
                "datasets.edge_pairs_calls": times.get("datasets.edge_pairs", {}).get("calls", 0),
                "graphs.eig_calls": times.get("graphs.eig", {}).get("calls", 0),
                "model.forward_calls": forwards,
                "autodiff.matmul_s": end["seconds"] - start["seconds"],
                "autodiff.matmul_gflop": (end["flop"] - start["flop"]) / 1e9,
                "autodiff.tape_nodes": max((n for n, _ in tapes), default=0),
                "autodiff.tape_mb": max((b for _, b in tapes), default=0) / 2 ** 20,
                "trace.coverage": tracer.coverage(
                    EPOCH if self.spec["kind"] == "train" else "cli.main",
                    start["span"], end["span"]),
            })
            per_round.append(values)
        metrics = {name: (statistics.median_low if LAYER_UNITS[name] == "count"
                          else statistics.median)(r[name] for r in per_round)
                   for name in per_round[0]}

        def median_duration(name):
            values = tracer.durations(name)
            return statistics.median(values) if values else 0.0

        metrics.update({
            "datasets.load_s": median_duration("datasets.load"),
            "model.checkpoint_s": median_duration("model.checkpoint"),
            "training.epoch_s": median_duration(EPOCH),
            "training.eval_s": median_duration("training.eval"),
            "training.epochs": self.epochs or 0,
            "trace.overhead": self.median("traced_work_s") / self.median("work_s"),
        })
        return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the generated inputs and of the model (default 1)")
    parser.add_argument("--seconds", type=int, default=30,
                        help="measuring time on the reference host; fixes the rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: print the per-layer metrics of a traced run")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        fggsl = import_package()
    except (Failure, ImportError) as exc:
        print(f"perfbench: cannot import the package: {exc}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    directory = os.path.join(WORK, "inputs", f"{tag}-{os.getpid()}")
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    try:
        make_inputs(args.workload, args.seed, directory)
        run = Run(fggsl, args.workload, args.seed, args.seconds, bool(args.trace),
                  directory)
        started = time.perf_counter()
        run.setup()
        run.run_rounds()
        wall = time.perf_counter() - started
        if args.trace:
            metrics, units = run.per_layer(), LAYER_UNITS
            os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
            run.tracer.dump(os.path.join(WORK, "traces", f"{tag}.json"))
        else:
            metrics, units = run.end_to_end(), E2E_UNITS
    except (Failure, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    with open(os.path.join(WORK, "results", f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "rounds": run.rounds, "wall_s": wall, "host": host_info(),
                   "settings": run.spec, "samples": run.samples,
                   "failures": run.failures, "metrics": metrics}, fh, indent=1)
    print(f"perfbench: {args.workload} seed {args.seed}: {run.rounds} rounds in {wall:.1f} s, "
          f"{run.attempted} operations, {run.failed} failed")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

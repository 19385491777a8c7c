"""Span tracing of ``fggsl`` from outside the package.

``Tracer.install`` replaces public functions and methods of the package
modules with timing wrappers, in this process only, and ``uninstall``
puts the originals back.  A span is (name, start, end, parent); spans
stay in memory until ``dump`` writes them out.  ``autodiff.matmul`` is
counted (calls, seconds, flops from operand shapes) but is not a span,
so the layers that call it keep its time as their own.

A training epoch is not a function of the public API.  Its span opens at
``ParameterSet.zero_grad``, which the training loop calls first in every
epoch, and closes when ``Adam.step`` returns, which it calls last.
"""

from __future__ import annotations

import functools
import json
import time

# span name -> (module, attribute); an attribute "Class.method" is patched
# on the class.  Names are the per-layer metric prefixes.
SPANS = {
    "datasets.load": ("datasets", "load_dataset_dir"),
    "datasets.candidate": ("datasets", "candidate_graph"),
    "datasets.edge_pairs": ("datasets", "CandidateGraph.edge_pairs"),
    "graphs.laplacian": ("graphs", "normalized_laplacian"),
    "graphs.eig": ("graphs", "symmetric_eig"),
    "model.mask": ("model", "mask_matrix"),
    "model.bank": ("model", "filter_bank_apply"),
    "model.forward": ("model", "forward"),
    "model.loss": ("model", "total_loss"),
    "model.struct_loss_ho": ("model", "structural_loss_ho"),
    "model.struct_loss_ht": ("model", "structural_loss_ht"),
    "model.checkpoint": ("model", "load_checkpoint"),
    "autodiff.backward": ("autodiff", "backward"),
    "training.adam": ("training", "Adam.step"),
    "training.eval": ("training", "evaluate"),
    "training.protocol": ("training", "run_protocol"),
    "analysis.probe": ("analysis", "stability_probe"),
    "analysis.filter_matrix": ("analysis", "spectral_filter_matrix"),
    "analysis.similarity": ("analysis", "similarity_histogram"),
    "analysis.audit": ("analysis", "learned_edge_audit"),
    "cli.main": ("cli", "main"),
}
EPOCH = "training.epoch"
MODULES = ("autodiff", "graphs", "datasets", "model", "training", "analysis", "cli")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.stack: list[int] = []
        self.matmul = {"calls": 0, "seconds": 0.0, "flop": 0}
        self.tapes: list[tuple[int, int]] = []   # (nodes, bytes) before each backward
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int):
        self.spans[index][2] = time.perf_counter()
        popped = self.stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    def _span_wrapper(self, name, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.close(index)
        return wrapper

    # -- patching ----------------------------------------------------------

    def _module(self, short):
        return getattr(self.package, short)

    def _replace_everywhere(self, original, replacement):
        """Rebind every package-module name that refers to ``original``."""
        for short in MODULES + ("",):
            module = self._module(short) if short else self.package
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self):
        for name, (short, attr) in SPANS.items():
            owner = self._module(short)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = vars(cls)[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._span_wrapper(name, original))
            else:
                original = getattr(owner, attr)
                self._replace_everywhere(original, self._span_wrapper(name, original))
        self._install_epoch_marks()
        self._install_autodiff_counters()

    def _install_epoch_marks(self):
        pset = self.package.autodiff.ParameterSet
        adam = self.package.training.Adam
        zero_grad, step = vars(pset)["zero_grad"], vars(adam)["step"]
        tracer = self

        def zero_grad_mark(params):
            if not any(tracer.spans[i][0] == EPOCH for i in tracer.stack):
                tracer.open(EPOCH)
            return zero_grad(params)

        def step_mark(opt):
            try:
                return step(opt)
            finally:
                if tracer.stack and tracer.spans[tracer.stack[-1]][0] == EPOCH:
                    tracer.close(tracer.stack[-1])

        for cls, meth, func in ((pset, "zero_grad", zero_grad_mark),
                                (adam, "step", step_mark)):
            self._patches.append((cls, meth, vars(cls)[meth]))
            setattr(cls, meth, functools.wraps(vars(cls)[meth])(func))

    def _install_autodiff_counters(self):
        ad = self.package.autodiff
        matmul, backward = ad.matmul, ad.backward
        counts = self.matmul

        def counted_matmul(a, b):
            started = time.perf_counter()
            out = matmul(a, b)
            counts["seconds"] += time.perf_counter() - started
            counts["calls"] += 1
            counts["flop"] += 2 * a.shape[0] * a.shape[1] * b.shape[1]
            return out

        def tape_backward(loss, params):
            nodes = ad.tape().nodes()
            self.tapes.append((len(nodes), sum(out.data.nbytes for out, _, _ in nodes)))
            return backward(loss, params)

        self._replace_everywhere(matmul, functools.wraps(matmul)(counted_matmul))
        self._replace_everywhere(backward, functools.wraps(backward)(tape_backward))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def mark(self) -> dict:
        """Counter state, to difference against a later ``mark``."""
        return {"span": len(self.spans), "tape": len(self.tapes), **self.matmul}

    def self_times(self, start: int = 0, end: int | None = None) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        spans = self.spans[start:end]
        child = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= start:
                child[parent - start] += t1 - t0
        out: dict[str, dict] = {}
        for k, (name, t0, t1, _) in enumerate(spans):
            rec = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
            rec["calls"] += 1
            rec["total"] += t1 - t0
            rec["self"] += t1 - t0 - child[k]
        return out

    def coverage(self, top: str, start: int = 0, end: int | None = None) -> float:
        """Share of the ``top`` spans' time covered by their child spans."""
        spans = self.spans[start:end]
        tops = {start + k for k, s in enumerate(spans) if s[0] == top}
        whole = sum(self.spans[k][2] - self.spans[k][1] for k in tops)
        covered = sum(t1 - t0 for _, t0, t1, parent in spans if parent in tops)
        return covered / whole if whole else 0.0

    def durations(self, name: str, start: int = 0, end: int | None = None) -> list:
        return [t1 - t0 for n, t0, t1, _ in self.spans[start:end] if n == name]

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "matmul": self.matmul,
                       "tapes": self.tapes}, fh)

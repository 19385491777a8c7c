"""Command-line entry point: train, ablate, analyze, gen.

Exit codes: 0 success, 1 parse/validation problems, 2 numeric failures,
3 I/O failures or a MemoryError.  The FGGSL_THREADS environment
variable caps BLAS threads (see the package docstring).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import __version__, analysis
from . import autodiff as ad
from . import model as fm
from .datasets import (EDGE_FILE, NODE_FILE, SPLIT_DIR, candidate_k, dataset_fingerprint,
                       gen_synthetic, load_dataset_dir, load_edge_list, open_text, save_raw,
                       save_splits)
from .errors import (ContractError, DimensionError, NumericError, ParseError,
                     ValidationError)
from .graphs import heterophilic_fraction, normalized_laplacian
from .training import (TrainConfig, ablation_table, run_ablation, run_protocol,
                       split_seed)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits 2 by default; route through the validation path
        raise ValidationError(message)


# ``gen`` and ``analyze stability`` without --data draw an n x n matrix.
# At this many nodes one n x n float64 array is 32 MB; ``gen`` peaks near
# 130 MiB (tracemalloc, scaled from n = 1000) and ``analyze stability``
# near 340 MiB (tracemalloc at n = 2000, J = 4, one trial; it does not grow
# with J or the trials).  A larger --n exits 1 while the flags are parsed.
MAX_DRAWN_NODES = 2000


class _Number:
    """Numeric flag type: an int, or a finite float, at least ``minimum``
    and at most ``maximum`` where given; argparse reports a violation as
    one line naming the flag."""

    def __init__(self, kind: type, minimum=None, maximum=None):
        self.kind = kind
        self.minimum = minimum
        self.maximum = maximum

    def __call__(self, value: str):
        try:
            number = self.kind(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {self.kind.__name__} value: {value!r}") from None
        if self.kind is float and not np.isfinite(number):
            raise argparse.ArgumentTypeError(f"{value!r} is not a finite number")
        if self.minimum is not None and number < self.minimum:
            raise argparse.ArgumentTypeError(f"{number} must be >= {self.minimum}")
        if self.maximum is not None and number > self.maximum:
            raise argparse.ArgumentTypeError(f"{number} must be <= {self.maximum}")
        return number


class _CommaList:
    """Flag type for a comma-separated list, each item read by ``item``."""

    def __init__(self, item):
        self.item = item

    def __call__(self, value: str) -> list:
        try:
            return [self.item(v) for v in value.split(",")]
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise argparse.ArgumentTypeError(f"in {value!r}: {exc}") from None


# numpy's generators accept only integers >= 0
_seed = _Number(int, 0)
_positive = _Number(int, 1)
_scales = _Number(int, 2, fm.MAX_J)      # a filter bank needs 2 <= J <= MAX_J
_drawn_nodes = _Number(int, 1, MAX_DRAWN_NODES)
_probability = _Number(float, 0, 1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fggsl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file (unknown keys rejected)")
        p.add_argument("--data", help="dataset directory (nodes.tsv/edges.tsv/splits)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=_seed, help="base random seed")
        p.add_argument("--variant", choices=fm.VARIANTS)
        p.add_argument("--kernel-mode", choices=fm.KERNEL_MODES)
        p.add_argument("--candidate", help="candidate graph: full, given, or knn:K")
        p.add_argument("--parallel-splits", type=_positive, default=1,
                       help="train splits in this many worker processes")
        p.add_argument("--no-normalize", action="store_true",
                       help="skip L1 row normalization of features")

    p_train = sub.add_parser("train", help="run the multi-split protocol")
    add_common(p_train)
    p_train.add_argument("--baseline-mlp", action="store_true",
                         help="train the graph-agnostic MLP instead")

    p_ablate = sub.add_parser("ablate", help="protocol for all four variants")
    add_common(p_ablate)

    p_an = sub.add_parser("analyze", help="bound probes and reports")
    p_an.add_argument("kind", choices=_ANALYSES)
    p_an.add_argument("--out", required=True)
    p_an.add_argument("--data")
    p_an.add_argument("--checkpoint")
    p_an.add_argument("--candidate", default="full")
    p_an.add_argument("--seed", type=_seed, default=0)
    p_an.add_argument("--J", type=_scales, default=4, dest="j_max")
    p_an.add_argument("--kernel-mode", choices=fm.KERNEL_MODES, default="fig3")
    p_an.add_argument("--grid", type=_positive, default=200)
    p_an.add_argument("--trials", type=_positive, default=50)
    p_an.add_argument("--epsilons", type=_CommaList(_Number(float, 0)), default=(1e-3, 1e-2))
    p_an.add_argument("--n", type=_drawn_nodes, default=20,
                      help=f"random graph size, at most {MAX_DRAWN_NODES}")
    p_an.add_argument("--classes", type=_CommaList(_positive), default=(2, 3, 4, 5, 6, 7, 8),
                      help="class counts for prop1 draws")
    p_an.add_argument("--threshold", type=_probability, default=0.5,
                      help="audit: keep learned edges above this weight, in [0, 1]")
    p_an.add_argument("--max-pairs", type=_positive, default=20000)
    p_an.add_argument("--bins", type=_positive, default=50)
    p_an.add_argument("--no-normalize", action="store_true")

    p_gen = sub.add_parser("gen", help="write a synthetic dataset")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--n", type=_drawn_nodes, default=150,
                       help=f"node count, at most {MAX_DRAWN_NODES}")
    p_gen.add_argument("--classes", type=_positive, default=3)
    p_gen.add_argument("--intra-p", type=_probability, default=0.01)
    p_gen.add_argument("--inter-p", type=_probability, default=0.2)
    p_gen.add_argument("--noise", type=_Number(float), default=1.0)
    p_gen.add_argument("--seed", type=_seed, default=0)
    p_gen.add_argument("--splits", type=_positive, default=10)
    return parser


# TrainConfig's fields, with the candidate spec under its flag's name, and
# the dataset's feature normalization
CONFIG_KEYS = ({f.name for f in dataclasses.fields(TrainConfig)} - {"candidate_mode"}
               | {"candidate", "feature_normalize"})


def _resolve_config(args):
    """Defaults < JSON config < CLI flags, for every key; returns
    (TrainConfig, normalize).  A flag that is not given is dropped, and
    ``--no-normalize`` sets ``feature_normalize`` to False."""
    values: dict = {}
    if args.config:
        with open_text(args.config) as fh:
            try:
                values = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{args.config}: {exc}") from exc
        if not isinstance(values, dict):
            raise ValidationError(f"{args.config}: expected a JSON object")
        unknown = set(values) - CONFIG_KEYS
        if unknown:
            raise ValidationError(
                f"{args.config}: unknown config keys {sorted(unknown)}")
    flags = {"seed": args.seed, "variant": args.variant, "kernel_mode": args.kernel_mode,
             "candidate": args.candidate,     # an empty spec is rejected, not ignored
             "feature_normalize": False if args.no_normalize else None}
    values.update({key: value for key, value in flags.items() if value is not None})
    normalize = values.pop("feature_normalize", True)
    if not isinstance(normalize, bool):
        raise ValidationError(f"feature_normalize={normalize!r} is not a valid bool")
    if "candidate" in values:
        values["candidate_mode"] = values.pop("candidate")
    return TrainConfig(**values), normalize


def _load_bundle(args, normalize):
    if not args.data:
        raise ValidationError("--data directory is required for this command")
    return load_dataset_dir(args.data, normalize_features=normalize)


def _out_file(args, name):
    """The path of ``name`` in ``--out``.  The directory is made here, on
    the first write, so a command that fails before it writes leaves no
    directory behind."""
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _stamp(command, payload):
    """``payload`` with what every manifest records: the command, the tool
    version and the time of writing."""
    return {"command": command, "tool_version": __version__,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"), **payload}


def _manifest(command, config, bundle, **extra):
    return _stamp(command, {
        "config": dataclasses.asdict(config),
        "dataset": dataset_fingerprint(bundle),
        "seeds": {"base": config.seed,
                  "per_split": [split_seed(config.seed, k)
                                for k in range(len(bundle.graph.splits))]},
        **extra})


def _cmd_train(args) -> int:
    config, normalize = _resolve_config(args)
    bundle = _load_bundle(args, normalize)
    baseline = getattr(args, "baseline_mlp", False)
    result = run_protocol(bundle, config, parallel=args.parallel_splits,
                          baseline=baseline)
    _write_json(_out_file(args, "manifest.json"),
                _manifest("train", config, bundle, baseline_mlp=baseline))
    _write_json(_out_file(args, "report.json"), result.to_json_dict())
    _write_lines(_out_file(args, "results.csv"), result.csv_rows())
    if not baseline:
        for k, net in enumerate(result.models):
            fm.save_checkpoint(_out_file(args, f"ckpt_split_{k:02d}.fgck"),
                               net, alpha=config.alpha, beta=config.beta)
    print(f"{bundle.name}: mean test accuracy {result.mean_acc:.4f} "
          f"+/- {result.std_acc:.4f} over {len(result.rows)} splits")
    return 0


def _cmd_ablate(args) -> int:
    config, normalize = _resolve_config(args)
    bundle = _load_bundle(args, normalize)
    results = run_ablation(bundle, config, parallel=args.parallel_splits)
    manifest = _manifest("ablate", config, bundle)
    # every variant runs, whatever the config or --variant names
    del manifest["config"]["variant"]
    manifest["config"]["variants"] = list(results)
    _write_json(_out_file(args, "manifest.json"), manifest)
    _write_lines(_out_file(args, "ablation.csv"), ablation_table(results))
    for variant, result in results.items():
        _write_json(_out_file(args, f"report_{variant}.json"),
                    result.to_json_dict())
        for k, net in enumerate(result.models):
            fm.save_checkpoint(
                _out_file(args, f"ckpt_{variant}_split_{k:02d}.fgck"),
                net, alpha=config.alpha, beta=config.beta)
    for variant, result in results.items():
        print(f"{variant}: mean {result.mean_acc:.4f} +/- {result.std_acc:.4f}")
    return 0


def _trained(args):
    """The dataset, the ``--checkpoint`` model and the graph its banks run
    on; the model and graph are None without ``--checkpoint``."""
    bundle = _load_bundle(args, not args.no_normalize)
    if not args.checkpoint:
        return bundle, None, None
    net, _ = fm.load_checkpoint(args.checkpoint)
    width = bundle.graph.num_features
    if net.num_features != width:
        raise ValidationError(f"{args.checkpoint}: model of feature width {net.num_features} "
                              f"does not fit {args.data}, of feature width {width}")
    return bundle, net, fm.bank_graph(bundle.graph, net.variant, args.candidate)


def _response(args):
    rows = analysis.spectral_response_export(args.j_max, args.kernel_mode,
                                             grid_points=args.grid)
    lines = ["lambda,j,kind,value"]
    lines += [f"{lam:.17g},{j},{k},{v:.17g}" for lam, j, k, v in rows]
    return (lines, {"j_max": args.j_max, "kernel_mode": args.kernel_mode,
                    "grid_points": args.grid, "rows": len(rows)},
            f"response: {len(rows)} rows over {args.grid} frequencies, "
            f"scales {rows[0][1]}..{rows[-1][1]}", 0)


def _prop1(args):
    rng = np.random.default_rng(args.seed)
    per_c = max(1, args.trials // len(args.classes))
    n = 256
    total = violations = 0
    lines = ["classes,lhs,rhs,holds"]
    for c in args.classes:
        y = np.zeros((n, c))
        y[np.arange(n), rng.integers(0, c, size=n)] = 1.0
        z = rng.standard_normal((n, c)) * rng.uniform(0.5, 4.0)
        recs = analysis.prop1_check(y, ad.softmax_rows(ad.constant(z)).data,
                                    (rng.integers(0, n, per_c), rng.integers(0, n, per_c)))
        total += len(recs)
        violations += sum(not r.holds for r in recs)
        lines += [f"{c},{r.lhs:.12g},{r.rhs:.12g},{int(r.holds)}" for r in recs]
    return (lines, {"pairs_checked": total, "violations": violations},
            f"prop1: {violations} violations over {total} pairs", 2 if violations else 0)


def _stability(args):
    # the probe reads the graph's Laplacian alone, so --data reads the edges
    if args.data:
        edges = load_edge_list(args.data)
    else:                                # one class: an Erdos-Renyi G(n, 0.3)
        edges = gen_synthetic(args.n, 1, 0.3, 0.3, 0.0, args.seed, n_splits=0).edges
    scales = fm.FilterBankSpec(args.j_max, args.kernel_mode, fm.BANK_KINDS[0]).scales()
    table = analysis.stability_table(normalized_laplacian(edges.dense()), scales,
                                     args.kernel_mode, fm.BANK_KINDS, args.epsilons,
                                     args.trials, args.seed)
    lines = ["epsilon,j,kind,observed_distance,bound_value,delta,holds_with_slack"]
    probes = [r for recs in table.values() for r in recs]
    violated = sum(not r.holds_with_slack for r in probes)
    for (j, bank_kind), recs in table.items():
        lines += [f"{r.epsilon:.12g},{j},{bank_kind},"
                  f"{r.observed_distance:.12g},{r.bound_value:.12g},"
                  f"{r.delta:.12g},{int(r.holds_with_slack)}" for r in recs]
    verdict = f"VIOLATED on {violated} of" if violated else "holds on all"
    return (lines, {"epsilons": args.epsilons, "trials": args.trials,
                    "all_hold": not violated},
            f"stability: bound {verdict} {len(probes)} probes", 0)


def _similarity(args):
    bundle, net, a_f = _trained(args)
    graph = bundle.graph
    sampling = {"max_pairs": args.max_pairs, "bins": args.bins, "seed": args.seed}
    if net is None:
        source = "features"
        hist = analysis.similarity_histogram(graph.features, graph.labels, **sampling)
    else:
        source = "embedding"
        hist = analysis.embedding_similarity(net, graph, a_f, **sampling)
    if hist.skipped_classes:
        print("warning: no intra-class pairs in the one-node class(es) "
              f"{', '.join(map(str, hist.skipped_classes))}", file=sys.stderr)
    edges = hist.bin_edges
    lines = ["bin_lo,bin_hi,intra_count,inter_count"]
    lines += [f"{lo:.12g},{hi:.12g},{intra},{inter}" for lo, hi, intra, inter
              in zip(edges, edges[1:], hist.intra_counts, hist.inter_counts)]
    # a mean over no pairs is NaN, which JSON has no literal for: null
    means = {key: None if value != value else value for key, value in
             (("intra_mean", hist.intra_mean), ("inter_mean", hist.inter_mean),
              ("mean_gap", hist.mean_gap))}
    return (lines, {"source": source, **means, "n_intra": hist.n_intra,
                    "n_inter": hist.n_inter, "sampling": hist.sampling},
            f"similarity ({source}): intra {hist.intra_mean:.4f}, "
            f"inter {hist.inter_mean:.4f}, gap {hist.mean_gap:.4f}", 0)


def _audit(args):
    if not args.checkpoint:
        raise ValidationError("analyze audit requires --checkpoint")
    bundle, net, a_f = _trained(args)
    if not fm.learns_masks(net.variant):
        raise ValidationError(
            f"analyze audit: variant {net.variant} learns no masks, so there is "
            "nothing to audit")
    # the mask loop that ``embedding`` runs: the masks, and no bank or classifier
    with ad.no_grad():
        columns = {kind: w.data for kind, w, *_ in
                   fm._banks(net, ad.constant(bundle.graph.features), a_f, classifier=False)
                   if w is not None}
    stats = analysis.learned_edge_audit(
        columns.get("low"), columns.get("high"), bundle.graph.labels,
        threshold=args.threshold, pairs=a_f.edge_pairs())
    fields = dataclasses.asdict(stats)
    # a missing mask or ratio is an empty field, as in ablation.csv
    lines = [",".join(fields), ",".join("" if v is None else str(v) for v in fields.values())]
    return (lines, fields,
            f"audit: homophilic graph R_het={stats.ho_r_het}, "
            f"heterophilic graph R_het={stats.ht_r_het}", 0)


# analyze kind -> its runner, which returns the CSV lines, the JSON
# sidecar's fields, the one-line summary and the exit code
_ANALYSES = {"similarity": _similarity, "prop1": _prop1, "stability": _stability,
             "response": _response, "audit": _audit}


def _cmd_analyze(args) -> int:
    candidate_k(args.candidate)          # a bad spec exits before anything is loaded
    lines, fields, summary, code = _ANALYSES[args.kind](args)
    _write_lines(_out_file(args, f"{args.kind}.csv"), lines)
    _write_json(_out_file(args, f"{args.kind}.json"),
                _stamp(f"analyze {args.kind}", {"seed": args.seed, **fields}))
    print(summary)
    return code


def _cmd_gen(args) -> int:
    graph = gen_synthetic(args.n, args.classes, args.intra_p, args.inter_p,
                          args.noise, seed=args.seed, n_splits=args.splits)
    # an edgeless draw, or a split that the loader would reject, fails
    # here, before a file is written
    r_het = heterophilic_fraction(graph.labels, graph.edges.pairs)
    for k, split in enumerate(graph.splits):
        for part, rows in zip(("train", "val", "test"), split):
            if rows.size == 0:
                raise ValidationError(f"gen: split {k} has an empty {part} set; "
                                      "the largest class needs at least 3 nodes")
    save_raw(graph, _out_file(args, NODE_FILE), _out_file(args, EDGE_FILE))
    save_splits(graph.splits, _out_file(args, SPLIT_DIR))
    _write_json(_out_file(args, "manifest.json"), _stamp("gen", {
        "params": {"n": args.n, "classes": args.classes, "intra_p": args.intra_p,
                   "inter_p": args.inter_p, "noise": args.noise,
                   "seed": args.seed, "splits": args.splits},
        "realized_heterophily_ratio": r_het}))
    print(f"generated {args.n} nodes, realized heterophily ratio {r_het:.4f}")
    return 0


# built once per process: a parse leaves the parser as it was, and the
# defaults that a handler reads are tuples, which no call can change
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        handler = {"train": _cmd_train, "ablate": _cmd_ablate,
                   "analyze": _cmd_analyze, "gen": _cmd_gen}[args.command]
        return handler(args)
    except (ParseError, ValidationError, ContractError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc or 'an allocation failed'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point: train, ablate, analyze, gen.

Exit codes: 0 success, 1 parse/validation problems, 2 numeric failures,
3 I/O failures.  The FGGSL_THREADS environment variable caps BLAS
threads; it must be read before numpy loads, so heavy imports happen
inside main().
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time


def _apply_thread_cap():
    cap = os.environ.get("FGGSL_THREADS")
    if cap:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, cap)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits 2 by default; route through the validation path
        from .errors import ValidationError
        raise ValidationError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fggsl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file (unknown keys rejected)")
        p.add_argument("--data", help="dataset directory (nodes.tsv/edges.tsv/splits)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, help="base random seed")
        p.add_argument("--variant", choices=["full", "NM", "FBL", "FBH"])
        p.add_argument("--kernel-mode", choices=["fig3", "verbatim"])
        p.add_argument("--candidate", help="candidate graph: full, given, or knn:K")
        p.add_argument("--parallel-splits", type=int, default=1,
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
    p_an.add_argument("kind", choices=["similarity", "prop1", "stability",
                                       "response", "audit"])
    p_an.add_argument("--out", required=True)
    p_an.add_argument("--data")
    p_an.add_argument("--checkpoint")
    p_an.add_argument("--candidate", default="full")
    p_an.add_argument("--seed", type=int, default=0)
    p_an.add_argument("--J", type=int, default=4, dest="j_max")
    p_an.add_argument("--kernel-mode", choices=["fig3", "verbatim"], default="fig3")
    p_an.add_argument("--grid", type=int, default=200)
    p_an.add_argument("--trials", type=int, default=50)
    p_an.add_argument("--epsilons", default="1e-3,1e-2")
    p_an.add_argument("--n", type=int, default=20, help="random graph size")
    p_an.add_argument("--classes", default="2,3,4,5,6,7,8",
                      help="class counts for prop1 draws")
    p_an.add_argument("--threshold", type=float, default=0.5)
    p_an.add_argument("--max-pairs", type=int, default=20000)
    p_an.add_argument("--bins", type=int, default=50)
    p_an.add_argument("--no-normalize", action="store_true")

    p_gen = sub.add_parser("gen", help="write a synthetic dataset")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--n", type=int, default=150)
    p_gen.add_argument("--classes", type=int, default=3)
    p_gen.add_argument("--intra-p", type=float, default=0.01)
    p_gen.add_argument("--inter-p", type=float, default=0.2)
    p_gen.add_argument("--noise", type=float, default=1.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--splits", type=int, default=10)
    return parser


CONFIG_KEYS = {"lr", "weight_decay", "epochs_max", "patience", "alpha", "beta",
               "j_max", "kernel_mode", "variant", "candidate", "seed",
               "mask_dim", "true_labels_on_train", "feature_normalize"}


def _parse_candidate(value: str):
    from .errors import ValidationError
    if value in ("full", "given"):
        return value, None
    if value.startswith("knn:"):
        try:
            k = int(value.split(":", 1)[1])
        except ValueError:
            raise ValidationError(f"candidate: bad knn spec {value!r}") from None
        return "knn", k
    raise ValidationError(f"candidate: expected full, given, or knn:K, got {value!r}")


def _resolve_config(args):
    """Defaults < JSON config < CLI flags; returns (TrainConfig, normalize)."""
    from .errors import ParseError, ValidationError
    from .training import TrainConfig

    values: dict = {}
    normalize = not getattr(args, "no_normalize", False)
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{args.config}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValidationError(f"{args.config}: expected a JSON object")
        unknown = set(raw) - CONFIG_KEYS
        if unknown:
            raise ValidationError(
                f"{args.config}: unknown config keys {sorted(unknown)}")
        if "feature_normalize" in raw:
            normalize = raw.pop("feature_normalize")
            if not isinstance(normalize, bool):
                raise ValidationError(
                    f"feature_normalize={normalize!r} is not a valid bool")
        if "candidate" in raw:
            mode, k = _parse_candidate(str(raw.pop("candidate")))
            values["candidate_mode"] = mode
            if k is not None:
                values["knn_k"] = k
        values.update(raw)
    if args.seed is not None:
        values["seed"] = args.seed
    if getattr(args, "variant", None):
        values["variant"] = args.variant
    if getattr(args, "kernel_mode", None):
        values["kernel_mode"] = args.kernel_mode
    if getattr(args, "candidate", None):
        mode, k = _parse_candidate(args.candidate)
        values["candidate_mode"] = mode
        if k is not None:
            values["knn_k"] = k
    try:
        config = TrainConfig(**values)
    except TypeError as exc:
        raise ValidationError(str(exc)) from exc
    config.validate()
    return config, normalize


def _load_bundle(args, normalize):
    from .datasets import load_dataset_dir
    from .errors import ValidationError
    if not args.data:
        raise ValidationError("--data directory is required for this command")
    return load_dataset_dir(args.data, normalize_features=normalize)


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _manifest(command, config, bundle, extra=None):
    from . import __version__
    from .datasets import dataset_fingerprint
    payload = {
        "command": command,
        "config": dataclasses.asdict(config) if config is not None else None,
        "dataset": dataset_fingerprint(bundle) if bundle is not None else None,
        "tool_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    if config is not None:
        n_splits = len(bundle.graph.splits) if bundle is not None else 0
        payload["seeds"] = {"base": config.seed,
                            "per_split": [config.seed * 1000 + k
                                          for k in range(n_splits)]}
    if extra:
        payload.update(extra)
    return payload


def _cmd_train(args) -> int:
    from .model import save_checkpoint
    from .training import mlp_baseline, run_protocol
    config, normalize = _resolve_config(args)
    bundle = _load_bundle(args, normalize)
    os.makedirs(args.out, exist_ok=True)
    baseline = getattr(args, "baseline_mlp", False)
    runner = mlp_baseline if baseline else run_protocol
    result = runner(bundle, config, parallel=args.parallel_splits)
    _write_json(os.path.join(args.out, "manifest.json"),
                _manifest("train", config, bundle,
                          {"baseline_mlp": baseline}))
    _write_json(os.path.join(args.out, "report.json"), result.to_json_dict())
    _write_lines(os.path.join(args.out, "results.csv"), result.csv_rows())
    if not baseline:
        for k, net in enumerate(result.models):
            save_checkpoint(os.path.join(args.out, f"ckpt_split_{k:02d}.fgck"),
                            net, alpha=config.alpha, beta=config.beta)
    print(f"{bundle.name}: mean test accuracy {result.mean_acc:.4f} "
          f"+/- {result.std_acc:.4f} over {len(result.rows)} splits")
    return 0


def _cmd_ablate(args) -> int:
    from .model import save_checkpoint
    from .training import ablation_table, run_ablation
    config, normalize = _resolve_config(args)
    bundle = _load_bundle(args, normalize)
    os.makedirs(args.out, exist_ok=True)
    results = run_ablation(bundle, config, parallel=args.parallel_splits)
    _write_json(os.path.join(args.out, "manifest.json"),
                _manifest("ablate", config, bundle))
    _write_lines(os.path.join(args.out, "ablation.csv"), ablation_table(results))
    for variant, result in results.items():
        _write_json(os.path.join(args.out, f"report_{variant}.json"),
                    result.to_json_dict())
        for k, net in enumerate(result.models):
            save_checkpoint(
                os.path.join(args.out, f"ckpt_{variant}_split_{k:02d}.fgck"),
                net, alpha=config.alpha, beta=config.beta)
    for variant, result in results.items():
        print(f"{variant}: mean {result.mean_acc:.4f} +/- {result.std_acc:.4f}")
    return 0


def _analyze_sidecar(args, extra):
    from . import __version__
    payload = {"command": f"analyze {args.kind}", "tool_version": __version__,
               "seed": args.seed, "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z")}
    payload.update(extra)
    return payload


def _cmd_analyze(args) -> int:
    import numpy as np

    from . import analysis
    from . import autodiff as ad
    from . import model as fm
    from .datasets import candidate_graph
    from .errors import ValidationError

    os.makedirs(args.out, exist_ok=True)
    kind = args.kind

    if kind == "response":
        rows = analysis.spectral_response_export(args.j_max, args.kernel_mode,
                                                 grid_points=args.grid)
        lines = ["lambda,j,kind,value"]
        lines += [f"{lam:.17g},{j},{k},{v:.17g}" for lam, j, k, v in rows]
        _write_lines(os.path.join(args.out, "response.csv"), lines)
        _write_json(os.path.join(args.out, "response.json"), _analyze_sidecar(
            args, {"j_max": args.j_max, "kernel_mode": args.kernel_mode,
                   "grid_points": args.grid, "rows": len(rows)}))
        print(f"response: {len(rows)} rows over {args.grid} frequencies, "
              f"scales 2..{args.j_max}")

    elif kind == "prop1":
        rng = np.random.default_rng(args.seed)
        class_counts = [int(v) for v in args.classes.split(",")]
        per_c = max(1, args.trials // len(class_counts))
        total = violations = 0
        lines = ["classes,lhs,rhs,holds"]
        for c in class_counts:
            n = 256
            y = np.eye(c)[rng.integers(0, c, size=n)]
            z = rng.standard_normal((n, c)) * rng.uniform(0.5, 4.0)
            e = np.exp(z - z.max(axis=1, keepdims=True))
            yhat = e / e.sum(axis=1, keepdims=True)
            recs = analysis.prop1_check(
                y, yhat, (rng.integers(0, n, per_c), rng.integers(0, n, per_c)))
            total += len(recs)
            violations += sum(not r.holds for r in recs)
            lines += [f"{c},{r.lhs:.12g},{r.rhs:.12g},{int(r.holds)}" for r in recs]
        _write_lines(os.path.join(args.out, "prop1.csv"), lines)
        _write_json(os.path.join(args.out, "prop1.json"), _analyze_sidecar(
            args, {"pairs_checked": total, "violations": violations}))
        print(f"prop1: {violations} violations over {total} pairs")
        if violations:
            return 2

    elif kind == "stability":
        from .graphs import normalized_laplacian
        if args.data:
            bundle = _load_bundle(args, not args.no_normalize)
            lap = normalized_laplacian(bundle.graph.adjacency)
        else:
            rng = np.random.default_rng(args.seed)
            a = np.triu((rng.random((args.n, args.n)) < 0.3).astype(float), 1)
            a = a + a.T
            lap = normalized_laplacian(a)
        epsilons = [float(v) for v in args.epsilons.split(",")]
        lines = ["epsilon,j,kind,observed_distance,bound_value,delta,holds_with_slack"]
        all_hold = True
        for j in range(2, args.j_max + 1):
            for bank_kind in ("low", "high"):
                recs = analysis.stability_probe(lap, j, args.kernel_mode, bank_kind,
                                                epsilons, args.trials, args.seed)
                all_hold &= all(r.holds_with_slack for r in recs)
                lines += [f"{r.epsilon:.12g},{r.j},{bank_kind},"
                          f"{r.observed_distance:.12g},{r.bound_value:.12g},"
                          f"{r.delta:.12g},{int(r.holds_with_slack)}" for r in recs]
        _write_lines(os.path.join(args.out, "stability.csv"), lines)
        _write_json(os.path.join(args.out, "stability.json"), _analyze_sidecar(
            args, {"epsilons": epsilons, "trials": args.trials,
                   "all_hold": all_hold}))
        print(f"stability: bound {'holds' if all_hold else 'VIOLATED'} on all probes")

    elif kind == "similarity":
        bundle = _load_bundle(args, not args.no_normalize)
        if args.checkpoint:
            net, _ = fm.load_checkpoint(args.checkpoint)
            mode, k = _parse_candidate(args.candidate)
            a_f = candidate_graph(bundle.graph, mode, k=k)
            with ad.no_grad():
                vectors = fm.forward(net, ad.constant(bundle.graph.features),
                                     a_f).h.data
            source = "embedding"
        else:
            vectors = bundle.graph.features
            source = "features"
        hist = analysis.similarity_histogram(vectors, bundle.graph.labels,
                                             max_pairs=args.max_pairs,
                                             bins=args.bins, seed=args.seed)
        lines = ["bin_lo,bin_hi,intra_count,inter_count"]
        for k in range(len(hist.intra_counts)):
            lines.append(f"{hist.bin_edges[k]:.12g},{hist.bin_edges[k + 1]:.12g},"
                         f"{hist.intra_counts[k]},{hist.inter_counts[k]}")
        _write_lines(os.path.join(args.out, "similarity.csv"), lines)
        _write_json(os.path.join(args.out, "similarity.json"), _analyze_sidecar(
            args, {"source": source, "intra_mean": hist.intra_mean,
                   "inter_mean": hist.inter_mean, "mean_gap": hist.mean_gap,
                   "n_intra": hist.n_intra, "n_inter": hist.n_inter,
                   "sampling": hist.sampling}))
        print(f"similarity ({source}): intra {hist.intra_mean:.4f}, "
              f"inter {hist.inter_mean:.4f}, gap {hist.mean_gap:.4f}")

    elif kind == "audit":
        if not args.checkpoint:
            raise ValidationError("analyze audit requires --checkpoint")
        bundle = _load_bundle(args, not args.no_normalize)
        net, _ = fm.load_checkpoint(args.checkpoint)
        mode, k = _parse_candidate(args.candidate)
        a_f = candidate_graph(bundle.graph, mode, k=k)
        with ad.no_grad():
            fwd = fm.forward(net, ad.constant(bundle.graph.features), a_f)
        stats = analysis.learned_edge_audit(
            None if fwd.w1 is None else fwd.w1.data,
            None if fwd.w2 is None else fwd.w2.data,
            bundle.graph.labels, threshold=args.threshold)
        lines = ["threshold,ho_edges,ho_r_het,ht_edges,ht_r_het",
                 f"{stats.threshold},{stats.ho_edges},{stats.ho_r_het},"
                 f"{stats.ht_edges},{stats.ht_r_het}"]
        _write_lines(os.path.join(args.out, "audit.csv"), lines)
        _write_json(os.path.join(args.out, "audit.json"), _analyze_sidecar(
            args, dataclasses.asdict(stats)))
        print(f"audit: homophilic graph R_het={stats.ho_r_het}, "
              f"heterophilic graph R_het={stats.ht_r_het}")

    return 0


def _cmd_gen(args) -> int:
    from .datasets import save_raw, save_splits
    from .datasets import gen_synthetic
    from .graphs import heterophily_ratio
    graph = gen_synthetic(args.n, args.classes, args.intra_p, args.inter_p,
                          args.noise, seed=args.seed, n_splits=args.splits)
    os.makedirs(args.out, exist_ok=True)
    save_raw(graph, os.path.join(args.out, "nodes.tsv"),
             os.path.join(args.out, "edges.tsv"))
    save_splits(graph.splits, os.path.join(args.out, "splits"))
    r_het = heterophily_ratio(graph.adjacency, graph.labels)
    _write_json(os.path.join(args.out, "manifest.json"), {
        "command": "gen",
        "params": {"n": args.n, "classes": args.classes, "intra_p": args.intra_p,
                   "inter_p": args.inter_p, "noise": args.noise,
                   "seed": args.seed, "splits": args.splits},
        "realized_heterophily_ratio": r_het,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    })
    print(f"generated {args.n} nodes, realized heterophily ratio {r_het:.4f}")
    return 0


def main(argv=None) -> int:
    _apply_thread_cap()
    from .errors import NumericError, ParseError, ValidationError
    from .errors import ContractError, DimensionError
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())

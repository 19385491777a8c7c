"""Run one fixed list of ``fggsl`` commands on two source trees and report
every output that differs between them.

    python scripts/identity_run.py PARENT_SRC CHANGE_SRC

Each tree runs ``COMMANDS`` in a fresh directory of its own, each command
in its own process with the tree's ``src`` directory first on
``PYTHONPATH`` and ``FGGSL_THREADS=1``.  A command is ``fggsl``'s command
line, or a ``.py`` script of the tree named from its root, the directory
that holds ``src``.  The list runs both forms of ``ad._step``: the
ablation, audit and similarity on the 520-node graph step blocks 3 columns
wide on 520 rows, in row panels, and every other command steps at most 60
rows, as T @ Y.  The two runs are then compared:

* each command's exit code and stdout, and a command that exits nonzero
  in either tree counts as a difference;
* the names of the files written;
* checkpoints (``*.fgck``) and dataset files, byte for byte;
* CSV and JSON files with their ``seconds`` and ``timestamp`` fields
  removed and key order kept.

One line is printed per differing file and field, and the exit code is 1
if anything differs, 0 otherwise.  ``compare`` runs any list of commands
and returns those lines.
"""

from __future__ import annotations

import csv
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

# fields whose values are wall-clock readings, not results
IGNORED_FIELDS = ("seconds", "timestamp")
# 20 epochs at lr 0.05: 29 of the 30 ablate and train splits keep a best
# epoch after the first, whose snapshot is taken before any Adam step, so
# a change to the losses, the backward or Adam reaches the checkpoints
CONFIG = {"epochs_max": 20, "patience": 20, "j_max": 4, "mask_dim": 8, "lr": 0.05}


def _ablation(candidate: str, tag: str, data: str = "data") -> list[str]:
    """An ablation on ``candidate`` of the dataset in ``data``, and the
    audit and similarity of its ``full`` checkpoint of split 0."""
    checkpoint = f"ablate_{tag}/ckpt_full_split_00.fgck"
    return [f"ablate --data {data} --out ablate_{tag} --config config.json "
            f"--candidate {candidate}",
            f"analyze audit --data {data} --out audit_{tag} --candidate {candidate} "
            f"--checkpoint {checkpoint}",
            f"analyze similarity --data {data} --out similarity_{tag} --candidate {candidate} "
            f"--checkpoint {checkpoint}"]


# every path is relative to the tree's run directory, which holds config.json.
# gen writes %.17g features; the WebKB-shaped stand-ins' are 0/1 words,
# written by the tree's own save_raw, so their runs read the digit layout.
# ``analyze similarity --checkpoint`` filters X X^T's n-column factor on the
# first stand-in's F >= 2n features and X itself on the second's n <= F < 2n
COMMANDS = [
    "gen --out data --n 60 --classes 3 --seed 3 --splits 2",
    *_ablation("full", "full"), *_ablation("given", "given"), *_ablation("knn:5", "knn5"),
    "gen --out data_tall --n 520 --classes 3 --seed 3 --splits 2",
    *_ablation("given", "tall", data="data_tall"),
    "tests/webkb_standin.py --out standin --n 60 --features 200 --splits 2 --seed 1",
    *_ablation("full", "standin", data="standin"),
    "tests/webkb_standin.py --out standin_wide --n 60 --features 90 --splits 2 --seed 2",
    *_ablation("full", "standin_wide", data="standin_wide"),
    "analyze similarity --data data --out similarity_features",
    "analyze stability --out stability --n 20 --J 3 --trials 2",
    "analyze stability --data data --out stability_data --J 3 --trials 2",
    "train --data data --out train_mlp --config config.json --baseline-mlp",
    "train --data data --out train_knn5 --config config.json --candidate knn:5",
    "train --data data --out train_verbatim --config config.json --candidate knn:5 "
    "--kernel-mode verbatim",
    "analyze response --out response --J 3",
    "analyze response --out response_verbatim --J 3 --kernel-mode verbatim",
    "analyze prop1 --out prop1 --trials 14",
]


def _env(src: Path) -> dict[str, str]:
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, "FGGSL_THREADS": "1"}


def _run_tree(src: Path, workdir: Path, commands) -> list[tuple[int, str]]:
    """Run ``commands`` in ``workdir`` on the package in ``src``; return
    each command's (exit code, stdout)."""
    env = _env(src)
    found = subprocess.run([sys.executable, "-c", "import fggsl; print(fggsl.__file__)"],
                           env=env, capture_output=True, text=True, check=True).stdout
    if Path(found.strip()).resolve().parent != src / "fggsl":
        raise SystemExit(f"{src}: python imports fggsl from {found.strip()}")
    workdir.mkdir()
    (workdir / "config.json").write_text(json.dumps(CONFIG) + "\n", encoding="utf-8")
    return [(done.returncode, done.stdout) for done in
            (subprocess.run(_argv(src, command), cwd=workdir, env=env, capture_output=True,
                            text=True)
             for command in commands)]


def _argv(src: Path, command: str) -> list[str]:
    words = shlex.split(command)
    if words[0].endswith(".py"):
        return [sys.executable, str(src.parent / words[0]), *words[1:]]
    return [sys.executable, "-m", "fggsl.cli", *words]


def _json_without_ignored(path: Path):
    def pairs(items):
        return {key: value for key, value in items if key not in IGNORED_FIELDS}

    with open(path, encoding="utf-8") as fh:
        return json.load(fh, object_pairs_hook=pairs)


def _same(a, b) -> bool:
    return type(a) is type(b) and (a == b or (a != a and b != b))      # NaN is NaN


def _diff_json(a, b, where: str) -> list[str]:
    if isinstance(a, dict) and isinstance(b, dict):
        lines = [] if list(a) == list(b) else [f"{where or '.'}: keys {list(a)} != {list(b)}"]
        return lines + [line for key in a if key in b
                        for line in _diff_json(a[key], b[key], f"{where}.{key}")]
    if isinstance(a, list) and isinstance(b, list):
        lines = [] if len(a) == len(b) else [f"{where}: length {len(a)} != {len(b)}"]
        return lines + [line for k, (x, y) in enumerate(zip(a, b))
                        for line in _diff_json(x, y, f"{where}[{k}]")]
    return [] if _same(a, b) else [f"{where}: {a!r} != {b!r}"]


def _csv_without_ignored(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [k for k, name in enumerate(rows[0] if rows else []) if name not in IGNORED_FIELDS]
    return [[row[k] for k in keep if k < len(row)] for row in rows]


def _diff_csv(a: list[list[str]], b: list[list[str]]) -> list[str]:
    if a[:1] != b[:1]:
        return [f"header {a[:1]} != {b[:1]}"]
    lines = [] if len(a) == len(b) else [f"{len(a)} rows != {len(b)}"]
    header = a[0] if a else []
    for k, (x, y) in enumerate(zip(a, b)):
        if len(x) != len(y):
            lines.append(f"line {k + 1}: {len(x)} fields != {len(y)}")
        lines += [f"line {k + 1} {name}: {p} != {q}"
                  for name, p, q in zip(header, x, y) if p != q]
    return lines


def _diff_file(a: Path, b: Path) -> list[str]:
    if a.suffix == ".json":
        return _diff_json(_json_without_ignored(a), _json_without_ignored(b), "")
    if a.suffix == ".csv":
        return _diff_csv(_csv_without_ignored(a), _csv_without_ignored(b))
    x, y = a.read_bytes(), b.read_bytes()
    if x == y:
        return []
    first = next((k for k, (p, q) in enumerate(zip(x, y)) if p != q), min(len(x), len(y)))
    return [f"bytes differ from offset {first} ({len(x)} and {len(y)} bytes)"]


def _files(root: Path) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())


def compare(parent_src, change_src, commands) -> list[str]:
    """Run ``commands`` on both trees and return one line per difference,
    commands first, then files in name order; an empty list means the
    change reproduced the parent."""
    with tempfile.TemporaryDirectory(prefix="identity-run-") as tmp:
        dirs = Path(tmp, "parent"), Path(tmp, "change")
        runs = [_run_tree(Path(src).resolve(), workdir, commands)
                for src, workdir in zip((parent_src, change_src), dirs)]
        lines = []
        for command, (code_a, out_a), (code_b, out_b) in zip(commands, *runs):
            if code_a or code_b:
                lines.append(f"`{command}`: exit {code_a} and {code_b}")
            if out_a != out_b:
                lines.append(f"`{command}`: stdout {out_a!r} != {out_b!r}")
        names_a, names_b = (_files(d) for d in dirs)
        lines += [f"{name}: only in {side}" for side, names, other in
                  (("parent", names_a, names_b), ("change", names_b, names_a))
                  for name in names if name not in other]
        lines += [f"{name}: {line}" for name in names_a if name in names_b
                  for line in _diff_file(dirs[0] / name, dirs[1] / name)]
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python scripts/identity_run.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    lines = compare(args[0], args[1], COMMANDS)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("identity_run",
                                               ROOT / "scripts" / "identity_run.py")
identity_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity_run)

# gen and one train of the full list
SUBSET = [command for command in identity_run.COMMANDS
          if command.startswith(("gen ", "train --data data --out train_knn5 "))]
assert len(SUBSET) == 2


def test_a_tree_reproduces_itself():
    assert identity_run.compare(ROOT / "src", ROOT / "src", SUBSET) == []


def test_a_changed_constant_fails_the_run_at_the_first_checkpoint(tmp_path, monkeypatch, capsys):
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    # the initial weights' range: the subset's best epoch is the first,
    # whose snapshot is taken before any step, so no training constant
    # reaches its checkpoints
    module = src / "fggsl" / "model.py"
    text, limit = module.read_text(encoding="utf-8"), "np.sqrt(6.0 / (rows + cols))"
    assert text.count(limit) == 1
    module.write_text(text.replace(limit, limit.replace("6.0", "5.0")), encoding="utf-8")
    monkeypatch.setattr(identity_run, "COMMANDS", SUBSET)
    assert identity_run.main([str(ROOT / "src"), str(src)]) == 1
    lines = capsys.readouterr().out.splitlines()
    checkpoints = [line for line in lines if ".fgck: " in line]
    assert checkpoints[0].startswith("train_knn5/ckpt_split_00.fgck: bytes differ from offset ")

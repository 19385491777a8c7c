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
          if command.startswith(("gen --out data ", "train --data data --out train_knn5 "))]
assert len(SUBSET) == 2


def test_a_tree_reproduces_itself():
    assert identity_run.compare(ROOT / "src", ROOT / "src", SUBSET) == []


def _change_fails_the_run_at_the_first_checkpoint(tmp_path, monkeypatch, capsys, module,
                                                 constant, changed):
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = src / "fggsl" / module
    text = path.read_text(encoding="utf-8")
    assert text.count(constant) == 1
    path.write_text(text.replace(constant, changed), encoding="utf-8")
    monkeypatch.setattr(identity_run, "COMMANDS", SUBSET)
    assert identity_run.main([str(ROOT / "src"), str(src)]) == 1
    lines = capsys.readouterr().out.splitlines()
    checkpoints = [line for line in lines if ".fgck: " in line]
    assert checkpoints[0].startswith("train_knn5/ckpt_split_00.fgck: bytes differ from offset ")


def test_a_changed_constant_fails_the_run_at_the_first_checkpoint(tmp_path, monkeypatch, capsys):
    # the initial weights' range
    _change_fails_the_run_at_the_first_checkpoint(
        tmp_path, monkeypatch, capsys, "model.py", "np.sqrt(6.0 / (rows + cols))",
        "np.sqrt(5.0 / (rows + cols))")


def test_a_changed_training_constant_fails_the_run_at_the_first_checkpoint(tmp_path, monkeypatch,
                                                                           capsys):
    # Adam's first moment: CONFIG trains past epoch 1, so the checkpoints
    # hold stepped weights and a training constant reaches them
    _change_fails_the_run_at_the_first_checkpoint(
        tmp_path, monkeypatch, capsys, "training.py", "ADAM_BETA1 = 0.9\n",
        "ADAM_BETA1 = 0.8\n")

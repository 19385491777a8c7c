import os

import numpy as np
import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def dataset_dir(name: str):
    """Locate a benchmark dataset directory, checking FGGSL_DATA then datasets/.

    Returns None when the dataset is not mounted; data-dependent tests
    skip in that case (see README for the expected file layout).
    """
    candidates = []
    env = os.environ.get("FGGSL_DATA")
    if env:
        candidates.append(os.path.join(env, name))
    candidates.append(os.path.join(REPO_ROOT, "datasets", name))
    for path in candidates:
        if os.path.isfile(os.path.join(path, "nodes.tsv")):
            return path
    return None


def require_dataset(name: str) -> str:
    path = dataset_dir(name)
    if path is None:
        pytest.skip(
            f"{name} dataset files not present (set FGGSL_DATA or place "
            f"nodes.tsv/edges.tsv/splits under datasets/{name}); this "
            "environment has no network access to fetch them")
    return path


class _CountedOperator(np.ndarray):
    """An operator array that logs the width of every block it, or its
    transpose, multiplies: once per ``autodiff._step`` on it, whichever
    form the step runs, and once per product through ``@`` elsewhere."""

    widths: list = []

    def __matmul__(self, other):
        _CountedOperator.widths.append(other.shape[1])
        return np.asarray(self) @ other

    def __rmatmul__(self, other):
        # other @ operator multiplies the block other^T, of width other.shape[0]
        _CountedOperator.widths.append(other.shape[0])
        return other @ np.asarray(self)


@pytest.fixture
def counted_operator(monkeypatch):
    """A class to view an operator as: ``t.view(cls)``; ``cls.widths``
    lists the widths it has multiplied since the test began.  A step's
    row panels run through ``np.matmul(..., out=)``, which no ``@`` sees,
    so a step on the operator is counted as a whole, with its width."""
    from fggsl import autodiff as ad

    _CountedOperator.widths = []
    step = ad._step

    def counted_step(t, y):
        if isinstance(t, _CountedOperator):
            _CountedOperator.widths.append(y.shape[1])
            t = np.asarray(t)
        return step(t, y)

    monkeypatch.setattr(ad, "_step", counted_step)
    return _CountedOperator

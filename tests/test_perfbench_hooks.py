"""The benchmark's tracer patches package functions by name; a rename in
the package must fail here rather than only in traced benchmark runs."""

import importlib
import importlib.util
import os

import pytest

import fggsl
from conftest import REPO_ROOT


def _load_tracer():
    path = os.path.join(REPO_ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
# as the benchmark does: import every module the tracer patches
for _short in tracer.MODULES:
    importlib.import_module(f"fggsl.{_short}")


@pytest.mark.parametrize("span", sorted(tracer.SPANS))
def test_span_resolves_to_a_package_function(span):
    short, attr = tracer.SPANS[span]
    owner = getattr(fggsl, short)
    if "." in attr:
        cls_name, meth = attr.split(".")
        # the tracer reads methods from the class's own namespace
        assert callable(vars(getattr(owner, cls_name))[meth])
    else:
        assert callable(getattr(owner, attr))


def test_counter_and_epoch_hooks_resolve():
    for short in tracer.MODULES:
        assert getattr(fggsl, short).__name__ == f"fggsl.{short}"
    for cls, meth in ((fggsl.autodiff.ParameterSet, "zero_grad"),
                      (fggsl.training.Adam, "step")):
        assert callable(vars(cls)[meth])
    for name in ("matmul", "backward", "tape"):
        assert callable(getattr(fggsl.autodiff, name))


def test_install_then_uninstall_restores_the_package():
    before = {short: dict(vars(getattr(fggsl, short))) for short in tracer.MODULES}
    t = tracer.Tracer(fggsl)
    t.install()
    try:
        assert fggsl.model.forward is not before["model"]["forward"]
    finally:
        t.uninstall()
    for short, names in before.items():
        module = vars(getattr(fggsl, short))
        assert all(module[name] is value for name, value in names.items())

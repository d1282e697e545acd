import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import mrgark

MODULES = [mrgark] + [importlib.import_module(f"mrgark.{info.name}") for info in pkgutil.iter_modules(mrgark.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing


SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.mark.skipif(not SPANS.exists(), reason="no perfbench/ in this checkout")
def test_benchmark_span_targets_resolve():
    # the benchmark tracer patches each target through owner.__dict__[attr]
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans._patch_targets()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, *_ in targets
               if attr not in vars(owner)]
    assert targets and not missing


def test_tolerances_are_module_constants_not_keywords():
    from mrgark import assembly, order, stepping

    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(stepping.newton_solve) == ["residual", "y_guess", "jac", "matrix"]
    assert params(assembly.check_internal_consistency) == ["method", "M"]
    assert params(assembly.check_decoupled) == ["method", "M"]
    assert params(assembly.check_stiff_accuracy) == ["method", "M", "partition"]
    assert params(order.classify) == ["method", "M_sweep"]
    assert [f.name for f in dataclasses.fields(assembly.ConsistencyReport)] == ["max_fs_residual", "max_sf_residual"]

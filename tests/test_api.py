"""The public surface: every exported name exists, and so does every
function the benchmark's tracer wraps."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import attrilens

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
MODULES = sorted(m.name for m in pkgutil.iter_modules(attrilens.__path__))


def _traced() -> dict:
    """``TRACED`` from the benchmark's tracer, read without importing it."""
    for node in ast.parse(SPANS.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TRACED"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {SPANS}")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"attrilens.{name}")
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []


def test_traced_functions_exist():
    traced = _traced()
    assert traced
    for short, names in traced.items():
        module = importlib.import_module(f"attrilens.{short}")
        for fn_name in names:
            fn = getattr(module, fn_name, None)
            assert callable(fn), f"{short}.{fn_name}"
    # the tracer reads the resolver's memo counters
    from attrilens.descriptors import resolve_attribute
    assert callable(resolve_attribute.cache_info)


# Every name the package re-exported from its numeric layers before they
# became lazy modules.
_LAZY_REEXPORTS = {
    "grpo": ["OptimConfig", "ResponseRecord", "TrajectoryGroup",
             "compute_advantages", "dapo_filter", "grpo_gradient",
             "grpo_objective", "kl_estimate"],
    "policysim": ["PolicyParams", "TrainConfig", "sample_response", "train"],
    "mlpipe": ["CsvSchema", "ForestConfig", "auc_score", "eval_auc",
               "load_csv", "scaffold_split", "train_forest"],
}


@pytest.mark.parametrize("short", sorted(_LAZY_REEXPORTS))
def test_lazy_reexports_are_the_submodule_objects(short):
    module = importlib.import_module(f"attrilens.{short}")
    assert getattr(attrilens, short) is module
    for name in _LAZY_REEXPORTS[short]:
        assert getattr(attrilens, name) is getattr(module, name), name


def test_unknown_package_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        attrilens.no_such_name
    assert not hasattr(attrilens, "export_curves")


def test_cli_errors_are_the_layers_errors():
    from attrilens import _data, mlpipe, policysim

    assert policysim.ConfigError is _data.ConfigError
    for name in ("MissingColumn", "EmptyDataset", "DegenerateLabels",
                 "BadRecord"):
        assert getattr(mlpipe, name) is getattr(_data, name)

"""Attribute-guided reward stack for molecular property prediction.

The package scores structured model responses about molecules with four
verifiable rewards (format, correctness, attribute count, attribute
rationality), provides the group-relative policy-optimization math that
consumes those rewards, a toy policy simulator that reproduces the training
dynamics end to end, and a scaffold-split + random-forest pipeline for
checking that the extracted attributes carry signal.
"""

__version__ = "0.1.0"

import importlib.util
import sys

from .molgraph import (
    Molecule,
    SmilesError,
    parse_smiles,
    murcko_scaffold,
    scaffold_key,
)
from .descriptors import resolve_attribute, compute
from .response import PromptSpec, AttributeClaim, ParsedResponse, parse_response
from .rewards import (
    RewardBreakdown,
    RangeTable,
    load_range_table,
    reward_format,
    reward_correct,
    reward_count,
    reward_rational,
    total_reward,
)

# The numeric layers below import numpy, which the reward path above never
# uses. Each is bound here, and in ``sys.modules``, as a lazy module that
# runs on its first attribute access; the names re-exported from them
# resolve through ``__getattr__``. ``score`` and ``descriptors`` therefore
# start without loading numpy.
_LAZY_EXPORTS = {
    "grpo": ("OptimConfig", "ResponseRecord", "TrajectoryGroup",
             "compute_advantages", "dapo_filter", "grpo_gradient",
             "grpo_objective", "kl_estimate"),
    "policysim": ("PolicyParams", "TrainConfig", "sample_response", "train"),
    "mlpipe": ("CsvSchema", "ForestConfig", "auc_score", "eval_auc",
               "load_csv", "scaffold_split", "train_forest"),
}


def _lazy_submodule(short: str):
    name = f"{__name__}.{short}"
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


grpo = _lazy_submodule("grpo")
policysim = _lazy_submodule("policysim")
mlpipe = _lazy_submodule("mlpipe")


def __getattr__(name: str):
    for short, names in _LAZY_EXPORTS.items():
        if name in names:
            return getattr(globals()[short], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

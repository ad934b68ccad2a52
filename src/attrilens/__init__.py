"""Attribute-guided reward stack for molecular property prediction.

The package scores structured model responses about molecules with four
verifiable rewards (format, correctness, attribute count, attribute
rationality), provides the group-relative policy-optimization math that
consumes those rewards, a toy policy simulator that reproduces the training
dynamics end to end, and a scaffold-split + random-forest pipeline for
checking that the extracted attributes carry signal.
"""

__version__ = "0.1.0"

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
from .grpo import (
    OptimConfig,
    ResponseRecord,
    TrajectoryGroup,
    compute_advantages,
    dapo_filter,
    grpo_gradient,
    grpo_objective,
    kl_estimate,
)
from .policysim import PolicyParams, TrainConfig, sample_response, train
from .mlpipe import (
    CsvSchema,
    ForestConfig,
    auc_score,
    eval_auc,
    load_csv,
    scaffold_split,
    train_forest,
)

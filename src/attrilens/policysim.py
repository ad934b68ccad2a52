"""Toy stochastic policy trained against the reward stack.

The policy is a factorized categorical distribution over a finite response
grammar, not a language model: a well-formedness bit, an attribute count,
an ordered draw of distinct attribute names, a promotes/inhibits bit per
drawn attribute, and a per-query true/false answer bit. Sampling renders a
full textual response (deliberately malformed when the format bit is 0) so
training exercises the production parser and rewards end to end. The point
is to reproduce which reward components are learned quickly and which ones
slowly -- not model quality.

Bits are drawn by comparing one uniform draw with their probability, the
attribute count by Gumbel-max over its log-probabilities, and the ordered
attributes by Gumbel-top-k over their logits: add one Gumbel noise vector
and take the ``count`` largest entries, which draws the same distribution
as ``count`` sequential softmax draws without replacement (Kool, van Hoof
& Welling 2019, arXiv 1903.06059). Their log-probability is the
Plackett-Luce product of those sequential draws, computed in closed form.

Training is plain gradient ascent on the analytic policy gradient of the
group-relative clipped objective (:mod:`attrilens.grpo`), one update per
step, on-policy (the importance ratio is 1 at the point of each update,
so only the advantage weights and the KL pull toward the initial
parameters shape the gradient).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import grpo
from ._data import ConfigError, open_text
from .descriptors import implemented_names
from .molgraph import Molecule, SmilesError, parse_smiles
from .response import (
    CLASSIFICATION,
    AttributeClaim,
    PromptSpec,
    parse_response,
    render_response,
)
from .rewards import RangeTable, load_range_table, total_reward

__all__ = [
    "ConfigError",
    "PolicyParams",
    "TrainConfig",
    "SampledResponse",
    "SimQuery",
    "load_sim_dataset",
    "sample_response",
    "action_logp",
    "train",
    "TrainingCurves",
    "export_curves",
]

_TAG_NAMES = ("think", "name", "answer")
_THINK_TEXT = (
    "Computed the implemented attributes for the molecule and compared "
    "each value against the advantageous range for the target property."
)


# ---------------------------------------------------------------------------
# Policy parameters
# ---------------------------------------------------------------------------


@dataclass
class PolicyParams:
    """Logits of the factorized response policy.

    ``logit_format`` gates well-formedness (sigmoid at temperature);
    ``logits_count`` is a categorical over attribute counts ``0..len-1``;
    ``logits_attr`` scores the attribute vocabulary for sequential
    without-replacement draws; ``logits_polarity`` holds one
    promotes-vs-inhibits logit per attribute; ``logits_answer`` holds one
    true-vs-false logit per training query (answers are query-conditional,
    everything else is shared).
    """

    logit_format: float
    logits_count: np.ndarray
    logits_attr: np.ndarray
    logits_polarity: np.ndarray
    logits_answer: np.ndarray

    @classmethod
    def zeros(
        cls,
        n_attrs: int | None = None,
        n_queries: int = 1,
        max_count: int = 12,
    ) -> "PolicyParams":
        if n_attrs is None:
            n_attrs = len(implemented_names())
        if max_count > n_attrs:
            raise ConfigError(
                f"max_count {max_count} exceeds attribute vocabulary "
                f"size {n_attrs}"
            )
        return cls(
            logit_format=0.0,
            logits_count=np.zeros(max_count + 1),
            logits_attr=np.zeros(n_attrs),
            logits_polarity=np.zeros(n_attrs),
            logits_answer=np.zeros(n_queries),
        )

    def copy(self) -> "PolicyParams":
        return PolicyParams(
            self.logit_format,
            self.logits_count.copy(),
            self.logits_attr.copy(),
            self.logits_polarity.copy(),
            self.logits_answer.copy(),
        )

    def zeros_like(self) -> "PolicyParams":
        """All-zero parameters of the same shapes (score and update buffers)."""
        return PolicyParams(
            0.0,
            np.zeros(self.logits_count.shape),
            np.zeros(self.logits_attr.shape),
            np.zeros(self.logits_polarity.shape),
            np.zeros(self.logits_answer.shape),
        )

    def add_scaled(self, other: "PolicyParams", scale: float) -> None:
        """In-place ``self += scale * other`` (used by the ascent step)."""
        self.logit_format += scale * other.logit_format
        self.logits_count += scale * other.logits_count
        self.logits_attr += scale * other.logits_attr
        self.logits_polarity += scale * other.logits_polarity
        self.logits_answer += scale * other.logits_answer

    @property
    def n_attrs(self) -> int:
        return self.logits_attr.size

    @property
    def max_count(self) -> int:
        return self.logits_count.size - 1


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Action:
    """One fully specified draw from the policy."""

    format_ok: bool
    omit: str | None      # tag pair dropped when malformed
    count: int
    attrs: tuple[int, ...]        # indices into the attribute vocabulary
    polarities: tuple[int, ...]   # 1 promotes / 0 inhibits, per attr
    answer: bool


@dataclass(frozen=True)
class SampledResponse:
    text: str
    logp: float
    action: Action
    score: PolicyParams = field(compare=False, repr=False)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # evaluated on logit/temperature; exp(-|x|) <= 1 never overflows
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


_BAD_PROBABILITIES = (
    "policy probabilities must be finite and non-negative; "
    "check the logits and the temperature"
)
_LOG_OMIT = float(np.log(1.0 / len(_TAG_NAMES)))


def _plackett_luce_logp(z: np.ndarray, attrs):
    """Log-probability of drawing ``attrs`` in order, without replacement,
    from the categorical with logits ``z``; with ``order``, ``a = z[order]``
    and ``mass``, from which :func:`_plackett_luce` builds the score.

    Draw ``t`` picks ``i_t`` from the entries not yet drawn, so the
    log-probability has the Plackett-Luce form
    ``sum_t (z[i_t] - log sum_{j live at t} exp(z[j]))``. With the undrawn
    entries first and then the drawn ones from last to first, the entries
    live at draw ``t`` are a prefix, so one ``np.logaddexp.accumulate``
    gives every draw's live log-mass. A drawn entry with ``z = -inf`` has
    log-prob ``-inf``; an index outside ``z``, a repeated index, or a draw
    with no live mass left raises ``ValueError``.
    """
    n, k = z.size, len(attrs)
    order = [j for j in range(n) if j not in attrs] + list(attrs[::-1])
    if len(order) != n:
        raise ValueError(f"attributes {attrs} are not distinct indices "
                         f"below {n}")
    a = z[order]
    mass = np.logaddexp.accumulate(a)[n - k:]  # live log-mass, last draw first
    if k and mass[0] == -np.inf:
        raise ValueError("no attribute with positive probability is left "
                         "to draw")
    return float((a[n - k:] - mass).sum()), order, a, mass


def _plackett_luce(z: np.ndarray, attrs) -> tuple[float, np.ndarray]:
    """The log-probability of :func:`_plackett_luce_logp`, and the sum over
    the draws of each draw's masked softmax."""
    logp, order, a, mass = _plackett_luce_logp(z, attrs)
    n, k = z.size, len(attrs)
    live = np.arange(n) <= np.arange(n - k, n)[:, None]
    p_sum = np.empty(n)
    p_sum[order] = np.exp(np.where(live, a - mass[:, None], -np.inf)).sum(0)
    return logp, p_sum


class _Table:
    """Every factor distribution of one policy at temperature ``T``.

    A bit row is ``(p, (log(1-p), log p), ((0-p)/T, (1-p)/T))`` in Python
    floats. The count factor is one log-softmax, ``count_logp``. The
    attribute factor is its scaled logits ``attr_z = logits_attr / T``:
    the ordered draw of distinct attributes is Plackett-Luce in these
    logits, so no masked row is ever built (see :func:`_plackett_luce`).
    A NaN logit, or ``logit/T`` overflowing, raises ``ValueError``.
    """

    def __init__(self, policy: PolicyParams, T: float):
        self.policy = policy
        self.T = T
        self.inv_T = 1.0 / T
        p = _sigmoid(np.concatenate((
            [policy.logit_format], policy.logits_polarity,
            policy.logits_answer,
        )) / T)
        if not ((p >= 0.0) & (p <= 1.0)).all():
            raise ValueError(_BAD_PROBABILITIES)
        z = policy.logits_count / T
        m = z.max()  # NaN if any logit is NaN
        if not -np.inf < m < np.inf:
            raise ValueError(_BAD_PROBABILITIES)
        self.count_logp = z - (m + np.log(np.exp(z - m).sum()))
        self.count_score = np.exp(self.count_logp) / -T
        self.attr_z = policy.logits_attr / T
        if not (self.attr_z < np.inf).all():
            raise ValueError(_BAD_PROBABILITIES)
        with np.errstate(divide="ignore"):
            rows = list(zip(
                p.tolist(),
                zip(np.log(1.0 - p).tolist(), np.log(p).tolist()),
                zip(((0.0 - p) / T).tolist(), ((1.0 - p) / T).tolist()),
            ))
        self.format = rows[0]
        self.polarity = rows[1:1 + policy.n_attrs]
        self.answer = rows[1 + policy.n_attrs:]


def _walk(table: _Table, ref: _Table, query_index: int, pick):
    """Visit every factor of the policy once, in sampling order.

    ``pick(kind, p)`` chooses each factor's outcome: a bool for
    ``kind="bit"`` (``p`` is the probability of True), an index below ``p``
    for the equiprobable ``kind="uniform"``, an index into the
    log-probabilities ``p`` for ``kind="categorical"``, and for
    ``kind="ranking"`` with ``p = (z, count)`` the ``count`` distinct
    attribute indices, in draw order, of a without-replacement draw from
    the logits ``z``. Returns the action, its exact log-probability under
    ``table``'s policy and under ``ref``'s (the same terms, in the same
    order; ``ref`` may be ``table`` itself), and its score under
    ``table``'s policy -- the gradient of ``logp`` with respect to every
    logit, in the standard forms at temperature ``T``: ``(b - p)/T`` for a
    Bernoulli bit and ``(onehot - p)/T`` for each categorical draw, where
    each attribute draw's ``p`` is the softmax over the attributes not yet
    drawn. The uniform choice of which tag pair to omit contributes
    ``log(1/3)`` to each log-probability and nothing to the score.
    """
    T = table.T
    score = table.policy.zeros_like()
    logp = logp_ref = 0.0

    # format bit, and the omitted tag pair when it comes up 0
    p, logs, dscore = table.format
    format_ok = bool(pick("bit", p))
    logp += logs[format_ok]
    logp_ref += ref.format[1][format_ok]
    score.logit_format = dscore[format_ok]
    omit = None
    if not format_ok:
        omit = _TAG_NAMES[pick("uniform", len(_TAG_NAMES))]
        logp += _LOG_OMIT
        logp_ref += _LOG_OMIT

    # attribute count
    count = pick("categorical", table.count_logp)
    logp += float(table.count_logp[count])
    logp_ref += float(ref.count_logp[count])
    score.logits_count = table.count_score.copy()
    score.logits_count[count] += table.inv_T

    # ordered without-replacement attribute draws, in Plackett-Luce form;
    # a count above the vocabulary leaves the ranking short
    attrs = pick("ranking", (table.attr_z, count))
    if len(attrs) != count:
        raise ValueError(f"a count of {count} needs as many attributes, "
                         f"got {attrs}")
    term, p_sum = _plackett_luce(table.attr_z, attrs)
    logp += term
    logp_ref += (term if ref is table
                 else _plackett_luce_logp(ref.attr_z, attrs)[0])
    score.logits_attr = p_sum / -T
    score.logits_attr[list(attrs)] += table.inv_T

    # per-attribute polarity bits
    polarities = []
    for idx in attrs:
        p, logs, dscore = table.polarity[idx]
        bit = int(pick("bit", p))
        logp += logs[bit]
        logp_ref += ref.polarity[idx][1][bit]
        score.logits_polarity[idx] += dscore[bit]
        polarities.append(bit)

    # per-query answer bit
    p, logs, dscore = table.answer[query_index]
    answer = bool(pick("bit", p))
    logp += logs[answer]
    logp_ref += ref.answer[query_index][1][answer]
    score.logits_answer[query_index] = dscore[answer]

    action = Action(format_ok, omit, count, tuple(attrs), tuple(polarities),
                    answer)
    return action, logp, logp_ref, score


def action_logp(
    policy: PolicyParams,
    action: Action,
    query_index: int,
    temperature: float,
) -> tuple[float, PolicyParams]:
    """Exact factorized log-probability of ``action`` and its score."""
    if not 0 <= action.count <= policy.max_count:
        raise ValueError(f"inconsistent action {action}")
    outcomes = iter((
        action.format_ok,
        *(() if action.format_ok else (_TAG_NAMES.index(action.omit),)),
        action.count,
        action.attrs,
        *action.polarities,
        action.answer,
    ))
    table = _Table(policy, temperature)
    try:
        walked, logp, _, score = _walk(
            table, table, query_index, lambda kind, p: next(outcomes)
        )
    except StopIteration:
        walked = None
    if walked != action:
        raise ValueError(f"inconsistent action {action}")
    return logp, score


def _sampler(rng: np.random.Generator):
    """The ``pick`` that draws each factor's outcome from ``rng``: bits by
    ``rng.random()``, the count by Gumbel-max over its log-probabilities,
    and the ordered attributes by Gumbel-top-k over their logits (Kool,
    van Hoof & Welling 2019), which draws exactly the sequential
    without-replacement distribution from one noise vector."""

    def draw(kind, p):
        if kind == "bit":
            return rng.random() < p
        if kind == "uniform":
            return int(rng.integers(p))
        if kind == "categorical":
            return int((p + rng.gumbel(size=p.size)).argmax())
        z, count = p
        return tuple((z + rng.gumbel(size=z.size)).argsort()[::-1][:count]
                     .tolist())

    return draw


def _vocabulary(policy: PolicyParams) -> tuple[str, ...]:
    """The descriptor names that the policy's attribute indices stand for."""
    names = tuple(implemented_names())
    if policy.n_attrs > len(names):
        raise ConfigError(f"policy has {policy.n_attrs} attributes but only "
                          f"{len(names)} descriptors are implemented")
    return names[: policy.n_attrs]


def _render_action(action: Action, vocab: tuple[str, ...]) -> str:
    claims = [
        AttributeClaim(vocab[i], "promotes" if bit else "inhibits")
        for i, bit in zip(action.attrs, action.polarities)
    ]
    return render_response(
        _THINK_TEXT, claims, action.answer, omit=action.omit
    )


def sample_response(
    policy: PolicyParams,
    prompt: PromptSpec,
    rng: np.random.Generator,
    query_index: int = 0,
    temperature: float = 0.6,
) -> SampledResponse:
    """Draw one response; ``logp`` and ``score`` are exact.

    The full action (count, attributes, polarities, answer) is always
    sampled and paid for in ``logp``; when the format bit comes up 0 one
    tag pair is omitted from the rendered text, so some sampled content
    may be invisible to the parser but the distribution stays simple.
    """
    if prompt.task != CLASSIFICATION:
        raise ConfigError("the simulator supports classification prompts only")
    vocab = _vocabulary(policy)
    table = _Table(policy, temperature)
    action, logp, _, score = _walk(table, table, query_index, _sampler(rng))
    return SampledResponse(_render_action(action, vocab), logp, action, score)


# ---------------------------------------------------------------------------
# Dataset
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimQuery:
    prompt: PromptSpec
    label: bool
    molecule: Molecule


def load_sim_dataset(path) -> list[SimQuery]:
    """Load a training CSV with columns smiles,target,task,label.

    Every row must parse: the simulator scores responses against real
    molecules, so an unparseable SMILES is a configuration error rather
    than a skippable record.
    """
    queries: list[SimQuery] = []
    with open_text(path, ConfigError, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"smiles", "target", "task", "label"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise ConfigError(
                f"{path}: expected columns {sorted(required)}, "
                f"got {reader.fieldnames}"
            )
        for row in reader:
            lineno = reader.line_num  # counts the blank lines it skips
            # DictReader fills the fields a short row lacks with None
            if any(row[key] is None for key in required):
                raise ConfigError(f"{path}:{lineno}: row is missing a field")
            if row["task"] != CLASSIFICATION:
                raise ConfigError(
                    f"{path}:{lineno}: simulator datasets must be "
                    f"classification, got {row['task']!r}"
                )
            try:
                mol = parse_smiles(row["smiles"])
            except SmilesError as exc:
                raise ConfigError(
                    f"{path}:{lineno}: unparseable SMILES "
                    f"{row['smiles']!r}: {exc}"
                ) from exc
            label_text = row["label"].strip().lower()
            if label_text not in ("true", "false", "0", "1"):
                raise ConfigError(
                    f"{path}:{lineno}: bad label {row['label']!r}"
                )
            queries.append(
                SimQuery(
                    PromptSpec(row["task"], row["smiles"], row["target"]),
                    label_text in ("true", "1"),
                    mol,
                )
            )
    if not queries:
        raise ConfigError(f"{path}: empty dataset")
    return queries


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 1000
    group_size: int = 8
    temperature: float = 0.6
    learning_rate: float = 0.1
    seed: int = 0
    algorithm: str = "grpo"
    count_bounds: tuple[int, int] = (3, 10)
    range_table: str = "gpt4o-default"
    dataset: str | None = None

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        T = self.temperature
        # every factor is evaluated at logit/T, so 1/T must be finite too
        if not (math.isfinite(T) and T > 0 and math.isfinite(1.0 / T)):
            raise ConfigError(
                "temperature must be finite and > 0, with a finite reciprocal"
            )
        if not (math.isfinite(self.learning_rate)
                and self.learning_rate > 0):
            raise ConfigError("learning_rate must be finite and > 0")
        if self.group_size < 2:
            raise ConfigError("group_size must be >= 2")
        lo, hi = self.count_bounds
        if not (0 <= lo <= hi):
            raise ConfigError(f"invalid count_bounds {self.count_bounds}")
        if self.algorithm not in ("grpo", "dapo"):
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")

    def optim(self) -> grpo.OptimConfig:
        return grpo.OptimConfig(algorithm=self.algorithm)


@dataclass
class TrainingCurves:
    """Per-step means of each reward component and the group objective."""

    steps: list[int] = field(default_factory=list)
    format: list[float] = field(default_factory=list)
    correct: list[float] = field(default_factory=list)
    count: list[float] = field(default_factory=list)
    rational: list[float] = field(default_factory=list)
    total: list[float] = field(default_factory=list)
    objective: list[float] = field(default_factory=list)

    def append(self, step, fmt, correct, count, rational, total, objective):
        self.steps.append(step)
        self.format.append(fmt)
        self.correct.append(correct)
        self.count.append(count)
        self.rational.append(rational)
        self.total.append(total)
        self.objective.append(objective)


def train(
    config: TrainConfig,
    dataset: list[SimQuery] | None = None,
    table: RangeTable | None = None,
    policy: PolicyParams | None = None,
) -> tuple[TrainingCurves, PolicyParams]:
    """Run the simulator training loop; deterministic for a fixed seed.

    Per step and query, ``G`` responses are sampled from an RNG stream
    seeded by ``(seed, step, query)`` (so any parallel execution order
    would give identical draws), scored through the real parser and reward
    stack, normalized into group advantages, and folded into one plain
    gradient-ascent update averaged over surviving groups. The reference
    policy for the KL pull is the initial parameter snapshot. Under
    ``dapo`` zero-variance groups are dropped from the update (their
    samples still count toward the reported curves, which describe what
    the policy actually emits). Each step builds one factor table for the
    current policy and, when the objective has a KL term, one for the
    reference; each sample's walk reads its log-probability under both.
    Without a KL term (``dapo``) nothing reads the reference log-prob, and
    the walk reads the current table twice.
    """
    if dataset is None:
        if config.dataset is None:
            raise ConfigError("no dataset given")
        dataset = load_sim_dataset(config.dataset)
    if table is None:
        table = load_range_table(config.range_table)
    cfg = config.optim()
    T = config.temperature
    if policy is None:
        policy = PolicyParams.zeros(n_queries=len(dataset))
    if policy.logits_answer.size != len(dataset):
        raise ConfigError(
            "policy answer head size does not match dataset length"
        )
    if any(q.prompt.task != CLASSIFICATION for q in dataset):
        raise ConfigError("the simulator supports classification prompts only")
    vocab = _vocabulary(policy)
    reference = policy.copy()
    curves = TrainingCurves()

    for step in range(1, config.steps + 1):
        sums = np.zeros(6)  # format, correct, count, rational, total, obj
        n_samples = 0
        n_groups_kept = 0
        grad_acc = policy.zeros_like()
        current = _Table(policy, T)
        # only the KL term reads the reference log-probs
        frozen = _Table(reference, T) if cfg.effective_kl_beta else current
        for qid, query in enumerate(dataset):
            rng = np.random.default_rng(
                np.random.SeedSequence([config.seed, step, qid])
            )
            draw = _sampler(rng)
            samples = [
                _walk(current, frozen, qid, draw)
                for _ in range(config.group_size)
            ]
            records = []
            for action, logp, logp_ref, _ in samples:
                text = _render_action(action, vocab)
                parsed = parse_response(text, task=query.prompt.task)
                bd = total_reward(
                    parsed,
                    query.molecule,
                    query.label,
                    query.prompt.target,
                    table,
                    count_bounds=config.count_bounds,
                    task=query.prompt.task,
                )
                sums[:5] += (bd.format, bd.correct, bd.count,
                             bd.rational, bd.total)
                records.append(
                    grpo.ResponseRecord(text, bd.total, logp, logp_ref)
                )
            n_samples += len(samples)

            group = grpo.TrajectoryGroup(f"q{qid}", records)
            grpo.fill_advantages(group)
            if config.algorithm == "dapo" and not grpo.dapo_filter([group]):
                continue
            logp_new = group.logp_old()  # on-policy single update
            sums[5] += grpo.grpo_objective(group, logp_new, cfg)
            per_sample = grpo.grpo_gradient(group, logp_new, cfg)
            for coeff, (*_, score) in zip(per_sample, samples):
                grad_acc.add_scaled(score, float(coeff))
            n_groups_kept += 1

        if n_groups_kept:
            policy.add_scaled(grad_acc, config.learning_rate / n_groups_kept)
        curves.append(
            step,
            *(sums[:5] / n_samples),
            sums[5] / n_groups_kept if n_groups_kept else 0.0,
        )
    return curves, policy


def export_curves(curves: TrainingCurves, fh) -> None:
    """Write the curves as CSV to the open text handle ``fh``:
    step,format,correct,count,rational,total,objective."""
    writer = csv.writer(fh)
    writer.writerow(
        ["step", "format", "correct", "count", "rational", "total",
         "objective"]
    )
    for i, step in enumerate(curves.steps):
        writer.writerow(
            [int(step)]
            + [
                repr(float(series[i]))
                for series in (
                    curves.format,
                    curves.correct,
                    curves.count,
                    curves.rational,
                    curves.total,
                    curves.objective,
                )
            ]
        )

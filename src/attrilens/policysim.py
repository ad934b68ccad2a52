"""Toy stochastic policy trained against the reward stack.

The policy is a factorized categorical distribution over a finite response
grammar, not a language model: a well-formedness bit, an attribute count,
an ordered draw of distinct attribute names, a promotes/inhibits bit per
drawn attribute, and a per-query true/false answer bit. Sampling renders a
full textual response (deliberately malformed when the format bit is 0) so
training exercises the production parser and rewards end to end. The point
is to reproduce which reward components are learned quickly and which ones
slowly -- not model quality.

Training is plain gradient ascent on the analytic policy gradient of the
group-relative clipped objective (:mod:`attrilens.grpo`), one update per
step, on-policy (the importance ratio is 1 at the point of each update,
so only the advantage weights and the KL pull toward the initial
parameters shape the gradient).
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from itertools import accumulate
from dataclasses import dataclass, field

import numpy as np

from . import grpo
from ._data import open_text
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


class ConfigError(ValueError):
    """Invalid simulator configuration."""


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


def _pairwise_sum(v: list) -> float:
    """``sum(v)`` in the order ``np.add.reduce`` adds float64: in sequence
    below 8 terms, in 8 running sums combined as a tree (then the tail in
    sequence) up to 128, and as two halves cut at a multiple of 8 above."""
    n = len(v)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(v[:half]) + _pairwise_sum(v[half:])
    res, tail = 0.0, v
    if n >= 8:
        r = v[:8]
        for i in range(8, n - n % 8, 8):
            for j in range(8):
                r[j] += v[i + j]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        tail = v[n - n % 8:]
    for x in tail:
        res += x
    return res


def _row(e: list) -> tuple[list, list]:
    """The categorical row ``(cdf, p)`` of the weights ``e = exp(z - m)``.

    It is bit for bit numpy's softmax of the logits ``z`` and the CDF
    ``Generator.choice`` builds from it. A NaN weight (NaN logits, or
    ``logit/T`` overflowing) raises ``ValueError``.
    """
    total = _pairwise_sum(e)
    p = [x / total for x in e]
    cdf = list(accumulate(p))
    last = cdf[-1]
    cdf = [c / last for c in cdf]
    # every p is in [0, 1] unless a NaN weight makes the sum NaN, and a
    # NaN anywhere makes the last CDF entry NaN
    if cdf[-1] != 1.0:
        raise ValueError(_BAD_PROBABILITIES)
    return cdf, p


class _Table:
    """Every factor distribution of one policy at temperature ``T``.

    A bit row is ``(p, (log(1-p), log p), ((0-p)/T, (1-p)/T))`` and a
    categorical row ``(cdf, p)`` (see :func:`_row`), in Python floats and
    lists. The CDF is the one ``Generator.choice`` builds, so
    ``bisect_right(cdf, rng.random())`` draws the index ``rng.choice``
    would, from the same single ``random()``. Masked attribute rows are
    keyed by the bit set of the attributes already drawn and built on
    first use, from the logits as they were when the table was built; their
    weights depend only on the largest live logit ``m``, so the table takes
    one ``exp`` per distinct ``m``. A NaN, infinite or negative probability
    (NaN logits, or ``logit/T`` overflowing) raises ``ValueError``.
    """

    def __init__(self, policy: PolicyParams, T: float):
        self.policy = policy
        self.T = T
        self.inv_T = 1.0 / T
        self._attr_logits = policy.logits_attr / T
        # largest logit first
        self._attr_order = (-self._attr_logits).argsort(kind="stable").tolist()
        self._attr_exp: dict[float, list] = {}
        self._attr: dict[int, tuple] = {}
        p = _sigmoid(np.concatenate((
            [policy.logit_format], policy.logits_polarity,
            policy.logits_answer,
        )) / T)
        if not ((p >= 0.0) & (p <= 1.0)).all():
            raise ValueError(_BAD_PROBABILITIES)
        z = policy.logits_count / T
        self.count = _row(np.exp(z - z.max()).tolist())
        self.count_score = np.array(self.count[1]) / -T  # -(p/T) exactly
        self.attr(0)  # the unmasked row checks every attribute logit
        with np.errstate(divide="ignore"):
            rows = list(zip(
                p.tolist(),
                zip(np.log(1.0 - p).tolist(), np.log(p).tolist()),
                zip(((0.0 - p) / T).tolist(), ((1.0 - p) / T).tolist()),
            ))
        self.format = rows[0]
        self.polarity = rows[1:1 + policy.n_attrs]
        self.answer = rows[1 + policy.n_attrs:]

    def attr(self, drawn: int) -> tuple:
        """The attribute distribution with the set bits of ``drawn`` masked."""
        row = self._attr.get(drawn)
        if row is None:
            # m is the largest live logit; a NaN logit, sorted last, still
            # makes its weight and so the whole row NaN
            for k in self._attr_order:
                if not drawn >> k & 1:
                    break
            else:  # a count head longer than the vocabulary
                raise ValueError("every attribute is already drawn")
            m = float(self._attr_logits[k])
            e = self._attr_exp.get(m)
            if e is None:
                # a masked logit may exceed m; it must not overflow exp
                z = np.minimum(self._attr_logits - m, 0.0)
                e = self._attr_exp[m] = np.exp(z).tolist()
            # a masked weight is exp(-inf - m) = 0
            e = [0.0 if drawn >> i & 1 else x for i, x in enumerate(e)]
            row = self._attr[drawn] = _row(e)
        return row


def _walk(table: _Table, ref: _Table, query_index: int, pick):
    """Visit every factor of the policy once, in sampling order.

    ``pick(kind, p)`` chooses each factor's outcome: a bool for
    ``kind="bit"`` (``p`` is the probability of True), an index below ``p``
    for the equiprobable ``kind="uniform"``, and an index into the CDF
    ``p`` for ``kind="categorical"``. Returns the action, its exact
    log-probability under ``table``'s policy and under ``ref``'s (the same
    terms, in the same order; ``ref`` may be ``table`` itself), and its
    score under ``table``'s policy -- the gradient of ``logp`` with respect
    to every logit, in the standard forms at temperature ``T``:
    ``(b - p)/T`` for a Bernoulli bit and ``(onehot - p)/T`` for each
    categorical draw, with already-drawn attributes masked out of later
    draws. The uniform choice of which tag pair to omit contributes
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
    cdf, p = table.count
    count = pick("categorical", cdf)
    logp += float(np.log(p[count]))
    logp_ref += float(np.log(ref.count[1][count]))
    score.logits_count = table.count_score.copy()
    score.logits_count[count] += table.inv_T

    # ordered without-replacement attribute draws; drawn attributes have
    # p = 0 in later draws, so subtracting all of p/T leaves them as they are
    attrs = []
    drawn = 0
    attr_score = [0.0] * table.policy.n_attrs
    for _ in range(count):
        cdf, p = table.attr(drawn)
        idx = pick("categorical", cdf)
        logp += float(np.log(p[idx]))
        logp_ref += float(np.log(ref.attr(drawn)[1][idx]))
        attr_score = [a - v / T for a, v in zip(attr_score, p)]
        attr_score[idx] += table.inv_T
        drawn |= 1 << idx
        attrs.append(idx)
    score.logits_attr = np.array(attr_score)

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


@np.errstate(divide="ignore")  # an action may draw a p = 0 entry
def action_logp(
    policy: PolicyParams,
    action: Action,
    query_index: int,
    temperature: float,
) -> tuple[float, PolicyParams]:
    """Exact factorized log-probability of ``action`` and its score."""
    outcomes = iter((
        action.format_ok,
        *(() if action.format_ok else (_TAG_NAMES.index(action.omit),)),
        action.count,
        *action.attrs,
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
    """The ``pick`` that draws each factor's outcome from ``rng``."""

    def draw(kind, p):
        if kind == "bit":
            return rng.random() < p
        if kind == "uniform":
            return int(rng.integers(p))
        return bisect_right(p, rng.random())

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

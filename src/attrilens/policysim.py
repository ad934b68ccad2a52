"""Toy stochastic policy trained against the reward stack.

The policy is a factorized categorical distribution over a finite response
grammar, not a language model: a well-formedness bit, an attribute count,
an ordered draw of distinct attribute names, a promotes/inhibits bit per
drawn attribute, and a per-query true/false answer bit. A response renders
to text (one tag pair dropped when the format bit is 0), but training
scores its drawn arrays without the text: a claim's verdict depends only
on its query and attribute, so ``train`` asks ``claim_in_range`` once per
pair and a step scores every response from that table; tests pin each
reward against the breakdown of the parsed rendered text. The point is
to reproduce which reward components are learned quickly and which ones
slowly -- not model quality.

A training step's responses, G for each query, are drawn, scored and
differentiated together, one row per response, in array operations: bits
by comparing uniforms with their probabilities,
counts by Gumbel-max, and the ordered attributes by Gumbel-top-k, the
``count`` largest entries of one Gumbel-perturbed logit vector, which
draws ``count`` sequential softmax draws without replacement (Kool, van
Hoof & Welling 2019, arXiv 1903.06059). Their log-probability is that of
the sequential draws, in closed Plackett-Luce form, kept per factor (one
per sampled choice). These group draws replaced one draw call per factor,
so seeded ``train-sim`` curves differ from those of earlier versions.

Training is plain gradient ascent on the analytic policy gradient of the
group-relative clipped objective (:mod:`attrilens.grpo`), one update per
step, on-policy (the importance ratio is 1 at the point of each update,
so only the advantage weights and the KL pull toward the initial
parameters shape the gradient). The KL penalty is applied per factor,
the simulator's form of GRPO's per-token KL.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import grpo
from ._data import ConfigError, open_text
from .descriptors import implemented_names
from .molgraph import Molecule, SmilesError, parse_smiles
from .response import CLASSIFICATION, PromptSpec, render_response
from .rewards import (REWARD_COMPONENTS, RangeTable, TableMissing,
                      claim_in_range, load_range_table)

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


class _Table:
    """Every factor distribution of one policy at temperature ``T``.

    The bits share one vector ``p`` of probabilities of 1: the format bit
    at 0, attribute ``j``'s polarity at ``1 + j`` and query ``q``'s answer
    at ``1 + n_attrs + q``, with ``log_p``/``log_q`` the logs of ``p`` and
    ``1 - p``. The count factor is one log-softmax, ``count_logp``. The
    ordered draw of distinct attributes is Plackett-Luce in the scaled
    logits ``attr_z = logits_attr / T``. A NaN logit, ``logit/T``
    overflowing, or a count head longer than the attribute vocabulary
    raises ``ValueError``.
    """

    def __init__(self, policy: PolicyParams, T: float):
        n, K = policy.n_attrs, policy.max_count
        self.T, self.n_attrs, self.max_count = T, n, K
        if K > n:
            raise ValueError(f"a count of up to {K} needs as many "
                             f"attributes, the policy has {n}")
        self.p = p = _sigmoid(np.concatenate((
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
        self.attr_z = policy.logits_attr / T
        if not (self.attr_z < np.inf).all():
            raise ValueError(_BAD_PROBABILITIES)
        with np.errstate(divide="ignore"):
            self.log_p, self.log_q = np.log(p), np.log(1.0 - p)
        # each factor's draw slot (see _Group); -1 for format, answer, count
        self.slot = np.r_[-1, -1, 0:K, -1, 0:K]


class _Group:
    """Actions as arrays, one row per action; rows of several queries can
    share a group, and ``group[rows]`` is the group of some of its rows.

    Per row: ``count``; ``order``, the attributes in draw order and then
    the undrawn ones in index order; ``omit``, the tag pair dropped if the
    format bit is 0; ``bits``, the format, answer and per-slot polarity
    bits, found at ``bit_at`` in the table's bit vector. A row has
    ``2 * max_count + 3`` factors: its bits (format with the omit choice),
    its count and one Plackett-Luce draw per slot; ``mask`` drops the slots
    past the count.
    """

    __slots__ = ("omit", "count", "order", "bits", "bit_at", "mask")

    def __init__(self, table: _Table, queries, omit, count, order):
        """``queries`` is the query of each row, or one for all rows."""
        K, n = table.max_count, table.n_attrs
        queries = np.asarray(queries)
        outside = queries[(queries < 0) | (queries >= table.p.size - 1 - n)]
        if outside.size:
            raise ValueError(f"no answer logit for query {outside[0]}")
        self.omit, self.count, self.order = omit, count, order
        self.bit_at = np.empty((count.size, 2 + K), dtype=np.intp)
        self.bit_at[:, 0] = 0
        self.bit_at[:, 1] = 1 + n + queries
        self.bit_at[:, 2:] = 1 + order[:, :K]
        self.mask = table.slot < count[:, None]

    def __getitem__(self, rows) -> "_Group":
        part = object.__new__(_Group)
        for name in self.__slots__:
            setattr(part, name, getattr(self, name)[rows])
        return part


def _draw(table: _Table, rngs, size: int, queries) -> _Group:
    """Draw ``size`` actions for each query of ``queries`` from its own
    generator, the one at the same place in ``rngs``; the rows go query by
    query. Each generator gets four calls: uniforms for the bits, the
    omitted tag pairs, and Gumbel noise for the counts (Gumbel-max) and for
    the orders (Gumbel-top-k: a row's first ``count`` entries), so a
    query's actions do not depend on the other queries. The undrawn
    attributes follow in index order, as in :func:`_given`, so a drawn
    action scores bit for bit as :func:`action_logp` scores it."""
    n, K = table.n_attrs, table.max_count
    u, omit, count_noise, attr_noise = map(np.concatenate, zip(*[
        (rng.random((size, 2 + K)), rng.integers(len(_TAG_NAMES), size=size),
         rng.gumbel(size=(size, K + 1)), rng.gumbel(size=(size, n)))
        for rng in rngs]))
    count = (table.count_logp + count_noise).argmax(1)
    order = (table.attr_z + attr_noise).argsort(1)[:, ::-1]
    slot = np.arange(n)
    order = np.take_along_axis(order, np.where(
        slot < count[:, None], slot, n + order).argsort(1), 1)
    group = _Group(table, np.repeat(queries, size), omit, count, order)
    group.bits = u < table.p[group.bit_at]
    return group


def _given(table: _Table, query_index: int, actions) -> _Group:
    """The group of the given actions; one that the policy cannot take
    raises ``ValueError``."""
    K, n = table.max_count, table.n_attrs
    orders = []
    for act in actions:
        order = [*act.attrs, *(j for j in range(n) if j not in act.attrs)]
        if not (0 <= act.count <= K
                and len(act.attrs) == act.count == len(act.polarities)
                and sorted(order) == list(range(n))
                and set(act.polarities) <= {0, 1}
                and act.format_ok in (0, 1) and act.answer in (0, 1)
                and (act.omit is None if act.format_ok
                     else act.omit in _TAG_NAMES)):
            raise ValueError(f"inconsistent action {act}")
        orders.append(order)
    group = _Group(table, query_index,
                   np.array([_TAG_NAMES.index(a.omit) if a.omit else 0
                             for a in actions]),
                   np.array([a.count for a in actions]),
                   np.array(orders, dtype=np.intp))
    group.bits = np.array([[a.format_ok, a.answer, *a.polarities,
                            *[0] * (K - a.count)] for a in actions], bool)
    return group


def _actions(group: _Group) -> Iterator[Action]:
    """The group's actions, one at a time."""
    K = group.bit_at.shape[1] - 2
    return (
        Action(ok, None if ok else _TAG_NAMES[omit], count,
               tuple(order[:count]), tuple(pols[:count]), answer)
        for ok, answer, pols, omit, count, order in zip(
            group.bits[:, 0].tolist(), group.bits[:, 1].tolist(),
            group.bits[:, 2:].astype(int).tolist(), group.omit.tolist(),
            group.count.tolist(), group.order[:, :K].tolist(),
        )
    )


def _live_mass(table: _Table, group: _Group) -> tuple[np.ndarray, np.ndarray]:
    """``a = attr_z[order]`` and, per row and slot ``t``, the log-mass of
    the attributes live at draw ``t``, ``log sum_{s >= t} exp(a[s])``: one
    ``np.logaddexp.accumulate`` over the reversed rows."""
    a = table.attr_z[group.order]
    return a, np.logaddexp.accumulate(a[:, ::-1], axis=1)[:, ::-1]


def _factor_logp(table: _Table, group: _Group, live) -> np.ndarray:
    """The ``(rows, 2 * max_count + 3)`` per-factor log-probabilities of
    the group's actions under ``table``, given its ``live =``
    :func:`_live_mass`, 0 where a row has no factor. Draw
    ``t`` has the Plackett-Luce form ``a[t] - log sum_{s >= t} exp(a[s])``:
    ``-inf`` for an attribute with ``z = -inf``, and ``ValueError`` when no
    live mass is left.
    """
    K = table.max_count
    a, mass = live
    if (mass[:, :K][group.mask[:, 3 + K:]] == -np.inf).any():
        raise ValueError("no attribute with positive probability is left "
                         "to draw")
    at = group.bit_at
    with np.errstate(invalid="ignore"):  # -inf - -inf in dead slots
        logp = np.concatenate((
            np.where(group.bits, table.log_p[at], table.log_q[at]),
            table.count_logp[group.count, None],
            (a - mass)[:, :K],
        ), axis=1)
    logp[:, 0] += np.where(group.bits[:, 0], 0.0, _LOG_OMIT)
    return np.where(group.mask, logp, 0.0)


def _draw_softmax(table: _Table, group: _Group, live, weight) -> np.ndarray:
    """``sum_{i,t} weight[i, t] * p_it`` over the rows and draw slots, where
    ``p_it`` is the softmax over the attributes live at row ``i``'s draw
    ``t``, from ``live =`` :func:`_live_mass`; a slot past a row's count
    adds nothing."""
    K, n = table.max_count, table.n_attrs
    a, mass = live
    undrawn = (np.arange(n) >= np.arange(K)[:, None]) & group.mask[:, 3 + K:,
                                                                   None]
    with np.errstate(invalid="ignore"):  # -inf - -inf in dead slots
        p = np.exp(np.where(undrawn, a[:, None, :] - mass[:, :K, None],
                            -np.inf))
    return np.bincount(group.order.ravel(),
                       np.einsum("it,its->is", weight, p).ravel(),
                       minlength=n)


def _add_score(table: _Table, group: _Group, live, coeff,
               out: PolicyParams) -> None:
    """``out += sum_{i,f} coeff[i, f] * score_if``, where ``score_if`` is the
    gradient of factor ``f``'s log-probability of action ``i`` with respect
    to every logit, in the standard forms at temperature ``T``: ``(b -
    p)/T`` for a Bernoulli bit and ``(onehot - p)/T`` for each categorical
    draw, where each attribute draw's ``p`` is the softmax over the
    attributes not yet drawn. ``live`` is the group's :func:`_live_mass`
    under ``table``. The uniform omit choice has no gradient."""
    T, K, n = table.T, table.max_count, table.n_attrs
    c = np.where(group.mask, coeff, 0.0)
    at = group.bit_at
    bits = np.bincount(at.ravel(),
                       (c[:, :2 + K] * (group.bits - table.p[at])).ravel(),
                       minlength=table.p.size) / T
    out.logit_format += float(bits[0])
    out.logits_polarity += bits[1:1 + n]
    out.logits_answer += bits[1 + n:]
    c_count, c_draw = c[:, 2 + K], c[:, 3 + K:]
    out.logits_count += (np.bincount(group.count, c_count, minlength=K + 1)
                         - c_count.sum() * np.exp(table.count_logp)) / T
    out.logits_attr += (np.bincount(group.order[:, :K].ravel(),
                                    c_draw.ravel(), minlength=n)
                        - _draw_softmax(table, group, live, c_draw)) / T


def _logp_and_score(policy: PolicyParams, table: _Table,
                    group: _Group) -> tuple[float, PolicyParams]:
    """Log-probability and score of a group of one."""
    live = _live_mass(table, group)
    logp = _factor_logp(table, group, live)
    score = policy.zeros_like()
    _add_score(table, group, live, np.ones_like(logp), score)
    return float(logp.sum()), score


def action_logp(
    policy: PolicyParams,
    action: Action,
    query_index: int,
    temperature: float,
) -> tuple[float, PolicyParams]:
    """Exact factorized log-probability of ``action`` and its score."""
    table = _Table(policy, temperature)
    return _logp_and_score(policy, table, _given(table, query_index, [action]))


def _vocabulary(policy: PolicyParams) -> tuple[str, ...]:
    """The descriptor names that the policy's attribute indices stand for."""
    names = tuple(implemented_names())
    if policy.n_attrs > len(names):
        raise ConfigError(f"policy has {policy.n_attrs} attributes but only "
                          f"{len(names)} descriptors are implemented")
    return names[: policy.n_attrs]


def _render_action(action: Action, vocab: tuple[str, ...]) -> str:
    claims = [
        (vocab[i], "promotes" if bit else "inhibits")
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
    group = _draw(table, [rng], 1, [query_index])
    (action,) = _actions(group)
    logp, score = _logp_and_score(policy, table, group)
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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
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
    """Per step: its number, the mean of each of the
    :data:`~attrilens.rewards.REWARD_COMPONENTS` and the group objective."""

    steps: list[int] = field(default_factory=list)
    format: list[float] = field(default_factory=list)
    correct: list[float] = field(default_factory=list)
    count: list[float] = field(default_factory=list)
    rational: list[float] = field(default_factory=list)
    total: list[float] = field(default_factory=list)
    objective: list[float] = field(default_factory=list)

    def append(self, *values) -> None:
        """Append one step's values, one per field in field order; a wrong
        number of values raises ``ValueError`` and appends none."""
        for series, value in list(zip(vars(self).values(), values,
                                      strict=True)):
            series.append(value)


def _claim_verdicts(dataset: list[SimQuery], table: RangeTable,
                    vocab: tuple[str, ...],
                    source: str | None = None) -> np.ndarray:
    """``verifiable, inside``: two ``(Q, n_attrs)`` bool arrays, whether
    :func:`claim_in_range` checks query ``q``'s claim of ``vocab[j]``, and
    its verdict, which holds for a run. A target missing from ``table``
    raises :class:`TableMissing` naming its row of ``source``."""
    verdicts = np.zeros((2, len(dataset), len(vocab)), bool)
    for row, query in enumerate(dataset, start=1):
        try:
            rows = table.rows(query.prompt.target)
        except TableMissing as exc:
            raise TableMissing(f"{source or 'dataset'}: row {row}: "
                               f"{exc}") from exc
        for j, name in enumerate(vocab):
            inside = claim_in_range(name, query.molecule, rows)
            verdicts[:, row - 1, j] = inside is not None, bool(inside)
    return verdicts


def _step_rewards(config: TrainConfig, dataset: list[SimQuery], verdicts,
                  drawn: _Group) -> np.ndarray:
    """The :data:`~attrilens.rewards.REWARD_COMPONENTS` of the drawn rows,
    ``G`` per query in query order, as the reward stack scores each
    row's parsed response: an omitted tag pair hides the claims or the
    answer, and a visible claim takes its query's and attribute's
    :func:`_claim_verdicts`."""
    verifiable, inside = verdicts
    ok, polarity = drawn.bits[:, 0], drawn.bits[:, 2:]
    attrs = drawn.order[:, :polarity.shape[1]]
    query = np.arange(ok.size)[:, None] // (ok.size // len(dataset))
    label = np.array([q.label for q in dataset])[query[:, 0]]
    fmt = np.where(ok, 1.0, -2.0)
    correct = np.where((ok | (drawn.omit != _TAG_NAMES.index("answer")))
                       & (drawn.bits[:, 1] == label), 2.0, 0.0)
    n_att = np.where(ok | (drawn.omit != _TAG_NAMES.index("name")),
                     drawn.count, 0)
    lo, hi = config.count_bounds
    count = np.where((lo <= n_att) & (n_att <= hi), 0.0, -1.0)
    visible = np.arange(attrs.shape[1]) < n_att[:, None]
    verified = visible & verifiable[query, attrs]
    matched = verified & (polarity == inside[query, attrs])
    # a row with no verified claim has none matched either, and scores 0.0
    rational = matched.sum(1) / np.maximum(verified.sum(1), 1)
    return np.stack((fmt, correct, count, rational,
                     fmt + correct + count + rational), axis=1)


def _train_step(config: TrainConfig, dataset: list[SimQuery], verdicts,
                policy: PolicyParams, reference: PolicyParams,
                step: int) -> tuple[float, ...]:
    """One step of :func:`train`, one batch of ``Q * G`` rows: it updates
    ``policy`` in place and returns the step's means of the five reward
    components and of the group objective."""
    cfg, T = config.optim(), config.temperature
    Q, G = len(dataset), config.group_size
    current = _Table(policy, T)
    # only the KL term reads the reference log-probs
    frozen = _Table(reference, T) if cfg.effective_kl_beta else current
    drawn = _draw(current, (np.random.default_rng(np.random.SeedSequence(
        [config.seed, step, qid])) for qid in range(Q)), G, range(Q))

    rewards = _step_rewards(config, dataset, verdicts, drawn)
    # each column from 0.0, row by row in sample order: numpy sums an
    # outer axis row by row, pairwise only along the inner one
    sums = rewards.sum(0, initial=0.0)

    totals = rewards[:, REWARD_COMPONENTS.index("total")].reshape(Q, G)
    adv = grpo.compute_advantages(totals)
    live = _live_mass(current, drawn)
    logp = _factor_logp(current, drawn, live).reshape(Q, G, -1)
    logp_ref = logp if frozen is current else _factor_logp(
        frozen, drawn, _live_mass(frozen, drawn)).reshape(Q, G, -1)
    # on-policy single update: logp_new is logp_old
    objectives, coeff = grpo.group_update(adv, logp, logp, logp_ref, cfg)
    kept = range(Q)
    if config.algorithm == "dapo":
        kept = np.flatnonzero(grpo.has_signal(totals)).tolist()
    objective = 0.0
    grad_acc = policy.zeros_like()
    for q in kept:
        rows = slice(q * G, (q + 1) * G)
        objective += objectives[q]
        _add_score(current, drawn[rows], (live[0][rows], live[1][rows]),
                   coeff[q], grad_acc)
    if kept:
        policy.add_scaled(grad_acc, config.learning_rate / len(kept))
    return (*(sums / (Q * G)), objective / len(kept) if kept else 0.0)


def train(
    config: TrainConfig,
    dataset: list[SimQuery] | None = None,
    table: RangeTable | None = None,
    policy: PolicyParams | None = None,
) -> tuple[TrainingCurves, PolicyParams]:
    """Run the simulator training loop; deterministic for a fixed seed.

    Per step, each query draws ``G`` responses from its own RNG stream,
    seeded by ``(seed, step, query)``, so the draws do not depend on the
    order of the queries. Every response is scored as the reward stack
    scores the parse of its rendered text, in array operations, from the
    verdict on each (query, attribute) claim, read before step 1 in one
    pass that also reports a target missing from ``table``; the rewards
    are normalized into advantages within each query's group, and the
    groups are folded into one plain gradient-ascent update averaged over
    surviving groups. The reference policy for the KL pull is the initial
    parameter snapshot.
    Under ``dapo`` zero-variance groups are dropped from the update (their
    samples still count toward the reported curves, which describe what
    the policy actually emits).

    A step is one batch of ``Q * G`` rows: the log-probabilities, the
    advantages, the per-group objectives and the gradient coefficients
    are each computed once over all of them, and the score is summed
    group by group, in query order. Each step builds one factor table for
    the current policy and, when the objective has a KL term, one for the
    reference. Without a KL term (``dapo``) nothing reads the reference
    log-probs, and those under the current table stand in for them.
    """
    if dataset is None:
        if config.dataset is None:
            raise ConfigError("no dataset given")
        dataset = load_sim_dataset(config.dataset)
    if not dataset:
        raise ConfigError("empty dataset")
    if table is None:
        table = load_range_table(config.range_table)
    if policy is None:
        policy = PolicyParams.zeros(n_queries=len(dataset))
    if policy.logits_answer.size != len(dataset):
        raise ConfigError(
            "policy answer head size does not match dataset length"
        )
    if any(q.prompt.task != CLASSIFICATION for q in dataset):
        raise ConfigError("the simulator supports classification prompts only")
    verdicts = _claim_verdicts(dataset, table, _vocabulary(policy),
                               config.dataset)
    reference = policy.copy()
    curves = TrainingCurves()
    for step in range(1, config.steps + 1):
        curves.append(step, *_train_step(config, dataset, verdicts, policy,
                                         reference, step))
    return curves, policy


def export_curves(curves: TrainingCurves, fh) -> None:
    """Write the curves as CSV to the open text handle ``fh``: one column
    per field of :class:`TrainingCurves`, in field order, the first headed
    ``step``."""
    writer = csv.writer(fh)
    writer.writerow(["step", *list(vars(curves))[1:]])
    for step, *values in zip(*vars(curves).values()):
        writer.writerow([int(step), *(repr(float(v)) for v in values)])

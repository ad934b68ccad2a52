"""Group-relative policy optimization math.

Implements the scoring-side math used by the toy-policy trainer: group
advantages normalized by the population standard deviation, a clipped
surrogate objective with a non-negative KL-to-reference penalty, and the
decoupled-clipping variant ("dapo") that widens the upper clip bound,
drops the KL term, and discards zero-variance groups instead of zeroing
their advantages.

Everything here is pure. A response's log-probability is a row of
per-factor terms, ``(G, F)`` for a group: the factorized toy policy in
:mod:`attrilens.policysim` has one factor per sampled choice, its form of
a language model's tokens. The importance ratio and the clipped surrogate
use each row's sum; the KL penalty is applied per factor and summed, as
GRPO applies it per token (Shao et al. 2024, arXiv 2402.03300). A 1-D
array of sequence log-probabilities is a group of one-factor responses.

The math works along leading axes, one group per leading index: rewards
and advantages are ``(..., G)``, log-probabilities ``(..., G, F)``. One
function, :func:`group_update`, gives every group's objective and the
objective's gradient, the per-factor coefficients of the policy update,
from one pass over the shared terms. The :class:`TrajectoryGroup`
functions (:func:`fill_advantages`, :func:`grpo_objective`,
:func:`grpo_gradient`, :func:`dapo_filter`) are its one-group case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GroupTooSmall",
    "OptimConfig",
    "ResponseRecord",
    "TrajectoryGroup",
    "compute_advantages",
    "has_signal",
    "fill_advantages",
    "kl_estimate",
    "grpo_objective",
    "grpo_gradient",
    "group_update",
    "dapo_filter",
]

# exp(-50)..exp(50) spans ~1e-22..1e21: comfortably inside float64 while
# keeping u - log(u) - 1 well conditioned. Larger gaps indicate a broken
# caller, not a quantity worth estimating.
MAX_LOGP_GAP = 50.0


class GroupTooSmall(ValueError):
    """A trajectory group has fewer than two responses."""


@dataclass(frozen=True)
class OptimConfig:
    """Hyper-parameters for the group-relative update.

    ``clip_eps`` is the symmetric clip half-width used by ``algorithm="grpo"``;
    ``clip_eps_low``/``clip_eps_high`` form the decoupled band used by
    ``algorithm="dapo"`` (which also forces the KL coefficient to zero --
    ``kl_beta`` is ignored there). The ``clip_eps*=0.2/0.28``,
    ``kl_beta=0.04`` defaults are conventional for this family of methods,
    not tuned values.
    """

    clip_eps: float = 0.2
    clip_eps_low: float = 0.2
    clip_eps_high: float = 0.28
    kl_beta: float = 0.04
    algorithm: str = "grpo"

    def __post_init__(self) -> None:
        if self.algorithm not in ("grpo", "dapo"):
            raise ValueError(f"unknown algorithm: {self.algorithm!r}")
        for name in ("clip_eps", "clip_eps_low", "clip_eps_high"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {v}")
        if self.kl_beta < 0.0:
            raise ValueError("kl_beta must be >= 0")

    @property
    def clip_band(self) -> tuple[float, float]:
        """The (low, high) multiplier band the ratio is clipped into."""
        if self.algorithm == "dapo":
            return 1.0 - self.clip_eps_low, 1.0 + self.clip_eps_high
        return 1.0 - self.clip_eps, 1.0 + self.clip_eps

    @property
    def effective_kl_beta(self) -> float:
        """KL coefficient actually applied (zero under ``dapo``)."""
        return 0.0 if self.algorithm == "dapo" else self.kl_beta


@dataclass
class ResponseRecord:
    """One sampled response with its reward and log-probabilities, each a
    float or an array of per-factor terms."""

    text: str
    reward_total: float
    logp_old: float | np.ndarray
    logp_ref: float | np.ndarray


@dataclass
class TrajectoryGroup:
    """G responses sampled for a single query."""

    query_id: str
    responses: list[ResponseRecord]
    advantages: list[float] | None = field(default=None)

    def rewards(self) -> np.ndarray:
        return np.array([r.reward_total for r in self.responses], dtype=float)

    def logp_old(self) -> np.ndarray:
        return np.array([r.logp_old for r in self.responses], dtype=float)

    def logp_ref(self) -> np.ndarray:
        return np.array([r.logp_ref for r in self.responses], dtype=float)


def has_signal(rewards) -> np.ndarray:
    """Per group along the last axis: whether its rewards rank its
    responses, that is, are not all equal."""
    r = np.asarray(rewards, dtype=float)
    return r.max(-1) != r.min(-1)


def compute_advantages(rewards) -> np.ndarray:
    """Normalize each group's rewards, along the last axis, to zero-mean,
    unit-std advantages.

    Uses the population standard deviation (``ddof=0``), so two-element
    groups normalize exactly to [-1, 1]. A degenerate group's advantages
    are all zero rather than a division blow-up. A last axis shorter than
    2 raises :class:`GroupTooSmall`.
    """
    r = np.asarray(rewards, dtype=float)
    if r.ndim == 0 or r.shape[-1] < 2:
        raise GroupTooSmall(
            f"advantage normalization needs >= 2 rewards, got shape {r.shape}"
        )
    signal = has_signal(r)[..., None]
    # Scaling by a power of two is exact, so it changes no rounding; it
    # only keeps the squares of tiny spreads from underflowing to 0.
    r = np.ldexp(r, -np.frexp(np.abs(r).max(-1, keepdims=True))[1])
    # Shifting by the minimum is exact within a factor of two (Sterbenz)
    # and keeps the rounded mean off the rewards: [4, 4 - ulp] -> [1, -1].
    r = r - r.min(-1, keepdims=True)
    with np.errstate(invalid="ignore"):  # 0 / 0 in degenerate groups
        adv = (r - r.mean(-1, keepdims=True)) / r.std(-1, keepdims=True)
    return np.where(signal, adv, 0.0)


def fill_advantages(group: TrajectoryGroup) -> np.ndarray:
    """Compute and store advantages on ``group``; returns them."""
    adv = compute_advantages(group.rewards())
    group.advantages = [float(a) for a in adv]
    return adv


def kl_estimate(logp_theta, logp_ref):
    """Non-negative per-sample KL estimator ``u - log(u) - 1``.

    ``u = exp(logp_ref - logp_theta)`` is the inverse likelihood ratio;
    the estimator is zero exactly when the two log-probs agree and grows
    in both directions. Accepts scalars or arrays elementwise. Gaps over
    ``MAX_LOGP_GAP`` nats are rejected: they would overflow/denormalize
    instead of estimating anything useful.
    """
    lt = np.asarray(logp_theta, dtype=float)
    lr = np.asarray(logp_ref, dtype=float)
    delta = lr - lt
    if not np.all(np.isfinite(delta)):
        raise ValueError("log-probabilities must be finite")
    if np.any(np.abs(delta) > MAX_LOGP_GAP):
        raise ValueError(
            f"|logp_ref - logp_theta| exceeds {MAX_LOGP_GAP}; "
            "the k3 estimator is not representable that far out"
        )
    # log(u) == delta; exp(delta) rounding to 1 can dip an ulp below 0
    out = np.maximum(np.exp(delta) - delta - 1.0, 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def group_update(advantages, logp_new, logp_old, logp_ref,
                 cfg: OptimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per group: the objective and its gradient w.r.t. ``logp_new``.

    The objective is the mean clipped surrogate minus the KL penalty,
    ``(1/G) sum_i [ min(rho_i*A_i, clip(rho_i)*A_i) - beta*sum_f k3_if ]``
    with ``rho_i = exp(sum_f (logp_new_if - logp_old_if))`` and ``k3_if``
    the :func:`kl_estimate` of factor ``f``. Its gradient, in the shape of
    ``logp_new``, is per factor ``(1/G) * [A_i * rho_i * active_i - beta *
    (1 - u_if)]``, where ``active_i`` is 1 exactly when the unclipped branch
    of the min is live (positive advantage and ratio at or below the upper
    clip, or negative advantage and ratio at or above the lower clip), and
    ``u_if = exp(logp_ref_if - logp_new_if)`` from the KL term. At a clip
    boundary the unclipped subgradient is chosen.

    ``advantages`` is ``(..., G)``, the log-probabilities ``(..., G, F)`` or
    ``(..., G)``, and the objectives have the leading shape ``(...)``. Under
    ``dapo`` the clip band is asymmetric and beta is zero.
    """
    adv, new, old, ref = (np.asarray(x, dtype=float) for x in
                          (advantages, logp_new, logp_old, logp_ref))
    if not (adv.ndim >= 1 and new.shape[:adv.ndim] == adv.shape
            and new.shape == old.shape == ref.shape):
        raise ValueError("advantages and log-probabilities must share their "
                         "leading shape")
    rho = np.exp((new - old).reshape(adv.shape + (-1,)).sum(-1))
    lo, hi = cfg.clip_band
    total = np.minimum(rho * adv, np.clip(rho, lo, hi) * adv).sum(-1)
    active = np.where(adv >= 0.0, rho <= hi, rho >= lo)
    grad = np.broadcast_to((adv * rho * active).reshape(
        adv.shape + (1,) * (new.ndim - adv.ndim)), new.shape)
    beta = cfg.effective_kl_beta
    if beta != 0.0:
        kl = kl_estimate(new, ref)
        total = total - beta * kl.reshape(total.shape + (-1,)).sum(-1)
        # d/dlogp_new of (u - log u - 1) is (1 - u); the objective
        # subtracts beta times it.
        grad = grad - beta * (1.0 - np.exp(ref - new))
    return total / adv.shape[-1], grad / adv.shape[-1]


def _one_group(group: TrajectoryGroup, logp_new, cfg: OptimConfig):
    if group.advantages is None:
        raise ValueError("group.advantages not computed; "
                         "call fill_advantages first")
    return group_update(group.advantages, logp_new, group.logp_old(),
                        group.logp_ref(), cfg)


def grpo_objective(group: TrajectoryGroup, logp_new, cfg: OptimConfig) -> float:
    """:func:`group_update`'s objective of one group, whose advantages
    :func:`fill_advantages` has stored."""
    return float(_one_group(group, logp_new, cfg)[0])


def grpo_gradient(group: TrajectoryGroup, logp_new,
                  cfg: OptimConfig) -> np.ndarray:
    """:func:`group_update`'s gradient of one group, whose advantages
    :func:`fill_advantages` has stored."""
    return _one_group(group, logp_new, cfg)[1]


def dapo_filter(groups: list[TrajectoryGroup]) -> list[TrajectoryGroup]:
    """Drop groups whose rewards carry no ranking signal.

    Dynamic sampling keeps only groups of two or more responses that are
    not degenerate; all-identical groups (every response right, or every
    response wrong) are returned to the sampler instead of pushing zero
    advantages through the update.
    """
    return [g for g in groups
            if len(g.responses) >= 2 and has_signal(g.rewards())]

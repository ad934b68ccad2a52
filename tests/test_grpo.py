"""Advantage normalization, KL estimator, clipped surrogate, gradients."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from attrilens.grpo import (
    MAX_LOGP_GAP,
    GroupTooSmall,
    OptimConfig,
    ResponseRecord,
    TrajectoryGroup,
    compute_advantages,
    dapo_filter,
    fill_advantages,
    grpo_gradient,
    grpo_objective,
    group_update,
    has_signal,
    kl_estimate,
)


def _group(rewards, logp_old=None, logp_ref=None, query_id="q"):
    n = len(rewards)
    logp_old = logp_old if logp_old is not None else [-1.0] * n
    logp_ref = logp_ref if logp_ref is not None else list(logp_old)
    return TrajectoryGroup(
        query_id,
        [
            ResponseRecord(f"r{i}", float(rewards[i]), float(logp_old[i]),
                           float(logp_ref[i]))
            for i in range(n)
        ],
    )


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_config_defaults_and_bands():
    cfg = OptimConfig()
    assert cfg.clip_band == (0.8, 1.2)
    assert cfg.effective_kl_beta == 0.04
    dapo = OptimConfig(algorithm="dapo")
    assert dapo.clip_band == (0.8, 1.28)
    assert dapo.effective_kl_beta == 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"algorithm": "ppo"},
        {"clip_eps_low": 1.0},
        {"clip_eps": 0.0},
        {"clip_eps": 1.0},
        {"clip_eps_high": -0.1},
        {"kl_beta": -0.01},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        OptimConfig(**kwargs)


# ---------------------------------------------------------------------------
# advantages
# ---------------------------------------------------------------------------


def test_two_element_group_normalizes_to_unit():
    assert np.allclose(compute_advantages([0.0, 2.0]), [-1.0, 1.0])


def test_pinned_four_element_group():
    assert np.allclose(
        compute_advantages([-3.0, 4.0, 4.0, -3.0]), [-1.0, 1.0, 1.0, -1.0]
    )


def test_degenerate_group_zeroes():
    assert np.allclose(compute_advantages([3.0, 3.0, 3.0, 3.0]), 0.0)


@pytest.mark.parametrize("spread", [1e-9, 5e-324])
def test_tiny_spread_is_not_degenerate(spread):
    # only equal rewards are degenerate, however small the spread; the
    # subnormal case would underflow a naive variance to 0
    assert np.array_equal(compute_advantages([0.0, spread]), [-1.0, 1.0])
    assert dapo_filter([_group([0.0, spread])]) != []


def test_single_reward_rejected():
    with pytest.raises(GroupTooSmall):
        compute_advantages([1.0])


@pytest.mark.parametrize("shape", [(3, 1), (2, 0), (2, 4, 1)])
def test_group_axis_shorter_than_two_rejected(shape):
    with pytest.raises(GroupTooSmall):
        compute_advantages(np.zeros(shape))


def test_fill_advantages_stores_on_group():
    g = _group([0.0, 2.0])
    adv = fill_advantages(g)
    assert g.advantages == [-1.0, 1.0]
    assert np.allclose(adv, [-1.0, 1.0])


def _resolved(values) -> bool:
    x = np.asarray(values, dtype=float)
    return bool(np.ptp(x) > 1e8 * np.spacing(np.abs(x).max()))


@settings(max_examples=200, deadline=None)
@given(
    rewards=st.lists(
        st.floats(min_value=-3.0, max_value=4.0, allow_nan=False),
        min_size=2,
        max_size=16,
    ),
    scale=st.floats(min_value=0.1, max_value=50.0),
    shift=st.floats(min_value=-100.0, max_value=100.0),
)
def test_advantages_affine_invariant(rewards, scale, shift):
    mapped = np.array([scale * r + shift for r in rewards])
    if max(rewards) != min(rewards):
        # Advantages keep to 1e-6 only where float64 resolves the spread:
        # rounding by one spacing of the largest magnitude (after the
        # shift, or in the group mean) must be tiny against it.
        assume(_resolved(rewards) and _resolved(mapped))
    base = compute_advantages(rewards)
    transformed = compute_advantages(mapped)
    if max(rewards) == min(rewards):
        # equal rewards stay equal under an affine map, so degenerate
        # groups stay degenerate
        assert np.all(base == 0.0) and np.all(transformed == 0.0)
    else:
        assert np.allclose(base, transformed, atol=1e-6)


@settings(max_examples=200, deadline=None)
@given(
    rewards=st.lists(
        st.floats(min_value=-3.0, max_value=4.0, allow_nan=False),
        min_size=2,
        max_size=16,
    )
)
# rewards one ulp apart, whose rounded mean used to equal the larger one
@example(rewards=[4.0, 3.9999999999999996])
@example(rewards=[4.0, 3.9999999999999996, 3.9999999999999996])
def test_advantages_zero_mean_unit_std(rewards):
    adv = compute_advantages(rewards)
    assert abs(adv.mean()) < 1e-9
    if not np.allclose(adv, 0.0):
        assert abs(adv.std(ddof=0) - 1.0) < 1e-9


_ULP_BELOW_4 = 3.9999999999999996


@st.composite
def _reward_row(draw, size):
    """Rewards of one group: free, all equal, or one ulp apart."""
    kind = draw(st.sampled_from(("free", "equal", "ulp")))
    if kind == "free":
        return draw(st.lists(st.floats(min_value=-3.0, max_value=4.0),
                             min_size=size, max_size=size))
    base = draw(st.floats(min_value=-3.0, max_value=4.0))
    if kind == "equal":
        return [base] * size
    below = float(np.nextafter(base, -np.inf))
    return [below if bit else base for bit in draw(
        st.lists(st.booleans(), min_size=size, max_size=size))]


@settings(max_examples=300, deadline=None)
@given(rewards=st.integers(min_value=2, max_value=20).flatmap(
    lambda size: st.lists(_reward_row(size), min_size=1, max_size=6)))
# the rewards one ulp apart whose rounded mean used to equal the larger one,
# a subnormal spread, a degenerate group and the widest spread
@example(rewards=[[4.0, _ULP_BELOW_4], [0.0, 5e-324], [3.0, 3.0],
                  [-3.0, 4.0]])
@example(rewards=[[4.0, _ULP_BELOW_4, _ULP_BELOW_4], [-3.0, -3.0, -3.0]])
def test_batched_advantages_equal_row_by_row(rewards):
    rewards = np.array(rewards)
    want = np.stack([compute_advantages(row) for row in rewards])
    assert compute_advantages(rewards).tobytes() == want.tobytes()
    assert compute_advantages(rewards[None]).tobytes() == want.tobytes()
    assert has_signal(rewards).tolist() == [
        dapo_filter([_group(row)]) != [] for row in rewards]


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_groups=st.integers(min_value=1, max_value=5),
    size=st.integers(min_value=2, max_value=10),
    n_factors=st.integers(min_value=0, max_value=6),
    algorithm=st.sampled_from(("grpo", "dapo")),
)
def test_batched_objective_and_gradient_rows_equal_group_calls(
        seed, n_groups, size, n_factors, algorithm):
    # n_factors 0: one sequence log-prob per response
    rng = np.random.default_rng(seed)
    shape = (n_groups, size) + ((n_factors,) if n_factors else ())
    rewards = rng.uniform(-3.0, 4.0, size=(n_groups, size))
    rewards[rng.random(n_groups) < 0.3] = 1.0  # degenerate groups
    old = rng.uniform(-2.0, -0.1, size=shape)
    new = old + rng.uniform(-0.3, 0.3, size=shape)  # both sides of the clip
    ref = old + rng.uniform(-0.5, 0.5, size=shape)
    cfg = OptimConfig(algorithm=algorithm)
    adv = compute_advantages(rewards)
    objectives, gradients = group_update(adv, new, old, ref, cfg)
    assert objectives.shape == (n_groups,)
    assert gradients.shape == shape
    for q in range(n_groups):
        group = _factor_group(rewards[q], old[q], ref[q])
        fill_advantages(group)
        assert (float(objectives[q]).hex()
                == grpo_objective(group, new[q], cfg).hex())
        assert (gradients[q].tobytes()
                == grpo_gradient(group, new[q], cfg).tobytes())


# ---------------------------------------------------------------------------
# KL estimator
# ---------------------------------------------------------------------------


def test_kl_pinned_value():
    # u = exp(ln 2) = 2 -> 2 - ln 2 - 1
    assert kl_estimate(0.0, math.log(2.0)) == pytest.approx(
        1.0 - math.log(2.0), abs=1e-12
    )


def test_kl_zero_iff_equal():
    assert kl_estimate(-1.5, -1.5) == 0.0
    assert kl_estimate(-1.5, -1.5 + 1e-6) > 0.0
    assert kl_estimate(-1.5, -1.5 - 1e-6) > 0.0


def test_kl_elementwise_array():
    out = kl_estimate(np.zeros(3), np.array([0.0, 0.1, -0.1]))
    assert out.shape == (3,)
    assert out[0] == 0.0 and out[1] > 0.0 and out[2] > 0.0


def test_kl_rejects_nonfinite_and_huge_gaps():
    with pytest.raises(ValueError):
        kl_estimate(0.0, float("nan"))
    with pytest.raises(ValueError):
        kl_estimate(0.0, MAX_LOGP_GAP + 1.0)


@settings(max_examples=300, deadline=None)
@given(
    a=st.floats(min_value=-40.0, max_value=0.0),
    b=st.floats(min_value=-40.0, max_value=0.0),
)
# exp(delta) rounds to 1.0 here, so u - delta - 1 is an ulp below 0
@example(a=-7.351998512358394e-17, b=0.0)
@example(a=0.0, b=1e-16)
def test_kl_nonnegative(a, b):
    if abs(a - b) <= MAX_LOGP_GAP:
        assert kl_estimate(a, b) >= 0.0


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------


def test_objective_on_policy_is_minus_beta_kl():
    g = _group([0.0, 2.0], logp_old=[-1.0, -2.0], logp_ref=[-1.3, -1.7])
    cfg = OptimConfig()
    fill_advantages(g)
    # on-policy: rho = 1 everywhere, surrogate = mean advantage = 0
    expected = -cfg.kl_beta * np.mean(
        kl_estimate(g.logp_old(), g.logp_ref())
    )
    assert grpo_objective(g, g.logp_old(), cfg) == pytest.approx(expected)


def test_objective_clips_positive_advantage():
    # single-direction check with beta disabled: A=+1, rho=1.5 clips to 1.2
    g = _group([0.0, 2.0])
    cfg = OptimConfig(kl_beta=1e-12)
    fill_advantages(g)
    logp_new = np.array([-1.0, -1.0 + math.log(1.5)])
    # element 0: A=-1, rho=1 -> -1; element 1: A=+1, rho=1.5 -> clipped 1.2
    assert grpo_objective(g, logp_new, cfg) == pytest.approx(
        (-1.0 + 1.2) / 2.0, abs=1e-9
    )


def test_objective_clips_negative_advantage():
    g = _group([2.0, 0.0])
    cfg = OptimConfig(kl_beta=1e-12)
    fill_advantages(g)
    logp_new = np.array([-1.0, -1.0 + math.log(0.5)])
    # element 1: A=-1, rho=0.5 -> min(-0.5, -0.8) = -0.8
    assert grpo_objective(g, logp_new, cfg) == pytest.approx(
        (1.0 - 0.8) / 2.0, abs=1e-9
    )


def test_dapo_band_wider_above():
    g = _group([0.0, 2.0])
    cfg = OptimConfig(algorithm="dapo")
    fill_advantages(g)
    logp_new = np.array([-1.0, -1.0 + math.log(1.25)])
    # rho=1.25 sits inside the asymmetric band [0.8, 1.28]: no clipping
    assert grpo_objective(g, logp_new, cfg) == pytest.approx(
        (-1.0 + 1.25) / 2.0, abs=1e-9
    )


def test_objective_requires_advantages():
    g = _group([0.0, 2.0])
    with pytest.raises(ValueError):
        grpo_objective(g, g.logp_old(), OptimConfig())


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------


def _finite_difference(g, logp_new, cfg, h=1e-6):
    grad = np.zeros_like(logp_new)
    for i in range(len(logp_new)):
        up = logp_new.copy()
        dn = logp_new.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (grpo_objective(g, up, cfg) - grpo_objective(g, dn, cfg)) / (
            2 * h
        )
    return grad


@pytest.mark.parametrize("algorithm", ["grpo", "dapo"])
def test_gradient_matches_finite_differences(algorithm):
    rng = np.random.default_rng(7)
    cfg = OptimConfig(algorithm=algorithm)
    checked = 0
    for _ in range(120):
        n = int(rng.integers(2, 9))
        rewards = rng.uniform(-3.0, 4.0, size=n)
        logp_old = rng.uniform(-5.0, -0.5, size=n)
        logp_ref = logp_old + rng.uniform(-0.4, 0.4, size=n)
        g = _group(rewards, logp_old, logp_ref)
        adv = fill_advantages(g)
        logp_new = logp_old + rng.uniform(-0.3, 0.3, size=n)
        rho = np.exp(logp_new - logp_old)
        lo, hi = cfg.clip_band
        # keep away from the clip kinks where the derivative jumps
        if np.any(np.abs(rho - lo) < 1e-3) or np.any(np.abs(rho - hi) < 1e-3):
            continue
        if np.allclose(adv, 0.0):
            continue
        analytic = grpo_gradient(g, logp_new, cfg)
        numeric = _finite_difference(g, logp_new, cfg)
        scale = np.maximum(np.abs(numeric), 1e-8)
        assert np.all(np.abs(analytic - numeric) / scale < 1e-4)
        checked += 1
    assert checked > 60


def test_gradient_zero_when_clipped_out():
    g = _group([0.0, 2.0])
    cfg = OptimConfig(kl_beta=1e-12)
    fill_advantages(g)
    # element 1 has A=+1 and rho far above the band: inactive
    logp_new = np.array([-1.0, -1.0 + math.log(2.0)])
    grad = grpo_gradient(g, logp_new, cfg)
    assert grad[1] == pytest.approx(0.0, abs=1e-10)
    # element 0 has A=-1 and rho=1 (inside): active, negative direction
    assert grad[0] < 0.0


def test_gradient_keeps_kl_term_when_clipped():
    g = _group([0.0, 2.0], logp_old=[-1.0, -1.0], logp_ref=[-1.0, -1.0])
    cfg = OptimConfig(kl_beta=0.5)
    fill_advantages(g)
    logp_new = np.array([-1.0, -1.0 + math.log(2.0)])
    grad = grpo_gradient(g, logp_new, cfg)
    u1 = math.exp(-1.0 - logp_new[1])
    assert grad[1] == pytest.approx(-0.5 * (1.0 - u1) / 2.0, abs=1e-12)


def _factor_group(rewards, logp_old, logp_ref):
    return TrajectoryGroup(
        "q",
        [ResponseRecord(f"r{i}", float(r), logp_old[i], logp_ref[i])
         for i, r in enumerate(rewards)],
    )


def test_factor_rows_share_the_sequence_surrogate():
    # without a KL term each factor's coefficient is its row's sequence
    # coefficient: the surrogate reads only the row sums
    rng = np.random.default_rng(3)
    rewards = rng.uniform(-3.0, 4.0, size=6)
    old = rng.uniform(-2.0, -0.1, size=(6, 5))
    new = old + rng.uniform(-0.05, 0.05, size=(6, 5))
    cfg = OptimConfig(algorithm="dapo")
    rows = _factor_group(rewards, old, old)
    seq = _group(rewards, old.sum(1))
    fill_advantages(rows)
    fill_advantages(seq)
    assert grpo_objective(rows, new, cfg) == pytest.approx(
        grpo_objective(seq, new.sum(1), cfg), rel=1e-12)
    grad = grpo_gradient(rows, new, cfg)
    assert grad.shape == (6, 5)
    assert np.allclose(grad, grpo_gradient(seq, new.sum(1), cfg)[:, None],
                       rtol=1e-12, atol=0.0)


def test_objective_sums_kl_over_factors():
    rng = np.random.default_rng(4)
    old = rng.uniform(-2.0, -0.1, size=(4, 3))
    ref = old + rng.uniform(-0.5, 0.5, size=(4, 3))
    g = _factor_group([0.0, 1.0, 2.0, 3.0], old, ref)
    fill_advantages(g)
    cfg = OptimConfig()
    # on-policy the surrogate is the mean advantage, 0
    assert grpo_objective(g, old, cfg) == pytest.approx(
        -cfg.kl_beta * kl_estimate(old, ref).sum() / 4, abs=1e-15)
    with pytest.raises(ValueError):
        grpo_objective(g, old[:, :2], cfg)


def test_kl_coefficients_stay_bounded_per_factor():
    # one response sits 10 nats below the reference, spread over 10
    # factors; as one sequence-level factor its KL coefficient would be
    # beta * (e^10 - 1) / G, nearly a thousand times the advantage term
    rng = np.random.default_rng(967)
    G, F = 8, 10
    rewards = rng.uniform(-3.0, 4.0, size=G)
    logp = rng.uniform(-2.0, -0.1, size=(G, F))
    ref = logp.copy()
    ref[0] += 1.0

    def kl_share(old, ref):
        g = _factor_group(rewards, old, ref)
        fill_advantages(g)
        advantage = grpo_gradient(g, old, OptimConfig(kl_beta=0.0))
        kl = grpo_gradient(g, old, OptimConfig()) - advantage
        return np.abs(kl).max() / np.abs(advantage).max()

    assert kl_share(logp, ref) <= 1.0
    assert kl_share(logp.sum(1), ref.sum(1)) > 100.0


# ---------------------------------------------------------------------------
# dynamic sampling
# ---------------------------------------------------------------------------


def test_dapo_filter_drops_degenerate_groups():
    live = _group([0.0, 2.0])
    flat_low = _group([-3.0, -3.0, -3.0])
    flat_high = _group([4.0, 4.0])
    kept = dapo_filter([live, flat_low, flat_high])
    assert kept == [live]


def test_dapo_filter_keeps_order():
    a = _group([0.0, 1.0], query_id="a")
    b = _group([1.0, 0.0], query_id="b")
    assert [g.query_id for g in dapo_filter([a, b])] == ["a", "b"]

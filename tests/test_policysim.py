"""Toy-policy simulator: factorized action distribution and training loop."""

import dataclasses
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attrilens import grpo, policysim, rewards
from attrilens._data import BUNDLED_RANGE_TABLES, data_path
from attrilens.policysim import (
    Action,
    ConfigError,
    PolicyParams,
    TrainConfig,
    TrainingCurves,
    _actions,
    _add_score,
    _draw,
    _draw_softmax,
    _factor_logp,
    _given,
    _live_mass,
    _Table,
    action_logp,
    export_curves,
    load_sim_dataset,
    sample_response,
    train,
)
from attrilens.response import CLASSIFICATION, PromptSpec, parse_response
from attrilens.rewards import (REWARD_COMPONENTS, RangeTable, claim_in_range,
                               load_range_table, total_reward)


def _random_policy(rng, n_attrs=3, max_count=2, n_queries=1):
    policy = PolicyParams.zeros(n_attrs=n_attrs, n_queries=n_queries,
                                max_count=max_count)
    policy.logit_format = float(rng.normal())
    policy.logits_count[:] = rng.normal(size=max_count + 1)
    policy.logits_attr[:] = rng.normal(size=n_attrs)
    policy.logits_polarity[:] = rng.normal(size=n_attrs)
    policy.logits_answer[:] = rng.normal(size=n_queries)
    return policy


def _all_actions(n_attrs, max_count):
    formats = [(True, None)] + [(False, tag) for tag in
                                ("think", "name", "answer")]
    for fmt, omit in formats:
        for count in range(max_count + 1):
            for attrs in itertools.permutations(range(n_attrs), count):
                for polarities in itertools.product((0, 1), repeat=count):
                    for answer in (False, True):
                        yield Action(fmt, omit, count, attrs, polarities,
                                     answer)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def test_zeros_shapes_default_vocabulary():
    policy = PolicyParams.zeros()
    assert policy.n_attrs == 14
    assert policy.max_count == 12
    assert policy.logits_answer.shape == (1,)


def test_zeros_rejects_count_above_vocabulary():
    with pytest.raises(ConfigError):
        PolicyParams.zeros(n_attrs=5, max_count=6)


def test_copy_is_independent():
    policy = PolicyParams.zeros(n_attrs=3, max_count=2)
    clone = policy.copy()
    clone.logits_attr[0] = 9.0
    clone.logit_format = 1.0
    assert policy.logits_attr[0] == 0.0
    assert policy.logit_format == 0.0


def test_zeros_like_matches_shapes():
    rng = np.random.default_rng(2)
    policy = _random_policy(rng, n_attrs=4, max_count=3, n_queries=2)
    zero = policy.zeros_like()
    assert zero.logit_format == 0.0
    for name in ("logits_count", "logits_attr", "logits_polarity",
                 "logits_answer"):
        assert getattr(zero, name).shape == getattr(policy, name).shape
        assert not getattr(zero, name).any()


def test_add_scaled():
    a = PolicyParams.zeros(n_attrs=2, max_count=1)
    b = PolicyParams.zeros(n_attrs=2, max_count=1)
    b.logit_format = 2.0
    b.logits_attr[:] = [1.0, -1.0]
    a.add_scaled(b, 0.5)
    assert a.logit_format == 1.0
    assert np.allclose(a.logits_attr, [0.5, -0.5])


# ---------------------------------------------------------------------------
# exact factorization
# ---------------------------------------------------------------------------


def test_action_probabilities_sum_to_one():
    rng = np.random.default_rng(3)
    policy = _random_policy(rng)
    total = 0.0
    for action in _all_actions(3, 2):
        logp, _ = action_logp(policy, action, 0, temperature=0.6)
        total += math.exp(logp)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_malformed_mass_splits_uniformly_over_omissions():
    rng = np.random.default_rng(4)
    policy = _random_policy(rng)
    base = Action(False, "think", 0, (), (), True)
    logps = []
    for omit in ("think", "name", "answer"):
        action = Action(False, omit, 0, (), (), True)
        logps.append(action_logp(policy, action, 0, 0.6)[0])
    assert logps[0] == pytest.approx(logps[1]) == pytest.approx(logps[2])
    well = action_logp(policy, Action(True, None, 0, (), (), True), 0, 0.6)[0]
    p_ok = 1.0 / (1.0 + math.exp(-policy.logit_format / 0.6))
    # odds of the format bit carry over exactly, modulo the 1/3 omit choice
    assert math.exp(logps[0]) * 3 / math.exp(well) == pytest.approx(
        (1 - p_ok) / p_ok
    )


def test_score_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    policy = _random_policy(rng, n_attrs=4, max_count=3, n_queries=2)
    action = Action(True, None, 2, (1, 3), (1, 0), False)
    T = 0.7
    logp, grad = action_logp(policy, action, 1, T)
    h = 1e-6

    def perturbed(setter):
        clone = policy.copy()
        setter(clone)
        return action_logp(clone, action, 1, T)[0]

    # format logit
    up = perturbed(lambda p: setattr(p, "logit_format", p.logit_format + h))
    dn = perturbed(lambda p: setattr(p, "logit_format", p.logit_format - h))
    assert grad.logit_format == pytest.approx((up - dn) / (2 * h), abs=1e-5)

    def check_array(attr, index, expected):
        def bump(p, delta, a=attr, i=index):
            getattr(p, a)[i] += delta

        up = perturbed(lambda p: bump(p, h))
        dn = perturbed(lambda p: bump(p, -h))
        assert expected == pytest.approx((up - dn) / (2 * h), abs=1e-5)

    for i in range(policy.logits_count.size):
        check_array("logits_count", i, grad.logits_count[i])
    for i in range(policy.n_attrs):
        check_array("logits_attr", i, grad.logits_attr[i])
        check_array("logits_polarity", i, grad.logits_polarity[i])
    for i in range(2):
        check_array("logits_answer", i, grad.logits_answer[i])


@pytest.mark.parametrize(
    "action",
    [
        Action(True, None, 2, (0,), (1,), True),         # too few attrs
        Action(True, None, 1, (0, 1), (1, 0), True),     # too many attrs
        Action(True, None, 1, (0,), (), True),           # missing polarity
        Action(True, "think", 0, (), (), True),          # omit when well formed
        Action(True, None, 1, (3,), (1,), True),         # index past the end
        Action(True, None, 1, (-1,), (1,), True),        # negative index
        Action(True, None, 2, (0, 0), (1, 1), True),     # repeated attr
        Action(True, None, 3, (0, 1, 2), (1, 1, 1), True),  # count past head
        Action(2, None, 0, (), (), True),                # format not a bit
        Action(None, "think", 0, (), (), True),          # format not a bit
        Action(True, None, 0, (), (), 2),                # answer not a bit
        Action(True, None, 0, (), (), None),             # answer not a bit
    ],
)
def test_action_logp_rejects_inconsistent_action(action):
    policy = PolicyParams.zeros(n_attrs=3, max_count=2)
    with pytest.raises(ValueError):
        action_logp(policy, action, 0, 0.6)


def test_query_without_answer_logit_raises():
    policy = PolicyParams.zeros(n_attrs=3, max_count=2, n_queries=2)
    for query in (-1, 2):
        with pytest.raises(ValueError, match=f"query {query}"):
            action_logp(policy, Action(True, None, 0, (), (), True), query,
                        0.6)
    table = _Table(policy, 0.6)
    rngs = [np.random.default_rng(0), np.random.default_rng(1)]
    assert _draw(table, rngs, 2, [1, 0]).bit_at[:, 1].tolist() == [5, 5, 4, 4]
    with pytest.raises(ValueError, match="query 2"):
        _draw(table, rngs, 2, [0, 2])


def test_logp_layers_accumulate():
    # adding one claim can only lower the log-probability
    policy = PolicyParams.zeros(n_attrs=3, max_count=2)
    short = Action(True, None, 1, (0,), (1,), True)
    # same count bucket, one extra polarity/attr factor
    longer = Action(True, None, 2, (0, 1), (1, 1), True)
    lp_short = action_logp(policy, short, 0, 0.6)[0]
    lp_longer = action_logp(policy, longer, 0, 0.6)[0]
    assert lp_longer < lp_short


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _prompt():
    return PromptSpec(CLASSIFICATION, "CCO", "BBBP")


def test_sampling_deterministic_per_seed():
    policy = PolicyParams.zeros()
    a = sample_response(policy, _prompt(), np.random.default_rng(5))
    b = sample_response(policy, _prompt(), np.random.default_rng(5))
    assert a == b
    c = sample_response(policy, _prompt(), np.random.default_rng(6))
    assert a != c


def test_sampled_logp_matches_recomputation():
    policy = PolicyParams.zeros()
    rng = np.random.default_rng(7)
    for _ in range(20):
        out = sample_response(policy, _prompt(), rng)
        again, score = action_logp(policy, out.action, 0, 0.6)
        assert out.logp == pytest.approx(again, abs=1e-12)
        assert out.logp < 0.0
        assert out.score.logit_format == score.logit_format
        for name in ("logits_count", "logits_attr", "logits_polarity",
                     "logits_answer"):
            assert np.array_equal(getattr(out.score, name),
                                  getattr(score, name))


def test_sampled_text_parses_consistently_with_format_bit():
    policy = PolicyParams.zeros()
    rng = np.random.default_rng(8)
    seen = {True: 0, False: 0}
    for _ in range(60):
        out = sample_response(policy, _prompt(), rng)
        parsed = parse_response(out.text)
        assert parsed.format_ok == out.action.format_ok
        if out.action.format_ok:
            assert len(parsed.claims) == out.action.count
        seen[out.action.format_ok] += 1
    assert seen[True] > 0 and seen[False] > 0


_COUNT_BOUNDS = [(3, 10), (0, 12), (5, 5), (0, 0)]


def _range_tables():
    """Both bundled tables and one with some descriptors removed, under
    which some claims are unverifiable."""
    bundled = [load_range_table(name) for name in BUNDLED_RANGE_TABLES]
    removed = ("MolLogP", "TPSA", "RingCount")
    partial = RangeTable({target: {name: ivs for name, ivs in rows.items()
                                   if name not in removed}
                          for target, rows in bundled[0].entries.items()},
                         "partial")
    return [*bundled, partial]


def _assert_rows_scored_as_text(group, dataset, range_table, count_bounds):
    """Each row of the step's reward array equals the components of
    ``total_reward`` over the parse of the row's rendered text; the group
    has the same number of rows for each query of ``dataset``."""
    vocab = policysim._vocabulary(PolicyParams.zeros())
    verdicts = policysim._claim_verdicts(dataset, range_table, vocab)
    rewards = policysim._step_rewards(TrainConfig(count_bounds=count_bounds),
                                      dataset, verdicts, group)
    G = len(rewards) // len(dataset)
    for row, action in enumerate(_actions(group)):
        query = dataset[row // G]
        text = policysim._render_action(action, vocab)
        bd = total_reward(parse_response(text), query.molecule, query.label,
                          query.prompt.target, range_table,
                          count_bounds=count_bounds)
        assert rewards[row].tolist() == list(bd.components), text
    return verdicts


def test_given_actions_parse_as_built():
    # every omit choice with its format bit, every count, all-promotes,
    # all-inhibits and mixed polarities, both answers; the attributes
    # rotate so that every vocabulary name is claimed; each query label,
    # range table and count band
    policy = PolicyParams.zeros()
    n, K = policy.n_attrs, policy.max_count
    formats = [(True, None)] + [(False, tag) for tag in
                                ("think", "name", "answer")]
    actions = []
    for (fmt, omit), count, answer in itertools.product(
            formats, range(K + 1), (False, True)):
        attrs = tuple((count + t) % n for t in range(count))
        for polarities in dict.fromkeys([(1,) * count, (0,) * count,
                                         tuple(t % 2 for t in range(count))]):
            actions.append(Action(fmt, omit, count, attrs, polarities,
                                  answer))
    assert len(actions) == 4 * 2 * (1 + 2 + 3 * (K - 1))
    group = _given(_Table(policy, 0.6), 0, actions)
    toy = load_sim_dataset(data_path("toy_train.csv"))
    unverifiable = []
    for query, range_table, count_bounds in itertools.product(
            (toy[0], toy[7]), _range_tables(), _COUNT_BOUNDS):
        verifiable, _ = _assert_rows_scored_as_text(
            group, [query], range_table, count_bounds)
        unverifiable.append(not verifiable.all())
    assert {toy[0].label, toy[7].label} == {True, False}
    # only the partial table leaves claims unverifiable
    assert unverifiable == ([False] * 8 + [True] * 4) * 2


@pytest.mark.parametrize("scale", [0.0, 1.0, 6.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_drawn_actions_parse_as_built(seed, scale):
    # actions drawn by the training sampler, at logits from flat to
    # nearly deterministic, for a query of each label
    rng = np.random.default_rng(seed)
    policy = _random_policy(rng, n_attrs=14, max_count=12, n_queries=2)
    policy.add_scaled(policy.copy(), scale - 1.0)
    table = _Table(policy, 0.6)
    group = _draw(table, [rng, np.random.default_rng(seed + 10)], 64, [0, 1])
    toy = load_sim_dataset(data_path("toy_train.csv"))
    for range_table, count_bounds in itertools.product(_range_tables(),
                                                       _COUNT_BOUNDS):
        _assert_rows_scored_as_text(group, [toy[0], toy[7]], range_table,
                                    count_bounds)


def test_format_logit_controls_malformedness():
    policy = PolicyParams.zeros()
    policy.logit_format = 8.0
    rng = np.random.default_rng(9)
    assert all(
        sample_response(policy, _prompt(), rng).action.format_ok
        for _ in range(50)
    )


def test_sampler_rejects_regression_prompts():
    policy = PolicyParams.zeros()
    with pytest.raises(ConfigError):
        sample_response(
            policy,
            PromptSpec("regression", "CCO", "ESOL"),
            np.random.default_rng(0),
        )


def test_attr_draws_are_distinct():
    policy = PolicyParams.zeros()
    rng = np.random.default_rng(10)
    for _ in range(40):
        out = sample_response(policy, _prompt(), rng)
        assert len(set(out.action.attrs)) == len(out.action.attrs)


def test_nan_count_logit_raises_value_error():
    policy = PolicyParams.zeros()
    policy.logits_count[2] = math.nan
    with pytest.raises(ValueError):
        sample_response(policy, _prompt(), np.random.default_rng(0))


@pytest.mark.parametrize(
    "field, index",
    [("logits_count", 2), ("logits_attr", 0), ("logits_polarity", 0),
     ("logits_answer", 0), ("logit_format", None)],
)
def test_nan_logit_fails_table_build(field, index):
    policy = PolicyParams.zeros()
    if index is None:
        setattr(policy, field, math.nan)
    else:
        getattr(policy, field)[index] = math.nan
    with pytest.raises(ValueError):
        sample_response(policy, _prompt(), np.random.default_rng(0))
    with pytest.raises(ValueError):
        action_logp(policy, Action(True, None, 0, (), (), True), 0, 0.6)


def test_count_above_vocabulary_raises_value_error():
    # a count head with more entries than attributes, almost surely count 3
    policy = PolicyParams(0.0, np.array([0.0, 0.0, 0.0, 50.0]), np.zeros(2),
                          np.zeros(2), np.zeros(1))
    with pytest.raises(ValueError):
        sample_response(policy, _prompt(), np.random.default_rng(0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_temperature_raises_value_error():
    policy = PolicyParams.zeros()
    policy.logits_count[0] = 1.0  # 1.0 / 1e-320 overflows to inf
    with pytest.raises(ValueError):
        sample_response(policy, _prompt(), np.random.default_rng(0),
                        temperature=1e-320)


# ---------------------------------------------------------------------------
# Gumbel-top-k draws and Plackett-Luce log-probs
# ---------------------------------------------------------------------------


def _sigmoid(x):
    if x >= 0:
        return 1.0 / (1.0 + np.exp(-x))
    e = np.exp(x)
    return e / (1.0 + e)


def _sequential_softmax(z, attrs):
    """``(logp, p_sum, p_min)`` of drawing ``attrs`` in order from the
    logits ``z``, one masked numpy softmax per draw: the log-prob, the sum
    of the softmaxes and the smallest drawn probability. None when a draw
    finds no live mass."""
    mask = np.zeros(z.size, dtype=bool)
    logp, p_sum, p_min = 0.0, np.zeros(z.size), 1.0
    for idx in attrs:
        live = np.where(mask, -np.inf, z)
        if live.max() == -np.inf:
            return None
        e = np.exp(live - live.max())
        p = e / e.sum()
        with np.errstate(divide="ignore"):  # p = 0 when z = -inf
            logp += np.log(p[idx])
        p_sum += p
        p_min = min(p_min, p[idx])
        mask[idx] = True
    return float(logp), p_sum, p_min


def _reference_factors(policy, action, query_index, T):
    """Per-draw replay of ``action``: each factor's log-prob and score, in
    the group layout (format with the omit choice, answer, one polarity
    per draw slot, count, one attribute draw per slot; a slot past the
    count is 0). Every factor's sigmoid or softmax is recomputed in numpy,
    each attribute draw from a softmax over the attributes not yet drawn."""
    K = policy.max_count
    logps = np.zeros(2 * K + 3)
    scores = [policy.zeros_like() for _ in logps]
    p_ok = _sigmoid(policy.logit_format / T)
    logps[0] = np.log(p_ok if action.format_ok else 1.0 - p_ok)
    if not action.format_ok:
        logps[0] += np.log(1.0 / 3)
    scores[0].logit_format = (action.format_ok - p_ok) / T
    p_true = _sigmoid(policy.logits_answer[query_index] / T)
    logps[1] = np.log(p_true if action.answer else 1.0 - p_true)
    scores[1].logits_answer[query_index] = (action.answer - p_true) / T
    z = policy.logits_count / T
    p_count = np.exp(z - z.max()) / np.exp(z - z.max()).sum()
    logps[2 + K] = np.log(p_count[action.count])
    scores[2 + K].logits_count = -p_count / T
    scores[2 + K].logits_count[action.count] += 1.0 / T
    z, drawn = policy.logits_attr / T, np.zeros(policy.n_attrs, dtype=bool)
    for t, (idx, bit) in enumerate(zip(action.attrs, action.polarities)):
        p_pro = _sigmoid(policy.logits_polarity[idx] / T)
        logps[2 + t] = np.log(p_pro if bit else 1.0 - p_pro)
        scores[2 + t].logits_polarity[idx] = (bit - p_pro) / T
        live = np.where(drawn, -np.inf, z)
        p = np.exp(live - live.max())
        p /= p.sum()
        logps[3 + K + t] = np.log(p[idx])
        scores[3 + K + t].logits_attr = -p / T
        scores[3 + K + t].logits_attr[idx] += 1.0 / T
        drawn[idx] = True
    return logps, scores


def _weighted(policy, scores, weights):
    total = policy.zeros_like()
    for score, weight in zip(scores, weights):
        total.add_scaled(score, float(weight))
    return total


def _reference_logp(policy, action, query_index, T):
    """The sums over the factors of :func:`_reference_factors`:
    (logp, score)."""
    logps, scores = _reference_factors(policy, action, query_index, T)
    return float(logps.sum()), _weighted(policy, scores, np.ones(len(logps)))


_SCORE_FIELDS = ("logit_format", "logits_count", "logits_attr",
                 "logits_polarity", "logits_answer")


def _score_bytes(score):
    return tuple(np.asarray(getattr(score, name), dtype=float).tobytes()
                 for name in _SCORE_FIELDS)


def _assert_score_close(got, want):
    for name in _SCORE_FIELDS:
        assert getattr(got, name) == pytest.approx(getattr(want, name),
                                                   rel=1e-12)


def _reference_group(policy, rng, size, query_index, T):
    """Per-draw sampler on the same four RNG calls as the group sampler:
    one uniform per bit (format, answer, then the polarity of each draw
    slot), one omit choice, and Gumbel noise for the count and for the
    attributes of each response. Each bit compares its uniform with its own
    sigmoid, the count is the largest perturbed numpy log-softmax entry,
    and each attribute the largest perturbed logit not yet drawn. Returns
    (action, logp, score) per response, from :func:`_reference_logp`."""
    u = rng.random((size, 2 + policy.max_count))
    omit = rng.integers(3, size=size)
    count_noise = rng.gumbel(size=(size, policy.max_count + 1))
    attr_noise = rng.gumbel(size=(size, policy.n_attrs))
    z = policy.logits_count / T
    count_logp = z - (z.max() + np.log(np.exp(z - z.max()).sum()))
    out = []
    for i in range(size):
        format_ok = bool(u[i, 0] < _sigmoid(policy.logit_format / T))
        count = int((count_logp + count_noise[i]).argmax())
        perturbed = policy.logits_attr / T + attr_noise[i]
        attrs = []
        for _ in range(count):
            idx = int(perturbed.argmax())
            perturbed[idx] = -np.inf
            attrs.append(idx)
        polarities = tuple(
            int(u[i, 2 + t] < _sigmoid(policy.logits_polarity[idx] / T))
            for t, idx in enumerate(attrs))
        answer = bool(u[i, 1]
                      < _sigmoid(policy.logits_answer[query_index] / T))
        action = Action(format_ok,
                        None if format_ok else ("think", "name",
                                                "answer")[int(omit[i])],
                        count, tuple(attrs), polarities, answer)
        out.append((action, *_reference_logp(policy, action, query_index, T)))
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampling_is_bit_identical_to_per_draw_sampler(seed):
    # the actions and the RNG stream are bit-identical; logp and score are
    # summed in another order, so they agree to 1e-12 relative. Odd rounds
    # draw one response through sample_response, even rounds a group.
    rng = np.random.default_rng(100 + seed)
    policy = _random_policy(rng, n_attrs=14, max_count=12, n_queries=3)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    counts = set()
    for i in range(60):
        qid, T = i % 3, (0.6, 1.3)[i // 2 % 2]
        if i % 2:
            out = sample_response(policy, _prompt(), ours, qid, T)
            got = [(out.action, out.logp, out.score)]
        else:
            table = _Table(policy, T)
            group = _draw(table, [ours], 2 + i % 7, [qid])
            live = _live_mass(table, group)
            logp = _factor_logp(table, group, live)
            got = []
            for row, action in enumerate(_actions(group)):
                coeff, score = np.zeros_like(logp), policy.zeros_like()
                coeff[row] = 1.0
                _add_score(table, group, live, coeff, score)
                got.append((action, logp[row].sum(), score))
        want = _reference_group(policy, theirs, len(got), qid, T)
        for (action, logp, score), (want_action, want_logp, want_score) \
                in zip(got, want):
            assert action == want_action
            assert logp == pytest.approx(want_logp, rel=1e-12)
            _assert_score_close(score, want_score)
            again, again_score = action_logp(policy, action, qid, T)
            assert again == pytest.approx(want_logp, rel=1e-12)
            _assert_score_close(again_score, want_score)
            counts.add(action.count)
        assert ours.bit_generator.state == theirs.bit_generator.state
    assert len(counts) >= 5


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    size=st.integers(min_value=1, max_value=8),
    n_attrs=st.integers(min_value=1, max_value=14),
    T=st.floats(min_value=0.3, max_value=2.0),
    data=st.data(),
)
def test_group_gradient_is_the_weighted_sum_of_scores(seed, size, n_attrs, T,
                                                      data):
    max_count = data.draw(st.integers(min_value=0, max_value=n_attrs))
    rng = np.random.default_rng(seed)
    policy = _random_policy(rng, n_attrs, max_count, n_queries=2)
    table = _Table(policy, T)
    group = _draw(table, [rng], size, [1])
    live = _live_mass(table, group)
    coeff = rng.normal(size=(size, 2 * max_count + 3))
    per_row = np.repeat(coeff[:, :1], coeff.shape[1], axis=1)
    got, got_rows = policy.zeros_like(), policy.zeros_like()
    _add_score(table, group, live, coeff, got)
    _add_score(table, group, live, per_row, got_rows)
    factors, rows = [], []
    for i, action in enumerate(_actions(group)):
        _, scores = _reference_factors(policy, action, 1, T)
        factors.append(_weighted(policy, scores, coeff[i]))
        rows.append(action_logp(policy, action, 1, T)[1])
    _assert_score_close(got, _weighted(policy, factors, np.ones(size)))
    _assert_score_close(got_rows, _weighted(policy, rows, per_row[:, 0]))


def test_ordered_draws_follow_plackett_luce_probabilities():
    # every ordered draw of at most 2 of 4 attributes: 1 + 4 + 12 outcomes,
    # drawn as one group
    policy = PolicyParams.zeros(n_attrs=4, max_count=2)
    policy.logits_count[:] = [0.3, -0.2, 0.5]
    policy.logits_attr[:] = [0.8, 0.2, -0.3, -0.9]
    table = _Table(policy, 0.6)
    n = 40_000
    group = _draw(table, [np.random.default_rng(31)], n, [0])
    seen = Counter(action.attrs for action in _actions(group))
    outcomes = [attrs for count in range(3)
                for attrs in itertools.permutations(range(4), count)]
    assert set(seen) <= set(outcomes)
    given = _given(table, 0, [Action(True, None, len(attrs), attrs,
                                     (0,) * len(attrs), True)
                              for attrs in outcomes])
    # the count factor and the two draw slots
    expected = n * np.exp(
        _factor_logp(table, given, _live_mass(table, given))[:, 4:].sum(1))
    assert expected.sum() == pytest.approx(n)
    observed = np.array([seen[attrs] for attrs in outcomes])
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert chi2 < 39.25, chi2  # P(chi2 > 39.25) = 0.001 at 16 dof


def _plackett_luce(z, attrs):
    """The attribute draws' log-prob and the sum of their softmaxes, from
    the group scorer: a policy with logits ``z`` at T = 1, one slot per
    attribute."""
    policy = PolicyParams.zeros(n_attrs=z.size, max_count=z.size)
    policy.logits_attr[:] = z
    table = _Table(policy, 1.0)
    group = _given(table, 0, [Action(True, None, len(attrs), attrs,
                                     (0,) * len(attrs), True)])
    live = _live_mass(table, group)
    logp = _factor_logp(table, group, live)[0, 3 + z.size:].sum()
    weight = group.mask[:, 3 + z.size:].astype(float)
    return float(logp), _draw_softmax(table, group, live, weight)


@settings(max_examples=300, deadline=None)
@example(z=[0.0, -800.0, -900.0], shift=0.0, order=[1, 2, 0], k=2)
@example(z=[0.0, -math.inf], shift=0.0, order=[1, 0], k=1)
@example(z=[-math.inf, 0.0], shift=0.0, order=[1, 0], k=2)
@given(
    z=st.lists(st.floats(min_value=-1000.0, max_value=0.0)
               | st.just(-math.inf), min_size=1, max_size=14),
    shift=st.floats(min_value=-100.0, max_value=100.0),
    order=st.permutations(range(14)),
    k=st.integers(min_value=0, max_value=14),
)
def test_plackett_luce_matches_sequential_softmax(z, shift, order, k):
    z = np.array(z) + shift
    attrs = tuple(i for i in order if i < z.size)[:k]
    want = _sequential_softmax(z, attrs)
    if want is None:
        with pytest.raises(ValueError):
            _plackett_luce(z, attrs)
        return
    logp, p_sum = _plackett_luce(z, attrs)
    want_logp, want_sum, p_min = want
    if p_min < np.finfo(float).tiny and np.isfinite(z[list(attrs)]).all():
        assert math.isfinite(logp)  # numpy's draw probability underflows
    else:
        assert logp == pytest.approx(want_logp, rel=1e-12)
    assert p_sum == pytest.approx(want_sum, rel=1e-12)


def test_logp_stays_finite_where_the_softmax_underflows():
    policy = PolicyParams.zeros(n_attrs=3, max_count=2)
    policy.logits_attr[:] = [0.0, -800.0, -900.0]
    action = Action(True, None, 2, (1, 2), (0, 1), True)
    logp, _ = action_logp(policy, action, 0, 1.0)
    # the two draws, four fair bits and a uniform count over 0..2
    assert logp == pytest.approx(-1700.0 + 4 * math.log(0.5) - math.log(3),
                                 rel=1e-12)


def test_step_tables_match_action_logp():
    rng = np.random.default_rng(21)
    policy = _random_policy(rng, n_attrs=14, max_count=12, n_queries=2)
    reference = _random_policy(rng, n_attrs=14, max_count=12, n_queries=2)
    T = 0.6
    current, frozen = _Table(policy, T), _Table(reference, T)
    draws = np.random.default_rng(22)
    for qid in (0, 1) * 25:
        group = _draw(current, [draws], 4, [qid])
        live = _live_mass(current, group)
        logp = _factor_logp(current, group, live).sum(1)
        logp_ref = _factor_logp(frozen, group,
                                _live_mass(frozen, group)).sum(1)
        for row, action in enumerate(_actions(group)):
            coeff, score = np.zeros((4, 27)), policy.zeros_like()
            coeff[row] = 1.0
            _add_score(current, group, live, coeff, score)
            again, again_score = action_logp(policy, action, qid, T)
            assert logp[row] == again
            assert _score_bytes(score) == _score_bytes(again_score)
            assert logp_ref[row] == action_logp(reference, action, qid, T)[0]


# ---------------------------------------------------------------------------
# dataset loading
# ---------------------------------------------------------------------------


def test_bundled_toy_dataset_loads():
    queries = load_sim_dataset(data_path("toy_train.csv"))
    assert len(queries) == 12
    assert {q.label for q in queries} == {True, False}
    assert all(q.prompt.task == CLASSIFICATION for q in queries)


@pytest.mark.parametrize(
    "content",
    [
        "smiles,target,task\nCCO,BBBP,classification\n",          # missing col
        "smiles,target,task,label\nCCO,ESOL,regression,True\n",   # bad task
        "smiles,target,task,label\nC(C,BBBP,classification,True\n",
        "smiles,target,task,label\nCCO,BBBP,classification,maybe\n",
        "smiles,target,task,label\n",                             # empty
    ],
)
def test_dataset_errors(tmp_path, content):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(ConfigError):
        load_sim_dataset(path)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"steps": 0},
        {"seed": -1},
        {"temperature": 0.0},
        {"temperature": math.inf},
        {"temperature": math.nan},
        {"temperature": 1e-320},
        {"temperature": 5e-324},
        {"learning_rate": -5.0},
        {"learning_rate": 0.0},
        {"learning_rate": math.nan},
        {"learning_rate": math.inf},
        {"group_size": 1},
        {"count_bounds": (5, 3)},
        {"algorithm": "ppo"},
    ],
)
def test_train_config_validation(kwargs):
    with pytest.raises(ConfigError):
        TrainConfig(**kwargs)


def test_train_config_optim_mapping():
    cfg = TrainConfig(algorithm="dapo", group_size=4)
    optim = cfg.optim()
    assert optim.algorithm == "dapo"


def test_train_requires_dataset():
    with pytest.raises(ConfigError):
        train(TrainConfig(steps=1))
    with pytest.raises(ConfigError, match="empty dataset"):
        train(TrainConfig(steps=1), dataset=[])


@pytest.fixture(scope="module")
def tiny_dataset():
    return load_sim_dataset(data_path("toy_train.csv"))[:3]


def test_train_smoke_and_determinism(tiny_dataset):
    cfg = TrainConfig(steps=4, seed=12)
    curves_a, policy_a = train(cfg, dataset=tiny_dataset)
    curves_b, policy_b = train(cfg, dataset=tiny_dataset)
    assert curves_a.steps == [1, 2, 3, 4]
    assert curves_a.total == curves_b.total
    assert curves_a.objective == curves_b.objective
    assert np.array_equal(policy_a.logits_attr, policy_b.logits_attr)
    curves_c, _ = train(TrainConfig(steps=4, seed=13), dataset=tiny_dataset)
    assert curves_a.total != curves_c.total


def test_train_rewards_within_bounds(tiny_dataset):
    curves, _ = train(TrainConfig(steps=5, seed=3), dataset=tiny_dataset)
    for i in range(5):
        assert -2.0 <= curves.format[i] <= 1.0
        assert 0.0 <= curves.correct[i] <= 2.0
        assert -1.0 <= curves.count[i] <= 0.0
        assert 0.0 <= curves.rational[i] <= 1.0
        assert -3.0 <= curves.total[i] <= 4.0


def test_train_updates_move_parameters(tiny_dataset):
    _, policy = train(TrainConfig(steps=5, seed=4), dataset=tiny_dataset)
    reference = PolicyParams.zeros(n_queries=len(tiny_dataset))
    assert not np.allclose(policy.logits_count, reference.logits_count)


def test_train_dapo_objective_vanishes(tiny_dataset):
    # on-policy surrogate is the mean advantage and dapo has no KL term,
    # so the recorded objective is zero up to float accumulation error
    curves, _ = train(
        TrainConfig(steps=4, seed=5, algorithm="dapo"), dataset=tiny_dataset
    )
    assert all(abs(v) < 1e-9 for v in curves.objective)


@pytest.mark.parametrize("algorithm", ["grpo", "dapo"])
def test_train_renders_no_text(tiny_dataset, monkeypatch, algorithm):
    # a step scores each response from its drawn arrays; rendering one
    # to text would fail here
    def refuse(*args):
        raise AssertionError("a training step rendered a response")

    monkeypatch.setattr(policysim, "_render_action", refuse)
    curves, _ = train(TrainConfig(steps=2, seed=7, algorithm=algorithm),
                      dataset=tiny_dataset)
    assert curves.steps == [1, 2]


@pytest.mark.parametrize("algorithm", ["grpo", "dapo"])
def test_train_asks_the_reward_once_per_query_and_attribute(
        tiny_dataset, monkeypatch, algorithm):
    # the claim verdicts are read once, before step 1, one check of each
    # vocabulary name against each query's molecule, in query order; no
    # step calls the reward stack, and train never builds a breakdown
    calls, steps = [], []

    def counted(name, mol, rows):
        calls.append((len(steps), name, id(mol)))  # steps begun so far
        return claim_in_range(name, mol, rows)

    def counted_step(*args):
        steps.append(args[-1])
        return train_step(*args)

    def refuse(*args, **kwargs):
        raise AssertionError("train called total_reward")

    train_step = policysim._train_step
    monkeypatch.setattr(policysim, "claim_in_range", counted)
    monkeypatch.setattr(policysim, "_train_step", counted_step)
    monkeypatch.setattr(rewards, "total_reward", refuse)
    assert not hasattr(policysim, "total_reward")
    train(TrainConfig(steps=3, seed=7, algorithm=algorithm),
          dataset=tiny_dataset)
    assert steps == [1, 2, 3]
    vocab = policysim._vocabulary(PolicyParams.zeros())
    assert calls == [(0, name, id(query.molecule))
                     for query in tiny_dataset for name in vocab]


def test_train_rejects_mismatched_policy(tiny_dataset):
    policy = PolicyParams.zeros(n_queries=99)
    with pytest.raises(ConfigError):
        train(TrainConfig(steps=1), dataset=tiny_dataset, policy=policy)


def test_train_rejects_policy_above_vocabulary(tiny_dataset):
    policy = PolicyParams.zeros(n_attrs=20, n_queries=len(tiny_dataset))
    with pytest.raises(ConfigError):
        train(TrainConfig(steps=1), dataset=tiny_dataset, policy=policy)
    with pytest.raises(ConfigError):
        sample_response(policy, _prompt(), np.random.default_rng(0))


def _counting_tables(monkeypatch):
    """Patch ``_Table`` so that every table built is recorded."""
    built = []

    class Counted(_Table):
        def __init__(self, policy, T):
            built.append(policy)
            super().__init__(policy, T)

    monkeypatch.setattr(policysim, "_Table", Counted)
    return built, Counted


def test_grpo_builds_a_reference_table_per_step(tiny_dataset, monkeypatch):
    built, _ = _counting_tables(monkeypatch)
    train(TrainConfig(steps=2, seed=7), dataset=tiny_dataset)
    assert len(built) == 4


def _poison_reference(monkeypatch):
    """Patch the batched GRPO math so that every reference log-prob that
    ``train`` hands to it is NaN; returns the names of the calls made."""
    calls = []

    def poisoned(fn):
        def call(adv, logp_new, logp_old, logp_ref, cfg):
            calls.append(fn.__name__)
            return fn(adv, logp_new, logp_old,
                      np.full(np.shape(logp_ref), np.nan), cfg)
        return call

    monkeypatch.setattr(grpo, "group_update", poisoned(grpo.group_update))
    return calls


def test_dapo_reads_no_reference_table(tiny_dataset, monkeypatch):
    built, _ = _counting_tables(monkeypatch)
    cfg = TrainConfig(steps=3, seed=7, algorithm="dapo")
    curves, policy = train(cfg, dataset=tiny_dataset)
    assert len(built) == 3

    # the same run with every reference log-prob replaced by NaN: reading
    # one would turn the curves or the policy into NaN, and it makes GRPO
    # fail at once
    calls = _poison_reference(monkeypatch)
    curves_nan, policy_nan = train(cfg, dataset=tiny_dataset)
    assert len(built) == 6
    assert calls == ["group_update"] * 3  # one call per step
    assert curves_nan == curves
    assert _score_bytes(policy_nan) == _score_bytes(policy)
    built.clear()
    with pytest.raises(ValueError):
        train(TrainConfig(steps=3, seed=7), dataset=tiny_dataset)
    assert len(built) == 2  # the first step's two tables, then the raise


def _per_query_train(config, dataset):
    """Reference: the training loop that scored one query's group at a
    time, through ``ResponseRecord``, ``TrajectoryGroup`` and the four
    group functions of :mod:`attrilens.grpo`."""
    table = load_range_table(config.range_table)
    cfg, T, G = config.optim(), config.temperature, config.group_size
    policy = PolicyParams.zeros(n_queries=len(dataset))
    reference = policy.copy()
    vocab = policysim._vocabulary(policy)
    curves = policysim.TrainingCurves()
    for step in range(1, config.steps + 1):
        sums = np.zeros(6)  # format, correct, count, rational, total, obj
        n_samples = n_groups_kept = 0
        grad_acc = policy.zeros_like()
        current = _Table(policy, T)
        frozen = _Table(reference, T) if cfg.effective_kl_beta else current
        for qid, query in enumerate(dataset):
            rng = np.random.default_rng(
                np.random.SeedSequence([config.seed, step, qid]))
            drawn = _draw(current, [rng], G, [qid])
            live = _live_mass(current, drawn)
            logp = _factor_logp(current, drawn, live)
            logp_ref = logp if frozen is current else _factor_logp(
                frozen, drawn, _live_mass(frozen, drawn))
            records = []
            for action, lp, lp_ref in zip(_actions(drawn), logp, logp_ref):
                text = policysim._render_action(action, vocab)
                bd = total_reward(parse_response(text), query.molecule,
                                  query.label, query.prompt.target, table,
                                  count_bounds=config.count_bounds)
                sums[:5] += (bd.format, bd.correct, bd.count, bd.rational,
                             bd.total)
                records.append(grpo.ResponseRecord(text, bd.total, lp,
                                                   lp_ref))
            n_samples += len(records)
            group = grpo.TrajectoryGroup(f"q{qid}", records)
            grpo.fill_advantages(group)
            if config.algorithm == "dapo" and not grpo.dapo_filter([group]):
                continue
            logp_new = group.logp_old()
            sums[5] += grpo.grpo_objective(group, logp_new, cfg)
            _add_score(current, drawn, live,
                       grpo.grpo_gradient(group, logp_new, cfg), grad_acc)
            n_groups_kept += 1
        if n_groups_kept:
            policy.add_scaled(grad_acc, config.learning_rate / n_groups_kept)
        curves.append(step, *(sums[:5] / n_samples),
                      sums[5] / n_groups_kept if n_groups_kept else 0.0)
    return curves, policy


@pytest.mark.parametrize("queries", [1, 12])
@pytest.mark.parametrize("group_size", [2, 3, 8])
@pytest.mark.parametrize("algorithm", ["grpo", "dapo"])
def test_batched_step_equals_per_query_loop(algorithm, group_size, queries):
    dataset = load_sim_dataset(data_path("toy_train.csv"))[:queries]
    options = [{}]
    if (group_size, queries) == (3, 12):
        # one pair also runs a narrower count band under the other table
        options.append({"count_bounds": (4, 6), "range_table": "r1-default"})
    for seed, T, extra in itertools.product((0, 5, 9), (0.6, 1.3), options):
        config = TrainConfig(steps=5, group_size=group_size, temperature=T,
                             seed=seed, algorithm=algorithm, **extra)
        curves, policy = train(config, dataset=dataset)
        want_curves, want_policy = _per_query_train(config, dataset)
        assert curves == want_curves
        assert _score_bytes(policy) == _score_bytes(want_policy)


def test_export_curves_roundtrip(tmp_path, tiny_dataset):
    curves, _ = train(TrainConfig(steps=3, seed=6), dataset=tiny_dataset)
    path = tmp_path / "curves.csv"
    with open(path, "w", newline="") as fh:
        export_curves(curves, fh)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,format,correct,count,rational,total,objective"
    assert len(lines) == 4
    series = [curves.steps, curves.format, curves.correct, curves.count,
              curves.rational, curves.total, curves.objective]
    for i, line in enumerate(lines[1:]):
        fields = line.split(",")
        assert len(fields) == len(series)
        assert int(fields[0]) == i + 1 == curves.steps[i]
        assert [float(f) for f in fields[1:]] == [s[i] for s in series[1:]]


def test_curve_fields_are_the_reward_components():
    names = [f.name for f in dataclasses.fields(TrainingCurves)]
    assert names == ["steps", *REWARD_COMPONENTS, "objective"]


@pytest.mark.parametrize("n_values", [6, 8])
def test_curves_append_rejects_a_wrong_number_of_values(n_values):
    curves = TrainingCurves()
    curves.append(*range(7))
    with pytest.raises(ValueError):
        curves.append(*range(n_values))
    assert curves == TrainingCurves(*[[i] for i in range(7)])

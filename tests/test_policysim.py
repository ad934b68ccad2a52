"""Toy-policy simulator: factorized action distribution and training loop."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from attrilens._data import data_path
from attrilens.policysim import (
    Action,
    ConfigError,
    PolicyParams,
    TrainConfig,
    _categorical,
    _sampler,
    _softmax,
    _Table,
    _walk,
    action_logp,
    export_curves,
    load_sim_dataset,
    sample_response,
    train,
)
from attrilens.response import CLASSIFICATION, PromptSpec, parse_response


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
    ],
)
def test_action_logp_rejects_inconsistent_action(action):
    policy = PolicyParams.zeros(n_attrs=3, max_count=2)
    with pytest.raises(ValueError):
        action_logp(policy, action, 0, 0.6)


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_temperature_raises_value_error():
    policy = PolicyParams.zeros()
    policy.logits_count[0] = 1.0  # 1.0 / 1e-320 overflows to inf
    with pytest.raises(ValueError):
        sample_response(policy, _prompt(), np.random.default_rng(0),
                        temperature=1e-320)


# ---------------------------------------------------------------------------
# step tables: bit-identical to the per-draw sampler
# ---------------------------------------------------------------------------


def _reference_sample(policy, rng, query_index, T):
    """Per-draw sampler: every factor's sigmoid or softmax is recomputed and
    categorical draws go through ``rng.choice``; returns (action, logp,
    score)."""

    def sigmoid(x):
        if x >= 0:
            return 1.0 / (1.0 + np.exp(-x))
        e = np.exp(x)
        return e / (1.0 + e)

    def softmax(logits):
        e = np.exp(logits - logits.max())
        return e / e.sum()

    score = policy.zeros_like()
    logp = 0.0
    p_ok = sigmoid(policy.logit_format / T)
    format_ok = bool(rng.random() < p_ok)
    logp += np.log(p_ok if format_ok else 1.0 - p_ok)
    score.logit_format = ((1.0 if format_ok else 0.0) - p_ok) / T
    omit = None
    if not format_ok:
        omit = ("think", "name", "answer")[int(rng.integers(3))]
        logp += np.log(1.0 / 3)
    p_count = softmax(policy.logits_count / T)
    count = int(rng.choice(p_count.size, p=p_count))
    logp += np.log(p_count[count])
    score.logits_count = -p_count / T
    score.logits_count[count] += 1.0 / T
    attrs = []
    mask = np.zeros(policy.n_attrs, dtype=bool)
    for _ in range(count):
        p_attr = softmax(np.where(mask, -np.inf, policy.logits_attr / T))
        idx = int(rng.choice(p_attr.size, p=p_attr))
        logp += np.log(p_attr[idx])
        live = ~mask
        score.logits_attr[live] -= p_attr[live] / T
        score.logits_attr[idx] += 1.0 / T
        mask[idx] = True
        attrs.append(idx)
    polarities = []
    for idx in attrs:
        p_pro = sigmoid(policy.logits_polarity[idx] / T)
        bit = int(rng.random() < p_pro)
        logp += np.log(p_pro if bit else 1.0 - p_pro)
        score.logits_polarity[idx] += (bit - p_pro) / T
        polarities.append(bit)
    p_true = sigmoid(policy.logits_answer[query_index] / T)
    answer = bool(rng.random() < p_true)
    logp += np.log(p_true if answer else 1.0 - p_true)
    score.logits_answer[query_index] = ((1.0 if answer else 0.0) - p_true) / T
    action = Action(format_ok, omit, count, tuple(attrs), tuple(polarities),
                    answer)
    return action, float(logp), score


def _score_bytes(score):
    return (np.float64(score.logit_format).tobytes(),
            *(getattr(score, name).tobytes() for name in
              ("logits_count", "logits_attr", "logits_polarity",
               "logits_answer")))


@settings(max_examples=300, deadline=None)
@given(
    logits=st.lists(st.floats(min_value=-30.0, max_value=30.0),
                    min_size=1, max_size=14),
    masked=st.lists(st.booleans(), min_size=14, max_size=14),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_inverse_cdf_draw_matches_generator_choice(logits, masked, seed):
    mask = np.array(masked[:len(logits)])
    assume(not mask.all())
    p = _softmax(np.where(mask, -np.inf, np.array(logits)))
    with np.errstate(divide="ignore"):  # log of the masked zeros
        cdf, _, _ = _categorical(p, 1.0)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    assert _sampler(ours)("categorical", cdf) == theirs.choice(p.size, p=p)
    assert ours.random() == theirs.random()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampling_is_bit_identical_to_per_draw_sampler(seed):
    rng = np.random.default_rng(100 + seed)
    policy = _random_policy(rng, n_attrs=14, max_count=12, n_queries=3)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for i in range(60):
        qid, T = i % 3, (0.6, 1.3)[i % 2]
        out = sample_response(policy, _prompt(), ours, qid, T)
        action, logp, score = _reference_sample(policy, theirs, qid, T)
        assert out.action == action
        assert np.float64(out.logp).tobytes() == np.float64(logp).tobytes()
        assert _score_bytes(out.score) == _score_bytes(score)
    assert ours.random() == theirs.random()


def test_step_tables_match_action_logp():
    rng = np.random.default_rng(21)
    policy = _random_policy(rng, n_attrs=14, max_count=12, n_queries=2)
    reference = _random_policy(rng, n_attrs=14, max_count=12, n_queries=2)
    T = 0.6
    current, frozen = _Table(policy, T), _Table(reference, T)
    draw = _sampler(np.random.default_rng(22))
    for i in range(200):  # enough that later walks reuse cached rows
        qid = i % 2
        action, logp, logp_ref, score = _walk(current, frozen, qid, draw)
        again, again_score = action_logp(policy, action, qid, T)
        assert logp == again
        assert _score_bytes(score) == _score_bytes(again_score)
        assert logp_ref == action_logp(reference, action, qid, T)[0]


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
        {"temperature": 0.0},
        {"temperature": math.inf},
        {"temperature": math.nan},
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
    assert optim.group_size == 4


def test_train_requires_dataset():
    with pytest.raises(ConfigError):
        train(TrainConfig(steps=1))


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


def test_train_rejects_mismatched_policy(tiny_dataset):
    policy = PolicyParams.zeros(n_queries=99)
    with pytest.raises(ConfigError):
        train(TrainConfig(steps=1), dataset=tiny_dataset, policy=policy)


def test_export_curves_roundtrip(tmp_path, tiny_dataset):
    curves, _ = train(TrainConfig(steps=3, seed=6), dataset=tiny_dataset)
    path = tmp_path / "curves.csv"
    export_curves(curves, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,format,correct,count,rational,total,objective"
    assert len(lines) == 4
    for i, line in enumerate(lines[1:]):
        fields = line.split(",")
        assert int(fields[0]) == i + 1
        assert float(fields[5]) == curves.total[i]
        assert float(fields[6]) == curves.objective[i]

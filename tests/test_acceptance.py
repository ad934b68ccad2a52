"""Acceptance gate: the eight binding behavioral criteria.

Each test pins one externally meaningful guarantee of the package —
exact reward semantics, frozen case-study scores, optimization-math
properties, simulator convergence, descriptor oracles, the scaffold
split contract, the descriptor-forest signal check, and parser
totality — at its stated tolerance and runtime budget.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from attrilens._data import data_path
from attrilens.descriptors import compute, implemented_names
from attrilens.grpo import (
    OptimConfig,
    ResponseRecord,
    TrajectoryGroup,
    compute_advantages,
    fill_advantages,
    grpo_gradient,
    grpo_objective,
    kl_estimate,
)
from attrilens.mlpipe import (
    ForestConfig,
    auc_score,
    eval_auc,
    featurize,
    load_csv,
    predict_proba,
    scaffold_split,
    train_forest,
)
from attrilens.molgraph import parse_smiles, scaffold_key
from attrilens.policysim import TrainConfig, train
from attrilens.response import (
    AttributeClaim,
    parse_response,
    render_response,
)
from attrilens.rewards import (
    load_range_table,
    reward_correct,
    reward_count,
    reward_format,
    total_reward,
)

from _reference import write_smiles


# ===========================================================================
# 1. Reward exactness on a constructed 50-case suite (< 1 s, exact)
# ===========================================================================


def _wf(n_claims, answer=True, think="t"):
    claims = [(f"Attr{i}", "promotes") for i in range(n_claims)]
    return render_response(think, claims, answer)


def _reward_cases():
    """(text, task, label, count_bounds, fmt, cor, cnt) — hand-derived."""
    cases = []

    # count sweep at the default [3, 10] window, all well-formed/correct
    for n in range(15):
        cnt = 0.0 if 3 <= n <= 10 else -1.0
        cases.append((_wf(n), "classification", True, (3, 10), 1.0, 2.0, cnt))

    # ablation window [15, 20]
    for n, cnt in [(10, -1.0), (14, -1.0), (15, 0.0), (16, 0.0), (17, 0.0),
                   (18, 0.0), (19, 0.0), (20, 0.0), (21, -1.0)]:
        cases.append(
            (_wf(n), "classification", True, (15, 20), 1.0, 2.0, cnt)
        )

    # structural malformations; correctness/count still read what they can
    cases.append((render_response("t", [("A", "promotes")] * 4, True,
                                  omit="think"),
                  "classification", True, (3, 10), -2.0, 2.0, 0.0))
    cases.append((render_response("t", [("A", "promotes")] * 4, True,
                                  omit="name"),
                  "classification", True, (3, 10), -2.0, 2.0, -1.0))
    cases.append((render_response("t", [("A", "promotes")] * 5, True,
                                  omit="answer"),
                  "classification", True, (3, 10), -2.0, 0.0, 0.0))
    cases.append((_wf(3) + "\n<answer> False </answer>",   # duplicate tag
                  "classification", True, (3, 10), -2.0, 2.0, 0.0))
    cases.append(("<name> A, B, C </name>\n<think> t </think>\n"
                  "<answer> True </answer>",               # wrong order
                  "classification", False, (3, 10), -2.0, 0.0, 0.0))
    cases.append(("", "classification", True, (3, 10), -2.0, 0.0, -1.0))
    cases.append(("no tags at all", "classification", True, (3, 10),
                  -2.0, 0.0, -1.0))
    cases.append(("<think> t </think>\n<name> A, B, C </name>\n"
                  "<answer> Maybe </answer>",              # unparseable answer
                  "classification", True, (3, 10), -2.0, 0.0, 0.0))

    # correctness matrix on well-formed responses
    for answer, label, cor in [(True, True, 2.0), (True, False, 0.0),
                               (False, False, 2.0), (False, True, 0.0)]:
        cases.append((_wf(4, answer=answer), "classification", label,
                      (3, 10), 1.0, cor, 0.0))
    cases.append(("<think> t </think>\n<name> A, B, C </name>\n"
                  "<answer> true. </answer>",
                  "classification", True, (3, 10), 1.0, 2.0, 0.0))
    cases.append(("<think> t </think>\n<name> A, B, C </name>\n"
                  "<answer> FALSE </answer>",
                  "classification", False, (3, 10), 1.0, 2.0, 0.0))

    # claims payload edge cases
    cases.append(("<think> t </think>\n<name> A: sideways </name>\n"
                  "<answer> True </answer>",     # bad polarity -> no claims
                  "classification", True, (3, 10), -2.0, 2.0, -1.0))
    cases.append(("<think> t </think>\n<name>  </name>\n"
                  "<answer> True </answer>",     # empty list is well-formed
                  "classification", True, (3, 10), 1.0, 2.0, -1.0))
    cases.append((render_response("t", [("MolWt", None)] * 3, True),
                  "classification", True, (3, 10), 1.0, 2.0, 0.0))

    # regression answers
    cases.append(("<think> t </think>\n<name> A, B, C </name>\n"
                  "<answer> 2.5 </answer>",
                  "regression", 2.5, (3, 10), 1.0, 2.0, 0.0))
    cases.append(("<think> t </think>\n<name> A, B, C </name>\n"
                  "<answer> 2.5 </answer>",
                  "regression", 2.6, (3, 10), 1.0, 0.0, 0.0))
    cases.append(("<think> t </think>\n<name> A, B, C </name>\n"
                  "<answer> True </answer>",
                  "regression", 1.0, (3, 10), -2.0, 0.0, 0.0))

    # custom narrow window
    cases.append(("<think> t </think>\n<name>  </name>\n"
                  "<answer> True </answer>",
                  "classification", True, (0, 2), 1.0, 2.0, 0.0))
    cases.append((_wf(3), "classification", True, (0, 2), 1.0, 2.0, -1.0))

    # whitespace-only think payload still counts as a present section
    cases.append(("<think>   </think>\n<name> A, B, C </name>\n"
                  "<answer> True </answer>",
                  "classification", True, (3, 10), 1.0, 2.0, 0.0))
    # duplicated think tag
    cases.append(("<think> a </think>\n<think> b </think>\n"
                  "<name> A, B, C </name>\n<answer> True </answer>",
                  "classification", True, (3, 10), -2.0, 2.0, 0.0))
    # answer token casing is free-form
    cases.append(("<think> t </think>\n<name> A, B, C </name>\n"
                  "<answer> tRuE. </answer>",
                  "classification", True, (3, 10), 1.0, 2.0, 0.0))
    # claim names are arbitrary text, including non-ASCII
    cases.append(("<think> t </think>\n<name> β-ring burden: inhibits "
                  "</name>\n<answer> False </answer>",
                  "classification", False, (3, 10), 1.0, 2.0, -1.0))
    return cases


def test_criterion_1_reward_exactness():
    started = time.monotonic()
    cases = _reward_cases()
    assert len(cases) == 50
    for text, task, label, bounds, fmt, cor, cnt in cases:
        parsed = parse_response(text, task=task)
        assert reward_format(parsed) == fmt, text
        assert reward_correct(parsed, label, task=task) == cor, text
        assert reward_count(parsed, *bounds) == cnt, text
    assert time.monotonic() - started < 1.0


# ===========================================================================
# 2. Case-study fixture reproduction (< 1 s, exact)
# ===========================================================================

# Frozen reward lines for the bundled transcripts:
# (format, correct, count, rational, total, n_att, verified, matched)
FIXTURE_EXPECTED = {
    "bbbp-base":    (1, 0, 0, 0.0, 1.0, 4, 0, 0),
    "bbbp-distill": (1, 0, 0, 0.25, 1.25, 4, 4, 1),
    "bbbp-r1":      (1, 0, 0, 0.5, 1.5, 4, 4, 2),
    "bbbp-tuned":   (1, 2, 0, 1.0, 4.0, 3, 3, 3),
    "bace-base":    (1, 2, -1, 0.0, 2.0, 2, 0, 0),
    "bace-distill": (-2, 0, -1, 0.0, -3.0, 2, 0, 0),
    "bace-r1":      (1, 0, 0, 2.0 / 3.0, 1.0 + 2.0 / 3.0, 6, 3, 2),
    "bace-tuned":   (1, 2, 0, 1.0, 4.0, 5, 5, 5),
    "tox-base":     (-2, 0, -1, 0.0, -3.0, 0, 0, 0),
    "tox-distill":  (-2, 0, -1, 0.0, -3.0, 0, 0, 0),
    "tox-r1":       (1, 0, 0, 0.6, 1.6, 5, 5, 3),
    "tox-tuned":    (1, 2, 0, 1.0, 4.0, 3, 3, 3),
}


def test_criterion_2_fixture_reproduction():
    started = time.monotonic()
    records = [
        json.loads(line)
        for line in data_path("case_studies.jsonl").read_text().splitlines()
        if line.strip()
    ]
    assert {r["id"] for r in records} == set(FIXTURE_EXPECTED)
    for table_name in ("gpt4o-default", "r1-default"):
        table = load_range_table(table_name)
        for rec in records:
            parsed = parse_response(rec["response_text"], task=rec["task"])
            bd = total_reward(
                parsed, parse_smiles(rec["smiles"]), rec["label"],
                rec["target"], table, task=rec["task"],
            )
            fmt, cor, cnt, rat, tot, n_att, verified, matched = (
                FIXTURE_EXPECTED[rec["id"]]
            )
            where = f"{rec['id']} [{table_name}]"
            assert bd.format == fmt, where
            assert bd.correct == cor, where
            assert bd.count == cnt, where
            assert bd.rational == pytest.approx(rat, abs=1e-12), where
            assert bd.total == pytest.approx(tot, abs=1e-12), where
            assert (bd.n_att, bd.verified, bd.matched) == (
                n_att, verified, matched
            ), where

    # the graded ladder the transcripts were built to demonstrate
    rationals = sorted(
        FIXTURE_EXPECTED[f"bbbp-{style}"][3]
        for style in ("base", "distill", "r1", "tuned")
    )
    assert rationals == [0.0, 0.25, 0.5, 1.0]
    for task in ("bbbp", "bace", "tox"):
        assert FIXTURE_EXPECTED[f"{task}-tuned"][4] == 4.0
    assert time.monotonic() - started < 1.0


# ===========================================================================
# 3. Optimization-math properties over 10,000 random groups (< 30 s)
# ===========================================================================


def test_criterion_3_grpo_math_properties():
    started = time.monotonic()
    rng = np.random.default_rng(42)

    # advantage normalization + affine invariance
    for _ in range(10_000):
        n = int(rng.integers(2, 17))
        if rng.random() < 0.1:
            rewards = np.full(n, float(rng.uniform(-3, 4)))
        else:
            rewards = rng.uniform(-3.0, 4.0, size=n)
        adv = compute_advantages(rewards)
        if np.allclose(adv, 0.0):
            assert rewards.std(ddof=0) < 1e-8
        else:
            assert abs(adv.mean()) < 1e-9
            assert abs(adv.std(ddof=0) ** 2 - 1.0) < 1e-9
            scale = float(rng.uniform(0.1, 10.0))
            shift = float(rng.uniform(-50.0, 50.0))
            again = compute_advantages(scale * rewards + shift)
            assert np.allclose(adv, again, atol=1e-9)

    # KL estimator: non-negative, zero iff equal
    a = rng.uniform(-30.0, 0.0, size=10_000)
    b = np.clip(a + rng.uniform(-20.0, 20.0, size=10_000), -45.0, 0.0)
    kl = kl_estimate(a, b)
    assert np.all(kl >= 0.0)
    assert np.all(kl_estimate(a, a) == 0.0)
    apart = np.abs(a - b) > 1e-6
    assert np.all(kl[apart] > 0.0)

    # analytic gradient vs central finite differences, away from the kinks;
    # each response's log-prob is a row of 1-4 factors, perturbed one by one
    checked = 0
    for trial in range(400):
        cfg = OptimConfig(algorithm="grpo" if trial % 2 == 0 else "dapo")
        n, f = int(rng.integers(2, 9)), int(rng.integers(1, 5))
        rewards = rng.uniform(-3.0, 4.0, size=n)
        logp_old = rng.uniform(-6.0, -0.5, size=(n, f)) / f
        logp_ref = logp_old + rng.uniform(-0.5, 0.5, size=(n, f))
        group = TrajectoryGroup(
            "q",
            [ResponseRecord(f"r{i}", float(rewards[i]), logp_old[i],
                            logp_ref[i]) for i in range(n)],
        )
        adv = fill_advantages(group)
        if np.allclose(adv, 0.0):
            continue
        logp_new = logp_old + rng.uniform(-0.3, 0.3, size=(n, f)) / f
        rho = np.exp((logp_new - logp_old).sum(1))
        lo, hi = cfg.clip_band
        if np.any(np.abs(rho - lo) < 1e-3) or np.any(np.abs(rho - hi) < 1e-3):
            continue
        analytic = grpo_gradient(group, logp_new, cfg)
        assert analytic.shape == (n, f)
        h = 1e-6
        for i, j in np.ndindex(n, f):
            up, dn = logp_new.copy(), logp_new.copy()
            up[i, j] += h
            dn[i, j] -= h
            numeric = (
                grpo_objective(group, up, cfg)
                - grpo_objective(group, dn, cfg)
            ) / (2 * h)
            rel = abs(analytic[i, j] - numeric) / max(abs(numeric), 1e-8)
            assert rel < 1e-5, (trial, i, j, rel)
        checked += 1
    assert checked > 250
    assert time.monotonic() - started < 30.0


# ===========================================================================
# 4. Simulator convergence over 1000 steps, both algorithms (< 5 min)
# ===========================================================================


def _moving_average(series, window=100):
    arr = np.asarray(series, dtype=float)
    kernel = np.ones(window) / window
    return np.convolve(arr, kernel, mode="valid")


def _t95(series, window=100):
    """First step whose moving average reaches 95% of the start-to-final
    swing; returns the step number (1-based, window-aligned)."""
    ma = _moving_average(series, window)
    s0, sf = ma[0], ma[-1]
    threshold = s0 + 0.95 * (sf - s0)
    if sf >= s0:
        idx = int(np.argmax(ma >= threshold))
    else:
        idx = int(np.argmax(ma <= threshold))
    return idx + window


@pytest.mark.parametrize("algorithm", ["grpo", "dapo"])
def test_criterion_4_simulator_convergence(algorithm):
    started = time.monotonic()
    config = TrainConfig(
        algorithm=algorithm, dataset=str(data_path("toy_train.csv"))
    )
    curves, _ = train(config)
    assert len(curves.steps) == 1000

    # converged plateaus over the final 100 steps
    assert np.mean(curves.format[-100:]) >= 0.9
    assert np.mean(curves.count[-100:]) >= -0.05

    # format and count converge strictly before rationality
    t_fmt = _t95(curves.format)
    t_cnt = _t95(curves.count)
    t_rat = _t95(curves.rational)
    assert t_fmt < t_rat, (t_fmt, t_rat)
    assert t_cnt < t_rat, (t_cnt, t_rat)

    # total reward's 100-step moving average is non-decreasing over the
    # final 500 steps (up to a small tolerance for sampling jitter)
    ma = _moving_average(curves.total, 100)
    tail = ma[-500:]
    dips = np.maximum.accumulate(tail) - tail
    assert float(dips.max()) <= 0.02
    assert tail[-1] >= tail[0]
    assert time.monotonic() - started < 300.0


# ===========================================================================
# 5. Descriptor oracles + permutation invariance (< 10 s)
# ===========================================================================


def test_criterion_5_descriptor_oracles():
    started = time.monotonic()
    water = parse_smiles("O")
    assert compute(water, "MolWt").value == pytest.approx(18.015, abs=0.01)

    benzene = parse_smiles("c1ccccc1")
    assert compute(benzene, "TPSA").value == 0.0
    assert compute(benzene, "NumAromaticRings").value == 1.0

    ethanol = parse_smiles("CCO")
    assert compute(ethanol, "NumHDonors").value == 1.0
    assert compute(ethanol, "NumHAcceptors").value == 1.0

    aspirin = parse_smiles("OC(=O)c1ccccc1OC(C)=O")
    assert compute(aspirin, "TPSA").value == pytest.approx(63.60, abs=0.05)

    case_mol = parse_smiles(
        "CN(C(=O)Cc1ccc(Cl)c(Cl)c1)C1CCCC[C@H]1N1CCCC1"
    )
    assert compute(case_mol, "HeavyAtomCount").value == 24.0

    # permutation invariance: 500 random rewrites across the oracle set
    molecules = [water, benzene, ethanol, aspirin, case_mol]
    rng = np.random.default_rng(99)
    names = implemented_names()
    baselines = [
        {name: compute(mol, name).value for name in names}
        for mol in molecules
    ]
    for i in range(500):
        mol = molecules[i % len(molecules)]
        permuted = parse_smiles(write_smiles(mol, rng=rng))
        for name in names:
            assert compute(permuted, name).value == pytest.approx(
                baselines[i % len(molecules)][name], abs=1e-9
            ), name
    assert time.monotonic() - started < 10.0


# ===========================================================================
# 6. Scaffold split contract on the bundled BACE-like CSV (< 30 s)
# ===========================================================================


def test_criterion_6_scaffold_split_sizes():
    started = time.monotonic()
    loaded = load_csv(data_path("bace_synthetic.csv"))
    assert len(loaded) == 1513 and loaded.skipped == 0

    train_part, valid_part, test_part = scaffold_split(loaded.records)
    sizes = (len(train_part), len(valid_part), len(test_part))

    # the pinned split sizes, within one largest-scaffold-group of the
    # fraction targets; this dataset is engineered to land exactly
    groups = {}
    for rec in loaded.records:
        groups.setdefault(scaffold_key(rec.molecule), []).append(rec)
    slack = max(len(members) for members in groups.values())
    targets = (1210, 151, 152)
    for got, want in zip(sizes, targets):
        assert abs(got - want) < slack
    assert sizes == targets

    # partition: every record in exactly one part
    assert sum(sizes) == len(loaded)
    seen = set()
    for part in (train_part, valid_part, test_part):
        for rec in part:
            assert id(rec) not in seen
            seen.add(id(rec))

    # no scaffold spans two parts
    key_sets = [
        {scaffold_key(rec.molecule) for rec in part}
        for part in (train_part, valid_part, test_part)
    ]
    assert not (key_sets[0] & key_sets[1])
    assert not (key_sets[0] & key_sets[2])
    assert not (key_sets[1] & key_sets[2])

    # deterministic across reruns
    again = scaffold_split(loaded.records)
    for part_a, part_b in zip((train_part, valid_part, test_part), again):
        assert [r.smiles for r in part_a] == [r.smiles for r in part_b]
    assert time.monotonic() - started < 30.0


# ===========================================================================
# 7. Descriptor forest beats chance where it should, not where it can't
#    (< 2 min)
# ===========================================================================


def test_criterion_7_forest_auc_and_permutation_null():
    started = time.monotonic()
    loaded = load_csv(data_path("bbbp_synthetic.csv"))
    assert len(loaded) == 400
    features = list(implemented_names()[:10])
    train_part, _valid, test_part = scaffold_split(loaded.records)

    model = train_forest(train_part, features, ForestConfig())
    auc = eval_auc(model, test_part)
    assert auc >= 0.65, auc

    # permutation null: shuffled training labels must erase the signal
    X_test = featurize(test_part, features)
    y_test = [bool(r.label) for r in test_part]
    null_aucs = []
    for rep in range(10):
        y_shuffled = np.array([bool(r.label) for r in train_part])
        np.random.default_rng(100 + rep).shuffle(y_shuffled)
        shuffled = [
            replace(rec, label=bool(lab))
            for rec, lab in zip(train_part, y_shuffled)
        ]
        forest = train_forest(shuffled, features, ForestConfig(seed=200 + rep))
        null_aucs.append(auc_score(predict_proba(forest, X_test), y_test))
    null_mean = float(np.mean(null_aucs))
    assert 0.4 <= null_mean <= 0.6, null_aucs
    assert time.monotonic() - started < 120.0


# ===========================================================================
# 8. Parser totality on 1M fuzzed strings + 10k exact round-trips (< 2 min)
# ===========================================================================

_FRAGMENTS = [
    "<think>", "</think>", "<name>", "</name>", "<answer>", "</answer>",
    "True", "False", "LogP: promotes", "TPSA: inhibits", "MolWt", ",", ":",
    " ", "\n", "promotes", "inhibits", "<", ">", "</", "<<>>", "\x00", "¡",
    "<think", "answer>", "0.5", "-1e9", "nan", "A" * 50,
]


def test_criterion_8_parser_totality_and_roundtrip():
    started = time.monotonic()
    rng = np.random.default_rng(2024)

    # 700k raw byte soups
    n_raw = 700_000
    lengths = rng.integers(0, 64, size=n_raw)
    blob = rng.integers(0, 256, size=int(lengths.sum()), dtype=np.uint8)
    blob = blob.tobytes().decode("latin-1")
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    well_formed = 0
    for i in range(n_raw):
        text = blob[offsets[i]:offsets[i + 1]]
        parsed = parse_response(text)
        well_formed += parsed.format_ok

    # 300k structured tag soups biased toward near-valid shapes
    n_structured = 300_000
    frag_count = len(_FRAGMENTS)
    picks = rng.integers(0, frag_count, size=(n_structured, 6))
    for i in range(n_structured):
        text = "".join(_FRAGMENTS[j] for j in picks[i])
        parsed = parse_response(text)
        well_formed += parsed.format_ok
    assert well_formed >= 0  # parser never raised to reach this line

    # 10,000 exact round-trips through the canonical renderer
    name_pool = ["LogP", "TPSA", "MolWt", "HBD", "HBA", "Ring Count",
                 "S-count", "Charge", "Aromatic Rings", "FractionCSP3",
                 "Heavy Atom Count", "Halogen Count"]
    polarity_pool = ["promotes", "inhibits", None]
    for _ in range(10_000):
        k = int(rng.integers(0, 13))
        claims = [
            (name_pool[int(rng.integers(0, len(name_pool)))],
             polarity_pool[int(rng.integers(0, 3))])
            for _ in range(k)
        ]
        answer = bool(rng.integers(0, 2))
        think = "assessment " + str(int(rng.integers(0, 10_000)))
        text = render_response(think, claims, answer)
        parsed = parse_response(text)
        assert parsed.format_ok
        assert parsed.answer is answer
        assert parsed.claims == tuple(
            AttributeClaim(name, pol) for name, pol in claims
        )
    assert time.monotonic() - started < 120.0

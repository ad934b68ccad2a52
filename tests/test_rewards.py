"""Reward components, range tables, and the combined breakdown."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from attrilens.molgraph import parse_smiles
from attrilens.response import parse_response, render_response
from attrilens.rewards import (
    Interval,
    ParseError,
    RangeTable,
    TableMissing,
    UnknownDescriptor,
    load_range_table,
    parse_interval_set,
    reward_correct,
    reward_count,
    reward_format,
    reward_rational,
    total_reward,
)


def _response(claims, answer=True, omit=None):
    return parse_response(render_response("t", claims, answer, omit=omit))


# ---------------------------------------------------------------------------
# interval parsing and membership
# ---------------------------------------------------------------------------


def test_closed_interval_membership():
    (iv,) = parse_interval_set("[1,3]")
    assert iv.contains(1.0) and iv.contains(3.0) and iv.contains(2.0)
    assert not iv.contains(0.999) and not iv.contains(3.001)


def test_half_open_interval_membership():
    (iv,) = parse_interval_set("[0,90)")
    assert iv.contains(0.0) and iv.contains(89.999)
    assert not iv.contains(90.0)


def test_unbounded_interval():
    (iv,) = parse_interval_set("[500,inf)")
    assert iv.contains(500.0) and iv.contains(1e9)
    assert not iv.contains(499.999)


def test_union_of_intervals():
    ivs = parse_interval_set("[0,1], [5,6]")
    assert len(ivs) == 2
    assert any(iv.contains(0.5) for iv in ivs)
    assert not any(iv.contains(3.0) for iv in ivs)


@pytest.mark.parametrize(
    "bad",
    ["", "[5,1]", "[1,2] [3,4]", "banana", "[inf,inf]", "(-inf,3] junk",
     # a stray comma at either end must not stand in for a missing one
     ", [0,1] [2,3]", "[0,1] [2,3] ,"],
)
def test_malformed_interval_sets(bad):
    with pytest.raises(ParseError):
        parse_interval_set(bad)


_BLANK = st.text(alphabet=" \t", max_size=2)


@st.composite
def _interval_texts(draw):
    """One well-formed interval, written with arbitrary inner spacing."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    lo, hi = sorted((draw(finite), draw(finite)))
    lo_b, hi_b = draw(st.sampled_from("[(")), draw(st.sampled_from("])"))
    if draw(st.booleans()):
        lo, lo_b = -float("inf"), "("
    if draw(st.booleans()):
        hi, hi_b = float("inf"), ")"
    pad = [draw(_BLANK) for _ in range(4)]
    return f"{lo_b}{pad[0]}{lo!r}{pad[1]},{pad[2]}{hi!r}{pad[3]}{hi_b}"


@settings(max_examples=200, deadline=None)
@given(st.lists(_interval_texts(), min_size=1, max_size=4),
       st.lists(st.tuples(_BLANK, _BLANK), min_size=5, max_size=5),
       st.sampled_from(["drop", "double", "leading", "trailing"]))
def test_interval_set_grammar(intervals, blanks, fault):
    seps = [f"{a},{b}" for a, b in blanks[:len(intervals) - 1]]
    text = intervals[0] + "".join(s + iv for s, iv in zip(seps, intervals[1:]))
    assert parse_interval_set(text) == tuple(
        iv for one in intervals for iv in parse_interval_set(one))

    assume(fault in ("leading", "trailing") or seps)
    stray = "{},{}".format(*blanks[-1])
    if fault == "leading":
        bad = stray + text
    elif fault == "trailing":
        bad = text + stray
    else:
        # the first separator sits right after the first interval
        sep = seps[0].replace(",", "" if fault == "drop" else ",,")
        bad = intervals[0] + sep + text[len(intervals[0]) + len(seps[0]):]
    with pytest.raises(ParseError):
        parse_interval_set(bad)


def test_table_loads_bundled_by_name(default_table, alt_table):
    assert default_table.rows("BBBP") is default_table.rows("bbbp")
    assert "MolWt" in default_table.rows("BBBP")
    assert "MolWt" in alt_table.rows("BACE")
    with pytest.raises(TableMissing) as err:
        default_table.rows("ESOL")
    assert default_table.source in str(err.value)
    assert "'ESOL'" in str(err.value)


def test_table_verdicts(default_table):
    ivs = default_table.rows("BBBP")["MolWt"]
    assert any(iv.contains(300.0) for iv in ivs)
    assert not any(iv.contains(600.0) for iv in ivs)
    # deliberate omission: no acceptor row for BACE
    assert "NumHAcceptors" not in default_table.rows("BACE")


def test_table_unknown_descriptor_rejected(tmp_path):
    bad = tmp_path / "t.tsv"
    bad.write_text("BBBP\tNotAThing\t[0,1]\n")
    with pytest.raises(UnknownDescriptor):
        load_range_table(bad)


def test_table_duplicate_entry_rejected(tmp_path):
    bad = tmp_path / "t.tsv"
    bad.write_text("BBBP\tMolWt\t[0,1]\nbbbp\tMolWt\t[2,3]\n")
    with pytest.raises(ParseError):
        load_range_table(bad)


def test_table_missing_file():
    with pytest.raises(FileNotFoundError):
        load_range_table("/definitely/not/here.tsv")


# ---------------------------------------------------------------------------
# format / correct / count
# ---------------------------------------------------------------------------


def test_format_values():
    assert reward_format(_response([("A", "promotes")] * 3)) == 1.0
    assert reward_format(_response([("A", "promotes")], omit="think")) == -2.0


def test_correct_values():
    good = _response([("A", None)], answer=True)
    assert reward_correct(good, True) == 2.0
    assert reward_correct(good, False) == 0.0


def test_correct_requires_answer():
    parsed = parse_response("<think> t </think>\n<name> A </name>\n"
                            "<answer> Perhaps </answer>")
    assert reward_correct(parsed, True) == 0.0


def test_correct_regression_exact_match():
    text = "<think> t </think>\n<name> A </name>\n<answer> 2.5 </answer>"
    parsed = parse_response(text, task="regression")
    assert reward_correct(parsed, 2.5, task="regression") == 2.0
    assert reward_correct(parsed, 2.6, task="regression") == 0.0


@pytest.mark.parametrize(
    "n, expected",
    [(0, -1.0), (1, -1.0), (2, -1.0), (3, 0.0), (5, 0.0), (10, 0.0),
     (11, -1.0), (14, -1.0)],
)
def test_count_default_bounds(n, expected):
    parsed = _response([(f"A{i}", "promotes") for i in range(n)])
    assert reward_count(parsed) == expected


@pytest.mark.parametrize(
    "n, expected",
    [(10, -1.0), (14, -1.0), (15, 0.0), (20, 0.0), (21, -1.0)],
)
def test_count_ablation_bounds(n, expected):
    parsed = _response([(f"A{i}", "promotes") for i in range(n)])
    assert reward_count(parsed, 15, 20) == expected


def test_count_with_unparseable_claims_is_penalized():
    parsed = parse_response("<think> t </think>\n<name> A: sideways </name>\n"
                            "<answer> True </answer>")
    assert parsed.claims is None
    assert reward_count(parsed) == -1.0


# ---------------------------------------------------------------------------
# rationality
# ---------------------------------------------------------------------------


def _benzene():
    return parse_smiles("c1ccccc1")


def test_rational_needs_target_rows(default_table):
    parsed = _response([("MolWt", "promotes")])
    with pytest.raises(TableMissing):
        reward_rational(parsed, _benzene(), "ESOL", default_table)


def test_rational_all_bare_names_scores_zero(default_table):
    parsed = _response([("MolWt", None), ("TPSA", None), ("LogP", None)])
    assert reward_rational(parsed, _benzene(), "BBBP", default_table) == 0.0


def test_rational_fraction(default_table):
    # benzene BBBP verdicts under the default table:
    #   MolWt 78.1 in [0,500)   -> advantageous, "promotes" matches
    #   NumHDonors 0 not in [1,3] -> not advantageous, "promotes" mismatches
    parsed = _response([("MolWt", "promotes"), ("HBD", "promotes")])
    assert reward_rational(parsed, _benzene(), "BBBP", default_table) == 0.5


def test_rational_inhibits_matches_negative_verdict(default_table):
    parsed = _response([("HBD", "inhibits")])
    assert reward_rational(parsed, _benzene(), "BBBP", default_table) == 1.0


def test_rational_skips_unresolvable_and_unimplemented(default_table):
    parsed = _response([
        ("MolWt", "promotes"),
        ("Quantum Vibes", "promotes"),       # resolves to nothing
        ("Molar Refractivity", "promotes"),  # resolves, not implemented
    ])
    assert reward_rational(parsed, _benzene(), "BBBP", default_table) == 1.0


def test_rational_skips_descriptors_without_rows(default_table):
    # the default table has no acceptor row for BACE on purpose
    parsed = _response([("HBA", "promotes"), ("MolWt", "promotes")])
    mol = parse_smiles("CCCCCCCCCCCCCCCC")
    value = reward_rational(parsed, mol, "BACE", default_table)
    # only MolWt verifies; C16 chain weight 226.4 in [100,500) -> matched
    assert value == 1.0


def test_rational_computes_only_descriptors_with_rows(default_table):
    # toxicity has 6 rows and none for RingCount, an implemented descriptor
    assert "RingCount" not in default_table.rows("toxicity")
    mol = _benzene()
    base = total_reward(_response([("MolWt", "inhibits")]), mol, True,
                        "toxicity", default_table)
    bd = total_reward(_response([("MolWt", "inhibits"), ("RingCount", "promotes")]),
                      mol, True, "toxicity", default_table)
    assert "RingCount" not in mol.descriptor_cache
    assert "MolWt" in mol.descriptor_cache
    # benzene's MolWt 78.1 lies outside [500, inf), so "inhibits" matches
    assert (bd.verified, bd.matched) == (base.verified, base.matched) == (1, 1)


# ---------------------------------------------------------------------------
# totals
# ---------------------------------------------------------------------------


def test_total_composition(default_table):
    parsed = _response(
        [("MolWt", "promotes"), ("TPSA", "promotes"), ("HBD", "inhibits")],
        answer=True,
    )
    bd = total_reward(parsed, _benzene(), True, "BBBP", default_table)
    assert bd.format == 1.0
    assert bd.correct == 2.0
    assert bd.count == 0.0
    assert bd.rational == 1.0
    assert bd.total == 4.0
    assert (bd.n_att, bd.verified, bd.matched) == (3, 3, 3)


def test_total_floor(default_table):
    parsed = _response([], answer=False, omit="answer")
    bd = total_reward(parsed, _benzene(), True, "BBBP", default_table)
    assert bd.total == -3.0


def test_total_range_bounds(default_table):
    # every well-formed/malformed combination stays within [-3, 4]
    for omit in (None, "think", "name", "answer"):
        for answer, label in ((True, True), (True, False)):
            parsed = _response(
                [("MolWt", "promotes")] * 4, answer=answer, omit=omit
            )
            bd = total_reward(parsed, _benzene(), label, "BBBP",
                              default_table)
            assert -3.0 <= bd.total <= 4.0


def test_count_bounds_threaded_through_total(default_table):
    parsed = _response([(f"A{i}", None) for i in range(15)] )
    bd = total_reward(parsed, _benzene(), True, "BBBP", default_table,
                      count_bounds=(15, 20))
    assert bd.count == 0.0


def test_bundled_tables_agree_on_fixture_molecules(default_table, alt_table):
    # the two calibrations use different numbers but must issue the same
    # verdicts for the bundled case-study molecules
    mol = parse_smiles("CN(C(=O)Cc1ccc(Cl)c(Cl)c1)C1CCCC[C@H]1N1CCCC1")
    from attrilens.descriptors import compute, implemented_names

    rows_a, rows_b = default_table.rows("BBBP"), alt_table.rows("BBBP")
    shared = [name for name in implemented_names()
              if name in rows_a and name in rows_b]
    assert shared
    for name in shared:
        value = compute(mol, name).value
        a = any(iv.contains(value) for iv in rows_a[name])
        b = any(iv.contains(value) for iv in rows_b[name])
        assert a == b, name

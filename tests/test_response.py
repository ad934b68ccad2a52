"""Prompt specs, response grammar, and parser totality."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attrilens import response
from attrilens.response import (
    CLASSIFICATION,
    REGRESSION,
    AttributeClaim,
    PromptSpec,
    parse_claims,
    parse_response,
    render_response,
)


# ---------------------------------------------------------------------------
# prompt
# ---------------------------------------------------------------------------


def test_prompt_spec_rejects_unknown_task():
    with pytest.raises(ValueError):
        PromptSpec("ranking", "CCO", "BBBP")


# ---------------------------------------------------------------------------
# claims grammar
# ---------------------------------------------------------------------------


def test_claims_with_polarities():
    claims, ok = parse_claims("LogP: promotes, TPSA: inhibits")
    assert ok
    assert claims == (
        AttributeClaim("LogP", "promotes"),
        AttributeClaim("TPSA", "inhibits"),
    )


@pytest.mark.parametrize(
    "text, polarity",
    [
        ("X: promotes", "promotes"),
        ("X: promote", "promotes"),
        ("X: improves", "promotes"),
        ("X: improve", "promotes"),
        ("X: inhibits", "inhibits"),
        ("X: inhibit", "inhibits"),
        ("X: not improve", "inhibits"),
        ("X: does not improve", "inhibits"),
        ("X: Promotes", "promotes"),
        ("X:    INHIBITS", "inhibits"),
    ],
)
def test_polarity_synonyms(text, polarity):
    claims, ok = parse_claims(text)
    assert ok and claims[0].polarity == polarity


def test_bare_names_have_no_polarity():
    claims, ok = parse_claims("Molecular Weight, TPSA")
    assert ok
    assert all(c.polarity is None for c in claims)


def test_empty_payload_is_valid_empty_list():
    assert parse_claims("   ") == ((), True)


@pytest.mark.parametrize(
    "bad",
    [
        "X: maybe",
        "X: promotes, , Y: inhibits",
        ": promotes",
        "X: promotes,",
    ],
)
def test_bad_claims_rejected(bad):
    claims, ok = parse_claims(bad)
    assert not ok and claims is None


# ---------------------------------------------------------------------------
# full responses
# ---------------------------------------------------------------------------

WELL_FORMED = (
    "<think> reasoning about rings </think>\n"
    "<name> LogP: promotes, TPSA: inhibits, MolWt </name>\n"
    "<answer> True </answer>"
)


def test_well_formed_response():
    parsed = parse_response(WELL_FORMED)
    assert parsed.format_ok
    assert parsed.answer is True
    assert len(parsed.claims) == 3
    assert parsed.claims[2] == AttributeClaim("MolWt", None)
    assert parsed.think.strip() == "reasoning about rings"


@pytest.mark.parametrize("token, value", [
    ("True", True), ("true", True), ("TRUE.", True),
    ("False", False), ("false.", False),
])
def test_answer_tokens(token, value):
    text = f"<think> t </think>\n<name> A </name>\n<answer> {token} </answer>"
    parsed = parse_response(text)
    assert parsed.format_ok
    assert parsed.answer is value


def test_unparseable_answer_breaks_format():
    text = "<think> t </think>\n<name> A </name>\n<answer> Maybe </answer>"
    parsed = parse_response(text)
    assert not parsed.format_ok
    assert parsed.answer is None


def test_regression_answer_is_float():
    text = "<think> t </think>\n<name> A </name>\n<answer> -3.25 </answer>"
    parsed = parse_response(text, task=REGRESSION)
    assert parsed.format_ok
    assert parsed.answer == pytest.approx(-3.25)


def test_boolean_answer_invalid_for_regression():
    text = "<think> t </think>\n<name> A </name>\n<answer> True </answer>"
    parsed = parse_response(text, task=REGRESSION)
    assert not parsed.format_ok
    assert parsed.answer is None


@pytest.mark.parametrize(
    "mutation",
    [
        lambda s: s.replace("<think>", "").replace("</think>", ""),
        lambda s: s.replace("<name>", "").replace("</name>", ""),
        lambda s: s.replace("<answer>", "").replace("</answer>", ""),
        lambda s: s + "\n<answer> False </answer>",          # duplicate
        lambda s: "<answer> True </answer>\n" + s,           # extra first
        lambda s: s.replace("</think>", "").replace(
            "<name>", "</think><name>"
        ) if False else "<name> A </name>\n<think> t </think>\n"
                        "<answer> True </answer>",           # wrong order
        lambda s: "",
        lambda s: "plain text, no tags at all",
    ],
)
def test_malformed_variants(mutation):
    parsed = parse_response(mutation(WELL_FORMED))
    assert not parsed.format_ok


def test_fields_extracted_even_when_malformed():
    # first <answer> pair wins; duplicate tags break format only
    text = WELL_FORMED + "\n<answer> False </answer>"
    parsed = parse_response(text)
    assert not parsed.format_ok
    assert parsed.answer is True
    assert parsed.claims is not None and len(parsed.claims) == 3


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def test_render_parse_roundtrip_simple():
    text = render_response(
        "thinking", [("LogP", "promotes"), ("MolWt", None)], True
    )
    parsed = parse_response(text)
    assert parsed.format_ok
    assert parsed.answer is True
    assert parsed.claims == (
        AttributeClaim("LogP", "promotes"),
        AttributeClaim("MolWt", None),
    )


@pytest.mark.parametrize("omit", ["think", "name", "answer"])
def test_render_omit_breaks_format(omit):
    text = render_response("t", [("A", "promotes")], False, omit=omit)
    assert omit not in text
    assert not parse_response(text).format_ok


_NAMES = st.sampled_from(
    ["LogP", "TPSA", "MolWt", "HBD", "HBA", "Ring Count", "S-count",
     "FractionCSP3", "Aromatic Rings", "Charge"]
)
_POLARITIES = st.sampled_from(["promotes", "inhibits", None])
_CLAIMS = st.lists(st.tuples(_NAMES, _POLARITIES), min_size=0, max_size=12)
_THINK = st.text(
    alphabet=st.characters(blacklist_characters="<>", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=60,
).filter(lambda s: s.strip())


@settings(max_examples=300, deadline=None)
@given(think=_THINK, claims=_CLAIMS, answer=st.booleans())
def test_render_parse_roundtrip_property(think, claims, answer):
    text = render_response(think, claims, answer)
    parsed = parse_response(text)
    assert parsed.format_ok
    assert parsed.answer is answer
    assert parsed.claims == tuple(
        AttributeClaim(name, polarity) for name, polarity in claims
    )


@settings(max_examples=500, deadline=None)
@given(st.text(max_size=300))
def test_parser_total_on_arbitrary_text(text):
    parsed = parse_response(text)
    assert isinstance(parsed.format_ok, bool)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200))
def test_parser_total_on_bytes_decoded(raw):
    parsed = parse_response(raw.decode("latin-1"))
    assert isinstance(parsed.format_ok, bool)


_TAGS = ("<think>", "</think>", "<name>", "</name>", "<answer>", "</answer>")
_FILLERS = st.sampled_from(
    ["", " ", "x", " LogP: promotes, TPSA ", " MolWt: inhibits ", "LogP: maybe",
     " True ", "false.", " 2.5e1 ", " -.5 ", ",", ":", "<", "/>"]
)


@st.composite
def _tag_strings(draw):
    """The six tags in order, then swapped, duplicated and dropped at
    random, with fillers between them."""
    order = list(range(len(_TAGS)))
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["swap", "duplicate", "drop"]))
        if not order:
            break
        i = draw(st.integers(0, len(order) - 1))
        j = draw(st.integers(0, len(order) - 1))
        if edit == "swap":
            order[i], order[j] = order[j], order[i]
        elif edit == "duplicate":
            order.insert(j, order[i])
        else:
            del order[i]
    fillers = draw(st.lists(_FILLERS, min_size=len(order) + 1,
                            max_size=len(order) + 1))
    return "".join(f + _TAGS[k] for f, k in zip(fillers, order)) + fillers[-1]


def _reference_format_ok(text, task):
    """Reference: the format predicate with every order clause spelled out,
    reading the tags' counts and positions with ``str.find``."""

    def extract(tag):
        open_tag, close_tag = f"<{tag}>", f"</{tag}>"
        start = text.find(open_tag)
        end = text.find(close_tag, start + len(open_tag)) if start >= 0 else -1
        content = text[start + len(open_tag):end] if end >= 0 else None
        return content, text.count(open_tag), text.count(close_tag), start

    think, t_open, t_close, t_pos = extract("think")
    name_raw, n_open, n_close, n_pos = extract("name")
    answer_raw, a_open, a_close, a_pos = extract("answer")
    claims_ok = name_raw is not None and parse_claims(name_raw)[1]
    answer = response._parse_answer(answer_raw, task)
    return bool(
        t_open == 1 and t_close == 1 and think is not None
        and n_open == 1 and n_close == 1 and name_raw is not None
        and a_open == 1 and a_close == 1 and answer_raw is not None
        and claims_ok
        and answer is not None
        and text.find("</think>") < n_pos
        and text.find("</name>") < a_pos
        and t_pos < text.find("</think>")
        and n_pos < text.find("</name>")
        and a_pos < text.find("</answer>")
    )


@settings(max_examples=1000, deadline=None)
@given(_tag_strings())
@example("<think> a </think><name> LogP: promotes </name><answer> 2.5 </answer>")
@example("<think> a </think><name></name><answer> True </answer>")
def test_format_ok_matches_reference_predicate(text):
    for task in (CLASSIFICATION, REGRESSION):
        assert parse_response(text, task).format_ok \
            is _reference_format_ok(text, task), (text, task)

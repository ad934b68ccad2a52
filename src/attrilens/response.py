"""Strict response parsing and canonical response rendering.

The training prompt instructs the model to answer in three XML-ish sections:
``<think>`` free-form reasoning, ``<name>`` a comma-separated list of
attribute claims ("attribute: promotes" / "attribute: inhibits"), and
``<answer>`` the final prediction. Scoring rides on those tags, so parsing
must be total -- any byte string maps to a ParsedResponse, never an
exception -- and strict about what counts as well-formed.

Strictness rules (``format_ok``):
  * each tag pair appears exactly once, well nested, ordered
    think -> name -> answer;
  * the claims list parses completely (bare attribute names without a
    polarity are tolerated, matching how weaker models actually answer;
    they still count as claims but carry no polarity);
  * the answer parses for the task: true/false for classification, a
    decimal number for regression.

Field extraction is independent of ``format_ok``: a response with a valid
answer inside the tags but a missing think section still exposes its
answer (and is format-penalized), which is exactly how the reward stack
treats such outputs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "PromptSpec",
    "AttributeClaim",
    "ParsedResponse",
    "render_response",
    "parse_response",
    "parse_claims",
]

CLASSIFICATION = "classification"
REGRESSION = "regression"


@dataclass(frozen=True)
class PromptSpec:
    task: str            # "classification" | "regression"
    smiles: str
    target: str          # e.g. "BBBP"

    def __post_init__(self):
        if self.task not in (CLASSIFICATION, REGRESSION):
            raise ValueError(f"unknown task {self.task!r}")


@dataclass(frozen=True)
class AttributeClaim:
    raw_name: str
    polarity: str | None  # "promotes" | "inhibits" | None (bare name)


@dataclass(frozen=True)
class ParsedResponse:
    think: str | None
    claims: tuple[AttributeClaim, ...] | None
    answer: bool | float | None
    format_ok: bool


# ---------------------------------------------------------------------------
# Claims
# ---------------------------------------------------------------------------

_PROMOTES = {"promotes", "promote", "improves", "improve"}
_INHIBITS = {"inhibits", "inhibit", "not improve", "does not improve",
             "notimprove"}


def parse_claims(content: str) -> tuple[tuple[AttributeClaim, ...] | None, bool]:
    """Parse the name-tag payload. Returns (claims, ok).

    ``ok`` is False when any comma-separated piece fails the grammar
    ``name [":" polarity]``; the claims are then unusable and reported as
    ``None``. An empty payload is a valid empty claim list.
    """
    if not content.strip():
        return (), True
    claims: list[AttributeClaim] = []
    for piece in content.split(","):
        piece = piece.strip()
        if not piece:
            return None, False
        name, sep, polarity_text = piece.partition(":")
        name = name.strip()
        if not name:
            return None, False
        if not sep:
            claims.append(AttributeClaim(name, None))
            continue
        polarity_key = " ".join(polarity_text.lower().split())
        if polarity_key in _PROMOTES:
            claims.append(AttributeClaim(name, "promotes"))
        elif polarity_key in _INHIBITS:
            claims.append(AttributeClaim(name, "inhibits"))
        else:
            return None, False
    return tuple(claims), True


# ---------------------------------------------------------------------------
# Response parsing
# ---------------------------------------------------------------------------

_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def _extract(text: str, tag: str) -> tuple[str | None, bool, int, int]:
    """First-pair payload plus bookkeeping: (content, whether each tag
    occurs exactly once, open position, close position). Content is None
    when either tag is missing, and then the close position is -1."""
    open_tag, close_tag = f"<{tag}>", f"</{tag}>"
    once = text.count(open_tag) == 1 and text.count(close_tag) == 1
    start = text.find(open_tag)
    end = -1 if start < 0 else text.find(close_tag, start + len(open_tag))
    if end < 0:
        return None, once, start, -1
    return text[start + len(open_tag):end], once, start, end


def _parse_answer(content: str | None, task: str):
    if content is None:
        return None
    token = content.strip().rstrip(".").strip().lower()
    if task == CLASSIFICATION:
        if token == "true":
            return True
        if token == "false":
            return False
        return None
    if _NUMBER_RE.match(token):
        try:
            return float(token)
        except ValueError:  # pragma: no cover - regex prevents this
            return None
    return None


def parse_response(text: str, task: str = CLASSIFICATION) -> ParsedResponse:
    """Total function from raw text to a ParsedResponse.

    Never raises on string input; adversarial bytes simply produce
    ``format_ok=False`` with whatever fields were extractable.
    """
    if not isinstance(text, str):
        text = str(text)

    think, t_once, _, t_end = _extract(text, "think")
    name_raw, n_once, n_pos, n_end = _extract(text, "name")
    answer_raw, a_once, a_pos, _ = _extract(text, "answer")

    claims: tuple[AttributeClaim, ...] | None = None
    claims_ok = False
    if name_raw is not None:
        claims, claims_ok = parse_claims(name_raw)

    answer = _parse_answer(answer_raw, task)

    # A tag pair that occurs once and has content closes after it opens, so
    # its close position is the only one; the claims and the answer parse
    # only from content. What is left is the section order: think closes
    # before name opens, name closes before answer opens.
    format_ok = (
        t_once and think is not None and n_once and a_once
        and claims_ok and answer is not None
        and t_end < n_pos and n_end < a_pos
    )

    return ParsedResponse(
        think=think,
        claims=claims,
        answer=answer,
        format_ok=format_ok,
    )


def render_response(think: str, claims, answer, omit: str | None = None) -> str:
    """Assemble a response in the canonical shape the parser expects.

    ``claims`` is an iterable of (name, polarity) pairs, polarity None for
    a bare name;
    ``answer`` is a bool for classification or a number for regression.
    ``omit`` drops one tag pair entirely ("think" | "name" | "answer"),
    which is the canonical way to make a malformed-but-realistic response.
    """
    parts = []
    if omit != "think":
        parts.append(f"<think> {think} </think>")
    if omit != "name":
        rendered = [name if polarity is None else f"{name}: {polarity}"
                    for name, polarity in claims]
        parts.append(f"<name> {', '.join(rendered)} </name>")
    if omit != "answer":
        if isinstance(answer, bool):
            text = "True" if answer else "False"
        else:
            text = f"{answer}"
        parts.append(f"<answer> {text} </answer>")
    return "\n".join(parts)

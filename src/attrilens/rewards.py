"""The four verifiable rewards and the advantageous-range tables.

Reward semantics (classification labels are booleans):

* format: +1 when the response carries exactly one well-ordered
  think/name/answer tag triple with a parseable claims list and answer,
  else -2.
* correctness: +2 when the answer extracted from the answer tags equals
  the label, else 0. No tags, no credit.
* attribute count: 0 while the number of claimed attributes lies in the
  configured band (default 3..10), else -1.
* rationality: the fraction of *verifiable* claims whose stated polarity
  agrees with the range table -- a claim "LogP: promotes" matches when the
  computed MolLogP falls inside the advantageous interval set for the
  target property. Claims are unverifiable (excluded from the
  denominator) when they carry no polarity, fail to resolve, resolve to an
  unimplemented descriptor, or have no table entry; a response with no
  verifiable claims scores 0.

The total is the plain sum, so it lives in [-3, +4].

Range tables are plain text: ``target <TAB> descriptor <TAB> interval-set``
with interval sets like ``[0, 90)`` or ``(-inf, 3.5], (5, 7)``: exactly one
comma between intervals, and none before the first or after the last.
Membership is exact closed/half-open arithmetic -- no epsilon fuzz.
"""

from __future__ import annotations

import logging
import math
import operator
import re
from dataclasses import dataclass
from pathlib import Path

from . import descriptors
from .molgraph import Molecule
from .response import CLASSIFICATION, ParsedResponse
from ._data import open_text, resolve_range_table

__all__ = [
    "Interval",
    "RangeTable",
    "ParseError",
    "UnknownDescriptor",
    "TableMissing",
    "load_range_table",
    "REWARD_COMPONENTS",
    "RewardBreakdown",
    "reward_format",
    "reward_correct",
    "reward_count",
    "reward_rational",
    "total_reward",
    "DEFAULT_COUNT_BOUNDS",
]

log = logging.getLogger(__name__)

DEFAULT_COUNT_BOUNDS = (3, 10)


class ParseError(ValueError):
    """Malformed range-table line (message carries file and line number)."""


class UnknownDescriptor(ParseError):
    """Range table references a descriptor outside the registry."""


class TableMissing(LookupError):
    """The table has no entries at all for the requested target property."""


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    lo_closed: bool
    hi_closed: bool

    def contains(self, x: float) -> bool:
        above = x >= self.lo if self.lo_closed else x > self.lo
        below = x <= self.hi if self.hi_closed else x < self.hi
        return above and below

    def __str__(self) -> str:
        lo = "[" if self.lo_closed else "("
        hi = "]" if self.hi_closed else ")"
        return f"{lo}{self.lo:g}, {self.hi:g}{hi}"


_NUMBER = r"[+-]?(?:inf|\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
# Groups: the interval as written, its brackets and its two bounds.
_INTERVAL = rf"(([\[\(])\s*({_NUMBER})\s*,\s*({_NUMBER})\s*([\]\)]))"
_INTERVAL_RE = re.compile(_INTERVAL)
_INTERVAL_SET_RE = re.compile(rf"\s*{_INTERVAL}(?:\s*,\s*{_INTERVAL})*\s*")


def parse_interval_set(text: str, where: str = "") -> tuple[Interval, ...]:
    """Parse a union of intervals with exactly one comma between them."""
    if not _INTERVAL_SET_RE.fullmatch(text):
        raise ParseError(f"{where}: malformed interval set {text!r}")
    intervals = []
    # findall, not a match iterator: on CPython 3.11 those leave strings
    # in the type attribute cache (see molgraph.parse_smiles).
    for written, lo_bracket, lo_text, hi_text, hi_bracket in _INTERVAL_RE.findall(text):
        lo, hi = float(lo_text), float(hi_text)
        lo_closed, hi_closed = lo_bracket == "[", hi_bracket == "]"
        if math.isinf(lo) and lo > 0 or math.isinf(hi) and hi < 0 or lo > hi:
            raise ParseError(f"{where}: inverted interval {written!r}")
        if math.isinf(lo) and lo_closed or math.isinf(hi) and hi_closed:
            raise ParseError(f"{where}: closed infinite bound in {written!r}")
        intervals.append(Interval(lo, hi, lo_closed, hi_closed))
    return tuple(intervals)


@dataclass(frozen=True)
class RangeTable:
    """Advantageous interval sets, one map per target property.

    ``entries`` maps a lowercased target to ``{descriptor name: intervals}``.
    """

    entries: dict  # target_lower -> {descriptor_name: tuple[Interval, ...]}
    source: str

    def rows(self, target: str) -> dict:
        """The target's descriptor map, matching the target case-insensitively.

        Raises :class:`TableMissing` when the table has no entries for it.
        """
        rows = self.entries.get(target.lower())
        if rows is None:
            raise TableMissing(f"range table {self.source} has no entries for "
                               f"target {target!r}")
        return rows


def load_range_table(path_or_name: "str | Path") -> RangeTable:
    """Load a range table from a file path or a bundled-table name."""
    path = resolve_range_table(str(path_or_name))
    if not path.exists():
        raise FileNotFoundError(f"range table not found: {path}")
    entries: dict = {}
    canonical = {e.name for e in descriptors.registry()}
    with open_text(path, ParseError) as fh:
        text = fh.read()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        where = f"{path}:{lineno}"
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(f"{where}: expected 3 tab-separated fields, got {len(parts)}")
        target, descriptor_name, interval_text = (p.strip() for p in parts)
        if not target:
            raise ParseError(f"{where}: empty target")
        if descriptor_name not in canonical:
            raise UnknownDescriptor(f"{where}: unknown descriptor {descriptor_name!r}")
        rows = entries.setdefault(target.lower(), {})
        if descriptor_name in rows:
            raise ParseError(f"{where}: duplicate entry for {target}/{descriptor_name}")
        rows[descriptor_name] = parse_interval_set(interval_text, where)
    return RangeTable(entries=entries, source=str(path))


# ---------------------------------------------------------------------------
# Rewards
# ---------------------------------------------------------------------------


# The four rewards and their sum, in the order every report lists them.
REWARD_COMPONENTS = ("format", "correct", "count", "rational", "total")


@dataclass(frozen=True)
class RewardBreakdown:
    format: float
    correct: float
    count: float
    rational: float
    total: float
    n_att: int
    verified: int   # verifiable claims (rationality denominator)
    matched: int    # verifiable claims whose polarity agreed

    components = property(
        operator.attrgetter(*REWARD_COMPONENTS),
        doc="The values of :data:`REWARD_COMPONENTS`, in that order.")


def reward_format(parsed: ParsedResponse) -> float:
    return 1.0 if parsed.format_ok else -2.0


def reward_correct(parsed: ParsedResponse, label, task: str = CLASSIFICATION) -> float:
    """+2 iff an answer was extracted from the answer tags and equals the
    label. For regression tasks equality is exact -- the training reward is
    defined for binary tasks and regression corpora only pass through here
    for bookkeeping."""
    answer = parsed.answer
    if answer is None:
        return 0.0
    if task == CLASSIFICATION:
        if not isinstance(answer, bool) or not isinstance(label, bool):
            return 0.0
        return 2.0 if answer == label else 0.0
    try:
        return 2.0 if float(answer) == float(label) else 0.0
    except (TypeError, ValueError):
        return 0.0


def reward_count(parsed: ParsedResponse, lo: int = 3, hi: int = 10) -> float:
    n_att = len(parsed.claims or ())
    return 0.0 if lo <= n_att <= hi else -1.0


def _rational_detail(parsed: ParsedResponse, mol: Molecule, target: str,
                     table: RangeTable) -> tuple[float, int, int]:
    rows = table.rows(target)
    verified = 0
    matched = 0
    for claim in parsed.claims or ():
        ident = None
        if claim.polarity is None:
            skip = "no polarity"
        elif (ident := descriptors.resolve_attribute(claim.raw_name)) is None:
            skip = "unresolved"
        elif not ident.implemented:
            skip = "unimplemented"
        elif (ivs := rows.get(ident.name)) is None:
            skip = "no table entry"
        else:
            verified += 1
            value = descriptors.compute(mol, ident).value
            if (claim.polarity == "promotes") == any(iv.contains(value) for iv in ivs):
                matched += 1
            continue
        log.debug("claim %r: %s (descriptor %s, target %s), unverifiable",
                  claim.raw_name, skip, ident and ident.name, target)
    value = matched / verified if verified else 0.0
    return value, verified, matched


def reward_rational(parsed: ParsedResponse, mol: Molecule, target: str,
                    table: RangeTable) -> float:
    value, _, _ = _rational_detail(parsed, mol, target, table)
    return value


def total_reward(parsed: ParsedResponse, mol: Molecule, label, target: str,
                 table: RangeTable,
                 count_bounds: tuple[int, int] = DEFAULT_COUNT_BOUNDS,
                 task: str = CLASSIFICATION) -> RewardBreakdown:
    fmt = reward_format(parsed)
    correct = reward_correct(parsed, label, task)
    count = reward_count(parsed, *count_bounds)
    rational, verified, matched = _rational_detail(parsed, mol, target, table)
    return RewardBreakdown(
        format=fmt,
        correct=correct,
        count=count,
        rational=rational,
        total=fmt + correct + count + rational,
        n_att=len(parsed.claims or ()),
        verified=verified,
        matched=matched,
    )

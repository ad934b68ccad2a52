"""Bundled-data resolution, reading input text files, and the input and
configuration errors that the command line maps to exit codes.

Data files ship inside the package; setting ``ATTRILENS_DATA_DIR`` points
every consumer (range tables, fixture corpora, benchmark CSVs) at an
external directory instead, which is how deployments swap in their own
calibrated tables without touching the install.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path

_PACKAGE_DATA = Path(__file__).parent / "data"

ENV_VAR = "ATTRILENS_DATA_DIR"

# Named, pre-calibrated range tables; the name encodes which assistant's
# range suggestions seeded the calibration.
BUNDLED_RANGE_TABLES = {
    "gpt4o-default": "ranges_gpt4o_default.tsv",
    "r1-default": "ranges_r1_default.tsv",
}


class ConfigError(ValueError):
    """Invalid configuration: a flag, a config file or a simulator setting."""


class MissingColumn(ValueError):
    """The CSV lacks a column the schema requires."""


class EmptyDataset(ValueError):
    """No usable records."""


class DegenerateLabels(ValueError):
    """An operation needing both classes saw only one."""


class BadRecord(ValueError):
    """A CSV row lacks a field or carries a bad label."""


def data_dir() -> Path:
    override = os.environ.get(ENV_VAR)
    if override:
        return Path(override)
    return _PACKAGE_DATA


def data_path(name: str) -> Path:
    return data_dir() / name


def resolve_range_table(spec: str) -> Path:
    """Map a table name or filesystem path to a concrete file."""
    if spec in BUNDLED_RANGE_TABLES:
        return data_path(BUNDLED_RANGE_TABLES[spec])
    return Path(spec)


@contextlib.contextmanager
def open_text(path, error: type[Exception], **kwargs):
    """``open(path, **kwargs)`` for reading text. A byte the codec cannot
    decode raises ``error`` naming ``path:line``."""
    try:
        with open(path, **kwargs) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        data = Path(path).read_bytes()
        try:  # exc counts bytes from the start of the block it decoded
            data.decode(exc.encoding)
        except UnicodeDecodeError as whole:
            exc = whole
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line}: not valid {exc.encoding} text: "
                    f"{exc.reason}") from exc

"""Loading and preprocessing of categorical attribute datasets (CADs).

A CAD is a table of n records over m categorical attributes, optionally
paired with a class-label column that is held out for evaluation and never
fed to training.  It is stored as an n-by-m integer code matrix: cell (i, j)
indexes the domain of attribute j, the observed distinct tokens kept in
first-appearance order so downstream node indexing is deterministic.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, count
from pathlib import Path
from typing import Sequence

import numpy as np


class DatasetError(Exception):
    """Malformed input data or manifest/contract violation."""


@dataclass(frozen=True, eq=False)
class CAD:
    """Categorical attribute dataset: code matrix, attribute domains, optional labels.

    ``codes[i, j]`` indexes the token of record i in ``domains[j]``.  An
    int64 matrix is taken over, not copied, and made read-only.
    """

    codes: np.ndarray
    attribute_names: tuple[str, ...]
    domains: tuple[tuple[str, ...], ...]
    labels: tuple[str, ...] | None = None

    @property
    def n(self) -> int:
        return self.codes.shape[0]

    @property
    def m(self) -> int:
        return len(self.attribute_names)

    def __post_init__(self):
        if len(self.domains) != self.m:
            raise DatasetError("one domain required per attribute")
        codes = np.asarray(self.codes)
        if codes.ndim != 2 or codes.shape[1] != self.m or codes.dtype.kind not in "iu":
            raise DatasetError(f"codes must be an (n, {self.m}) integer matrix, got {codes.dtype}{codes.shape}")
        codes = codes.astype(np.int64, copy=False)
        codes.setflags(write=False)
        object.__setattr__(self, "codes", codes)
        outside = np.argwhere((codes < 0) | (codes >= [len(d) for d in self.domains]))
        if len(outside):
            i, j = outside[0]
            raise DatasetError(f"record {i}: code {codes[i, j]} outside the domain of "
                               f"{self.attribute_names[j]!r}")
        if self.labels is not None and len(self.labels) != self.n:
            raise DatasetError(f"{len(self.labels)} labels for {self.n} records")


def _encode(rows: Sequence[Sequence[str]], width: int, describe, strip: bool = False):
    """(n, width) codes of ``rows``, each cell hashed once, and ``tokens[code]``.

    ``strip`` strips each distinct token once; tokens equal after stripping
    share a code.  Row i of another length k raises ``describe(i, k)``.
    """
    lengths = np.fromiter(map(len, rows), np.int64, len(rows))
    wrong = np.flatnonzero(lengths != width)
    if len(wrong):
        raise DatasetError(describe(int(wrong[0]), int(lengths[wrong[0]])))
    code = defaultdict(count().__next__)
    codes = np.fromiter(map(code.__getitem__, chain.from_iterable(rows)), np.int64,
                        len(rows) * width).reshape(len(rows), width)
    if strip:
        merged = defaultdict(count().__next__)
        codes = np.fromiter(map(merged.__getitem__, map(str.strip, code)), np.int64,
                            len(code))[codes]
        code = merged
    return codes, list(code)


def _domains(codes: np.ndarray, tokens: Sequence[str]):
    """``codes`` with each column renumbered to first appearance, and its domains."""
    out = np.empty(codes.shape, dtype=np.int64)
    domains = []
    for j in range(codes.shape[1]):
        out[:, j], domain = _first_appearance(codes[:, j], tokens)
        domains.append(domain)
    return out, tuple(domains)


def make_cad(records, attribute_names, labels=None) -> CAD:
    """Build a CAD with domains computed from the data in first-appearance order."""
    records = list(records)
    attribute_names = tuple(attribute_names)
    m = len(attribute_names)
    codes, domains = _domains(*_encode(
        records, m, lambda i, k: f"record {i} has {k} entries, expected {m}"))
    return CAD(codes, attribute_names, domains,
               labels=tuple(labels) if labels is not None else None)


@dataclass
class DatasetManifest:
    """Per-dataset loading instructions: column roles, source, integrity pin.

    ``checksum`` is a sha256 hex digest; empty means unpinned (no integrity
    check on fetch).  A file is headerless exactly when ``column_names``
    supplies its schema.  Roles: exactly zero or one column is the label,
    ``drop_columns`` are identifiers excluded from modeling, everything else
    is a feature.
    """

    name: str
    source_url: str = ""
    checksum: str = ""
    label_column: str | None = None
    drop_columns: tuple[str, ...] = ()
    missing_token: str = "?"
    column_names: tuple[str, ...] | None = None

    @classmethod
    def from_file(cls, path) -> "DatasetManifest":
        return cls.from_entries(read_kv_file(path), f"manifest {path}")

    @classmethod
    def from_entries(cls, entries: dict[str, str], where: str) -> "DatasetManifest":
        """The manifest of ``key = value`` entries; ``where`` names their source in errors."""
        unknown = set(entries) - {
            "name", "source_url", "checksum", "label", "drop", "missing_token", "columns",
        }
        if unknown:
            raise DatasetError(f"unknown manifest keys: {sorted(unknown)}")
        if "name" not in entries:
            raise DatasetError(f"{where} missing 'name'")
        return cls(
            name=entries["name"],
            source_url=entries.get("source_url", cls.source_url),
            checksum=entries.get("checksum", cls.checksum),
            label_column=entries.get("label") or None,
            drop_columns=tuple(t for t in entries.get("drop", "").split(",") if t),
            missing_token=entries.get("missing_token", cls.missing_token),
            column_names=tuple(t for t in entries.get("columns", "").split(",") if t) or None,
        )


def read_kv_file(path) -> dict[str, str]:
    """Parse a flat ``key = value`` text file; '#' starts a comment line.

    A key given twice is an error naming the file, the line and the key.
    """
    entries, lines = {}, {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DatasetError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in entries:
            raise DatasetError(f"{path}:{lineno}: key {key!r} repeats line {lines[key]}")
        entries[key], lines[key] = value.strip(), lineno
    return entries


def load_csv(path, manifest: DatasetManifest) -> CAD:
    """Load a comma-separated file into a CAD per the manifest's column roles.

    Identifier columns are dropped, the label column is split out, and
    domains are computed in first-appearance order.  Each cell is hashed
    once, through one table of the file's tokens; each distinct token is
    stripped of surrounding whitespace once, and each column is renumbered
    to first appearance on the integer codes.  The first row is the
    header unless the manifest gives column names.  A byte-order mark
    before the header is ignored.  A label or drop column missing from the
    header and a column named twice are errors.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        rows = list(filter(None, csv.reader(fh)))
    if not rows:
        raise DatasetError(f"{path}: empty dataset")
    if manifest.column_names is None:
        header, rows = [c.strip() for c in rows[0]], rows[1:]
    else:
        header = list(manifest.column_names)
    if not rows:
        raise DatasetError(f"{path}: no data rows")
    repeated = next((c for j, c in enumerate(header) if c in header[:j]), None)
    if repeated is not None:
        raise DatasetError(f"{path}: column {repeated!r} is named twice")
    codes, tokens = _encode(rows, len(header), lambda i, k: (
        f"{path}: row {i + 1} has {k} fields, expected {len(header)}"), strip=True)

    named = [("label", manifest.label_column)] + [("drop", c) for c in manifest.drop_columns]
    for role, column in named:
        if column is not None and column not in header:
            raise DatasetError(f"{path}: {role} column {column!r} not found")

    label = manifest.label_column
    feature_idx = [j for j, c in enumerate(header) if c != label and c not in manifest.drop_columns]
    labels = None
    if label is not None:
        labels = tuple(map(tokens.__getitem__, codes[:, header.index(label)].tolist()))
    features, domains = _domains(codes[:, feature_idx], tokens)
    return CAD(features, tuple(header[j] for j in feature_idx), domains, labels)


def _first_appearance(column: np.ndarray, domain: Sequence[str]):
    """``column`` and ``domain`` renumbered in first-appearance order, unused values dropped.

    Each value's first row comes from ``np.minimum.at``, not from sorting the column.
    """
    first = np.full(len(domain), len(column))
    np.minimum.at(first, column, np.arange(len(column)))
    order = np.flatnonzero(first < len(column))
    order = order[np.argsort(first[order])]
    renumber = np.zeros(len(domain), dtype=np.int64)
    renumber[order] = np.arange(len(order))
    return renumber[column], tuple(domain[k] for k in order)


def impute_modes(cad: CAD, missing_token: str = "?") -> CAD:
    """Replace every missing token by its attribute's most frequent value.

    Ties break toward the token that appears first in the column; an
    attribute whose values are all missing has no mode and is an error.
    Modes and first appearances are counted on the codes; no column is sorted.
    """
    codes = np.empty_like(cad.codes)
    domains = []
    for j in range(cad.m):
        column, domain = _first_appearance(cad.codes[:, j], cad.domains[j])
        if missing_token in domain:
            missing = domain.index(missing_token)
            counts = np.bincount(column, minlength=len(domain))
            counts[missing] = 0
            if not counts.any():
                raise DatasetError(f"attribute {cad.attribute_names[j]!r}: all values missing, no mode")
            # codes follow first appearance, so argmax's first maximum wins ties
            column[column == missing] = np.argmax(counts)
            column, domain = _first_appearance(column, domain)
        codes[:, j] = column
        domains.append(domain)
    return CAD(codes, cad.attribute_names, tuple(domains), cad.labels)

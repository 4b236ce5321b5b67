"""Domain types and knowledge-base management for transaction trust assessment.

An agent's knowledge base is its own transaction history: each entry carries a
quantitative feature vector, a categorical context tag, and a binary outcome.
Candidate transactions being assessed are the same type with a pending outcome.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

from .errors import DimensionMismatch, DuplicateId, LogFormatError, TrustlensError

_MISSING = object()


class Outcome(Enum):
    """Binary transaction rating. There is no neutral grade."""

    SUCCESSFUL = 1
    UNSUCCESSFUL = 0


@dataclass(frozen=True)
class Transaction:
    """One past or candidate interaction with a counterparty.

    ``outcome`` is ``None`` while the transaction is pending (a candidate
    under assessment); completed transactions carry a binary outcome.
    Repeat counterparties are stored as separate entries, never merged.
    """

    id: str
    counterparty: str
    context: str
    features: tuple[float, ...]
    outcome: Outcome | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", tuple(map(float, self.features)))
        if not all(map(math.isfinite, self.features)):
            raise ValueError(f"transaction {self.id!r} has non-finite feature values")


@dataclass
class TransactionLog:
    """An agent's local history of completed transactions.

    Every entry shares the log's dimensionality, has a resolved outcome, and
    a unique id. Mutation is single-writer: only the owning agent appends.
    ``entries`` grows only through ``append``, which keeps the class counts,
    the set of contexts and the context views current; what else is derived
    from the entries is kept until the next ``append``.
    """

    owner: str
    dimensionality: int
    entries: list[Transaction] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.dimensionality < 1:
            raise ValueError("dimensionality must be >= 1")
        ids: set[str] = set()
        for t in self.entries:
            self._validate_entry(t, ids)
            ids.add(t.id)
        self._ids = ids
        self._n_successful = sum(1 for t in self.entries if t.outcome is Outcome.SUCCESSFUL)
        self._contexts = {t.context for t in self.entries}
        self._derived: dict = {}  # key -> value computed from the current entries
        self._raised: dict = {}  # key -> the TrustlensError its computation raised
        self._views: dict[str, TransactionLog] = {}  # context -> its view, grown by append

    def _validate_entry(self, t: Transaction, ids: set[str]) -> None:
        if t.outcome is None:
            raise ValueError(f"transaction {t.id!r} is pending; logs hold completed transactions")
        if len(t.features) != self.dimensionality:
            raise DimensionMismatch(
                f"transaction {t.id!r} has {len(t.features)} features, log expects {self.dimensionality}"
            )
        if t.id in ids:
            raise DuplicateId(f"transaction id {t.id!r} already present in log of {self.owner!r}")

    def append(self, t: Transaction) -> None:
        self._validate_entry(t, self._ids)
        self.entries.append(t)
        self._ids.add(t.id)
        self._n_successful += t.outcome is Outcome.SUCCESSFUL
        self._contexts.add(t.context)
        self._derived.clear()
        self._raised.clear()
        view = self._views.get(t.context)
        if view is not None:
            view.append(t)

    def derived(self, key: object, compute: Callable[[TransactionLog], Any]) -> Any:
        """``compute(self)``, kept under ``key`` until the next ``append``; a
        ``TrustlensError`` it raised is kept and raised again."""
        found = self._derived.get(key, _MISSING)
        if found is _MISSING:
            if key in self._raised:  # not on top of an earlier raise's traceback
                raise self._raised[key].with_traceback(None)
            try:
                found = self._derived[key] = compute(self)
            except TrustlensError as exc:
                self._raised[key] = exc
                raise
        return found

    def context_view(self, context: str) -> TransactionLog:
        """The entries in ``context``: the log itself when it holds no other
        context, else a ``filter_by_context`` view made once and grown by each
        ``append`` in ``context``, so an append elsewhere leaves it, and what is
        derived from it, alone. Its readers must not append to it."""
        if self._contexts <= {context}:
            return self
        view = self._views.get(context)
        if view is None:
            view = self._views[context] = filter_by_context(self, context)
        return view

    def __len__(self) -> int:
        return len(self.entries)

    def class_counts(self) -> tuple[int, int]:
        """(successful, unsuccessful) entry counts."""
        return self._n_successful, len(self.entries) - self._n_successful


@dataclass(frozen=True)
class Prediction:
    """A classifier's call on a candidate transaction.

    ``confidence`` is 0 for a coin-flip recommendation and 1 for a fully
    decisive one. ``algorithm`` tags the producing classifier
    (LDA, DT, Combined, or Baseline-*).
    """

    label: Outcome
    confidence: float
    algorithm: str

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")


def filter_by_context(log: TransactionLog, context: str) -> TransactionLog:
    """Sub-log of entries whose context tag matches exactly.

    Owner and dimensionality are preserved; the result may be empty.
    """
    kept = [t for t in log.entries if t.context == context]
    return TransactionLog(owner=log.owner, dimensionality=log.dimensionality, entries=kept)


# CSV log format: header `id,counterparty,context,outcome,f1,...,fd`,
# outcome in {1,0} (1 = successful), d inferred from the feature columns.
# Written only by `log_writer` and `write_indexed_log`, with a row index.

_FIXED_COLUMNS = ("id", "counterparty", "context", "outcome")
_OUTCOMES = {"1": Outcome.SUCCESSFUL, "0": Outcome.UNSUCCESSFUL}
_INDEX_MAGIC = b"trustlens-log-index 1 "


def index_path(path: str | Path) -> Path:
    """Where the row index of the log at ``path`` lives: ``<log>.index``."""
    return Path(f"{path}.index")


def read_log_csv(
    path: str | Path, owner: str = "local", context: str | None = None
) -> TransactionLog:
    """Load a transaction log from its CSV representation.

    Every row was checked (field count, outcome, finite features, ids unique
    across the whole file), whatever its context: at ingest or now. With
    ``context`` set, only the rows in that context become entries, which
    equals ``filter_by_context(read_log_csv(path, owner), context)``, and only
    they are read when the row index beside the log matches it; a missing,
    unreadable, malformed or stale index means a full read. An error's
    ``row`` is the physical line its record ends on, the header being line 1.
    """
    path = Path(path)
    log = None if context is None else _read_indexed(path, owner, context)
    return _read_full(path, owner, context) if log is None else log


def _read_full(path: Path, owner: str, context: str | None) -> TransactionLog:
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:  # a leading BOM is dropped
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise LogFormatError("missing header row", row=1) from None
            d = _check_header(header)
            entries: list[Transaction] = []
            ids: set[str] = set()
            for row in reader:
                if not row:
                    continue
                outcome, features = _check_row(row, d, reader.line_num)
                tid, counterparty, row_context = row[:3]
                if tid in ids:
                    raise LogFormatError(f"duplicate transaction id {tid!r}", row=reader.line_num, column="id")
                ids.add(tid)
                if context is None or row_context == context:
                    entries.append(Transaction(tid, counterparty, row_context, features, outcome))
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        raise LogFormatError(f"unreadable CSV: {exc}", row=reader.line_num) from None
    return TransactionLog(owner=owner, dimensionality=d, entries=entries)


def _check_row(row: list[str], d: int, line: int) -> tuple[Outcome, list[float]]:
    """A record's outcome and features, or the ``LogFormatError`` naming ``line``."""
    if len(row) != 4 + d:
        raise LogFormatError(f"expected {4 + d} fields, found {len(row)}", row=line)
    outcome = _OUTCOMES.get(row[3])
    if outcome is None:
        raise LogFormatError(f"outcome must be 1 or 0, found {row[3]!r}", row=line, column="outcome")
    features = []
    for i, cell in enumerate(row[4:], start=1):
        try:
            value = float(cell)
        except ValueError:
            raise LogFormatError(f"feature value {cell!r} is not a number", row=line, column=f"f{i}") from None
        if not math.isfinite(value):
            raise LogFormatError(f"feature value {cell!r} is not finite", row=line, column=f"f{i}")
        features.append(value)
    return outcome, features


def _read_indexed(path: Path, owner: str, context: str) -> TransactionLog | None:
    """``context``'s rows, parsed at the row index's offsets from the log bytes its digest
    covered, or None when the index is missing, unreadable, malformed or not this log's."""
    try:
        index, data = index_path(path).read_bytes(), path.read_bytes()
        head = index.index(b"\n")  # the body follows the head's newline
        digest = hashlib.sha256(data)
        digest.update(memoryview(index)[head + 1 :])
        if index[:head] != _INDEX_MAGIC + digest.hexdigest().encode():
            return None
        # the context's line starts after a newline outside any quoted field
        key = b"\n" + _index_key(context).encode("utf-8") + b","
        at = index.find(key, head)
        while at >= 0 and index.count(b'"', head, at) % 2:
            at = index.find(key, at + 1)
        end = at + len(key)
        starts = index[end : index.index(b"\n", end)].split(b",") if at >= 0 else []
        fh = io.BytesIO(data)  # shares data's buffer
        reader = csv.reader(line.decode("utf-8") for line in fh)  # one record per next()
        d = _check_header(next(reader))
        entries = []
        for start in map(int, starts):
            fh.seek(start)
            row = next(reader)
            outcome, features = _check_row(row, d, reader.line_num)
            if row[2] != context:
                return None
            entries.append(Transaction(row[0], row[1], context, features, outcome))
        return TransactionLog(owner=owner, dimensionality=d, entries=entries)
    except (OSError, ValueError, StopIteration, csv.Error, TrustlensError):
        return None


def _index_key(context: str) -> str:
    """``context`` as the row index writes it: a quoted CSV field."""
    return '"' + context.replace('"', '""') + '"'


def log_writer(lines: list[str], d: int) -> Callable[[list[str]], Any]:
    """``writerow`` of a csv writer that appends a record of the log format to
    ``lines`` as one line ended by CRLF (RFC 4180), so a field holding a comma,
    quote, CR or LF is quoted; ``lines[0]`` is the header of ``d`` features."""
    writerow = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n").writerow
    writerow(_FIXED_COLUMNS + tuple(f"f{i}" for i in range(1, d + 1)))
    return writerow


def write_indexed_log(path: str | Path, lines: list[str], contexts: dict[str, list[int]]) -> None:
    """Write the log of a ``log_writer``'s ``lines`` and its row index: a line of
    ``_INDEX_MAGIC`` and the hex SHA-256 of the log's bytes and then of the body,
    then one CSV row per context of ``contexts`` (context -> its records'
    positions in ``lines``): the context, quoted, then its rows' byte offsets."""
    text = "".join(lines)
    data = text.encode("utf-8")
    sizes = map(len, lines) if len(data) == len(text) else map(len, map(str.encode, lines))  # ASCII: a byte a char
    starts = list(accumulate(sizes, initial=0))
    body = "".join(
        f"{_index_key(c)},{','.join(map(str, map(starts.__getitem__, numbers)))}\n"
        for c, numbers in contexts.items()
    ).encode("utf-8")
    Path(path).write_bytes(data)
    index_path(path).write_bytes(_INDEX_MAGIC + hashlib.sha256(data + body).hexdigest().encode() + b"\n" + body)


def _check_header(header: list[str]) -> int:
    names = [h.strip() for h in header]
    if tuple(names[:4]) != _FIXED_COLUMNS:
        raise LogFormatError(
            f"header must start with {','.join(_FIXED_COLUMNS)}", row=1
        )
    feature_names = names[4:]
    if not feature_names:
        raise LogFormatError("header declares no feature columns", row=1)
    for i, name in enumerate(feature_names, start=1):
        if name != f"f{i}":
            raise LogFormatError(
                f"feature columns must be f1..fd in order, found {name!r}",
                row=1,
                column=name,
            )
    return len(feature_names)


def write_log_csv(log: TransactionLog, path: str | Path) -> None:
    """Write a log, and its row index, in the format read back by :func:`read_log_csv`."""
    lines: list[str] = []
    contexts: dict[str, list[int]] = {}  # context -> its records' positions in lines
    writerow = log_writer(lines, log.dimensionality)
    for t in log.entries:
        contexts.setdefault(t.context, []).append(len(lines))
        writerow([t.id, t.counterparty, t.context, str(t.outcome.value), *map(repr, t.features)])
    write_indexed_log(path, lines, contexts)

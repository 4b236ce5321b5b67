"""Domain types and knowledge-base management for transaction trust assessment.

An agent's knowledge base is its own transaction history: each entry carries a
quantitative feature vector, a categorical context tag, and a binary outcome.
Candidate transactions being assessed are the same type with a pending outcome.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable

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


def derived_each(
    logs: Iterable[TransactionLog], key: object, compute: Callable[[TransactionLog], Any]
) -> list:
    """``[log.derived(key, compute) for log in logs]``, without a method call per kept value."""
    values = []
    for log in logs:
        found = log._derived.get(key, _MISSING)
        values.append(log.derived(key, compute) if found is _MISSING else found)
    return values


def filter_by_context(log: TransactionLog, context: str) -> TransactionLog:
    """Sub-log of entries whose context tag matches exactly.

    Owner and dimensionality are preserved; the result may be empty.
    """
    kept = [t for t in log.entries if t.context == context]
    return TransactionLog(owner=log.owner, dimensionality=log.dimensionality, entries=kept)


# CSV log format: header `id,counterparty,context,outcome,f1,...,fd`,
# outcome in {1,0} (1 = successful), d inferred from the feature columns.

_FIXED_COLUMNS = ("id", "counterparty", "context", "outcome")


def read_log_csv(
    path: str | Path, owner: str = "local", context: str | None = None
) -> TransactionLog:
    """Load a transaction log from its CSV representation.

    Every row is checked (field count, outcome, finite features, ids unique
    across the whole file), whatever its context. With ``context`` set, only
    the rows in that context become entries, which equals
    ``filter_by_context(read_log_csv(path, owner), context)``. An error's
    ``row`` is the physical line its record ends on, the header being line 1.
    """
    path = Path(path)
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
                if len(row) != 4 + d:
                    raise LogFormatError(
                        f"expected {4 + d} fields, found {len(row)}", row=reader.line_num
                    )
                tid, counterparty, row_context, outcome_text = row[:4]
                if outcome_text == "1":
                    outcome = Outcome.SUCCESSFUL
                elif outcome_text == "0":
                    outcome = Outcome.UNSUCCESSFUL
                else:
                    raise LogFormatError(
                        f"outcome must be 1 or 0, found {outcome_text!r}",
                        row=reader.line_num,
                        column="outcome",
                    )
                features = []
                for i, cell in enumerate(row[4:], start=1):
                    try:
                        value = float(cell)
                    except ValueError:
                        raise LogFormatError(
                            f"feature value {cell!r} is not a number",
                            row=reader.line_num,
                            column=f"f{i}",
                        ) from None
                    if not math.isfinite(value):
                        raise LogFormatError(
                            f"feature value {cell!r} is not finite", row=reader.line_num, column=f"f{i}"
                        )
                    features.append(value)
                if tid in ids:
                    raise LogFormatError(f"duplicate transaction id {tid!r}", row=reader.line_num, column="id")
                ids.add(tid)
                if context is None or row_context == context:
                    entries.append(Transaction(tid, counterparty, row_context, tuple(features), outcome))
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        raise LogFormatError(f"unreadable CSV: {exc}", row=reader.line_num) from None
    return TransactionLog(owner=owner, dimensionality=d, entries=entries)


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
    """Write a log in the CSV format read back by :func:`read_log_csv`."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(_FIXED_COLUMNS) + [f"f{i}" for i in range(1, log.dimensionality + 1)])
        for t in log.entries:
            outcome = "1" if t.outcome is Outcome.SUCCESSFUL else "0"
            writer.writerow([t.id, t.counterparty, t.context, outcome] + [repr(x) for x in t.features])

"""Domain types for score/embedding bundles and fused-accuracy tables."""

from __future__ import annotations

import functools
import itertools
import operator
import sys
from dataclasses import dataclass
from typing import ClassVar, Iterable, Mapping, Sequence

import numpy as np

SIMPLEX_TOL = 1e-6


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.ascontiguousarray(np.asarray(values, dtype=dtype))
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """Per-sample class scores of one unimodal classifier (S samples x C classes).

    Rows are expected to lie on the probability simplex; that is a data
    invariant checked by :func:`validate_bundle`, not by the constructor.
    """

    values: np.ndarray
    class_names: tuple[str, ...] = ()
    shape_error: ClassVar[str] = "scores must be a 2-D samples x classes matrix"

    def __post_init__(self):
        arr = _frozen_array(self.values, np.float64)
        if arr.ndim != 2:
            raise ValueError(self.shape_error)
        n_samples, n_classes = arr.shape
        if n_samples < 1:
            raise ValueError("scores need at least one sample")
        if n_classes < 2:
            raise ValueError("scores need at least two classes")
        names = tuple(self.class_names) or tuple(f"c{i}" for i in range(n_classes))
        if len(names) != n_classes:
            raise ValueError(
                f"{len(names)} class names for {n_classes} score columns"
            )
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "class_names", names)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_classes(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class EmbeddingMatrix:
    """Latent vectors from one classifier (S samples x d dimensions)."""

    values: np.ndarray
    shape_error: ClassVar[str] = "embeddings must be a 2-D samples x dims matrix"

    def __post_init__(self):
        arr = _frozen_array(self.values, np.float64)
        if arr.ndim != 2:
            raise ValueError(self.shape_error)
        if arr.shape[0] < 1:
            raise ValueError("embeddings need at least one sample")
        if arr.shape[1] < 1:
            raise ValueError("embeddings need at least one dimension")
        object.__setattr__(self, "values", arr)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def as_matrix(data, kind: type = ScoreMatrix) -> np.ndarray:
    """The 2-D float64 array behind ``data``.

    ``kind`` is :class:`ScoreMatrix` or :class:`EmbeddingMatrix`: an instance
    yields its values, anything else is converted and must be 2-D, or
    ``ValueError`` carries that kind's shape message.
    """
    if isinstance(data, kind):
        return data.values
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(kind.shape_error)
    return arr


@dataclass(frozen=True, eq=False)
class LabelVector:
    """Class indices for a sequence of samples."""

    values: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.values, np.int64)
        if arr.ndim != 1:
            raise ValueError("labels must be a 1-D vector")
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.shape[0]

    def __array__(self, dtype=None, copy=None):
        if dtype is None:
            return self.values
        return self.values.astype(dtype)


@dataclass(frozen=True, eq=False)
class ModalityRecord:
    """One modality: a name, its score matrix and optional embeddings."""

    name: str
    scores: ScoreMatrix
    embeddings: EmbeddingMatrix | None = None

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("modality name must be a nonempty string")


@dataclass(frozen=True, eq=False)
class Bundle:
    """Aligned collection of modality records plus optional ground truth.

    Sample alignment is by row order across all matrices; loaders check
    sample-id columns for consistency but never reorder rows.
    """

    modalities: tuple[ModalityRecord, ...]
    labels: LabelVector | None = None
    class_names: tuple[str, ...] = ()

    def __post_init__(self):
        records = tuple(self.modalities)
        names = tuple(self.class_names)
        if not names and records:
            names = records[0].scores.class_names
        object.__setattr__(self, "modalities", records)
        object.__setattr__(self, "class_names", names)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(rec.name for rec in self.modalities)

    @property
    def n_samples(self) -> int:
        if not self.modalities:
            raise ValueError("bundle has no modalities")
        return self.modalities[0].scores.n_samples

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def get(self, name: str) -> ModalityRecord:
        for rec in self.modalities:
            if rec.name == name:
                return rec
        raise KeyError(f"no modality named {name!r}")

    def without_labels(self) -> "Bundle":
        """Label-stripped view; shares the underlying (immutable) matrices."""
        if self.labels is None:
            return self
        return Bundle(self.modalities, None, self.class_names)


@dataclass(frozen=True)
class Violation:
    """A single invariant violation found in a bundle."""

    modality: str | None
    row: int | None
    reason: str

    def __str__(self) -> str:
        where = self.modality or "bundle"
        if self.row is not None:
            where += f"[row {self.row}]"
        return f"{where}: {self.reason}"


@dataclass(frozen=True)
class ValidationResult:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_invalid(self) -> None:
        if self.violations:
            listing = "; ".join(str(v) for v in self.violations[:20])
            extra = len(self.violations) - 20
            if extra > 0:
                listing += f"; ... and {extra} more"
            raise ValueError(f"invalid bundle: {listing}")


def validate_bundle(bundle: Bundle) -> ValidationResult:
    """Check every bundle invariant and report all violations as data.

    Returned violations carry the modality name, the offending row index
    where applicable, and a human-readable reason. An empty violation list
    means the bundle is valid.
    """
    out: list[Violation] = []
    names = [rec.name for rec in bundle.modalities]
    for name in sorted(set(n for n in names if names.count(n) > 1)):
        out.append(Violation(name, None, "duplicate modality name"))

    n_classes = len(bundle.class_names)
    if n_classes < 2:
        out.append(Violation(None, None, "bundle needs at least two class names"))

    ref_samples = bundle.modalities[0].scores.n_samples if bundle.modalities else 0
    for rec in bundle.modalities:
        scores = rec.scores
        if scores.class_names != bundle.class_names:
            out.append(Violation(rec.name, None, "class names inconsistent with bundle"))
        if scores.n_samples != ref_samples:
            out.append(
                Violation(
                    rec.name,
                    None,
                    f"sample count mismatch ({scores.n_samples} vs {ref_samples})",
                )
            )
        values = scores.values
        bad_range = np.where((values < 0.0) | (values > 1.0) | ~np.isfinite(values))
        for row in np.unique(bad_range[0]):
            out.append(Violation(rec.name, int(row), "score outside [0, 1]"))
        sums = values.sum(axis=1)
        off = np.where(np.abs(sums - 1.0) > SIMPLEX_TOL)[0]
        for row in off:
            out.append(
                Violation(rec.name, int(row), f"row not on simplex (sum={sums[row]:.9g})")
            )
        if rec.embeddings is not None:
            emb = rec.embeddings.values
            if rec.embeddings.n_samples != scores.n_samples:
                out.append(
                    Violation(
                        rec.name,
                        None,
                        "sample count mismatch between scores and embeddings",
                    )
                )
            bad = np.where(~np.isfinite(emb).all(axis=1))[0]
            for row in bad:
                out.append(Violation(rec.name, int(row), "non-finite embedding value"))

    if bundle.labels is not None:
        labels = bundle.labels.values
        if len(labels) != ref_samples:
            out.append(
                Violation(None, None, f"label count mismatch ({len(labels)} vs {ref_samples})")
            )
        bad = np.where((labels < 0) | (labels >= max(n_classes, 1)))[0]
        for row in bad:
            out.append(Violation(None, int(row), f"label {labels[row]} outside [0, {n_classes})"))

    return ValidationResult(tuple(out))


def all_combinations(universe: Sequence[str]) -> list[tuple[str, ...]]:
    """All nonempty modality subsets, ordered by size then universe order."""
    names = tuple(universe)
    out: list[tuple[str, ...]] = []
    for size in range(1, len(names) + 1):
        out.extend(itertools.combinations(names, size))
    return out


@functools.lru_cache(maxsize=8)
def _layout(universe: tuple[str, ...]) -> tuple[dict[str, int], np.ndarray, np.ndarray]:
    """Name -> bit, row -> bitmask and bitmask -> row; rows follow all_combinations."""
    if not universe:
        raise ValueError("accuracy table needs at least one modality")
    if len(set(universe)) != len(universe):
        raise ValueError("modality names must be distinct")
    bit = {name: 1 << i for i, name in enumerate(universe)}
    masks = np.array([sum(map(bit.get, c)) for c in all_combinations(universe)], dtype=np.int64)
    rows = np.full(1 << len(universe), -1)
    rows[masks] = np.arange(masks.size)
    masks.flags.writeable = rows.flags.writeable = False  # shared by every table over universe
    return bit, masks, rows


def _row(universe: tuple[str, ...], combo: Iterable[str]) -> int:
    """Row of a modality combination in a table over ``universe``."""
    names = tuple(combo)
    if not names:
        raise ValueError("modality combination must be nonempty")
    bit, _, rows = _layout(universe)
    try:
        mask = functools.reduce(operator.or_, map(bit.__getitem__, names))
    except KeyError:
        unknown = sorted(set(names) - bit.keys(), key=str)
        raise KeyError(f"unknown modalities in combination: {unknown}") from None
    if mask.bit_count() != len(names):
        raise ValueError(f"modality combination {list(names)} repeats a name")
    return int(rows[mask])


def _fill(universe: tuple[str, ...], n_columns: int, n_cells: int, entries: Iterable[tuple]) -> np.ndarray:
    """Combinations x columns array from ``(combination, columns, values)`` entries.

    An entry sets ``values`` at ``columns`` of its combination's row; an
    entry without columns is skipped. The entries hold ``n_cells`` values
    and each cell must be given once; a short count is rejected before any
    work.
    """
    n_combos = (1 << len(universe)) - 1
    if n_cells < n_combos * n_columns:  # counted before the layout, which grows as 2^M
        raise ValueError(
            f"incomplete accuracy table: {n_cells} values given, "
            f"{n_combos} combinations x {n_columns} columns needed"
        )
    n_rows = _layout(universe)[1].size
    filled = [0] * n_rows  # per row, a bitmask of the columns already set
    masks: dict[tuple, int] = {}  # columns -> their bitmask, or -1 if one repeats
    rows: list[int] = []
    columns_given: list[int] = []
    cells: list[float] = []
    for combo, columns, entry_values in entries:
        if not columns:
            continue
        row = _row(universe, combo)
        mask = masks.get(columns)
        if mask is None:
            unique = set(columns)
            mask = masks[columns] = sum(1 << c for c in unique) if len(unique) == len(columns) else -1
        if mask < 0 or filled[row] & mask:
            raise ValueError(f"duplicate entry for combination {sorted(combo)}")
        filled[row] |= mask
        rows.extend([row] * len(columns))
        columns_given.extend(columns)
        cells.extend(map(float, entry_values))
    values = np.zeros((n_rows, n_columns))
    values[rows, columns_given] = cells
    return values


def _dense(universe: tuple[str, ...], strategies: tuple[str, ...], entries: list) -> np.ndarray | None:
    """The values of stored ``entries`` that fill every cell once, in one pass; else None.

    The entries must number 2^M - 1, each an object whose ``combination`` is
    a nonempty list of distinct known names, no two entries alike. The
    ``strategies`` objects must all list ``strategies`` in one order, theirs
    or another (as ``json.dump(..., sort_keys=True)`` writes them), or be
    absent where there are none; every ``averaged`` value and cell must be a
    finite int or float. None leaves the input, and its error, to the
    per-entry loop.
    """
    if not entries or len(entries) != (1 << len(universe)) - 1:  # counted before the layout, which grows as 2^M
        return None
    if len(set(universe)) != len(universe) or set(map(type, entries)) != {dict}:
        return None
    try:
        combos = [e["combination"] for e in entries]
        numbers = [e["averaged"] for e in entries]
        cells = [e["strategies"] for e in entries] if strategies else ()
    except KeyError:
        return None
    if set(map(type, combos)) != {list}:
        return None
    if strategies:
        if set(map(type, cells)) != {dict} or len(orders := set(map(tuple, cells))) != 1:
            return None
        (order,) = orders
        if len(order) != len(strategies) or set(order) != set(strategies):  # not a permutation
            return None
        numbers.extend(itertools.chain.from_iterable(map(dict.values, cells)))
    elif any("strategies" in e for e in entries):  # cells the loop would check
        return None
    if not set(map(type, numbers)) <= {int, float}:
        return None
    bit, _, rows = _layout(universe)
    try:
        masks = [sum(map(bit.__getitem__, c)) for c in combos]
    except (KeyError, TypeError):  # an unknown or unhashable name
        return None
    lengths = list(map(len, combos))
    # A repeated name carries into another bit; an empty combination has mask 0.
    if list(map(int.bit_count, masks)) != lengths or 0 in lengths or len(set(masks)) < len(masks):
        return None
    try:
        array = np.array(numbers, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        return None
    if not np.isfinite(array).all():
        return None
    width = max(1, len(strategies))
    values = np.empty((len(entries), width))
    # The cells are the last entries x width numbers: the averages themselves where there are no strategies.
    block = array[-len(entries) * width :].reshape(-1, width)
    if strategies and order != strategies:
        block = block[:, [order.index(s) for s in strategies]]
    values[rows[masks]] = block
    return values


def _columns(strategies: tuple[str, ...], names: Iterable) -> dict[str, int]:
    """Column of each strategy; ``names`` are the strategy names the cells give."""
    if not strategies:
        raise ValueError("per-strategy entries given without strategy list")
    column = {s: k for k, s in enumerate(strategies)}
    if len(column) != len(strategies):
        raise ValueError("strategy names must be distinct")
    if not {str(s) for s in names} <= column.keys():
        raise ValueError("per-strategy entries do not cover combinations x strategies")
    return column


_REQUIRED = object()
# What each kind of JSON field must hold, as json.load gives it, and its name.
_JSON_KINDS = {
    str: (str, "a string"),
    list: (list, "a list"),
    dict: (dict, "an object"),
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    bool: (bool, "a boolean"),
}


def json_field(record: Mapping, name: str, where: str, kind: type = object, default=_REQUIRED):
    """``record[name]`` if it holds JSON of ``kind`` (``float`` takes any number, as a float).

    A missing field reads as ``default`` where one is given, and so does
    null where that default is None. Anything else that is missing or of
    another kind raises ``ValueError`` naming ``where`` and the field.
    """
    try:
        value = record[name]
    except (KeyError, TypeError):  # TypeError: the record is not a JSON object
        if default is _REQUIRED or not isinstance(record, Mapping):
            raise ValueError(f"{where} has no {name!r} field") from None
        return default
    if value is None and default is None:
        return None
    if kind is not object:
        types, label = _JSON_KINDS[kind]
        if not isinstance(value, types) or (isinstance(value, bool) and kind is not bool):
            raise ValueError(f"{where}: {name!r} must be {label}")
    if kind is float:
        try:
            return float(value)
        except OverflowError:  # an integer beyond the float range
            raise ValueError(f"{where}: {name!r} is out of range") from None
    return value


_FLOAT_MAX = sys.float_info.max


def _number(value, where: str, name: str) -> float:
    """``value`` as a float, if it is a finite JSON number.

    An int or a float within the float range passes. A bool, a string, NaN,
    an infinity or a larger integer raises ``ValueError`` naming ``where``
    and ``name``.
    """
    if (type(value) is float or type(value) is int) and -_FLOAT_MAX <= value <= _FLOAT_MAX:
        return float(value)
    raise ValueError(f"{where}: {name} must be a finite number, not {value!r}")


def _numbers(cells: Mapping, where: str) -> list[float]:
    """An entry's ``strategies`` cells as floats; each must pass :func:`_number`."""
    # _number's test inlined: a call per cell would cost a 4095-entry table 4 ms
    numbers = [
        float(v) for v in cells.values()
        if (type(v) is float or type(v) is int) and -_FLOAT_MAX <= v <= _FLOAT_MAX
    ]
    if len(numbers) < len(cells):
        for key, value in cells.items():
            _number(value, where, f"'strategies' value {key!r}")
    return numbers


def json_names(record: Mapping, name: str, where: str, default=_REQUIRED) -> tuple[str, ...]:
    """A field that must hold a list of strings, as a tuple."""
    values = json_field(record, name, where, list, default)
    if not all(isinstance(v, str) for v in values):
        raise ValueError(f"{where}: {name!r} must be a list of strings")
    return tuple(values)


@dataclass(frozen=True, eq=False)
class AccuracyTable:
    """Mean-per-class accuracy for every (modality combination, strategy).

    ``values`` holds fractions in [0, 1], one row per combination in
    :meth:`combinations` order and one column per strategy. A table without
    strategies (the bundled fixture publishes averages only) has one column
    of averages. :meth:`percent` gives the percentage view used in reports.
    """

    modalities: tuple[str, ...]
    strategies: tuple[str, ...]
    values: np.ndarray
    note: str = ""

    def __post_init__(self):
        universe, strategies = tuple(self.modalities), tuple(self.strategies)
        values = _frozen_array(self.values, np.float64)
        if values.shape != ((1 << len(universe)) - 1, max(1, len(strategies))):
            raise ValueError(f"accuracy values of shape {values.shape} do not fit the table")
        _layout(universe)  # the names are nonempty and distinct
        outside = np.argwhere(~((values >= 0.0) & (values <= 1.0)))
        if outside.size:
            row, column = outside[0]
            combo = sorted(all_combinations(universe)[row])
            raise ValueError(f"accuracy {float(values[row, column])} for {combo} outside [0, 1]")
        for name, single in zip(universe, values if strategies else ()):
            if (single != single[0]).any():
                vals = sorted(set(single.tolist()))
                raise ValueError(f"singleton {name} differs across strategies: {vals}")
        object.__setattr__(self, "modalities", universe)
        object.__setattr__(self, "strategies", strategies)
        object.__setattr__(self, "values", values)
        averaged = values.mean(axis=1) if strategies else values[:, 0]
        averaged.flags.writeable = False
        object.__setattr__(self, "_averaged", averaged)

    @classmethod
    def from_averaged(cls, modalities, averaged, note: str = "") -> "AccuracyTable":
        universe = tuple(modalities)
        entries = ((combo, (0,), (value,)) for combo, value in averaged.items())
        return cls(universe, (), _fill(universe, 1, len(averaged), entries), note)

    @classmethod
    def from_per_strategy(cls, modalities, strategies, per_strategy, note: str = "") -> "AccuracyTable":
        universe, strategies = tuple(modalities), tuple(strategies)
        column = _columns(strategies, (s for _, s in per_strategy))
        entries = ((c, (column[str(s)],), (v,)) for (c, s), v in per_strategy.items())
        values = _fill(universe, len(strategies), len(per_strategy), entries)
        return cls(universe, strategies, values, note)

    @property
    def has_per_strategy(self) -> bool:
        return bool(self.strategies)

    def combinations(self) -> list[tuple[str, ...]]:
        return all_combinations(self.modalities)

    def column(self, strategy: str | None = None) -> np.ndarray:
        """Accuracy fractions in :meth:`combinations` order; strategy=None reads the average."""
        if strategy is None:
            return self._averaged
        if not self.strategies:
            note = f" ({self.note})" if self.note else ""
            raise ValueError(f"per-strategy view unavailable for this table{note}")
        if strategy not in self.strategies:
            raise KeyError(f"unknown strategy {strategy!r}")
        return self.values[:, self.strategies.index(strategy)]

    def value(self, combo, strategy: str | None = None) -> float:
        """Accuracy fraction for a combination; strategy=None reads the average."""
        row = _row(self.modalities, combo)
        return float(self.column(strategy)[row])

    def percent(self, combo, strategy: str | None = None) -> float:
        return 100.0 * self.value(combo, strategy)

    def with_without(self, modality: str) -> tuple[np.ndarray, np.ndarray]:
        """Rows of C + (modality,) and of C, for each nonempty C without it, in table order.

        A table of one modality has no such C, and raises ``ValueError``.
        """
        if len(self.modalities) == 1:
            raise ValueError(f"no combinations without {modality!r}: the table has one modality")
        bit, masks, rows = _layout(self.modalities)
        without = np.flatnonzero(masks & bit[modality] == 0)
        return rows[masks[without] | bit[modality]], without

    def to_dict(self) -> dict:
        entries = []
        rows = zip(self.combinations(), self._averaged.tolist(), self.values.tolist())
        for combo, averaged, cells in rows:
            row = {"combination": list(combo), "averaged": averaged}
            if self.strategies:
                row["strategies"] = dict(zip(self.strategies, cells))
            entries.append(row)
        out = {
            "modalities": list(self.modalities),
            "strategies": list(self.strategies),
            "entries": entries,
        }
        if self.note:
            out["note"] = self.note
        return out

    @classmethod
    def from_dict(cls, payload: Mapping) -> "AccuracyTable":
        """Inverse of :meth:`to_dict`; a missing or mistyped field raises ``ValueError`` naming it.

        Each entry fills one row. Its ``averaged`` value must be a finite
        number but is not compared with the mean of its strategies. Entries
        that fill every cell once, as :meth:`to_dict` writes them, are read
        in one pass (:func:`_dense`); any others go through a per-entry
        loop, which names the first fault.
        """
        modalities = json_names(payload, "modalities", "accuracy table")
        strategies = json_names(payload, "strategies", "accuracy table", ())
        note = json_field(payload, "note", "accuracy table", str, "")
        entries = json_field(payload, "entries", "accuracy table", list)
        values = _dense(modalities, strategies, entries)
        if values is not None:
            return cls(modalities, strategies, values, note)
        averaged: dict[tuple, float] = {}
        given: list[tuple[tuple, list[float]]] = []  # per entry, strategy names and values
        for i, row in enumerate(entries):
            where = f"accuracy table entry {i}"
            combo = tuple(json_field(row, "combination", where, list))
            try:
                duplicate = combo in averaged
            except TypeError:  # a name that is a list or an object
                raise ValueError(f"{where}: 'combination' must be a list of names") from None
            if duplicate:
                raise ValueError(f"duplicate entry for combination {sorted(combo, key=str)}")
            averaged[combo] = _number(json_field(row, "averaged", where), where, "'averaged'")
            cells = json_field(row, "strategies", where, dict, {})
            given.append((tuple(cells), _numbers(cells, where)))
        if not strategies:
            return cls.from_averaged(modalities, averaged, note)
        orders = {names for names, _ in given}
        column = _columns(strategies, itertools.chain.from_iterable(orders))
        columns = {names: tuple(column[str(s)] for s in names) for names in orders}
        entries = ((combo, columns[names], cells) for combo, (names, cells) in zip(averaged, given))
        n_cells = sum(len(names) for names, _ in given)
        values = _fill(modalities, len(strategies), n_cells, entries)
        return cls(modalities, strategies, values, note)

"""Domain types for score/embedding bundles and fused-accuracy tables."""

from __future__ import annotations

import functools
import itertools
import operator
import sys
from dataclasses import dataclass
from typing import ClassVar, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import __version__

SIMPLEX_TOL = 1e-6


def _tool_block() -> dict:
    """The ``tool`` block of every JSON report the package writes."""
    return {"name": "modselect", "version": __version__}


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

    @property
    def means(self) -> np.ndarray:
        """Column means, the only part of the embeddings the discrepancy reads."""
        return self.values.mean(axis=0)


@dataclass(frozen=True, eq=False)
class EmbeddingMeans:
    """Column means of ``n_samples`` latent vectors, which is what ``load_bundle`` keeps of an embeddings file."""

    means: np.ndarray
    n_samples: int

    def __post_init__(self):
        arr = _frozen_array(self.means, np.float64)
        if arr.ndim != 1 or arr.size < 1 or not np.isfinite(arr).all():
            raise ValueError("embedding means must be a nonempty vector of finite values")
        if self.n_samples < 1:
            raise ValueError("embeddings need at least one sample")
        object.__setattr__(self, "means", arr)

    @property
    def dim(self) -> int:
        return self.means.size


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
    embeddings: EmbeddingMatrix | EmbeddingMeans | None = None

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

    @property
    def layout(self) -> "BundleLayout":
        return BundleLayout(
            self.names,
            self.class_names,
            tuple(None if rec.embeddings is None else rec.embeddings.dim for rec in self.modalities),
            self.labels is not None,
        )

    def stream(self) -> Iterator:
        """The labels (None if there are none), then each modality record in order."""
        yield self.labels
        yield from self.modalities

    def without_labels(self) -> "Bundle":
        """Label-stripped view; shares the underlying (immutable) matrices."""
        if self.labels is None:
            return self
        return Bundle(self.modalities, None, self.class_names)


@dataclass(frozen=True)
class BundleLayout:
    """What the files of a bundle are, without their values: ``dataio.write_bundle`` names them from it.

    ``embedding_dims`` holds each modality's embedding width, None where it
    has no embeddings; ``labelled`` says whether there are labels.
    """

    names: tuple[str, ...]
    class_names: tuple[str, ...]
    embedding_dims: tuple[int | None, ...]
    labelled: bool


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
            if rec.embeddings.n_samples != scores.n_samples:
                out.append(
                    Violation(
                        rec.name,
                        None,
                        "sample count mismatch between scores and embeddings",
                    )
                )
            if isinstance(rec.embeddings, EmbeddingMatrix):  # EmbeddingMeans are finite by construction
                bad = np.where(~np.isfinite(rec.embeddings.values).all(axis=1))[0]
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


def _fill(universe: tuple[str, ...], n_columns: int, combos: Sequence, columns, values: np.ndarray) -> np.ndarray:
    """Combinations x columns array: row i of ``values`` at ``columns`` of ``combos[i]``'s row.

    ``values`` holds one row of cells per combination, and ``columns`` their
    columns, per combination or shared by all. Each cell must be set exactly
    once. A short count is rejected before any work; any other fault is found
    by a walk over the combinations that raises the first one.
    """
    n_combos = (1 << len(universe)) - 1
    if values.size < n_combos * n_columns:  # counted before the layout, which grows as 2^M
        raise ValueError(
            f"incomplete accuracy table: {values.size} values given, "
            f"{n_combos} combinations x {n_columns} columns needed"
        )
    bit, _, rows = _layout(universe)
    try:
        masks = [sum(map(bit.__getitem__, c)) for c in combos]
    except (KeyError, TypeError):  # an unknown or unhashable name
        masks = [0]
    # A repeated name carries into another bit; an empty combination has mask 0.
    if 0 not in masks and list(map(int.bit_count, masks)) == list(map(len, combos)):
        cells = rows[masks][:, None] * n_columns + columns
        if (np.bincount(cells.ravel(), minlength=n_combos * n_columns) == 1).all():
            out = np.empty(n_combos * n_columns)
            out[cells] = values
            return out.reshape(n_combos, n_columns)
    # At least as many cells as the table holds, not each set once: some
    # combination is rejected by _row, or some cell is set twice.
    seen: set[tuple[int, int]] = set()
    for combo, given in zip(combos, np.broadcast_to(columns, values.shape).tolist()):
        row = _row(universe, combo)
        if not seen.isdisjoint((row, c) for c in given):
            raise ValueError(f"duplicate entry for combination {sorted(combo)}")
        seen.update((row, c) for c in given)


def _stored(universe: tuple[str, ...], strategies: tuple[str, ...], entries: list) -> np.ndarray | None:
    """The values of stored ``entries`` in one pass, if they fill every cell once; else None.

    Each entry must be an object with a ``combination`` list and a finite
    int or float ``averaged``. Where there are strategies, its ``strategies``
    object must hold one finite int or float per strategy, its keys in any
    order; where there are none, it must have no ``strategies``. None leaves
    the input, and its error, to the per-entry loop of
    :meth:`AccuracyTable.from_dict`.
    """
    try:
        combos = [e["combination"] for e in entries]
        numbers = [e["averaged"] for e in entries]
        cells = [e["strategies"] for e in entries] if strategies else ()
    except (KeyError, TypeError):  # TypeError: an entry that is not an object
        return None
    if strategies:
        # Each entry's cells must name every strategy once and nothing else.
        if len(set(strategies)) < len(strategies) or set(map(type, cells)) != {dict}:
            return None
        if set(map(len, cells)) != {len(strategies)}:
            return None
        try:
            for strategy in strategies:  # column by column, in strategy order
                numbers.extend(map(operator.itemgetter(strategy), cells))
        except KeyError:
            return None
    elif any("strategies" in e for e in entries):  # cells the loop would check
        return None
    if set(map(type, combos)) != {list} or not set(map(type, numbers)) <= {int, float}:
        return None
    try:
        array = np.array(numbers, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        return None
    if not np.isfinite(array).all():
        return None
    width = max(1, len(strategies))
    # The cells are the last entries x width numbers, column by column: the
    # averages themselves where there are no strategies.
    values = array[-len(entries) * width :].reshape(width, -1).T
    try:
        return _fill(universe, width, combos, np.arange(width), values)
    except (ValueError, KeyError, TypeError):
        return None


_REQUIRED = object()
# What each kind of JSON field must hold, as json.load gives it, and its name.
_JSON_KINDS = {
    str: (str, "a string"),
    list: (list, "a list"),
    dict: (dict, "an object"),
    int: (int, "an integer"),
    bool: (bool, "a boolean"),
}


def json_field(record: Mapping, name: str, where: str, kind: type = object, default=_REQUIRED):
    """``record[name]`` if it holds JSON of ``kind`` (``float`` takes a finite number, as a float).

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
    if kind is float:
        return _number(value, where, repr(name))
    if kind is not object:
        types, label = _JSON_KINDS[kind]
        if not isinstance(value, types) or (isinstance(value, bool) and kind is not bool):
            raise ValueError(f"{where}: {name!r} must be {label}")
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


_NUMBERS = (int, float, np.integer, np.floating)


def _floats(given: Mapping) -> np.ndarray:
    """The values of ``given`` as floats, if each is an int or a float, numpy's included.

    A bool, a string, an int beyond the float range or any other value
    raises ``ValueError`` naming its key.
    """
    other = {k for k in set(map(type, given.values())) if k is bool or not issubclass(k, _NUMBERS)}
    if not other:
        try:
            return np.fromiter(given.values(), np.float64, len(given))
        except OverflowError:  # an int beyond the float range
            pass
    key, value = next(
        (k, v)
        for k, v in given.items()
        if type(v) in other or (isinstance(v, int) and not -_FLOAT_MAX <= v <= _FLOAT_MAX)
    )
    raise ValueError(f"accuracy for {key!r} must be a finite number, not {value!r}")


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
        if len(set(strategies)) < len(strategies):
            raise ValueError("strategy names must be distinct")
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
        values = _floats(averaged)[:, None]
        return cls(universe, (), _fill(universe, 1, list(averaged), 0, values), note)

    @classmethod
    def from_per_strategy(cls, modalities, strategies, per_strategy, note: str = "") -> "AccuracyTable":
        universe, strategies = tuple(modalities), tuple(strategies)
        if not strategies:
            raise ValueError("per-strategy entries given without strategy list")
        column = {s: k for k, s in enumerate(strategies)}
        if len(column) != len(strategies):
            raise ValueError("strategy names must be distinct")
        try:
            columns = np.fromiter((column[str(s)] for _, s in per_strategy), np.intp, len(per_strategy))
        except KeyError:
            combo, strategy = next((c, s) for c, s in per_strategy if str(s) not in column)
            raise ValueError(
                "per-strategy entries do not cover combinations x strategies: "
                f"combination {sorted(combo, key=str)} has unknown strategy {str(strategy)!r}"
            ) from None
        cells = _floats(per_strategy)
        combos = [c for c, _ in per_strategy]
        values = _fill(universe, len(strategies), combos, columns[:, None], cells[:, None])
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

        Each entry gives one combination's ``averaged`` value, a finite
        number that is checked but not compared with the mean of its cells.
        Where the table has strategies, each entry's ``strategies`` object
        must be present and nonempty. Entries that fill every cell once, as
        :meth:`to_dict` writes them with their keys in any order, are read in
        one pass (:func:`_stored`). Any others go through a per-entry loop,
        which checks the fields in entry order and builds the table through
        :meth:`from_per_strategy` or :meth:`from_averaged`.
        """
        modalities = json_names(payload, "modalities", "accuracy table")
        strategies = json_names(payload, "strategies", "accuracy table", ())
        note = json_field(payload, "note", "accuracy table", str, "")
        entries = json_field(payload, "entries", "accuracy table", list)
        values = _stored(modalities, strategies, entries)
        if values is not None:
            return cls(modalities, strategies, values, note)
        averaged: dict[tuple, float] = {}
        per_strategy: dict[tuple, float] = {}
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
            cells = json_field(row, "strategies", where, dict, _REQUIRED if strategies else {})
            if strategies and not cells:
                raise ValueError(f"{where}: 'strategies' must not be empty")
            for strategy, value in cells.items():
                per_strategy[combo, strategy] = _number(value, where, f"'strategies' value {strategy!r}")
        if strategies:
            return cls.from_per_strategy(modalities, strategies, per_strategy, note)
        return cls.from_averaged(modalities, averaged, note)

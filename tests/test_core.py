import copy
import json
import re
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modselect import (
    AccuracyTable,
    Bundle,
    EmbeddingMatrix,
    LabelVector,
    ModalityRecord,
    ScoreMatrix,
    validate_bundle,
)
from modselect import core
from modselect.core import all_combinations

from conftest import make_bundle, simplex_rows


def test_score_matrix_structural_checks():
    with pytest.raises(ValueError):
        ScoreMatrix(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        ScoreMatrix(np.zeros((3, 1)))
    with pytest.raises(ValueError):
        ScoreMatrix(np.zeros(4))
    with pytest.raises(ValueError):
        ScoreMatrix(np.zeros((2, 2)), class_names=("a",))


def test_matrices_are_immutable(rng):
    sm = ScoreMatrix(simplex_rows(rng, 4, 3))
    with pytest.raises(ValueError):
        sm.values[0, 0] = 0.5
    em = EmbeddingMatrix(rng.normal(size=(4, 2)))
    with pytest.raises(ValueError):
        em.values[0, 0] = 1.0


def test_embedding_means_structural_checks(rng):
    for means, n_samples in [(np.zeros(0), 3), (np.zeros((2, 2)), 3), (np.array([0.0, np.inf]), 3), (np.zeros(2), 0)]:
        with pytest.raises(ValueError):
            core.EmbeddingMeans(means, n_samples)
    values = rng.normal(size=(5, 3))
    means = core.EmbeddingMeans(EmbeddingMatrix(values).means, 5)
    assert (means.dim, means.n_samples) == (3, 5) and not means.means.flags.writeable
    records = [ModalityRecord(name, ScoreMatrix(simplex_rows(rng, n, 3)), means) for name, n in (("a", 5), ("b", 4))]
    assert [str(v) for v in validate_bundle(Bundle(tuple(records))).violations] == [
        "b: sample count mismatch (4 vs 5)",
        "b: sample count mismatch between scores and embeddings",
    ]


def test_label_vector_as_array():
    lv = LabelVector([0, 1, 2])
    assert len(lv) == 3
    assert np.array_equal(np.asarray(lv), [0, 1, 2])


def test_validate_ok_single_modality(rng):
    bundle = make_bundle([simplex_rows(rng, 5, 3)], labels=[0, 1, 2, 0, 1])
    assert validate_bundle(bundle).ok


def test_validate_flags_simplex_violation(rng):
    scores = simplex_rows(rng, 4, 3).copy()
    scores[2] = [0.5, 0.2, 0.1]  # sums to 0.8
    bundle = make_bundle([scores])
    result = validate_bundle(bundle)
    assert not result.ok
    hits = [v for v in result.violations if "row not on simplex" in v.reason]
    assert len(hits) == 1 and hits[0].row == 2 and hits[0].modality == "m0"


def test_validate_flags_sample_count_mismatch(rng):
    bundle = make_bundle([simplex_rows(rng, 4, 3), simplex_rows(rng, 5, 3)])
    result = validate_bundle(bundle)
    assert any("sample count mismatch" in v.reason for v in result.violations)


def test_validate_flags_out_of_range_score(rng):
    scores = simplex_rows(rng, 3, 2).copy()
    scores[1] = [1.4, -0.4]  # sums to 1 but leaves [0, 1]
    result = validate_bundle(make_bundle([scores]))
    assert any("outside [0, 1]" in v.reason and v.row == 1 for v in result.violations)


def test_validate_flags_duplicate_names_and_class_mismatch(rng):
    a = ScoreMatrix(simplex_rows(rng, 3, 2), ("x", "y"))
    b = ScoreMatrix(simplex_rows(rng, 3, 2), ("p", "q"))
    bundle = Bundle(
        (ModalityRecord("m", a), ModalityRecord("m", b)), None, ("x", "y")
    )
    result = validate_bundle(bundle)
    reasons = [v.reason for v in result.violations]
    assert any("duplicate modality name" in r for r in reasons)
    assert any("class names inconsistent" in r for r in reasons)


def test_validate_flags_bad_labels_and_embeddings(rng):
    scores = simplex_rows(rng, 3, 2)
    emb = rng.normal(size=(3, 4)).copy()
    emb[1, 2] = np.inf
    bundle = make_bundle([scores], labels=[0, 1, 5], embeddings=[emb])
    result = validate_bundle(bundle)
    reasons = [str(v) for v in result.violations]
    assert any("non-finite embedding" in r for r in reasons)
    assert any("label 5 outside" in r for r in reasons)


def test_validate_flags_embedding_sample_mismatch(rng):
    bundle = make_bundle([simplex_rows(rng, 3, 2)], embeddings=[rng.normal(size=(4, 2))])
    result = validate_bundle(bundle)
    assert any(
        "sample count mismatch between scores and embeddings" in v.reason
        for v in result.violations
    )


def test_raise_if_invalid_lists_violations(rng):
    scores = simplex_rows(rng, 3, 2).copy()
    scores[0] = [0.2, 0.2]
    with pytest.raises(ValueError, match="row not on simplex"):
        validate_bundle(make_bundle([scores])).raise_if_invalid()
    # 25 in-range rows off the simplex: the first 20 are listed, the rest counted.
    with pytest.raises(ValueError) as err:
        validate_bundle(make_bundle([np.full((25, 2), 0.2)])).raise_if_invalid()
    assert str(err.value).count("row not on simplex") == 20
    assert str(err.value).endswith("m0[row 19]: row not on simplex (sum=0.4); ... and 5 more")


def test_without_labels_strips_only_labels(rng):
    bundle = make_bundle([simplex_rows(rng, 3, 2)], labels=[0, 1, 1])
    view = bundle.without_labels()
    assert view.labels is None
    assert view.modalities is bundle.modalities
    assert bundle.labels is not None


@pytest.mark.parametrize("n_modalities", [1, 2, 3, 4, 5])
def test_combination_count(n_modalities):
    names = tuple(f"m{i}" for i in range(n_modalities))
    combos = all_combinations(names)
    assert len(combos) == 2 ** n_modalities - 1
    assert len(set(map(frozenset, combos))) == len(combos)


class TestAccuracyTable:
    def test_from_averaged_and_lookup(self):
        table = AccuracyTable.from_averaged(
            ("a", "b"), {("a",): 0.5, ("b",): 0.7, ("a", "b"): 0.8}
        )
        assert table.value(("a",)) == 0.5
        assert table.value(("b", "a")) == 0.8
        assert table.percent(("b",)) == pytest.approx(70.0)
        assert not table.has_per_strategy

    def test_missing_combination_rejected(self):
        with pytest.raises(ValueError, match="incomplete accuracy table"):
            AccuracyTable.from_averaged(("a", "b"), {("a",): 0.5, ("b",): 0.7})

    @pytest.mark.parametrize("bad", [1.2, float("nan")])
    def test_out_of_range_value_rejected(self, bad):
        with pytest.raises(ValueError, match=r"for \['a', 'b'\] outside"):
            AccuracyTable.from_averaged(
                ("a", "b"), {("a",): 0.5, ("b",): 0.7, ("a", "b"): bad}
            )

    @pytest.mark.parametrize("bad", ["0.5", True, None, [0.5], pytest.param(10**400, id="int-beyond-float")])
    def test_a_value_that_is_no_number_is_rejected(self, bad):
        averaged = {("a",): 0.5, ("b",): bad, ("a", "b"): 0.8}
        with pytest.raises(ValueError, match=rf"^accuracy for \('b',\) must be a finite number, not {re.escape(repr(bad))}$"):
            AccuracyTable.from_averaged(("a", "b"), averaged)
        per_strategy = {(c, "sum"): v for c, v in averaged.items()}
        with pytest.raises(ValueError, match=r"^accuracy for \(\('b',\), 'sum'\) must be a finite number, not "):
            AccuracyTable.from_per_strategy(("a", "b"), ("sum",), per_strategy)

    def test_numpy_numbers_are_accepted(self):
        averaged = {("a",): np.float32(0.5), ("b",): np.int64(1), ("a", "b"): np.float64(0.75)}
        table = AccuracyTable.from_averaged(("a", "b"), averaged)
        assert table.values.tolist() == [[0.5], [1.0], [0.75]]

    def test_per_strategy_requires_identical_singletons(self):
        entries = {
            (("a",), "sum"): 0.5,
            (("a",), "max"): 0.6,  # singleton must not vary by strategy
            (("b",), "sum"): 0.7,
            (("b",), "max"): 0.7,
            (("a", "b"), "sum"): 0.8,
            (("a", "b"), "max"): 0.9,
        }
        with pytest.raises(ValueError, match="differs across strategies"):
            AccuracyTable.from_per_strategy(("a", "b"), ("sum", "max"), entries)

    def test_averaged_view_is_strategy_mean(self):
        entries = {
            (("a",), "sum"): 0.5,
            (("a",), "max"): 0.5,
            (("b",), "sum"): 0.7,
            (("b",), "max"): 0.7,
            (("a", "b"), "sum"): 0.8,
            (("a", "b"), "max"): 0.9,
        }
        table = AccuracyTable.from_per_strategy(("a", "b"), ("sum", "max"), entries)
        assert table.value(("a", "b")) == pytest.approx(0.85)
        assert table.value(("a", "b"), "max") == 0.9

    def test_values_follow_combinations(self):
        entries = {
            (("a",), "sum"): 0.5,
            (("a",), "max"): 0.5,
            (("b",), "sum"): 0.7,
            (("b",), "max"): 0.7,
            (("a", "b"), "sum"): 0.8,
            (("a", "b"), "max"): 0.9,
        }
        table = AccuracyTable.from_per_strategy(("a", "b"), ("sum", "max"), entries)
        assert table.values.tolist() == [[0.5, 0.5], [0.7, 0.7], [0.8, 0.9]]
        assert not table.values.flags.writeable and not table.column().flags.writeable
        assert table.column("max").tolist() == [0.5, 0.7, 0.9]
        assert table.column().tolist() == [table.value(c) for c in table.combinations()]
        averaged = AccuracyTable.from_averaged(("a", "b"), {("b", "a"): 0.8, ("a",): 0.5, ("b",): 0.7})
        assert averaged.values.tolist() == [[0.5], [0.7], [0.8]]

    def test_per_strategy_entries_must_match_strategy_list(self):
        entries = {(("a",), "sum"): 0.5, (("a",), "max"): 0.5}
        with pytest.raises(ValueError, match="do not cover"):
            AccuracyTable.from_per_strategy(("a",), ("sum",), entries)
        with pytest.raises(ValueError, match="without strategy list"):
            AccuracyTable.from_per_strategy(("a",), (), entries)
        with pytest.raises(ValueError, match="strategy names must be distinct"):
            AccuracyTable.from_per_strategy(("a",), ("sum", "sum"), {(("a",), "sum"): 0.5})

    def test_an_unknown_strategy_column_is_a_key_error(self):
        entries = {(("a",), "sum"): 0.5, (("a",), "max"): 0.5}
        table = AccuracyTable.from_per_strategy(("a",), ("sum", "max"), entries)
        with pytest.raises(KeyError, match="unknown strategy 'unknown'"):
            table.column("unknown")

    def test_per_strategy_view_flagged_when_absent(self):
        table = AccuracyTable.from_averaged(
            ("a", "b"), {("a",): 0.5, ("b",): 0.7, ("a", "b"): 0.8}, note="averages only"
        )
        with pytest.raises(ValueError, match="averages only"):
            table.value(("a",), "sum")

    def test_dict_round_trip(self):
        entries = {
            (("a",), "sum"): 0.5,
            (("a",), "max"): 0.5,
            (("b",), "sum"): 0.7,
            (("b",), "max"): 0.7,
            (("a", "b"), "sum"): 0.8,
            (("a", "b"), "max"): 0.9,
        }
        table = AccuracyTable.from_per_strategy(("a", "b"), ("sum", "max"), entries)
        clone = AccuracyTable.from_dict(table.to_dict())
        for combo in table.combinations():
            assert clone.value(combo) == table.value(combo)
            for s in table.strategies:
                assert clone.value(combo, s) == table.value(combo, s)

    def test_unknown_combination_and_strategy(self):
        table = AccuracyTable.from_averaged(
            ("a", "b"), {("a",): 0.5, ("b",): 0.7, ("a", "b"): 0.8}
        )
        with pytest.raises(KeyError):
            table.value(("zz",))
        with pytest.raises(ValueError):
            table.value(())

    def test_repeated_name_rejected(self):
        averaged = {("a",): 0.5, ("b",): 0.7, ("a", "b"): 0.8}
        with pytest.raises(ValueError, match=r"\['a', 'a'\] repeats a name"):
            AccuracyTable.from_averaged(("a", "b"), averaged | {("a", "a"): 0.9})
        table = AccuracyTable.from_averaged(("a", "b"), averaged)
        with pytest.raises(ValueError, match="repeats a name"):
            table.value(("a", "a"))

    def test_duplicate_entries_rejected(self):
        averaged = {("a",): 0.5, ("b",): 0.7, ("a", "b"): 0.8}
        with pytest.raises(ValueError, match=r"duplicate entry for combination \['a', 'b'\]"):
            AccuracyTable.from_averaged(("a", "b"), averaged | {("b", "a"): 0.6})
        per_strategy = {(c, "sum"): v for c, v in averaged.items()}
        with pytest.raises(ValueError, match=r"duplicate entry for combination \['a', 'b'\]"):
            AccuracyTable.from_per_strategy(
                ("a", "b"), ("sum",), per_strategy | {(("b", "a"), "sum"): 0.6}
            )

    @pytest.mark.parametrize("repeat", [["b", "a"], ["a", "b"]])
    def test_from_dict_duplicate_entries_rejected(self, repeat):
        rows = [(["a"], 0.5), (["b"], 0.7), (["a", "b"], 0.8), (repeat, 0.6)]
        payload = {
            "modalities": ["a", "b"],
            "entries": [{"combination": c, "averaged": v} for c, v in rows],
        }
        with pytest.raises(ValueError, match=r"duplicate entry for combination \['a', 'b'\]"):
            AccuracyTable.from_dict(payload)

    @pytest.mark.parametrize(
        "field, payload",
        [
            ("modalities", {"entries": []}),
            ("entries", {"modalities": ["a", "b"]}),
            ("combination", {"modalities": ["a"], "entries": [{"averaged": 0.5}]}),
            ("averaged", {"modalities": ["a"], "entries": [{"combination": ["a"]}]}),
            ("combination", {"modalities": ["a"], "entries": [["a"]]}),
        ],
    )
    def test_from_dict_names_missing_field(self, field, payload):
        with pytest.raises(ValueError, match=f"has no '{field}' field"):
            AccuracyTable.from_dict(payload)

    def test_short_table_over_many_names_rejected_by_count(self, monkeypatch):
        # 40 names stand for 2^40 - 1 combinations; the entry count alone
        # shows the table is incomplete, before any combination is laid out.
        # Laying them out would exhaust memory, so the guards fail this test
        # instead of letting the whole run be killed.
        def at_most_20_names(function):
            def guarded(universe):
                assert len(universe) <= 20, f"{function.__name__} given {len(universe)} names"
                return function(universe)

            return guarded

        for name in ("_layout", "all_combinations"):
            monkeypatch.setattr(core, name, at_most_20_names(getattr(core, name)))
        payload = {"modalities": [f"m{i}" for i in range(40)], "entries": []}
        start = time.perf_counter()
        want = r"incomplete accuracy table: 0 values given, 1099511627775 combinations"
        with pytest.raises(ValueError, match=want):
            AccuracyTable.from_dict(payload)
        with pytest.raises(ValueError, match="do not fit the table"):
            AccuracyTable(tuple(payload["modalities"]), (), np.zeros((1, 1)))
        assert time.perf_counter() - start < 0.5


def per_cell_from_dict(payload):
    """The table load as it was before entries filled whole rows: one dict entry per cell.

    A value that is not an int or float within the float range (a bool
    included) is an error naming its field. Where the table has strategies,
    an entry without cells is an error too.
    """

    def field(record, name, where):
        try:
            return record[name]
        except (KeyError, TypeError):
            raise ValueError(f"{where} has no {name!r} field") from None

    def number(value, where, name):
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
            raise ValueError(f"{where}: {name} must be a finite number, not {value!r}")
        return float(value)

    modalities = tuple(field(payload, "modalities", "accuracy table"))
    strategies = tuple(payload.get("strategies", ()))
    averaged = {}
    per_strategy = {}
    for i, row in enumerate(field(payload, "entries", "accuracy table")):
        where = f"accuracy table entry {i}"
        combo = tuple(field(row, "combination", where))
        if combo in averaged:
            raise ValueError(f"duplicate entry for combination {sorted(combo)}")
        averaged[combo] = number(field(row, "averaged", where), where, "'averaged'")
        if strategies and not field(row, "strategies", where):
            raise ValueError(f"{where}: 'strategies' must not be empty")
        for s, v in row.get("strategies", {}).items():
            per_strategy[(combo, s)] = number(v, where, f"'strategies' value {s!r}")
    if strategies:
        return AccuracyTable.from_per_strategy(modalities, strategies, per_strategy, payload.get("note", ""))
    return AccuracyTable.from_averaged(modalities, averaged, payload.get("note", ""))


# Values a table cell or an averaged value must not hold: not a JSON number, or not finite.
NOT_CELLS = ["x", None, "0.5", " 1e-1 ", True, False, float("nan"), -float("inf"), 10**400]


@st.composite
def stored_tables(draw):
    """A table's to_dict payload, JSON round-tripped with or without sorted keys, then maybe damaged."""
    names = draw(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=3, unique=True))
    strategies = draw(st.sampled_from([(), ("sum",), ("sum", "max"), ("max", "sum", "median")]))
    combos = all_combinations(names)
    fractions = st.floats(0.0, 1.0)
    width = max(1, len(strategies))
    values = np.array([draw(st.lists(fractions, min_size=width, max_size=width)) for _ in combos])
    values[: len(names)] = values[: len(names), :1]  # singletons agree across strategies
    table = AccuracyTable(tuple(names), strategies, values, draw(st.sampled_from(["", "n"])))
    payload = json.loads(json.dumps(table.to_dict(), sort_keys=draw(st.booleans())))
    entries = payload["entries"]
    for _ in range(draw(st.integers(0, 2)) if entries else 0):
        i = draw(st.integers(0, len(entries) - 1))
        entry = entries[i]
        cells = entry.get("strategies", {})
        kind = draw(st.sampled_from([
            "drop", "permuted copy", "drop averaged", "bad averaged", "bad cell", "drop cell", "extra cell",
            "unknown combination", "repeated name", "empty combination", "shuffle", "reorder cells",
            "strategy list", "cell out of range", "drop strategies", "averaged off the mean",
        ]))
        if kind == "drop" and len(entries) > 1:
            del entries[i]
        elif kind == "permuted copy":
            entries.append({**copy.deepcopy(entry), "combination": entry["combination"][::-1]})
        elif kind == "drop averaged":
            entry.pop("averaged", None)
        elif kind == "bad averaged":
            entry["averaged"] = draw(st.sampled_from(NOT_CELLS + [2.0]))
        elif kind == "bad cell" and cells:
            bad = draw(st.sampled_from(NOT_CELLS))
            cells[draw(st.sampled_from(sorted(cells)))] = bad
        elif kind == "drop cell" and cells:
            del cells[draw(st.sampled_from(sorted(cells)))]
        elif kind == "extra cell":
            entry.setdefault("strategies", {})[draw(st.sampled_from(["sum", "borda"]))] = 0.5
        elif kind == "unknown combination":
            entries.insert(i, {"combination": ["z"], "averaged": 0.5})
        elif kind == "repeated name":
            entry["combination"] = entry["combination"] + entry["combination"][:1]
        elif kind == "empty combination":
            entry["combination"] = []
        elif kind == "shuffle":
            entries[:] = draw(st.permutations(entries))
        elif kind == "reorder cells" and cells:
            entry["strategies"] = dict(draw(st.permutations(list(cells.items()))))
        elif kind == "strategy list":
            lists = [[], ["sum", "sum"], ["sum"], ["max", "sum", "median", "borda"]]
            payload["strategies"] = draw(st.sampled_from(lists))
        elif kind == "cell out of range" and cells:
            cells[draw(st.sampled_from(sorted(cells)))] = draw(st.sampled_from([1.5, -0.1]))
        elif kind == "drop strategies":
            entry.pop("strategies", None)
        elif kind == "averaged off the mean":
            entry["averaged"] = 0.123
    return payload


def load(build, payload):
    try:
        table = build(payload)
    except (ValueError, KeyError, TypeError) as err:
        return type(err).__name__, str(err)
    return table.modalities, table.strategies, table.note, table.values.shape, table.values.tobytes()


@settings(max_examples=400, deadline=None)
@given(payload=stored_tables())
def test_from_dict_matches_the_per_cell_build(payload):
    assert load(AccuracyTable.from_dict, payload) == load(per_cell_from_dict, payload)


@settings(max_examples=100, deadline=None)
@given(payload=stored_tables())
def test_from_dict_inverts_to_dict(payload):
    try:
        table = AccuracyTable.from_dict(payload)
    except (ValueError, KeyError, TypeError):
        return
    for stored in (table.to_dict(), json.loads(json.dumps(table.to_dict()))):
        clone = AccuracyTable.from_dict(stored)
        assert (clone.modalities, clone.strategies, clone.note) == (table.modalities, table.strategies, table.note)
        assert clone.values.tobytes() == table.values.tobytes()
        assert clone.column().tobytes() == table.column().tobytes()


def test_from_dict_cells_naming_one_strategy_twice_are_duplicates():
    # Keys that differ but read as the same strategy name fill one cell twice.
    payload = {
        "modalities": ["a"],
        "strategies": ["1"],
        "entries": [{"combination": ["a"], "averaged": 0.5, "strategies": {"1": 0.5, 1: 0.5}}],
    }
    want = ("ValueError", "duplicate entry for combination ['a']")
    assert load(AccuracyTable.from_dict, payload) == load(per_cell_from_dict, payload) == want


def stored(strategies):
    """A JSON round-tripped to_dict payload over a, b and c."""
    width = max(1, len(strategies))
    values = np.linspace(0.1, 0.9, 7 * width).reshape(7, width)
    values[:3] = values[:3, :1]  # singletons agree across strategies
    return json.loads(json.dumps(AccuracyTable(("a", "b", "c"), strategies, values, "n").to_dict()))


def per_entry_loop_fails(monkeypatch):
    """Make the per-entry loop of from_dict fail the test where it builds a table."""
    for name in ("from_averaged", "from_per_strategy"):
        monkeypatch.setattr(AccuracyTable, name, lambda *args: pytest.fail("the per-entry loop ran"))


@pytest.mark.parametrize("strategies", [(), ("sum", "max")])
def test_a_stored_table_is_read_in_one_pass(monkeypatch, strategies):
    payload = stored(strategies)
    want = load(per_cell_from_dict, payload)
    per_entry_loop_fails(monkeypatch)
    assert load(AccuracyTable.from_dict, payload) == want
    assert want[3] == (7, max(1, len(strategies)))


@pytest.mark.parametrize("strategies", [("sum", "max"), ("sum", "max", "median")])
def test_a_table_stored_with_sorted_keys_is_read_in_one_pass(monkeypatch, strategies):
    payload = json.loads(json.dumps(stored(strategies), sort_keys=True))
    assert {tuple(e["strategies"]) for e in payload["entries"]} == {tuple(sorted(strategies))}
    want = load(AccuracyTable.from_dict, stored(strategies))
    assert load(per_cell_from_dict, payload) == want
    per_entry_loop_fails(monkeypatch)
    assert load(AccuracyTable.from_dict, payload) == want


@pytest.mark.parametrize(
    "entry",
    [
        {"combination": ["z"], "averaged": 0.9},
        {"combination": [], "averaged": 0.9},
        {"combination": ["a", "a"], "averaged": 0.9},
        {"combination": ["b", "a"], "averaged": 0.9, "strategies": {}},
    ],
)
def test_an_entry_without_cells_is_rejected_where_the_table_has_strategies(entry):
    payload = stored(("sum", "max"))
    payload["entries"].append(entry)
    if "strategies" in entry:
        want = "accuracy table entry 7: 'strategies' must not be empty"
    else:
        want = "accuracy table entry 7 has no 'strategies' field"
    assert load(AccuracyTable.from_dict, payload) == load(per_cell_from_dict, payload) == ("ValueError", want)


def test_a_table_rejects_repeated_strategy_names():
    # to_dict would fold the two columns into one key, and from_dict reject the file.
    with pytest.raises(ValueError, match="strategy names must be distinct"):
        AccuracyTable(("a", "b"), ("s", "s"), np.full((3, 2), 0.9))


# A fault in a combination, with the error it raises.
FAULTS = {
    "unknown": (("a", "z"), "KeyError", "unknown modalities in combination: ['z']"),
    "repeated": (("a", "a"), "ValueError", "modality combination ['a', 'a'] repeats a name"),
    "empty": ((), "ValueError", "modality combination must be nonempty"),
    "duplicated": (("c", "a"), "ValueError", "duplicate entry for combination ['a', 'c']"),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_every_constructor_names_the_same_first_fault(fault):
    combo, kind, message = FAULTS[fault]
    names, strategies = ("a", "b", "c"), ("sum", "max")
    combos = all_combinations(names)
    # The fault comes mid-table, before its duplicate and before another unknown name.
    order = combos[:3] + [combo] + combos[3:] + [("y",)]
    averaged = dict.fromkeys(order, 0.5)
    per_strategy = {(c, s): 0.5 for c in order for s in strategies}
    cells = dict.fromkeys(strategies, 0.5)
    payload = {
        "modalities": list(names),
        "strategies": list(strategies),
        "entries": [{"combination": list(c), "averaged": 0.5, "strategies": cells} for c in order],
    }
    errors = {
        load(lambda a: AccuracyTable.from_averaged(names, a), averaged),
        load(lambda p: AccuracyTable.from_per_strategy(names, strategies, p), per_strategy),
        load(AccuracyTable.from_dict, payload),
    }
    assert errors == {(kind, repr(message) if kind == "KeyError" else message)}


def _set_cell(value, entry=4, strategy="max"):
    def damage(payload):
        payload["entries"][entry]["strategies"][strategy] = value

    return damage


def _set_combination(names, entry=4):
    def damage(payload):
        payload["entries"][entry]["combination"] = names

    return damage


def _reorder_cells(payload):
    cells = payload["entries"][5]["strategies"]
    payload["entries"][5]["strategies"] = dict(reversed(cells.items()))


def _reorder_every_entry_s_cells(payload):
    for entry in payload["entries"]:
        entry["strategies"] = dict(reversed(entry["strategies"].items()))


def _reorder_every_other_entry_s_cells(payload):
    for entry in payload["entries"][::2]:
        entry["strategies"] = dict(reversed(entry["strategies"].items()))


def _rename_cell(payload):
    cells = payload["entries"][4]["strategies"]
    cells["borda"] = cells.pop("max")


def _drop_strategy_list(payload):
    # The cells of a table without strategies are still checked, though unused.
    payload["strategies"] = []
    payload["entries"][4]["strategies"]["max"] = "x"


# (damage, whether the one-pass read still takes the table): ints and -0.0
# are finite JSON numbers and cells may list their keys in any order, so
# they stay on it; the rest leave the table to the per-entry loop.
DAMAGES = {
    "cells out of order": (_reorder_cells, True),
    "every entry's cells in one other order": (_reorder_every_entry_s_cells, True),
    "entries' cells in mixed orders": (_reorder_every_other_entry_s_cells, True),
    "int 0 cell": (_set_cell(0), True),
    "int 1 cell": (_set_cell(1), True),
    "int beyond the float range": (_set_cell(10**400), False),
    "bool cell": (_set_cell(True), False),
    "string cell": (_set_cell("0.5"), False),
    "-0.0 cell": (_set_cell(-0.0), True),
    "duplicate combination": (_set_combination(["b", "a"], entry=5), False),
    "unknown name": (_set_combination(["a", "z"]), False),
    "cells without a strategy list": (_drop_strategy_list, False),
    "renamed cell": (_rename_cell, False),
}


@pytest.mark.parametrize("kind", DAMAGES)
def test_a_damaged_stored_table_reads_as_the_per_cell_build(monkeypatch, kind):
    damage, one_pass = DAMAGES[kind]
    payload = stored(("sum", "max"))
    damage(payload)
    reads = []
    one_pass_read = core._stored
    monkeypatch.setattr(core, "_stored", lambda *args: reads.append(one_pass_read(*args)) or reads[-1])
    assert load(AccuracyTable.from_dict, payload) == load(per_cell_from_dict, payload)
    assert [values is not None for values in reads] == [one_pass]


def test_a_renamed_cell_names_its_combination_and_strategy():
    payload = stored(("sum", "max"))
    DAMAGES["renamed cell"][0](payload)
    assert load(AccuracyTable.from_dict, payload) == (
        "ValueError",
        "per-strategy entries do not cover combinations x strategies: "
        "combination ['a', 'c'] has unknown strategy 'borda'",
    )

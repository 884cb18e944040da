import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modselect.fusion as fusion
from modselect import (
    AccuracyTable,
    contribution,
    contribution_report,
    load_fixture,
    positive_modalities,
    sweep,
)

from conftest import make_bundle, simplex_rows


def brute_contribution(table, modality, strategy=None):
    """Independent enumeration: walk supersets containing the modality."""
    diffs = []
    universe = table.modalities
    for size in range(2, len(universe) + 1):
        for team in itertools.combinations(universe, size):
            if modality not in team:
                continue
            rest = tuple(n for n in team if n != modality)
            diffs.append(table.value(team, strategy) - table.value(rest, strategy))
    return sum(diffs) / len(diffs)


def random_table(rng, n_modalities):
    names = tuple(f"m{i}" for i in range(n_modalities))
    averaged = {}
    for size in range(1, n_modalities + 1):
        for combo in itertools.combinations(names, size):
            averaged[combo] = float(rng.random())
    return AccuracyTable.from_averaged(names, averaged)


def test_two_modality_example():
    table = AccuracyTable.from_averaged(
        ("A", "B"), {("A",): 0.5, ("B",): 0.7, ("A", "B"): 0.8}
    )
    assert contribution(table, "A") == pytest.approx(0.1, abs=1e-12)
    assert contribution(table, "B") == pytest.approx(0.3, abs=1e-12)


def test_fixture_spot_values_percentage_points():
    sims = load_fixture("sims4action")
    assert 100 * contribution(sims, "YOLO") == pytest.approx(-0.375, abs=5e-4)
    toyota = load_fixture("toyota")
    assert 100 * contribution(toyota, "RGB") == pytest.approx(-2.29, abs=5e-3)


def test_fixture_positive_sets():
    # What the bundled averaged table itself yields. The paper's printed
    # per-modality contributions disagree in sign with this table on
    # OF/sims4action and H/etri; acceptance criterion 3 prints them next to
    # the table's own values.
    assert positive_modalities(load_fixture("sims4action")) == {"H", "L", "OF", "RGB"}
    assert positive_modalities(load_fixture("toyota")) == {"H", "L", "OF", "YOLO"}
    assert positive_modalities(load_fixture("etri")) == {"L", "YOLO"}


# Every fixture contribution in percentage points, to the last digit. The
# with-without differences are added left to right in table order; any
# other sum (np.sum is pairwise, and builtin sum compensates since Python
# 3.12) changes some of these digits.
EXACT_FIXTURE_CONTRIBUTIONS = {
    "sims4action": {
        "H": "12.663999999999998",
        "L": "14.659333333333327",
        "OF": "7.046666666666666",
        "RGB": "13.105999999999998",
        "YOLO": "-0.3746666666666665",
    },
    "toyota": {
        "H": "2.7913333333333337",
        "L": "2.578666666666667",
        "OF": "3.3346666666666662",
        "RGB": "-2.289333333333334",
        "YOLO": "2.944",
    },
    "etri": {
        "H": "-0.14266666666666689",
        "L": "0.8226666666666665",
        "OF": "-0.7626666666666667",
        "RGB": "-2.0220000000000002",
        "YOLO": "5.052666666666665",
    },
}


@pytest.mark.parametrize("dataset", sorted(EXACT_FIXTURE_CONTRIBUTIONS))
def test_fixture_contributions_exact(dataset):
    report = contribution_report(load_fixture(dataset))
    assert {m: repr(f) for m, f in report.averaged.items()} == EXACT_FIXTURE_CONTRIBUTIONS[dataset]


def test_all_equal_accuracies_give_zero():
    names = ("a", "b", "c")
    averaged = {c: 0.6 for c in map(tuple, itertools.chain.from_iterable(
        itertools.combinations(names, k) for k in range(1, 4)))}
    table = AccuracyTable.from_averaged(names, averaged)
    for m in names:
        assert contribution(table, m) == pytest.approx(0.0, abs=1e-15)


def test_translation_invariance(rng):
    table = random_table(rng, 4)
    shifted = AccuracyTable.from_averaged(
        table.modalities,
        {c: 0.5 * table.value(c) + 0.2 for c in table.combinations()},
    )
    for m in table.modalities:
        assert 0.5 * contribution(table, m) == pytest.approx(
            contribution(shifted, m), abs=1e-12
        )


@given(n=st.integers(2, 5), seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_bruteforce_equivalence(n, seed):
    table = random_table(np.random.default_rng(seed), n)
    for m in table.modalities:
        assert contribution(table, m) == pytest.approx(
            brute_contribution(table, m), abs=1e-12
        )


def test_single_modality_universe_errors():
    table = AccuracyTable.from_averaged(("solo",), {("solo",): 0.9})
    with pytest.raises(ValueError, match="^no combinations without 'solo': the table has one modality$"):
        contribution(table, "solo")
    with pytest.raises(ValueError, match="^no combinations without 'solo': the table has one modality$"):
        contribution_report(table)


def test_unknown_modality():
    table = AccuracyTable.from_averaged(
        ("A", "B"), {("A",): 0.5, ("B",): 0.7, ("A", "B"): 0.8}
    )
    with pytest.raises(KeyError):
        contribution(table, "ZZ")


def test_large_universe_cap(rng, monkeypatch):
    monkeypatch.setattr(fusion, "MAX_DEFAULT_UNIVERSE", 3)
    labels = rng.integers(0, 3, 20)
    bundle = make_bundle([simplex_rows(rng, 20, 3) for _ in range(4)], labels=labels)
    with monkeypatch.context() as patched:
        # The guard runs before the first evaluation.
        patched.setattr(fusion, "mpca", lambda *args: pytest.fail("sweep evaluated"))
        with pytest.raises(ValueError, match="allow_large"):
            sweep(bundle)
    table = sweep(bundle, allow_large=True)
    contribution(table, table.modalities[0])


def test_strategy_average_linearity(rng):
    """Averaging f over strategies equals f on the strategy-averaged table."""
    labels = rng.integers(0, 3, 50)
    bundle = make_bundle(
        [simplex_rows(rng, 50, 3) for _ in range(3)], labels=labels
    )
    table = sweep(bundle)
    for m in table.modalities:
        per_strategy = [contribution(table, m, s) for s in table.strategies]
        assert np.mean(per_strategy) == pytest.approx(contribution(table, m), abs=1e-12)


def test_contribution_report_structure(rng):
    labels = rng.integers(0, 3, 40)
    bundle = make_bundle([simplex_rows(rng, 40, 3) for _ in range(3)], labels=labels)
    table = sweep(bundle)
    report = contribution_report(table)
    assert set(report.averaged) == set(table.modalities)
    assert set(report.per_strategy) == set(table.strategies)
    assert report.positive == {m for m, f in report.averaged.items() if f > 0}
    payload = report.to_dict()
    assert payload["positive_modalities"] == sorted(report.positive)
    for m in table.modalities:
        assert payload["contribution_percent"][m] == pytest.approx(
            100 * contribution(table, m), abs=1e-12
        )


def test_report_on_averaged_only_table():
    report = contribution_report(load_fixture("toyota"))
    assert report.per_strategy == {}
    assert report.positive == {"H", "L", "OF", "YOLO"}


def left_to_right_contribution(table, modality, strategy=None):
    """The with-without mean with its differences added one at a time from 0.0, in table order."""
    column = table.column(strategy)
    with_m, without_m = table.with_without(modality)
    acc = 0.0
    for d in (column[with_m] - column[without_m]).tolist():
        acc += d
    return acc / len(with_m)


def per_strategy_table(rng, n_modalities, strategies=("sum", "max", "median")):
    names = tuple(f"m{i}" for i in range(n_modalities))
    values = rng.random(((1 << n_modalities) - 1, len(strategies)))
    values[:n_modalities] = values[:n_modalities, :1]  # singletons agree across strategies
    return AccuracyTable(names, strategies, values)


@pytest.mark.parametrize("n", range(2, 9))
def test_contribution_adds_left_to_right_on_every_python(n):
    # Builtin sum compensates since Python 3.12, so a contribution summed by it
    # differs in the last digit between Python versions on some of these tables.
    rng = np.random.default_rng(n)
    for table in (random_table(rng, n), per_strategy_table(rng, n)):
        for strategy in (None, *table.strategies):
            for m in table.modalities:
                want = left_to_right_contribution(table, m, strategy)
                assert contribution(table, m, strategy).hex() == want.hex()


def report_hex(report):
    return {"": {m: f.hex() for m, f in report.averaged.items()}} | {
        s: {m: f.hex() for m, f in vals.items()} for s, vals in report.per_strategy.items()
    }


def per_view_hex(table):
    views = {"": None} | {s: s for s in table.strategies}
    return {k: {m: (100.0 * contribution(table, m, s)).hex() for m in table.modalities} for k, s in views.items()}


@pytest.mark.parametrize("n", range(2, 9))
def test_report_is_bit_equal_to_per_view_contributions(n):
    rng = np.random.default_rng(100 + n)
    for table in (random_table(rng, n), per_strategy_table(rng, n)):
        assert report_hex(contribution_report(table)) == per_view_hex(table)


@pytest.mark.parametrize("strategies", [(), ("sum", "max")])
def test_report_of_differences_that_are_all_negative_zero(strategies):
    # Each modality's one with-without difference is -0.0 - 0.0, that is
    # -0.0; a sum from 0.0 makes each contribution +0.0, as builtin sum does.
    # (The strategy mean of -0.0 cells is +0.0, so there only the strategy
    # views hold -0.0 differences.)
    width = max(1, len(strategies))
    table = AccuracyTable(("a", "b"), strategies, [[0.0] * width, [0.0] * width, [-0.0] * width])
    for m in table.modalities:
        with_m, without_m = table.with_without(m)
        assert np.signbit(table.values[with_m] - table.values[without_m]).all()
    report = contribution_report(table)
    assert report_hex(report) == per_view_hex(table)
    assert {f for vals in report_hex(report).values() for f in vals.values()} == {"0x0.0p+0"}
    assert report.positive == frozenset()

"""Tests for repro.utils (rng, records, tables)."""

import pickle
import warnings

import numpy as np
import pytest

from repro.utils.records import COLUMNS, RunLog
from repro.utils.rng import derive_seed, make_rng, spawn_rngs
from repro.utils.stats import median
from repro.utils.tables import format_mapping, format_table


class TestRng:
    def test_make_rng_from_int_is_deterministic(self):
        assert make_rng(7).integers(0, 100, 5).tolist() == \
            make_rng(7).integers(0, 100, 5).tolist()

    def test_make_rng_passthrough_generator(self):
        gen = np.random.default_rng(3)
        assert make_rng(gen) is gen

    def test_spawn_rngs_independent_streams(self):
        a, b = spawn_rngs(0, 2)
        assert a.integers(0, 1000, 10).tolist() != b.integers(0, 1000, 10).tolist()

    def test_spawn_rngs_deterministic(self):
        first = [g.integers(0, 1000) for g in spawn_rngs(5, 3)]
        second = [g.integers(0, 1000) for g in spawn_rngs(5, 3)]
        assert first == second

    def test_spawn_rngs_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_spawn_rngs_from_generator(self):
        gens = spawn_rngs(np.random.default_rng(0), 2)
        assert len(gens) == 2

    def test_derive_seed_deterministic(self):
        assert derive_seed(42, [1, 2]) == derive_seed(42, [1, 2])
        assert derive_seed(42, [1, 2]) != derive_seed(42, [2, 1])


class TestRunLog:
    def test_append_and_column(self):
        log = RunLog(2)
        log.append(range(len(COLUMNS)))
        log.append([2.0 * value for value in range(len(COLUMNS))])
        assert len(log) == 2
        assert log.column("energy_j").tolist() == [0.0, 0.0]
        assert log.column("oracle_energy_j").tolist() == [9.0, 18.0]
        assert log.table().shape == (2, len(COLUMNS))
        with pytest.raises(IndexError):  # full at its capacity
            log.append([1.0] * len(COLUMNS))

    def test_column_outside_schema_raises(self):
        log = RunLog(1)
        log.append([1.0] * len(COLUMNS))
        for name in ("configuration", "accuracy", "step"):
            with pytest.raises(KeyError):
                log.column(name)

    def test_to_dict_round_trip(self):
        log = RunLog(4)
        log.append([1.0] * len(COLUMNS))
        log.append([3.0] * len(COLUMNS))
        data = log.to_dict()
        assert list(data) == ["step", *COLUMNS]
        assert data["energy_j"] == [1.0, 3.0]
        assert data["step"] == [0.0, 1.0]

    def test_pickle_keeps_filled_rows_and_capacity(self):
        log = RunLog(3)
        log.append([float("nan")] * len(COLUMNS))
        log.append(range(len(COLUMNS)))
        restored = pickle.loads(pickle.dumps(log))
        assert len(restored) == 2
        assert restored.table().tobytes() == log.table().tobytes()
        restored.append([5.0] * len(COLUMNS))
        assert restored.column("time_s").tolist()[1:] == [1.0, 5.0]
        with pytest.raises(IndexError):
            restored.append([5.0] * len(COLUMNS))


    def test_splice_continues_or_rolls_back_the_log(self):
        """Rows may start anywhere up to the current length; the log ends
        after them (a recovery replaying a restarted device's rows)."""
        log = RunLog(4)
        rows = np.arange(3 * len(COLUMNS), dtype=float).reshape(3, -1)
        log.splice(0, rows[:2])
        log.splice(1, rows[2:])
        assert log.table().tobytes() == rows[[0, 2]].tobytes()
        for start, count in ((3, 1), (1, 4), (-1, 1)):
            with pytest.raises(ValueError, match="do not continue"):
                log.splice(start, rows[:count] if count <= 3
                           else np.zeros((count, len(COLUMNS))))
        assert len(log) == 2


def _median_cases():
    """Seeded sequences of every length from 1 to 14: random values,
    large integers, values from small pools (ties, signed zeros) and
    values with NaN and infinities mixed in."""
    rng = np.random.default_rng(35)
    pools = (
        np.array([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]),
        np.array([-np.inf, -1.0, -0.0, 0.0, 1.5, np.inf, np.nan]),
        np.array([-0.0, 0.0]),
    )
    for length in range(1, 15):
        for _ in range(100):
            yield rng.normal(scale=1e3, size=length)
            yield rng.integers(1, 2**40, size=length).astype(float)
            for pool in pools:
                yield rng.choice(pool, size=length)


class TestMedian:
    def test_equals_numpy_median_bitwise(self):
        cases = 0
        for values in _median_cases():
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("ignore", RuntimeWarning)
                expected = np.float64(np.median(values))
            assert np.float64(median(values.tolist())).tobytes() \
                == expected.tobytes(), values
            cases += 1
        assert cases == 14 * 100 * 5

    def test_sign_of_zero_types_and_empty(self):
        assert str(median([-0.0])) == "0.0"
        assert str(median([-0.0, -0.0])) == "0.0"
        assert median([3, 1, 2, 8]) == 2.5 and type(median([1])) is float
        with pytest.raises(ValueError, match="empty"):
            median([])


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [3, 4.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "bb" in lines[0]

    def test_format_table_title(self):
        text = format_table(["x"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_format_table_row_length_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_format_mapping(self):
        text = format_mapping({"metric": 1.23456}, precision=2)
        assert "1.23" in text

    def test_format_table_string_cells(self):
        text = format_table(["name", "v"], [["hello", 1]])
        assert "hello" in text

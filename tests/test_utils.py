"""Tests for repro.utils (rng, records, tables)."""

import numpy as np
import pytest

from repro.utils.records import RunLog, RunRecord
from repro.utils.rng import derive_seed, make_rng, spawn_rngs
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
        log = RunLog()
        log.append_record(RunRecord(step=0, values={"energy": 1.0,
                                                    "power": 2.0}))
        log.append_record(RunRecord(step=1, values={"energy": 3.0}))
        assert len(log) == 2
        assert log.column("energy").tolist() == [1.0, 3.0]
        assert np.isnan(log.column("power")[1])

    def test_to_dict_round_trip(self):
        log = RunLog()
        log.append_record(RunRecord(step=0, values={"a": 1.0, "b": 2.0}))
        log.append_record(RunRecord(step=1, values={"a": 3.0, "b": 4.0}))
        data = log.to_dict()
        assert data["a"] == [1.0, 3.0]
        assert data["step"] == [0.0, 1.0]

    def test_record_get_default(self):
        record = RunRecord(step=0, values={"x": 1.0})
        assert record.get("missing", 7.0) == 7.0


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

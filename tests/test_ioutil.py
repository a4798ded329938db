"""The output layer: csv_text, json_text and atomic_write_text.

Oracles: csv.reader and float() give back every cell bit for bit,
csv.writer's QUOTE_MINIMAL rule for text cells, hand-written
expected documents, and the file modes and directory listings a write
leaves.
"""

import csv
import io
import json
import math
import os
import stat
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voltrack import ioutil
from voltrack.ioutil import SCHEMA_VERSION, atomic_write_text, csv_text, json_text

# +-0.0, subnormals, +-max and the infinities are all drawn by st.floats
floats = st.floats(allow_nan=False)
cells = st.one_of(floats, st.integers(-(2**70), 2**70), st.none(), st.text())


def read_csv(text):
    return list(csv.reader(io.StringIO(text, newline="")))


def same_cell(read: str, written) -> bool:
    if written is None:
        return read == ""
    if isinstance(written, float):
        return struct.pack("<d", float(read)) == struct.pack("<d", written)
    if isinstance(written, int):
        return int(read) == written
    return read == written


class TestCsvText:
    @settings(max_examples=200)
    @given(
        st.integers(2, 4).flatmap(
            lambda width: st.tuples(
                st.lists(st.text(), min_size=width, max_size=width),
                st.lists(st.lists(cells, min_size=width, max_size=width), max_size=8),
            )
        )
    )
    def test_round_trips_through_csv_reader(self, header_rows):
        header, rows = header_rows
        columns = [list(column) for column in zip(*rows)] or [[] for _ in header]
        read = read_csv(csv_text(header, *columns))
        assert read[0] == header
        assert len(read) == len(rows) + 1
        for got, want in zip(read[1:], rows):
            assert len(got) == len(want)
            assert all(same_cell(g, w) for g, w in zip(got, want))

    @settings(max_examples=100)
    @given(st.lists(floats, min_size=1, max_size=20))
    def test_array_column_round_trips_bit_for_bit(self, values):
        arr = np.array(values)
        read = read_csv(csv_text(("i", "x"), range(arr.size), arr))
        assert [row[0] for row in read[1:]] == [str(i) for i in range(arr.size)]
        assert np.array([float(row[1]) for row in read[1:]]).tobytes() == arr.tobytes()

    @settings(max_examples=200)
    @given(st.lists(st.lists(st.text(), min_size=2, max_size=3), min_size=1, max_size=6))
    def test_text_cells_quoted_as_csv_writer_quotes_them(self, rows):
        # QUOTE_MINIMAL with the default \r\n terminator: a cell holding a
        # comma, a quote, \r or \n is quoted, with its inner quotes doubled
        width = len(rows[0])
        rows = [(row * width)[:width] for row in rows]
        lines = []
        for row in rows:
            buffer = io.StringIO()
            csv.writer(buffer).writerow(row)
            lines.append(buffer.getvalue().removesuffix("\r\n"))
        header = [f"c{j}" for j in range(width)]
        expected = "\n".join([",".join(header), *lines]) + "\n"
        assert csv_text(header, *zip(*rows)) == expected

    def test_exact_rows(self):
        text = csv_text(
            ("name", "n", "x", "y"),
            ["plain", "a,b", 'q"x'],
            np.array([1, 2, 3]),
            [0.1, None, -0.0],
            np.array([5e-324, 1.7976931348623157e308, math.inf]),
        )
        assert text == (
            "name,n,x,y\n"
            "plain,1,0.1,5e-324\n"
            '"a,b",2,,1.7976931348623157e+308\n'
            '"q""x",3,-0.0,inf\n'
        )

    def test_header_only(self):
        assert csv_text(("a", "b"), [], np.array([])) == "a,b\n"

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            csv_text(("a", "b"), [1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            csv_text(("a", "b"), [1.0])


class TestJsonText:
    def test_envelope_first_then_items_indented_by_two(self):
        assert SCHEMA_VERSION == 1
        assert json_text("thing", {"b": [1.5, None], "a": True}) == (
            "{\n"
            '  "schema_version": 1,\n'
            '  "kind": "thing",\n'
            '  "b": [\n'
            "    1.5,\n"
            "    null\n"
            "  ],\n"
            '  "a": true\n'
            "}\n"
        )

    @given(st.dictionaries(st.text(), st.one_of(floats.filter(math.isfinite), st.none())))
    def test_round_trips(self, doc):
        parsed = json.loads(json_text("k", doc))
        assert parsed == {"schema_version": 1, "kind": "k", **doc}

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_numbers_are_refused(self, value):
        with pytest.raises(ValueError):
            json_text("k", {"rows": [{"cells": {"a": value}}]})


class TestAtomicWriteText:
    def test_mode_follows_the_umask_without_setting_it(self, tmp_path, monkeypatch):
        def umask(mask):
            raise AssertionError("atomic_write_text must not set the umask")

        target = tmp_path / "out.csv"
        old_umask = os.umask(0o027)
        try:
            monkeypatch.setattr(os, "umask", umask)
            atomic_write_text(str(target), "a,b\n")
        finally:
            monkeypatch.undo()
            os.umask(old_umask)
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert target.read_text() == "a,b\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_failed_rename_removes_its_temp_file(self, tmp_path, monkeypatch):
        target = tmp_path / "out.csv"
        target.write_text("old\n")

        def replace(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="rename refused"):
            atomic_write_text(str(target), "new\n")
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
        assert target.read_text() == "old\n"

    def test_an_existing_file_of_the_temp_name_is_left_alone(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ioutil.secrets, "token_hex", lambda nbytes: "0" * 16)
        taken = tmp_path / (".tmp-" + "0" * 16)
        taken.write_text("someone else's\n")
        with pytest.raises(FileExistsError):
            atomic_write_text(str(tmp_path / "out.csv"), "new\n")
        assert [p.name for p in tmp_path.iterdir()] == [taken.name]
        assert taken.read_text() == "someone else's\n"

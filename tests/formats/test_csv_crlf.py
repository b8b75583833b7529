"""CSV files with CRLF line ends on every CSV read path.

The last column of a CRLF file ends in ``\\r`` unless the reader drops it;
an empty last cell then reads as ``'\\r'``, which no converter accepts. Each
test drives one read path over such a file: cold, warm (positional map),
selection pushdown, byte- and row-range morsels, delta tail, positional
fetch, and the row-at-a-time scan.
"""

import os

import pytest

from repro import ViDa
from repro.formats.csvfmt.plugin import CSVSource

ROWS = [(i, f"n{i % 3}", None if i % 4 == 0 else i * 0.5) for i in range(40)]


def _line(row) -> str:
    i, name, w = row
    return f"{i},{name},{'' if w is None else w}\r\n"


def _expected_sum(rows) -> float:
    return sum(w for _i, _n, w in rows if w is not None)


@pytest.fixture()
def crlf_csv(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(("id,name,w\r\n" + "".join(map(_line, ROWS))).encode())
    return str(path)


def _session(path, **kwargs) -> ViDa:
    db = ViDa(batch_size=8, **kwargs)
    db.register_csv("t", path)
    return db


def test_schema_is_inferred_without_carriage_returns(crlf_csv):
    plugin = CSVSource(crlf_csv)
    assert plugin.columns == ["id", "name", "w"]
    assert plugin.types == ["int", "string", "float"]


def test_cold_and_warm_scans(crlf_csv):
    db = _session(crlf_csv, enable_cache=False)
    cold = db.sql("SELECT sum(w) FROM t")
    assert "access=cold" in cold.plan_text
    warm = db.sql("SELECT sum(w) FROM t")
    assert "access=warm" in warm.plan_text
    assert cold.value == warm.value == pytest.approx(_expected_sum(ROWS))
    assert db.sql("SELECT count(w) FROM t").value == 30


def test_selection_pushdown(crlf_csv):
    db = _session(crlf_csv, enable_cache=False)
    db.sql("SELECT count(*) FROM t")  # builds the positional map
    result = db.sql("SELECT id, w FROM t WHERE w > 15")
    assert "filter=vec+push" in result.plan_text
    assert sorted(r["id"] for r in result.value) == \
        [i for i, _n, w in ROWS if w is not None and w > 15]


def test_morsels_over_bytes_and_rows(crlf_csv):
    plugin = CSVSource(crlf_csv)
    for pass_ in ("cold", "warm"):
        splits = plugin.scan_splits(3)
        assert splits and splits[0].kind == ("bytes" if pass_ == "cold" else "rows")
        values = []
        partials = []
        for split in splits:
            partial = plugin.new_posmap_partial()
            partials.append(partial)
            for chunk in plugin.scan_chunks(["w"], batch_size=8, split=split,
                                            access=pass_,
                                            posmap_partial=partial):
                values.extend(chunk.columns[0])
        assert values == [w for _i, _n, w in ROWS]
        if pass_ == "cold":
            plugin.adopt_posmap_partials(partials)
            assert plugin.posmap.complete


def test_positional_fetch(crlf_csv):
    plugin = CSVSource(crlf_csv)
    list(plugin.scan_chunks(["w"], batch_size=8))  # populate the map
    assert plugin.fetch_row(4, ["name", "w"]) == ("n1", None)
    assert plugin.fetch_rows([1, 39], ["w"]) == [[0.5, 19.5]]


def test_row_at_a_time_scan(crlf_csv):
    plugin = CSVSource(crlf_csv)
    assert [w for (w,) in plugin.scan(["w"])] == [w for _i, _n, w in ROWS]
    assert [w for (w,) in plugin.scan(["w"])] == [w for _i, _n, w in ROWS]


def test_delta_tail_refresh(crlf_csv):
    db = _session(crlf_csv)
    db.sql("SELECT sum(w) FROM t")
    tail = [(40, "n1", None), (41, "n2", 7.25)]
    with open(crlf_csv, "ab") as fh:
        fh.write("".join(map(_line, tail)).encode())
    os.utime(crlf_csv, ns=(10**9, 10**9))
    result = db.sql("SELECT sum(w) FROM t")
    assert db.engine_context.stats.delta_refreshes == 1
    assert result.value == pytest.approx(_expected_sum(ROWS + tail))


def test_lf_file_with_empty_last_cell_unchanged(tmp_path):
    path = tmp_path / "lf.csv"
    path.write_text("id,w\n1,\n2,2.5\n")
    db = _session(str(path))
    assert db.sql("SELECT count(w), max(w) FROM t").value == \
        {"agg0": 1, "agg1": 2.5}
    assert not db.catalog.get("t").plugin._crlf

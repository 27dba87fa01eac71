"""Each output check accepts a right answer and refuses a wrong one, and the
benchmark's table inputs are what they claim to be.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import numpy as np
import pytest

import checks
import tables
from checks import CheckFailed

ES_52 = {"order": 3125, "center": 5, "derived_is_center": True, "extraspecial": True,
         "ctv": (5, 1), "cond1": True, "cond2": True, "zclasses": None}
D4096 = {"order": 4096, "center": 2, "derived": 1024, "extraspecial": False,
         "ctv": (1024, 2, 1), "cond1": False, "cond2": False, "zclasses": 4}


def test_closed_forms_match_known_counts():
    # D8/Q8, Heis3/M27, Heis5, ES(2,2,±), ES(3,2,+): counts from the pairwise oracle
    assert [checks.extraspecial_class_count(p, n)
            for p, n in [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 4)]] == [4, 5, 7, 16, 41, 256]
    assert checks.dihedral_type_vector(8) == (2, 1)
    assert checks.dihedral_type_vector(16) == (4, 2, 1)
    with pytest.raises(CheckFailed):
        checks.dihedral_type_vector(10)


@pytest.mark.parametrize("key, wrong", [
    ("order", 625), ("center", 25), ("derived_is_center", False), ("extraspecial", False),
    ("ctv", (25, 5, 1)), ("cond1", False), ("cond2", False), ("zclasses", 30),
])
def test_extraspecial_refuses(key, wrong):
    checks.check_extraspecial("ES(5,2,+)", 5, 2, ES_52)
    checks.check_extraspecial("ES(5,2,+)", 5, 2, {**ES_52, "zclasses": 157})
    with pytest.raises(CheckFailed):
        checks.check_extraspecial("ES(5,2,+)", 5, 2, {**ES_52, key: wrong})


@pytest.mark.parametrize("key, wrong", [
    ("order", 2048), ("center", 1), ("derived", 2048), ("extraspecial", True),
    ("ctv", (2048, 2, 1)), ("cond1", True), ("cond2", True), ("zclasses", 5),
])
def test_dihedral_refuses(key, wrong):
    checks.check_dihedral("D4096", 4096, D4096)
    with pytest.raises(CheckFailed):
        checks.check_dihedral("D4096", 4096, {**D4096, key: wrong})


def test_abelian_refuses_more_than_one_class():
    checks.check_family_counts("C4", ("abelian",), {"ctv": [1], "zclasses": 1})
    with pytest.raises(CheckFailed):
        checks.check_family_counts("C4", ("abelian",), {"ctv": [1], "zclasses": 2})
    with pytest.raises(CheckFailed):
        checks.check_family_counts("C4", ("abelian",), {"ctv": [2, 1], "zclasses": 1})


def _records():
    base = {"p": 3, "k": 2, "ctv": [3, 1], "zclasses": 5, "bound": 5, "attains": True,
            "cond1": True, "cond2": True}
    return [{"group": "Heis3", "theorem": t, "verdict": "confirmed", **base}
            for t in ("mt", "bounds")]


def test_catalog_records_refuse_refuted_error_and_missing():
    checks.check_catalog_records(_records(), ["Heis3"], ["mt", "bounds"])
    refuted = _records()
    refuted[1]["verdict"] = "REFUTED"
    errored = _records()
    errored[0].update(theorem="golden", verdict="error")
    for records in (refuted, errored, _records()[:1]):
        with pytest.raises(CheckFailed):
            checks.check_catalog_records(records, ["Heis3"], ["mt", "bounds"])


@pytest.mark.parametrize("key, wrong", [
    ("zclasses", 4), ("ctv", [9, 3, 1]), ("attains", False), ("cond2", False), ("k", 3),
])
def test_catalog_family_refuses(key, wrong):
    family = ("extraspecial", 3, 1)
    checks.check_catalog_family("Heis3", family, _records())
    records = _records()
    records[1][key] = wrong
    with pytest.raises(CheckFailed):
        checks.check_catalog_family("Heis3", family, records)
    with pytest.raises(CheckFailed):
        checks.check_catalog_family("Heis5", family, _records())


def test_partition_refuses_merged_classes():
    oracle = [{0}, {1, 2}, {3}]
    checks.check_partition("G", [np.array([0]), np.array([2, 1]), np.array([3])], oracle)
    with pytest.raises(CheckFailed):
        checks.check_partition("G", [[0], [1, 2, 3]], oracle)


def test_identical_refuses_a_changed_pass():
    checks.check_identical("report", [b"a\n", b"a\n"])
    with pytest.raises(CheckFailed):
        checks.check_identical("report", [b"a\n", b"a\n", b"b\n"])
    with pytest.raises(CheckFailed):
        checks.check_identical("report", [])


def test_failures_refuse_a_stray_failure():
    allowed = {("zclass.z_class_partition", "extraspecial(2,4,plus)")}
    checks.check_failures([("zclass.z_class_partition", "extraspecial(2,4,plus)", "late")], allowed)
    with pytest.raises(CheckFailed):
        checks.check_failures([("core.center", "dihedral(4096)", "MemoryError")], allowed)


def test_same_table_refuses_one_changed_entry():
    t = tables.dihedral_table(8)
    checks.check_same_table("D8", t.astype(np.int32), t)
    changed = t.copy()
    changed[3, 5] = changed[3, 6]
    with pytest.raises(CheckFailed):
        checks.check_same_table("D8", changed, t)
    with pytest.raises(CheckFailed):
        checks.check_same_table("D8", t[:4, :4], t)


def test_rejected_refuses_a_loaded_table():
    checks.check_rejected("bad", "NotAGroup")
    for outcome in (None, "OrderExceedsCap"):
        with pytest.raises(CheckFailed):
            checks.check_rejected("bad", outcome)


# --- the table inputs ------------------------------------------------------

def _associative(t: np.ndarray) -> bool:
    return all(np.array_equal(t[t[a]], t[a][t]) for a in range(t.shape[0]))


def _latin(t: np.ndarray) -> bool:
    n = t.shape[0]
    return all((np.sort(t, axis=k) == np.arange(n).reshape((1, n) if k else (n, 1))).all()
               for k in (0, 1))


@pytest.mark.parametrize("table", [tables.dihedral_table(24), tables.heisenberg_table(5)],
                         ids=["D24", "Heis5"])
def test_formulas_are_groups_with_identity_zero(table):
    n = table.shape[0]
    assert _associative(table) and _latin(table)
    assert np.array_equal(table[0], np.arange(n)) and np.array_equal(table[:, 0], np.arange(n))


@pytest.mark.parametrize("seed", range(5))
def test_relabelling_and_corruptions(seed):
    rng = np.random.default_rng(seed)
    r = tables.relabel("D32", tables.dihedral_table(32), rng)
    assert r.identity_label != 0
    assert _associative(r.file_table) and _latin(r.file_table)
    # the loader swaps the identity label with 0
    swap = np.arange(32)
    swap[[0, r.identity_label]] = [r.identity_label, 0]
    assert np.array_equal(swap[r.file_table[np.ix_(swap, swap)]], r.loaded)

    duplicate = tables.duplicate_entry(r, rng)
    assert (duplicate != r.file_table).sum() == 1 and not _latin(duplicate)
    turned = tables.turned_intercalate(r, np.arange(16, 32), rng)
    assert (turned != r.file_table).sum() == 4
    assert _latin(turned) and not _associative(turned)
    e = r.identity_label
    assert np.array_equal(turned[e], r.file_table[e])
    assert np.array_equal(turned[:, e], r.file_table[:, e])
    assert np.array_equal(turned == e, r.file_table == e)


def test_text_format_round_trip(tmp_path):
    t = tables.heisenberg_table(3)
    tables.write_text(tmp_path / "h.cayley", t, "Heis3")
    lines = (tmp_path / "h.cayley").read_text().splitlines()
    assert lines[0].startswith("#") and lines[1] == "27"
    assert np.array_equal(np.array([row.split() for row in lines[2:]], dtype=int), t)


def test_benchmark_json_names_every_metric():
    import json
    from pathlib import Path

    import run

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} == (
        {f"{name}_s" for name in run.LAYERS} | {f"{name}_alloc_mb" for name in run.ALLOCATIONS})
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "pass_s", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)

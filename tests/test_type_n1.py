"""Type-(n,1) groups that do not attain the class-count bound.

Every confirmed `mt` record of the builtin catalog is an attainer, so
"does not attain => a condition fails" needs groups of its own: the
Heisenberg groups over F_4, F_8 and F_9 from ``fields.py``, where condition
2 fails alone, beside two type-(n,1) products that are not p-groups.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zclasses as zc

from fields import HEISENBERG, field_tables, heisenberg_table, smallest_irreducible, write_catalog
from oracles import naive_local_center, naive_z_partition

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("p, f, poly", [(2, 2, [1, 1, 1]), (2, 3, [1, 1, 0, 1]),
                                        (3, 2, [1, 0, 1])])
def test_field_tables_are_fields(p, f, poly):
    """t^2+t+1, t^3+t+1 and t^2+1 are the first irreducibles, and the tables
    are a field: an abelian group under +, its nonzero elements one under *
    (the table is commutative and Latin there), and * distributes over +."""
    assert smallest_irreducible(p, f) == poly
    add, mul = field_tables(p, f)
    every = np.arange(p ** f)
    assert np.array_equal(add, add.T) and np.array_equal(mul, mul.T)
    assert np.array_equal(add[0], every) and np.array_equal(mul[1], every)
    assert (np.sort(add, axis=1) == every).all() and not mul[0].any()
    assert (np.sort(mul[1:, 1:], axis=1) == every[1:]).all()
    # a*(b + c) = a*b + a*c
    assert np.array_equal(mul[:, add], add[mul[:, :, None], mul[:, None, :]])


def test_heisenberg_over_f4_matches_the_oracles():
    """Heis(F_4), order 64: the pairwise oracle's 6 classes, and the local
    center condition fails on the oracle's sets too."""
    G = zc.from_multiplication_table(heisenberg_table(2, 2))
    lib = {frozenset(c.members.tolist()) for c in zc.z_class_partition(G).classes}
    assert lib == set(naive_z_partition(G)) and len(lib) == 6
    oracle = naive_local_center(G)
    assert oracle[0] is False and zc.condition_local_center(G) == oracle


def test_type_n1_catalog_matches_frozen_output(tmp_path):
    """The catalog ``fields.py`` writes runs clean and gives the frozen
    records; on Heis(F_q) these hold the closed forms: type (q, 1) and q + 2
    classes against (p^2f - 1)/(p - 1) + 1, condition 1 true, condition 2
    false, and the `mt` equivalence confirmed on a non-attainer."""
    out = tmp_path / "out.jsonl"
    run = subprocess.run([sys.executable, "-m", "zclasses.cli", "catalog",
                          str(write_catalog(tmp_path)), "--output", str(out)],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert out.read_bytes() == (DATA / "catalog_type_n1.jsonl").read_bytes()
    records = [json.loads(line) for line in out.read_text().splitlines()]
    for name, (p, f) in HEISENBERG.items():
        q = p ** f
        mine = {r["theorem"]: r for r in records if r["group"] == f"file:{name}"}
        mt = mine["mt"]
        assert (mt["order"], mt["ctv"], mt["zclasses"]) == (q ** 3, [q, 1], q + 2)
        assert mt["bound"] == (p ** (2 * f) - 1) // (p - 1) + 1
        assert (mt["attains"], mt["cond1"], mt["cond2"]) == (False, True, False)
        assert mt["verdict"] == "confirmed"
        assert {r["verdict"] for r in mine.values()} <= {"confirmed", "vacuous"}

"""Every report is invariant under relabelling.

Cells and classes are ordered by their smallest member, generating
sequences are greedy and coset representatives are the least ids, so many
steps depend on the order of the ids; no verdict, count, type vector or
condition may.  Each group of the builtin catalog and of the type-(n,1)
catalog is relabelled by a permutation that moves the identity off id 0,
written as a Cayley file and loaded through ``read_cayley_table``, so the
loader, its identity move and Light's test run too.  All six checks then run
on it, and every record must equal the frozen record of the original group
but for ``group``; a witness that names an element is compared after mapping
that element through the relabelling.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import zclasses as zc

from fields import HEISENBERG, PRODUCTS, write_catalog

DATA = Path(__file__).parent / "data"

# fixed here, before any check runs
SEEDS = (1, 2)

CATALOGS = {
    "catalog_builtin.jsonl": [entry.label for entry in zc.builtin_catalog()],
    "catalog_type_n1.jsonl": [f"file:{name}" for name in HEISENBERG] + list(PRODUCTS),
}


@pytest.fixture(scope="module")
def entries(tmp_path_factory) -> dict:
    """Each catalog entry by its label, the type-(n,1) tables written once."""
    written = zc.parse_catalog_file(write_catalog(tmp_path_factory.mktemp("type_n1")))
    return {entry.label: entry for entry in zc.builtin_catalog() + written}


def relabelled_file(G, seed, path) -> np.ndarray:
    """Write G with each id x renamed sigma[x], sigma[0] != 0 when |G| > 1, as
    the Cayley file ``path``; return the id that x has once the file is loaded,
    where the loader has swapped sigma[0], the identity, with id 0."""
    sigma = np.random.default_rng(seed).permutation(G.order)
    if G.order > 1 and sigma[0] == 0:
        sigma = np.roll(sigma, 1)
    mult = np.empty_like(G.mult)
    mult[np.ix_(sigma, sigma)] = sigma[G.mult]
    with open(path, "w") as f:
        f.write(f"{G.order}\n")
        np.savetxt(f, mult, fmt="%d")
    swap = np.arange(G.order)
    swap[[0, sigma[0]]] = sigma[0], 0
    return swap[sigma]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("data,label", [(data, label) for data, labels in CATALOGS.items()
                                        for label in labels])
def test_reports_are_invariant_under_relabelling(entries, data, label, seed, tmp_path):
    entry = entries[label]
    G = zc.build_group(entry.spec_text, base_dir=entry.base_dir)
    loaded = relabelled_file(G, seed, tmp_path / "relabelled.cayley")
    result = zc.run_catalog([zc.CatalogEntry(f"file:{tmp_path / 'relabelled.cayley'}",
                                             expect=entry.expect)])
    frozen = [json.loads(line) for line in (DATA / data).read_text().splitlines()]
    expected = []
    for record in frozen:
        if record["group"] == label:
            if record["witness"]:
                record["witness"] = re.sub(r"x=(\d+)", lambda m: f"x={loaded[int(m[1])]}",
                                           record["witness"])
            expected.append({**record, "group": None})
    assert len(expected) == len(zc.catalog.THEOREMS)
    assert [{**record, "group": None} for record in result.records] == expected

"""Acceptance suite: one test per criterion, each printing a pass line.

Every expected number here was confirmed with the independent brute-force
oracles in tests/oracles.py before being frozen.
"""

import time

import numpy as np

import zclasses as zc
from zclasses.catalog import THEOREMS, builtin_catalog, run_catalog, run_theorem
from zclasses.core import _conjugates

from conftest import EXTRASPECIAL_COUNTS
from oracles import naive_z_partition


def _announce(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


def test_criterion_1_extraspecial_bound_attainment(catalog):
    """Brute-forced class counts of the extraspecial family equal the bound."""
    t0 = time.time()
    for name, expected in EXTRASPECIAL_COUNTS.items():
        G = catalog[name]
        count = zc.z_class_count(G)
        bound = zc.max_zclass_bound(G)
        assert count == bound == expected, name
        # formula cross-check: bound = (p^k - 1)/(p - 1) + 1 with k = 2n
        p, k = zc.core.prime_power(G.order // zc.center(G).size)
        assert bound == (p ** k - 1) // (p - 1) + 1
    # rebuild the whole catalog from spec text (fresh tables, no memo) and
    # recount against the frozen golden values
    for entry in builtin_catalog():
        G = zc.build_group(entry.spec_text)
        if "zclasses" in entry.expect:
            assert zc.z_class_count(G) == entry.expect["zclasses"], entry.label
    elapsed = time.time() - t0
    assert elapsed < 60
    _announce(1, f"counts {tuple(EXTRASPECIAL_COUNTS.values())} all attain their bounds "
                 f"({elapsed:.1f}s)")


def test_criterion_2_kulkarni_size_formula(catalog):
    """predicted = actual for every element of every catalog group."""
    checked = 0
    for name, G in catalog.items():
        for x in G.elements():
            predicted, actual = zc.kulkarni_size_check(G, x)
            assert predicted == actual, (name, x)
            checked += 1
    _announce(2, f"size formula exact on {checked} elements across {len(catalog)} groups")


def test_criterion_3_theorem_mt_biconditional(catalog):
    """Both-directions check never refutes; both verdict kinds occur."""
    verdicts = {}
    for name, G in catalog.items():
        rep = zc.verify_theorem_mt(G)
        assert rep.verdict != "REFUTED", name
        verdicts[name] = rep.verdict
    attaining = [n for n, v in verdicts.items() if v == "confirmed"]
    vacuous = [n for n, v in verdicts.items() if v == "vacuous"]
    assert "Heis5" in attaining and "ES(2,2,-)" in attaining and "Heis3xC9" in attaining
    assert "D16" in vacuous and "S3" in vacuous and "C4" in vacuous
    _announce(3, f"{len(attaining)} confirmed / {len(vacuous)} vacuous, no refutations")


def test_criterion_4_theorem_A_necessary_conditions(catalog):
    """Attainers with k > 2 have no abelian index-p subgroup and elementary
    abelian central quotient; k = 2 attainers have quotient of order p^2."""
    for name, G in catalog.items():
        if zc.is_abelian(G) or zc.core.prime_power(G.order) is None:
            continue
        p, _ = zc.core.prime_power(G.order)
        if zc.z_class_count(G) != zc.max_zclass_bound(G):
            continue
        index = G.order // zc.center(G).size
        k = zc.core.prime_power(index)[1]
        Q = zc.quotient_table(G)
        assert zc.is_elementary_abelian(Q) == p, name
        if k > 2:
            assert zc.has_abelian_subgroup_of_index_p(G, p) is None, name
        else:
            assert Q.order == p * p, name
    _announce(4, "necessary conditions hold for every attainer (k=2 and k>2 branches)")


def test_criterion_5_bound_sandwich(catalog):
    """p + 2 <= zclasses <= bound for every non-abelian catalog p-group."""
    checked = []
    for name, G in catalog.items():
        if zc.is_abelian(G) or zc.core.prime_power(G.order) is None:
            continue
        p = zc.core.prime_power(G.order)[0]
        count = zc.z_class_count(G)
        assert p + 2 <= count <= zc.max_zclass_bound(G), name
        checked.append(name)
    assert len(checked) == 13
    _announce(5, f"sandwich holds on all {len(checked)} non-abelian p-groups")


def test_criterion_6_isoclinism_invariance(catalog):
    """Named pairs have verified witnesses and equal counts; abelian direct
    factors never change the count."""
    w = zc.are_isoclinic(catalog["D8"], catalog["Q8"])
    assert w is not None
    w.validate()
    assert zc.z_class_count(catalog["D8"]) == zc.z_class_count(catalog["Q8"]) == 4
    w = zc.are_isoclinic(catalog["Heis3"], catalog["M27"])
    assert w is not None
    w.validate()
    assert zc.z_class_count(catalog["Heis3"]) == zc.z_class_count(catalog["M27"]) == 5
    for name, G in catalog.items():
        p = 2 if G.order == 1 else zc.core.smallest_prime_factor(G.order)
        product = zc.direct_product(G, zc.abelian([p]), cap=8192)
        assert zc.z_class_count(product) == zc.z_class_count(G), name
    _announce(6, "witnesses re-verified; abelian factors preserve all 18 counts")


def test_criterion_7_extraspecial_type_vectors(catalog):
    """Conjugate type vector (p, 1) for extraspecial groups; D16 control."""
    for name in EXTRASPECIAL_COUNTS:
        G = catalog[name]
        p = zc.core.prime_power(G.order)[0]
        assert zc.conjugate_type_vector(G) == (p, 1), name
        assert zc.is_type_n_1(G) == p
    assert zc.conjugate_type_vector(catalog["D16"]) == (4, 2, 1)
    _announce(7, "all extraspecial members are type (p,1); D16 is (4,2,1)")


def test_criterion_8_partition_oracle(catalog):
    """Exact partition equality against the O(n^2 |G|) pairwise oracle."""
    compared = []
    for name, G in catalog.items():
        if G.order > 128:
            continue
        lib = {frozenset(c.members.tolist()) for c in zc.z_class_partition(G).classes}
        assert lib == set(naive_z_partition(G)), name
        compared.append(name)
    assert len(compared) == 16
    _announce(8, f"partitions equal the pairwise oracle on {len(compared)} groups <= 128")


def test_criterion_9_property_suite(catalog):
    """Axiom validation, equivariance, partition soundness."""
    t0 = time.time()
    rng = np.random.default_rng(2024)
    for name, G in catalog.items():
        zc.validate_group_table(G)
        part = zc.z_class_partition(G)
        # soundness + equivariance, exhaustively on small groups, sampled above
        if G.order <= 32:
            pairs = [(x, g) for x in G.elements() for g in G.elements()]
        else:
            pairs = [(int(a), int(b)) for a, b in rng.integers(0, G.order, size=(150, 2))]
        for x, g in pairs:
            assert zc.centralizer(G, G.conjugate(x, g)).members().tolist() == \
                sorted(_conjugates(G, zc.centralizer(G, x).members())[g].tolist())
            assert part.class_index_of(x) == part.class_index_of(G.conjugate(x, g))
    elapsed = time.time() - t0
    assert elapsed < 300
    _announce(9, f"validators, equivariance, soundness green ({elapsed:.1f}s)")


def test_full_catalog_run_is_green():
    """End to end: the builtin catalog sweep reports no refutations."""
    result = run_catalog(builtin_catalog())
    assert result.summary["refuted"] == 0
    assert result.summary["errors"] == 0
    assert result.summary["golden_mismatches"] == 0
    assert result.summary["confirmed"] > 0
    assert result.exit_code == 0


def test_every_theorem_never_refuted(catalog):
    for name, G in catalog.items():
        for theorem in THEOREMS:
            assert run_theorem(G, theorem, iso_cap=96).verdict != "REFUTED", (name, theorem)

"""Randomized cross-checks on arbitrary small permutation groups.

The size identity, partition soundness, and centralizer equivariance hold in
every finite group, so seeded random closures make a broad generic oracle
beyond the curated catalog.
"""

import numpy as np
import pytest

import zclasses as zc
from zclasses.core import _conjugates

from oracles import naive_permutation_table, naive_z_partition


def random_generator_pairs(seed=20240817, tries=40):
    """Seeded pairs of random permutations of degree 3 to 7."""
    rng = np.random.default_rng(seed)
    for _ in range(tries):
        degree = int(rng.integers(3, 8))
        yield [tuple(int(v) for v in rng.permutation(degree)) for _ in range(2)]


def random_groups(seed=20240817, tries=40, max_order=120):
    seen = set()
    out = []
    for gens in random_generator_pairs(seed, tries):
        try:
            G = zc.from_permutation_generators(gens, cap=max_order,
                                               label=f"rnd{len(out)}")
        except zc.errors.OrderExceedsCap:
            continue
        key = (G.order, tuple(sorted(zc.element_orders(G).tolist())))
        if key in seen:
            continue
        seen.add(key)
        out.append(G)
    return out


GROUPS = random_groups()


@pytest.mark.parametrize("seed", [20240817, 7, 11])
def test_tables_match_naive_closure(seed):
    """Every seeded random closure of order at most 360 has, entry for entry,
    the table and inverses of the closure composed pair by pair."""
    checked = 0
    for gens in random_generator_pairs(seed):
        try:
            G = zc.from_permutation_generators(gens, cap=360)
        except zc.errors.OrderExceedsCap:
            continue
        mult, inv = naive_permutation_table(gens)
        assert G.mult.tolist() == mult
        assert G.inv.tolist() == inv
        checked += 1
    assert checked >= 20


def test_enough_variety():
    orders = sorted({G.order for G in GROUPS})
    assert len(GROUPS) >= 8
    assert any(not zc.is_abelian(G) for G in GROUPS)
    assert orders[-1] > 20


@pytest.mark.parametrize("G", GROUPS, ids=lambda G: f"{G.label}-n{G.order}")
def test_axioms_hold(G):
    zc.validate_group_table(G)


@pytest.mark.parametrize("G", GROUPS, ids=lambda G: f"{G.label}-n{G.order}")
def test_partition_matches_oracle(G):
    lib = {frozenset(c.members.tolist()) for c in zc.z_class_partition(G).classes}
    assert lib == set(naive_z_partition(G))


@pytest.mark.parametrize("G", GROUPS, ids=lambda G: f"{G.label}-n{G.order}")
def test_size_identity_every_element(G):
    for x in G.elements():
        predicted, actual = zc.kulkarni_size_check(G, x)
        assert predicted == actual


@pytest.mark.parametrize("G", GROUPS, ids=lambda G: f"{G.label}-n{G.order}")
def test_ctv_shape_and_equivariance(G):
    ctv = zc.conjugate_type_vector(G)
    assert ctv[-1] == 1 and all(a > b for a, b in zip(ctv, ctv[1:]))
    rng = np.random.default_rng(G.order)
    part = zc.z_class_partition(G)
    for x, g in rng.integers(0, G.order, size=(30, 2)):
        x, g = int(x), int(g)
        assert part.class_index_of(x) == part.class_index_of(G.conjugate(x, g))
        assert zc.centralizer(G, G.conjugate(x, g)).members().tolist() == \
            sorted(_conjugates(G, zc.centralizer(G, x).members())[g].tolist())


@pytest.mark.parametrize("G", GROUPS, ids=lambda G: f"{G.label}-n{G.order}")
def test_reports_never_refute(G):
    from zclasses.catalog import THEOREMS, run_theorem
    for theorem in THEOREMS:
        # centerless random groups can have |G/Z| up to the full order
        assert run_theorem(G, theorem, iso_cap=2 * G.order).verdict != "REFUTED"


def test_bound_sandwich_on_random_p_groups():
    hit = 0
    for G in GROUPS:
        pw = zc.core.prime_power(G.order)
        if pw is None or zc.is_abelian(G):
            continue
        p = pw[0]
        assert p + 2 <= zc.z_class_count(G) <= zc.max_zclass_bound(G)
        hit += 1
    # the seed above yields at least one non-abelian p-group; keep it honest
    assert hit >= 1

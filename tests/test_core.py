import tracemalloc

import numpy as np
import pytest

import zclasses as zc
from zclasses import core
from zclasses.core import _conjugates, _first_conjugator, _greedy_walk, _orders_modulo
from zclasses.errors import BadParameter, NotAGroup, OrderExceedsCap
from zclasses.zclass import _cells

from conftest import EXTRASPECIAL_CASES, PERMUTATION_GENERATORS, heisenberg_mod, shuffled
from oracles import (
    conj_subset,
    naive_center,
    naive_centralizer,
    naive_commutator_subgroup,
    naive_commuting_table,
    naive_element_order,
    naive_element_orders,
    naive_is_group,
    naive_is_subgroup,
    naive_permutation_table,
    naive_subgroup_closure,
)

# S3 written out by hand: elements e, (12), (13), (23), (123), (132)
S3_TABLE = [
    [0, 1, 2, 3, 4, 5],
    [1, 0, 4, 5, 2, 3],
    [2, 5, 0, 4, 3, 1],
    [3, 4, 5, 0, 1, 2],
    [4, 3, 1, 2, 5, 0],
    [5, 2, 3, 1, 0, 4],
]


def compose(p, q):
    """(p*q)(i) = p[q[i]], same convention as from_permutation_generators."""
    return tuple(p[v] for v in q)


# ---------------------------------------------------------------- tables

def test_trivial_table():
    G = zc.from_multiplication_table([[0]])
    assert G.order == 1 and G.inverse(0) == 0


def test_c2_table():
    G = zc.from_multiplication_table([[0, 1], [1, 0]])
    assert G.order == 2 and zc.is_abelian(G)


def test_s3_table_by_hand():
    G = zc.from_multiplication_table(S3_TABLE, label="S3")
    assert G.order == 6
    assert not zc.is_abelian(G)
    assert zc.center(G).size == 1


def test_identity_relabeled_to_zero():
    # C4 with the identity moved to index 2
    c4 = zc.cyclic(4)
    perm = np.array([2, 0, 3, 1])
    ip = np.empty(4, int)
    ip[perm] = np.arange(4)
    scrambled = perm[c4.mult[np.ix_(ip, ip)]]
    G = zc.from_multiplication_table(scrambled)
    assert np.array_equal(G.mult[0], np.arange(4))
    assert sorted(G.element_order(x) for x in G.elements()) == [1, 2, 4, 4]


def test_not_a_group_no_identity():
    # subtraction mod 3: a Latin square with no two-sided identity
    with pytest.raises(NotAGroup, match="identity"):
        zc.from_multiplication_table([[0, 1, 2], [2, 0, 1], [1, 2, 0]])


def test_not_a_group_not_latin():
    # a row with no identity entry, a row with two, and a unique right inverse
    # that is not the left one (rows 1 and 2 both end in the identity)
    for table in ([[0, 1], [1, 1]], [[0, 1, 2], [1, 2, 0], [2, 0, 0]],
                  [[0, 1, 2], [1, 2, 0], [2, 1, 0]]):
        with pytest.raises(NotAGroup):
            zc.from_multiplication_table(table)


def test_not_a_group_associativity_witness():
    # C6 with two transposed intercalates swapped: still a Latin square with
    # identity and two-sided inverses, but no longer associative
    loop = [
        [0, 1, 2, 3, 4, 5],
        [1, 2, 0, 4, 5, 3],
        [2, 0, 4, 5, 3, 1],
        [3, 4, 5, 0, 1, 2],
        [4, 5, 3, 1, 2, 0],
        [5, 3, 1, 2, 0, 4],
    ]
    with pytest.raises(NotAGroup, match="associativity") as err:
        zc.from_multiplication_table(loop)
    a, b, c = err.value.witness
    m = loop
    assert m[m[a][b]][c] != m[a][m[b][c]]


def test_entries_out_of_range():
    with pytest.raises(NotAGroup, match="range"):
        zc.from_multiplication_table([[0, 7], [1, 0]])


# ----------------------------------------------- permutation generators

def test_permutation_d8():
    G = zc.from_permutation_generators(PERMUTATION_GENERATORS["D8"], label="D8p")
    assert G.order == 8
    assert len(naive_center(G)) == 2


def test_permutation_empty_gens():
    G = zc.from_permutation_generators(PERMUTATION_GENERATORS["trivial"])
    assert G.order == 1


def test_permutation_three_cycle():
    G = zc.from_permutation_generators(PERMUTATION_GENERATORS["C3"])
    assert G.order == 3
    assert zc.is_elementary_abelian(G) == 3


def test_permutation_cap():
    with pytest.raises(OrderExceedsCap):
        zc.from_permutation_generators([(1, 2, 3, 0), (0, 3, 2, 1)], cap=5)


def test_permutation_invalid():
    with pytest.raises(BadParameter, match=r"not a bijection of 0\.\.2: \(0, 0, 1\)"):
        zc.from_permutation_generators([(0, 0, 1)])
    with pytest.raises(BadParameter, match=r"not a bijection of 0\.\.1: \(0, 1, 2\)"):
        zc.from_permutation_generators([(0, 1), (0, 1, 2)])


@pytest.mark.parametrize("gens", [
    *PERMUTATION_GENERATORS.values(),
    [(0, 1, 2), (1, 2, 0), (1, 2, 0)],              # the identity and a repeat
    [(1, 0, 2, 3, 4), (0, 1, 2, 3, 4), (2, 3, 4, 0, 1), (0, 2, 1, 3, 4)],
], ids=[*PERMUTATION_GENERATORS, "C3-repeats", "S5-four-gens"])
def test_permutation_table_matches_naive_closure(gens):
    """Row gathers along the breadth-first tree give, entry for entry, the
    table of the closure composed pair by pair, and the same inverses."""
    G = zc.from_permutation_generators(gens)
    mult, inv = naive_permutation_table(gens)
    assert G.mult.tolist() == mult
    assert G.inv.tolist() == inv


def test_permutation_mult_matches_composition():
    gens = [(1, 2, 3, 0), (0, 3, 2, 1)]
    G = zc.from_permutation_generators(gens)
    # rebuild the element list exactly as the BFS does
    elems = [tuple(range(4))]
    seen = {elems[0]}
    queue = [elems[0]]
    while queue:
        x = queue.pop(0)
        for g in gens:
            y = compose(x, g)
            if y not in seen:
                seen.add(y)
                elems.append(y)
                queue.append(y)
    index = {p: i for i, p in enumerate(elems)}
    for i, p in enumerate(elems):
        for j, q in enumerate(elems):
            assert G.mul(i, j) == index[compose(p, q)]


# --------------------------------------------------- element arithmetic

def test_element_order_examples():
    assert zc.cyclic(4).element_order(0) == 1
    assert zc.cyclic(4).element_order(1) == 4
    H = zc.heisenberg(3)
    x = int(np.flatnonzero(~zc.center(H).mask)[0])
    assert H.element_order(x) == 3


@pytest.mark.parametrize("build", [
    lambda: zc.from_permutation_generators(PERMUTATION_GENERATORS["S5"]),
    lambda: zc.cyclic(720),
    lambda: zc.build_group("product(dihedral(12),cyclic(9))"),
    lambda: zc.quotient_table(zc.dihedral(2048)),
], ids=["S5", "C720", "D12xC9", "D2048/Z"])
def test_element_orders_match_oracle(build):
    """Prime-power steps through the power map agree with iterated
    multiplication on groups with several primes or a large exponent."""
    G = build()
    assert zc.element_orders(G).tolist() == naive_element_orders(G)


def test_power_map():
    """Repeated squaring, and GroupTable.power through it, agree with k
    multiplications off the table."""
    G = zc.build_group("product(dihedral(12),cyclic(9))")
    m = G.mult.tolist()
    x = np.arange(G.order)
    for k in (0, 1, 2, 5, 36, 37):
        expected = []
        for v in range(G.order):
            acc = 0
            for _ in range(k):
                acc = m[acc][v]
            expected.append(acc)
        assert zc.core.power_map(G, x, k).tolist() == expected
        assert [G.power(v, k) for v in range(G.order)] == expected
        assert [G.power(G.inverse(v), -k) for v in range(G.order)] == expected


def test_power():
    C6 = zc.cyclic(6)
    assert C6.power(1, 4) == 4
    assert C6.power(1, 0) == 0
    assert C6.power(1, -2) == 4


def test_conjugate_fixes():
    D8 = zc.dihedral(8)
    for x in D8.elements():
        assert D8.conjugate(x, 0) == x
    z = int(zc.center(D8).members()[1])
    for g in D8.elements():
        assert D8.conjugate(z, g) == z


def test_conjugate_against_permutation_composition():
    # reflections move under conjugation by the rotation, and the table
    # agrees with direct permutation composition g^-1 * x * g
    gens = [(1, 2, 3, 0), (0, 3, 2, 1)]
    G = zc.from_permutation_generators(gens)
    elems = [tuple(range(4))]
    seen = {elems[0]}
    queue = [elems[0]]
    while queue:
        x = queue.pop(0)
        for g in gens:
            y = compose(x, g)
            if y not in seen:
                seen.add(y)
                elems.append(y)
                queue.append(y)
    index = {p: i for i, p in enumerate(elems)}
    s, r = elems[2], elems[1]    # a reflection and the 4-cycle
    rinv = tuple(np.argsort(r))
    expected = compose(compose(rinv, s), r)
    got = G.conjugate(index[s], index[r])
    assert got == index[expected]
    assert got != index[s]


def test_commutator_examples():
    D8 = zc.dihedral(8)
    for a in D8.elements():
        assert D8.commutator(a, a) == 0
    C6 = zc.cyclic(6)
    assert C6.commutator(2, 5) == 0
    # in Q8 the commutator of the two generators is the central involution
    Q8 = zc.quaternion(8)
    z = Q8.commutator(2, 1)
    assert z != 0 and z in zc.center(Q8) and Q8.element_order(z) == 2


# ------------------------------------------------------------ subgroups

def test_subgroup_generated_trivial():
    G = zc.dihedral(8)
    assert zc.subgroup_generated(G, []).size == 1


def test_subgroup_generated_cyclic_generator():
    C6 = zc.cyclic(6)
    assert zc.subgroup_generated(C6, [1]).size == 6


def test_subgroup_generated_x_and_center_heisenberg():
    H = zc.heisenberg(3)
    Z = zc.center(H)
    x = int(np.flatnonzero(~Z.mask)[0])
    S = zc.subgroup_generated(H, np.append(Z.members(), x))
    assert S.size == 9
    assert naive_is_subgroup(H, S.members())


def test_subgroup_generated_and_greedy_walk_match_the_closure_oracle(catalog):
    """Closures of seeded id sets, and each id of the greedy walk the smallest
    outside the closure of those before it, against the plain-Python closure."""
    rng = np.random.default_rng(20261019)
    for name in ("S3", "D16", "Q16", "Heis3", "ES(2,2,-)"):
        G = catalog[name]
        for size in (1, 2, 3, 8):
            ids = rng.integers(0, G.order, size).tolist()
            got = frozenset(zc.subgroup_generated(G, ids).members().tolist())
            assert got == naive_subgroup_closure(G, ids), (name, ids)
        gens = list(_greedy_walk(G))
        for i, g in enumerate(gens):
            outside = set(G.elements()) - naive_subgroup_closure(G, gens[:i])
            assert g == min(outside), (name, gens)
        assert naive_subgroup_closure(G, gens) == frozenset(G.elements())


def test_subgroup_generated_adjoins_only_ids_outside_its_closure():
    # every id of dihedral(4096) passed: products by all n ids from each
    # layer would gather n^2 ids, more than one n x n table
    G = zc.dihedral(4096)
    tracemalloc.start()
    try:
        H = zc.subgroup_generated(G, range(G.order))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert H.size == G.order
    assert peak < 16 * 2 ** 20, f"tracemalloc peak {peak / 1e6:.1f} MB"


ID_READERS = {
    "mul-left": lambda G, x: G.mul(x, 1),
    "mul-right": lambda G, x: G.mul(1, x),
    "inverse": lambda G, x: G.inverse(x),
    "conjugate-x": lambda G, x: G.conjugate(x, 1),
    "conjugate-g": lambda G, x: G.conjugate(1, x),
    "commutator-a": lambda G, x: G.commutator(x, 1),
    "commutator-b": lambda G, x: G.commutator(1, x),
    "power": lambda G, x: G.power(x, 3),
    "power-negative": lambda G, x: G.power(x, -1),
    "element_order": lambda G, x: G.element_order(x),
    "contains": lambda G, x: x in zc.center(G),
    "centralizer": zc.centralizer,
    "strict_fixed_set": zc.strict_fixed_set,
    "kulkarni_size_check": zc.kulkarni_size_check,
    "class_index_of": lambda G, x: zc.z_class_partition(G).class_index_of(x),
    "class_of": lambda G, x: zc.z_class_partition(G).class_of(x),
    "subgroup_generated": lambda G, x: zc.subgroup_generated(G, [1, x]),
}


@pytest.mark.parametrize("x", [-1, 8])
@pytest.mark.parametrize("reader", list(ID_READERS))
def test_id_readers_refuse_ids_out_of_range(reader, x):
    """numpy reads id -1 as the last element, and 8 past dihedral(8)'s
    tables, so every public reader of one id refuses both."""
    with pytest.raises(ValueError, match="element id out of range"):
        ID_READERS[reader](zc.dihedral(8), x)


def test_center_examples(catalog):
    assert zc.center(catalog["C4"]).size == 4
    assert zc.center(catalog["D8"]).size == 2
    assert zc.center(catalog["Heis5"]).size == 5
    for name, G in catalog.items():
        assert set(zc.center(G).members().tolist()) == naive_center(G)


def test_centralizer_examples():
    D8 = zc.dihedral(8)
    z = int(zc.center(D8).members()[1])
    assert zc.centralizer(D8, z).size == 8
    x = int(np.flatnonzero(~zc.center(D8).mask)[0])
    assert zc.centralizer(D8, x).size == 4
    H = zc.heisenberg(3)
    y = int(np.flatnonzero(~zc.center(H).mask)[0])
    C = zc.centralizer(H, y)
    assert C.size == 9
    assert C == zc.subgroup_generated(H, np.append(zc.center(H).members(), y))


def test_commuting_table_matches_naive(catalog):
    groups = [G for G in catalog.values() if G.order <= 128]
    groups += [zc.from_permutation_generators(gens) for gens in PERMUTATION_GENERATORS.values()]
    for G in groups:
        assert zc.commuting_table(G).tolist() == naive_commuting_table(G), G


@pytest.mark.parametrize("build", [
    lambda: zc.from_permutation_generators(PERMUTATION_GENERATORS["S5"]),
    lambda: zc.heisenberg(11),
    lambda: zc.extraspecial(5, 2, "plus"),
    lambda: zc.dihedral(4096),
], ids=["S5", "heisenberg(11)", "extraspecial(5,2,plus)", "dihedral(4096)"])
def test_commuting_table_matches_the_transpose(build):
    """Orders that are not multiples of the row block, and the cap: the table
    is the pairing's rows read back through the projection."""
    G = build()
    assert np.array_equal(zc.commuting_table(G), G.mult == G.mult.T)


COMMUTATION_GROUPS = {
    "C4096": lambda: zc.cyclic(4096),
    "D4096": lambda: zc.dihedral(4096),
    **{f"ES(2,2,+)-shuffled-{seed}": lambda seed=seed: shuffled("extraspecial(2,2,plus)", seed)
       for seed in (1, 2)},
}


COMMUTATION_NAMES = ([e.label for e in zc.builtin_catalog()]
                     + [f"perm-{p}" for p in PERMUTATION_GENERATORS] + list(COMMUTATION_GROUPS))


def _commutation_group(name, catalog):
    if name in catalog:
        return catalog[name]
    if name.startswith("perm-"):
        return zc.from_permutation_generators(PERMUTATION_GENERATORS[name[5:]])
    return COMMUTATION_GROUPS[name]()


@pytest.mark.parametrize("name", COMMUTATION_NAMES)
def test_commutation_readers_match_the_transpose(name, catalog):
    """center, centralizer and the cell table read the commutator pairing on
    G/Z; each matches x*y = y*x read off the table, the centralizer orders
    included.  In the shuffled groups coset representatives are not the
    natural ids."""
    G = _commutation_group(name, catalog)
    cm = G.mult == G.mult.T
    assert np.array_equal(zc.center(G).mask, cm.all(axis=1))
    for x in range(G.order):
        assert np.array_equal(zc.centralizer(G, x).mask, cm[x]), x
    index = {}
    cell = np.array([index.setdefault(row.tobytes(), len(index)) for row in cm])
    reps, got, cent = _cells(G)[:3]
    assert np.array_equal(got, cell)
    assert np.array_equal(reps, np.unique(cell, return_index=True)[1])
    assert np.array_equal(cent, cm[reps].sum(axis=1))


@pytest.mark.parametrize("name", COMMUTATION_NAMES)
def test_kulkarni_normalizers_in_the_quotient_match_those_in_g(name, catalog):
    """kulkarni_size_check takes the normalizer of C_G(x) in G/Z; its
    prediction matches [G : N_G(C_G(x))] * |cell of x| computed in G."""
    G = _commutation_group(name, catalog)
    for r in _cells(G)[0].tolist():
        index = G.order // zc.normalizer(G, zc.centralizer(G, r)).size
        assert zc.kulkarni_size_check(G, r)[0] == index * zc.strict_fixed_set(G, r).size, r


def test_centralizer_matches_naive(catalog):
    for name in ("S3", "D8", "Q16", "Heis3", "M27"):
        G = catalog[name]
        for x in G.elements():
            assert set(zc.centralizer(G, x).members().tolist()) == naive_centralizer(G, x)


def test_centralizer_contains_powers_and_center(catalog):
    for G in catalog.values():
        Z = zc.center(G)
        for x in G.elements():
            C = zc.centralizer(G, x)
            assert Z.is_subset_of(C)
            assert zc.subgroup_generated(G, [x]).is_subset_of(C)


def test_subgroups_are_equal_by_their_members():
    """Two centralizers of D8 of the same order, <r> and C(s), differ."""
    D8 = zc.dihedral(8)
    rotations, refl = zc.centralizer(D8, 2), zc.centralizer(D8, 1)
    assert rotations.size == refl.size == 4
    assert rotations != refl
    assert rotations == zc.subgroup_generated(D8, [2])


def test_normalizer_examples():
    D8 = zc.dihedral(8)
    whole = zc.SubgroupSet.of(np.ones(8, bool))
    assert zc.normalizer(D8, whole).size == 8
    rotations = zc.subgroup_generated(D8, [2])          # index 2, normal
    assert zc.normalizer(D8, rotations).size == 8
    refl = zc.subgroup_generated(D8, [1])
    N = zc.normalizer(D8, refl)
    assert N.size == 4
    assert refl.is_subset_of(N)
    with pytest.raises(ValueError, match="group order"):
        zc.normalizer(D8, zc.center(zc.dihedral(16)))


def test_normalizer_size_arithmetic(catalog):
    for name in ("D16", "Heis3", "Q16", "S3"):
        G = catalog[name]
        for x in G.elements():
            H = zc.subgroup_generated(G, [x])
            N = zc.normalizer(G, H)
            assert N.size % H.size == 0
            assert G.order % N.size == 0


@pytest.mark.parametrize("name", [entry.label for entry in zc.builtin_catalog()]
                         + ["extraspecial(2,3,plus)", "extraspecial(2,3,minus)"])
def test_normalizer_from_generators_matches_every_conjugate(name, catalog):
    """On every distinct centralizer, the normalizer read off the conjugates
    of a generating set is the one read off the conjugates of every member."""
    G = catalog[name] if name in catalog else zc.build_group(name)
    for row in np.unique(G.mult == G.mult.T, axis=0):
        H = zc.SubgroupSet.of(row)
        every = H.mask[_conjugates(G, H.members())].all(axis=1)
        assert np.array_equal(zc.normalizer(G, H).mask, every)


def test_commutator_subgroup_examples(catalog):
    assert zc.commutator_subgroup(catalog["C4"]).size == 1
    assert zc.commutator_subgroup(catalog["D8"]).size == 2
    for name in ("Heis3", "Heis5"):
        G = catalog[name]
        assert zc.commutator_subgroup(G) == zc.center(G)


# A4 and S4: the commutators among their generators alone generate a
# subgroup that is not normal, so it falls short of G'
PERMUTATION_GROUPS = {name: PERMUTATION_GENERATORS[name] for name in ("A4", "S4")}
# relabelled ids put the greedy generators of G/Z anywhere
SHUFFLED_GROUPS = {"shuffled-ES(2,2,-)": ("extraspecial(2,2,minus)", 1),
                   "shuffled-D8xQ8": ("product(dihedral(8),quaternion(8))", 2)}


@pytest.mark.parametrize("name", [entry.label for entry in zc.builtin_catalog()] + [
    "dihedral(32)", "quaternion(32)", "product(dihedral(8),quaternion(8))",
    "centralproduct(dihedral(8),cyclic(4))", *PERMUTATION_GROUPS, *SHUFFLED_GROUPS])
def test_commutator_subgroup_matches_oracle(name, catalog):
    """G' from the pairing rows of a generating sequence of G/Z is the
    closure of all n^2 commutators."""
    if name in PERMUTATION_GROUPS:
        G = zc.from_permutation_generators(PERMUTATION_GROUPS[name])
    elif name in SHUFFLED_GROUPS:
        G = shuffled(*SHUFFLED_GROUPS[name])
    else:
        G = catalog[name] if name in catalog else zc.build_group(name)
    assert frozenset(zc.commutator_subgroup(G).members().tolist()) == naive_commutator_subgroup(G)


# ------------------------------------------------------------ quotients

def test_quotient_heisenberg_center():
    H = zc.heisenberg(3)
    Q = zc.quotient_table(H)
    assert Q.order == 9
    assert zc.is_elementary_abelian(Q) == 3


def test_quotient_invariants(catalog):
    for name in ("D8", "Q16", "Heis3", "M27"):
        G = catalog[name]
        pj, Z = zc.central_quotient(G).projection, zc.center(G)
        t = zc.quotient_table(G)
        for a in G.elements():
            for b in G.elements():
                assert pj[G.mult[a, b]] == t.mult[pj[a], pj[b]]
        assert set(np.flatnonzero(pj == 0).tolist()) == set(Z.members().tolist())
        assert t.order * Z.size == G.order


QUOTIENT_CASES = {
    **EXTRASPECIAL_CASES,
    "D12": lambda: zc.dihedral(12),
    "D36": lambda: zc.dihedral(36),
    "Heis(Z/4)": lambda: heisenberg_mod(4),
    "Heis(Z/9)": lambda: heisenberg_mod(9),
}


@pytest.mark.parametrize("name", [entry.label for entry in zc.builtin_catalog()]
                         + list(QUOTIENT_CASES))
def test_quotient_facts_read_on_g_match_the_quotient_table(name, catalog):
    """Condition 1, the coset orders and G' are read on G through the
    projection; each matches its reading on the table of G/Z: elementary
    abelian, element orders, and G' from the pairing rows of G/Z's own
    generators.  The orders `central_quotient` carries are those of G/Z."""
    G = catalog[name] if name in catalog else QUOTIENT_CASES[name]()
    Q, proj = zc.quotient_table(G), zc.central_quotient(G).projection
    assert zc.condition_central_quotient_elementary(G) == (zc.is_elementary_abelian(Q) is not None)
    assert np.array_equal(_orders_modulo(G, zc.center(G).mask), zc.element_orders(Q)[proj])
    assert np.array_equal(zc.central_quotient(G).orders, zc.element_orders(Q))
    rows = zc.commutator_pairing(G)[core.greedy_generating_sequence(Q)]
    assert zc.commutator_subgroup(G) == zc.subgroup_generated(G, rows.ravel())


def test_central_quotient_allocates_blocks_not_a_table():
    # |Z| = n for an abelian group: no n x |Z| gather may be taken at once
    G = zc.cyclic(4096)
    zc.center(G)
    tracemalloc.start()
    try:
        quo = zc.central_quotient(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert zc.quotient_table(G).order == 1 and not quo.projection.any()
    assert peak < 16 * 2 ** 20


def test_normality_test_conjugates_generators_not_members():
    # the normalizer of N conjugates generators of N: with |N| = n,
    # conjugating every member of N would gather n^2 ids
    G = zc.cyclic(4096)
    Z = zc.center(G)
    tracemalloc.start()
    try:
        N = zc.normalizer(G, Z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert N.size == G.order
    assert peak < 16 * 2 ** 20, f"tracemalloc peak {peak / 1e6:.1f} MB"


def test_nilpotency_class_two_characterization(catalog):
    # G/Z abelian iff every commutator is central
    for name in ("D8", "Heis3", "D16", "Q16", "S3", "ES(2,2,+)"):
        G = catalog[name]
        Z = zc.center(G)
        quo_abelian = zc.is_abelian(zc.quotient_table(G))
        comm_central = all(
            G.commutator(a, b) in Z for a in G.elements() for b in G.elements())
        assert quo_abelian == comm_central


def test_is_elementary_abelian():
    assert zc.is_elementary_abelian(zc.abelian([2, 2])) == 2
    assert zc.is_elementary_abelian(zc.cyclic(4)) is None
    assert zc.is_elementary_abelian(zc.abelian([])) is None
    assert zc.is_elementary_abelian(zc.dihedral(8)) is None


# ------------------------------------------------------------- products

def test_direct_product_with_trivial():
    D8 = zc.dihedral(8)
    P = zc.direct_product(D8, zc.abelian([]))
    assert np.array_equal(P.mult, D8.mult)


def test_direct_product_klein():
    P = zc.direct_product(zc.cyclic(2), zc.cyclic(2))
    assert zc.is_elementary_abelian(P) == 2


def test_direct_product_heisenberg_c3():
    P = zc.direct_product(zc.heisenberg(3), zc.abelian([3]))
    assert P.order == 81
    assert zc.center(P).size == 9


def test_direct_product_cap():
    with pytest.raises(OrderExceedsCap):
        zc.direct_product(zc.cyclic(100), zc.cyclic(100), cap=4096)


def test_central_product_d8_d8():
    D8 = zc.dihedral(8)
    z = int(zc.center(D8).members()[1])
    P = zc.central_product(D8, D8, z, z)
    assert P.order == 32
    assert zc.is_extraspecial(P)


def test_central_product_d8_q8_census():
    # the two order-32 extraspecial types differ in their order-4 census
    D8, Q8 = zc.dihedral(8), zc.quaternion(8)
    zd = int(zc.center(D8).members()[1])
    zq = int(zc.center(Q8).members()[1])
    plus = zc.central_product(D8, D8, zd, zd)
    minus = zc.central_product(D8, Q8, zd, zq)
    census_plus = sorted(naive_element_order(plus, x) for x in plus.elements())
    census_minus = sorted(naive_element_order(minus, x) for x in minus.elements())
    assert census_plus.count(4) == 12
    assert census_minus.count(4) == 20
    assert zc.is_extraspecial(minus)


def test_central_product_collapses_full_cyclic_factor():
    D8 = zc.dihedral(8)
    z = int(zc.center(D8).members()[1])
    P = zc.central_product(D8, zc.cyclic(2), z, 1)
    assert P.order == 8


def test_central_product_errors():
    D8 = zc.dihedral(8)
    z = int(zc.center(D8).members()[1])
    with pytest.raises(BadParameter, match="element 1 is not central in D8"):
        zc.central_product(D8, D8, 1, z)   # a reflection is not central
    with pytest.raises(BadParameter, match="central element orders differ: 2 vs 4"):
        zc.central_product(D8, zc.cyclic(4), z, 1)   # orders 2 vs 4
    with pytest.raises(BadParameter, match="amalgamated order 4 is not prime"):
        zc.central_product(zc.cyclic(4), zc.cyclic(4), 1, 1)   # order 4 not prime
    # only the identity pair itself skips the checks: one identity is no pair
    with pytest.raises(BadParameter, match="central element orders differ: 1 vs 2"):
        zc.central_product(D8, zc.cyclic(2), 0, 1)
    with pytest.raises(BadParameter, match="central element orders differ: 2 vs 1"):
        zc.central_product(D8, zc.cyclic(2), z, 0)


def test_products_pass_validator():
    P = zc.direct_product(zc.heisenberg(3), zc.abelian([3]))
    zc.validate_group_table(P)
    D8 = zc.dihedral(8)
    z = int(zc.center(D8).members()[1])
    zc.validate_group_table(zc.central_product(D8, D8, z, z))


# ------------------------------------------------- subgroup conjugacy

def test_subgroups_conjugate_equal():
    D8 = zc.dihedral(8)
    H = zc.subgroup_generated(D8, [2])
    assert _first_conjugator(D8, [H.members()], H) == (0, 0)


def test_subgroups_conjugate_size_shortcut():
    D8 = zc.dihedral(8)
    H = zc.subgroup_generated(D8, [2])
    K = zc.subgroup_generated(D8, [1])
    assert _first_conjugator(D8, [H.members()], K) is None


def test_subgroups_conjugate_reflections():
    D8 = zc.dihedral(8)
    H = zc.subgroup_generated(D8, [1])    # <s>
    K = zc.subgroup_generated(D8, [5])    # <r^2 s>
    hit = _first_conjugator(D8, [H.members()], K)
    assert hit is not None
    g = hit[1]
    assert conj_subset(D8, frozenset(H.members().tolist()), g) == \
        frozenset(K.members().tolist())


def _conjugate_set(G, H, g):
    return frozenset(G.conjugate(int(h), g) for h in H.members())


@pytest.mark.parametrize("build, x", [
    (lambda: zc.from_permutation_generators(PERMUTATION_GENERATORS["S4"]), 1),
    (lambda: zc.build_group("product(dihedral(8),quaternion(8))"), 8),
    (lambda: shuffled("dihedral(512)", 3), 1),            # 1 is a reflection
], ids=["S4", "D8xQ8", "shuffled-D512"])
def test_conjugates_match_scalar_conjugation(build, x):
    """_conjugates, normalizer and _first_conjugator against one
    G.conjugate(h, g) call per pair, on the trivial subgroup, a subgroup
    that is not normal, the whole group, and the conjugate of the middle one
    whose smallest conjugator is the largest.  Above _ROW_BLOCK that
    conjugator lies past the first block of the scan, and every block of
    _conjugates is checked against the same rows of the whole gather."""
    G = build()
    subgroups = [zc.subgroup_generated(G, []), zc.subgroup_generated(G, [x]),
                 zc.SubgroupSet.of(np.ones(G.order, bool))]
    assert zc.normalizer(G, subgroups[1]).size < G.order    # <x> is not normal
    first_conjugator: dict[frozenset, int] = {}
    for g in G.elements():
        first_conjugator.setdefault(_conjugate_set(G, subgroups[1], g), g)
    last = max(first_conjugator, key=first_conjugator.get)
    assert G.order <= core._ROW_BLOCK or first_conjugator[last] >= core._ROW_BLOCK
    mask = np.zeros(G.order, bool)
    mask[list(last)] = True
    subgroups.append(zc.SubgroupSet.of(mask))
    for H in subgroups:
        mem = H.members()
        conj = _conjugates(G, mem)
        scalar = [[G.conjugate(int(h), g) for h in mem] for g in G.elements()]
        assert conj.tolist() == scalar
        for lo in range(0, G.order, core._ROW_BLOCK):
            rows = slice(lo, lo + core._ROW_BLOCK)
            assert np.array_equal(_conjugates(G, mem, rows), conj[rows])
        sets = [frozenset(row) for row in scalar]
        own = frozenset(mem.tolist())
        assert zc.normalizer(G, H).mask.tolist() == [s == own for s in sets]
        for K in subgroups:
            target = frozenset(K.members().tolist())
            first = next((g for g, s in enumerate(sets) if s == target), None)
            assert _first_conjugator(G, [mem], K) == (None if first is None else (0, first))


def test_first_conjugator_scans_every_candidate_of_the_right_order():
    """With several candidates, one of another order is skipped and one of the
    right order that is not conjugate to K, listed first, does not end the
    scan: the hit is the conjugate candidate at its smallest witness, which
    lies past the first block of _ROW_BLOCK conjugators."""
    G = shuffled("dihedral(512)", 3)
    x = 1                                                  # a reflection
    first_conjugator: dict[frozenset, int] = {}
    for g in G.elements():
        first_conjugator.setdefault(frozenset({0, G.conjugate(x, g)}), g)
    last = max(first_conjugator, key=first_conjugator.get)
    assert first_conjugator[last] >= core._ROW_BLOCK
    mask = np.zeros(G.order, bool)
    mask[list(last)] = True
    K = zc.SubgroupSet.of(mask)
    orders = zc.element_orders(G)
    y = next(int(y) for y in np.flatnonzero(orders == 2)
             if frozenset({0, int(y)}) not in first_conjugator)    # not conjugate to x
    candidates = [np.arange(G.order), np.array([0, y]), np.array([0, x])]
    assert _first_conjugator(G, candidates, K) == (2, first_conjugator[last])
    assert _first_conjugator(G, candidates[:2], K) is None


# --------------------------------------------------------- equivariance

def test_centralizer_conjugation_equivariance_small(catalog):
    for name in ("S3", "D8", "Q8", "Heis3"):
        G = catalog[name]
        for x in G.elements():
            C = zc.centralizer(G, x)
            for g in G.elements():
                moved = zc.centralizer(G, G.conjugate(x, g))
                assert frozenset(moved.members().tolist()) == _conjugate_set(G, C, g)


def test_centralizer_conjugation_equivariance_sampled(catalog):
    # every (x, g): C(x^g) = C(x)^g says y^g commutes with x^g exactly when
    # y commutes with x, so the relation x*y = y*x, read off the table, is
    # invariant under each conjugation map
    G = catalog["ES(3,2,+)"]
    cm = G.mult == G.mult.T
    ar = np.arange(G.order)
    for g in G.elements():
        conj = G.mult[G.mult[G.inv[g], ar], g]
        assert np.array_equal(cm[np.ix_(conj, conj)], cm), g


# ------------------------------------------------------------ validator

def test_catalog_passes_validator(catalog):
    for G in catalog.values():
        zc.validate_group_table(G)


@pytest.mark.parametrize("what", ["row", "column"])
def test_latin_witness_past_the_first_block(what):
    """D1024 with two entries of one column swapped, so that row 700, in the
    third block of 256 rows, repeats an entry while identity and inverses
    still hold; in the transpose, which keeps them with the same inverses,
    column 700 repeats one.  Light's test refuses both with an associativity
    witness through 700, found past the first block of rows for the row."""
    G = zc.dihedral(1024)
    t = G.mult.copy()
    j, k = next((j, k) for j in range(1, 1024) for k in range(701, 1024)
                if 0 not in (t[700, j], t[k, j]))
    t[[700, k], j] = t[[k, 700], j]
    if what == "column":
        t = t.T
    with pytest.raises(NotAGroup, match="associativity fails") as err:
        zc.validate_group_table(zc.GroupTable(t, G.inv))
    a, b, c = err.value.witness
    assert t[t[a, b], c] != t[a, t[b, c]]
    assert 700 in (a, b, c)


def test_turned_intercalate_above_256_refused():
    # D512 relabelled by x -> 5x + 7, then the two symbols of the 2x2 Latin
    # subsquare on rows a, a*u and columns d, u*d (u an involution) swapped.
    G = zc.dihedral(512)
    n, g = G.order, G.mult
    perm = (5 * np.arange(n) + 7) % n
    t = np.empty_like(g)
    t[perm[:, None], perm[None, :]] = perm[g]
    u = int(np.flatnonzero(zc.element_orders(G) == 2)[0])
    a, d = next((a, d) for a in range(1, n) for d in range(1, n)
                if 0 not in (g[a, u], g[u, d], g[a, g[u, d]], g[a, d]))
    b, c = g[a, u], g[u, d]
    x, y = g[a, c], g[a, d]
    t[perm[a], perm[c]] = t[perm[b], perm[d]] = perm[y]
    t[perm[a], perm[d]] = t[perm[b], perm[c]] = perm[x]
    e, ar = perm[0], np.arange(n)
    assert np.array_equal(t[e], ar) and np.array_equal(t[:, e], ar)
    assert (np.sort(t, axis=0) == ar[:, None]).all() and (np.sort(t, axis=1) == ar).all()
    assert np.array_equal(t[perm, perm[G.inv]], np.full(n, e))   # inverses intact
    with pytest.raises(NotAGroup, match="associativity fails") as info:
        zc.from_multiplication_table(t)
    # the loader swaps the identity label e with 0; map the witness back
    swap = ar.copy()
    swap[[0, e]] = [e, 0]
    p, q, r = swap[list(info.value.witness)]
    assert t[t[p, q], r] != t[p, t[q, r]]


# Groups of order at most 32 whose tables the loader test relabels and corrupts
LOADER_SOURCES = ["cyclic(1)", "cyclic(2)", "cyclic(7)", "abelian(2,2,2)", "dihedral(12)",
                  "quaternion(16)", "dihedral(32)", "abelian(2,4,4)", "heisenberg(3)",
                  "modular_p3(3)", "product(quaternion(8),cyclic(2))"]


def _corrupted(t, rng):
    """t unchanged, or one of seven local changes: an entry overwritten, two
    entries of a row or of a column swapped, two rows swapped, two symbols
    swapped throughout, the transpose (a group's opposite, still a group), or
    the two symbols of a 2x2 Latin subsquare swapped where one exists."""
    t, n = t.copy(), t.shape[0]
    a, b, c, d = (int(v) for v in rng.integers(0, n, size=4))
    kind = int(rng.integers(0, 8))
    if kind == 1:
        t[a, b] = c
    elif kind == 2:
        t[a, [b, c]] = t[a, [c, b]]
    elif kind == 3:
        t[[b, c], a] = t[[c, b], a]
    elif kind == 4:
        t[[a, b]] = t[[b, a]]
    elif kind == 5:
        t = np.where(t == a, b, np.where(t == b, a, t))
    elif kind == 6:
        t = t.T.copy()
    elif kind == 7:
        for u in range(n):      # rows b, u and columns d, v with t[b,d] = t[u,v], t[b,v] = t[u,d]
            for v in range(n):
                if u != b and v != d and t[b, d] == t[u, v] and t[b, v] == t[u, d] \
                        and t[b, d] != t[b, v]:
                    t[b, d], t[b, v], t[u, d], t[u, v] = t[b, v], t[b, d], t[u, v], t[u, d]
                    return t
    return t


def test_loader_accepts_exactly_the_oracle_groups(monkeypatch):
    """Seeded relabelled and corrupted tables of order at most 32: the loader
    accepts exactly the tables the plain-Python oracle calls groups, keeps
    each accepted table with only the identity's label moved to 0, and
    Light's loop checks at most floor(log2 n) + 1 generators on each, at
    most floor(log2 n) on a group."""
    walked = []

    def counted(G, mask=None):
        for s in _greedy_walk(G, mask):
            walked.append(s)
            yield s
    monkeypatch.setattr(core, "_greedy_walk", counted)
    rng = np.random.default_rng(20261018)
    verdicts = set()
    for spec in LOADER_SOURCES * 30:
        G = zc.build_group(spec)
        n = G.order
        perm = rng.permutation(n)               # new label of each old id
        t = np.empty_like(G.mult)
        t[perm[:, None], perm[None, :]] = perm[G.mult]
        t = _corrupted(t, rng)
        walked.clear()
        try:
            loaded = zc.from_multiplication_table(t)
        except NotAGroup:
            loaded = None
        assert (loaded is not None) == naive_is_group(t), spec
        # each passing generator at least doubles the closure; a refused
        # table may add the one generator that fails
        assert len(walked) <= n.bit_length() - (loaded is not None), (spec, walked)
        verdicts.add(loaded is not None)
        if loaded is not None:
            e = int(np.flatnonzero((t == np.arange(n)).all(axis=1))[0])
            swap = np.arange(n)
            swap[[0, e]] = [e, 0]
            assert np.array_equal(loaded.mult, swap[t[swap[:, None], swap[None, :]]])
    assert verdicts == {True, False}


def test_subgroup_set_validate_and_lagrange(catalog):
    for G in catalog.values():
        Z = zc.center(G)
        assert naive_is_subgroup(G, Z.members())
        assert G.order % Z.size == 0
        D = zc.commutator_subgroup(G)
        assert naive_is_subgroup(G, D.members())


# ------------------------------------------------------------ cayley io

def test_cayley_round_trip(tmp_path):
    G = zc.heisenberg(3)
    path = tmp_path / "h3.cayley"
    zc.write_cayley_table(G, path)
    back = zc.read_cayley_table(path)
    assert np.array_equal(back.mult, G.mult)


def test_cayley_comments_and_relabel(tmp_path):
    path = tmp_path / "c3.cayley"
    path.write_text("# tiny\n3\n1 2 0\n2 0 1  # identity is index 2\n0 1 2\n")
    G = zc.read_cayley_table(path)
    assert np.array_equal(G.mult[0], np.arange(3))
    assert G.order == 3


def test_cayley_packaged_s3():
    from importlib import resources
    path = resources.files("zclasses").joinpath("data/s3.cayley")
    G = zc.read_cayley_table(str(path))
    assert G.order == 6 and not zc.is_abelian(G)
    assert np.array_equal(G.mult[0], np.arange(6))


def test_cayley_bad_file(tmp_path):
    path = tmp_path / "bad.cayley"
    path.write_text("3\n0 1 2\n")
    with pytest.raises(NotAGroup):
        zc.read_cayley_table(path)


@pytest.mark.parametrize("text", [
    "2\n0 1\n1 x\n",       # a word in place of an id
    "2\n0 1\n1 0 x\n",     # junk after exactly 1 + n*n entries
    "2\n0 1\n1 +\n",       # a lone sign, which numpy would read as 0
    "2\n0 1\n1 -0\n",      # signed ids are not part of the format
], ids=["word", "trailing-junk", "lone-sign", "signed"])
def test_cayley_malformed_token(tmp_path, text):
    path = tmp_path / "bad.cayley"
    path.write_text(text)
    with pytest.raises(NotAGroup, match="malformed token") as info:
        zc.read_cayley_table(path)
    assert str(path) in str(info.value)


def test_cayley_no_data(tmp_path):
    path = tmp_path / "empty.cayley"
    path.write_text("# only a comment\n \n")
    with pytest.raises(NotAGroup, match="no data"):
        zc.read_cayley_table(path)


def test_cayley_declared_order_over_cap(tmp_path):
    path = tmp_path / "short.cayley"
    path.write_text("8\n0 1\n")    # refused on the declared order alone
    with pytest.raises(OrderExceedsCap):
        zc.read_cayley_table(path, cap=4)


@pytest.mark.parametrize("G", [zc.cyclic(10), zc.cyclic(11), zc.dihedral(1000)],
                         ids=["10", "11", "1000"])
def test_cayley_write_bytes_at_id_widths(G, tmp_path):
    """Ids are written as fixed-width names padded to the widest id, and the
    padding is dropped: orders where the widest id gains a digit, and one
    past a whole number of 32-row blocks, read as the reference writer."""
    path = tmp_path / "g.cayley"
    zc.write_cayley_table(G, path)
    rows = [" ".join(str(int(v)) for v in row) for row in G.mult]   # reference writer
    assert path.read_bytes() == ("\n".join([str(G.order)] + rows) + "\n").encode()


def test_cayley_write_bytes_above_256(tmp_path):
    G = zc.dihedral(512)
    path = tmp_path / "d512.cayley"
    zc.write_cayley_table(G, path)
    rows = [" ".join(str(int(v)) for v in row) for row in G.mult]   # reference writer
    assert path.read_bytes() == ("\n".join([str(G.order)] + rows) + "\n").encode()
    assert np.array_equal(zc.read_cayley_table(path).mult, G.mult)

import numpy as np
import pytest

import zclasses as zc
from zclasses.errors import (
    InvalidPermutation,
    NotAGroup,
    NotCentral,
    NotNormal,
    OrderExceedsCap,
    OrderMismatch,
)

from oracles import (
    conj_subset,
    naive_center,
    naive_centralizer,
    naive_commutator_subgroup,
    naive_element_order,
    naive_element_orders,
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
    with pytest.raises(NotAGroup):
        zc.from_multiplication_table([[0, 1], [1, 1]])


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
    G = zc.from_permutation_generators([(1, 2, 3, 0), (0, 3, 2, 1)], label="D8p")
    assert G.order == 8
    assert len(naive_center(G)) == 2


def test_permutation_empty_gens():
    G = zc.from_permutation_generators([])
    assert G.order == 1


def test_permutation_three_cycle():
    G = zc.from_permutation_generators([(1, 2, 0)])
    assert G.order == 3
    assert zc.is_elementary_abelian(G) == 3


def test_permutation_cap():
    with pytest.raises(OrderExceedsCap):
        zc.from_permutation_generators([(1, 2, 3, 0), (0, 3, 2, 1)], cap=5)


def test_permutation_invalid():
    with pytest.raises(InvalidPermutation):
        zc.from_permutation_generators([(0, 0, 1)])
    with pytest.raises(InvalidPermutation):
        zc.from_permutation_generators([(0, 1), (0, 1, 2)])


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
    lambda: zc.from_permutation_generators([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]),
    lambda: zc.cyclic(720),
    lambda: zc.build_group("product(dihedral(12),cyclic(9))"),
    lambda: zc.central_quotient(zc.dihedral(2048)).table,
], ids=["S5", "C720", "D12xC9", "D2048/Z"])
def test_element_orders_match_oracle(build):
    """Prime-power steps through the power map agree with iterated
    multiplication on groups with several primes or a large exponent."""
    G = build()
    assert zc.element_orders(G).tolist() == naive_element_orders(G)


def test_power_map():
    G = zc.build_group("product(dihedral(12),cyclic(9))")
    x = np.arange(G.order)
    for k in (0, 1, 2, 5, 36, 37):
        assert zc.core.power_map(G, x, k).tolist() == [G.power(int(v), k) for v in x]


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
    S.validate()


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


def test_normalizer_examples():
    D8 = zc.dihedral(8)
    whole = zc.SubgroupSet(D8, np.ones(8, bool))
    assert zc.normalizer(D8, whole).size == 8
    rotations = zc.subgroup_generated(D8, [2])          # index 2, normal
    assert zc.normalizer(D8, rotations).size == 8
    refl = zc.subgroup_generated(D8, [1])
    N = zc.normalizer(D8, refl)
    assert N.size == 4
    assert refl.is_subset_of(N)


def test_normalizer_size_arithmetic(catalog):
    for name in ("D16", "Heis3", "Q16", "S3"):
        G = catalog[name]
        for x in G.elements():
            H = zc.subgroup_generated(G, [x])
            N = zc.normalizer(G, H)
            assert N.size % H.size == 0
            assert G.order % N.size == 0


def test_commutator_subgroup_examples(catalog):
    assert zc.commutator_subgroup(catalog["C4"]).size == 1
    assert zc.commutator_subgroup(catalog["D8"]).size == 2
    for name in ("Heis3", "Heis5"):
        G = catalog[name]
        assert zc.commutator_subgroup(G) == zc.center(G)


# A4 and S4: the commutators among their generators alone generate a
# subgroup that is not normal, so it falls short of G'
PERMUTATION_GROUPS = {"A4": [(1, 2, 0, 3), (1, 0, 3, 2)], "S4": [(1, 2, 3, 0), (1, 0, 2, 3)]}


@pytest.mark.parametrize("name", [entry.label for entry in zc.builtin_catalog()] + [
    "dihedral(32)", "quaternion(32)", "product(dihedral(8),quaternion(8))",
    "centralproduct(dihedral(8),cyclic(4))", *PERMUTATION_GROUPS])
def test_commutator_subgroup_matches_oracle(name, catalog):
    """G' from the commutators of a generating sequence with every element is
    the closure of all n^2 commutators."""
    if name in PERMUTATION_GROUPS:
        G = zc.from_permutation_generators(PERMUTATION_GROUPS[name])
    else:
        G = catalog[name] if name in catalog else zc.build_group(name)
    assert frozenset(zc.commutator_subgroup(G).members().tolist()) == naive_commutator_subgroup(G)


# ------------------------------------------------------------ quotients

def test_quotient_by_trivial():
    D8 = zc.dihedral(8)
    quo = zc.quotient(D8, zc.subgroup_generated(D8, []))
    assert quo.table.order == 8
    assert np.array_equal(quo.table.mult, D8.mult)


def test_quotient_by_whole():
    D8 = zc.dihedral(8)
    quo = zc.quotient(D8, zc.SubgroupSet(D8, np.ones(8, bool)))
    assert quo.table.order == 1


def test_quotient_heisenberg_center():
    H = zc.heisenberg(3)
    quo = zc.quotient(H, zc.center(H))
    assert quo.table.order == 9
    assert zc.is_elementary_abelian(quo.table) == 3


def test_quotient_invariants(catalog):
    for name in ("D8", "Q16", "Heis3", "M27"):
        G = catalog[name]
        quo = zc.quotient(G, zc.center(G))
        pj, t = quo.projection, quo.table
        for a in G.elements():
            for b in G.elements():
                assert pj[G.mult[a, b]] == t.mult[pj[a], pj[b]]
        assert set(np.flatnonzero(pj == 0).tolist()) == set(quo.kernel.members().tolist())
        assert t.order * quo.kernel.size == G.order


def test_quotient_not_normal_witness():
    D8 = zc.dihedral(8)
    refl = zc.subgroup_generated(D8, [1])
    with pytest.raises(NotNormal) as err:
        zc.quotient(D8, refl)
    g, h = err.value.witness
    assert D8.conjugate(h, g) not in refl


def test_nilpotency_class_two_characterization(catalog):
    # G/Z abelian iff every commutator is central
    for name in ("D8", "Heis3", "D16", "Q16", "S3", "ES(2,2,+)"):
        G = catalog[name]
        Z = zc.center(G)
        quo_abelian = zc.is_abelian(zc.quotient(G, Z).table)
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
    with pytest.raises(NotCentral):
        zc.central_product(D8, D8, 1, z)   # a reflection is not central
    with pytest.raises(OrderMismatch):
        zc.central_product(D8, zc.cyclic(4), z, 1)   # orders 2 vs 4
    with pytest.raises(OrderMismatch):
        zc.central_product(zc.cyclic(4), zc.cyclic(4), 1, 1)   # order 4 not prime


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
    assert zc.are_subgroups_conjugate(D8, H, H) == 0


def test_subgroups_conjugate_size_shortcut():
    D8 = zc.dihedral(8)
    H = zc.subgroup_generated(D8, [2])
    K = zc.subgroup_generated(D8, [1])
    assert zc.are_subgroups_conjugate(D8, H, K) is None


def test_subgroups_conjugate_reflections():
    D8 = zc.dihedral(8)
    H = zc.subgroup_generated(D8, [1])    # <s>
    K = zc.subgroup_generated(D8, [5])    # <r^2 s>
    g = zc.are_subgroups_conjugate(D8, H, K)
    assert g is not None
    assert conj_subset(D8, frozenset(H.members().tolist()), g) == \
        frozenset(K.members().tolist())


# --------------------------------------------------------- equivariance

def test_centralizer_conjugation_equivariance_small(catalog):
    for name in ("S3", "D8", "Q8", "Heis3"):
        G = catalog[name]
        for x in G.elements():
            C = zc.centralizer(G, x)
            for g in G.elements():
                assert zc.centralizer(G, G.conjugate(x, g)) == C.conjugate_by(g)


def test_centralizer_conjugation_equivariance_sampled(catalog):
    # every (x, g): C(x^g) = C(x)^g says y^g commutes with x^g exactly when
    # y commutes with x, so the commuting table is invariant under each
    # conjugation map
    G = catalog["ES(3,2,+)"]
    cm = zc.commuting_table(G)
    ar = np.arange(G.order)
    for g in G.elements():
        conj = G.mult[G.mult[G.inv[g], ar], g]
        assert np.array_equal(cm[np.ix_(conj, conj)], cm), g


# ------------------------------------------------------------ validator

def test_catalog_passes_validator(catalog):
    for G in catalog.values():
        zc.validate_group_table(G)


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


def test_subgroup_set_validate_and_lagrange(catalog):
    for G in catalog.values():
        Z = zc.center(G)
        Z.validate()
        assert G.order % Z.size == 0
        D = zc.commutator_subgroup(G)
        D.validate()


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


def test_cayley_write_bytes_above_256(tmp_path):
    G = zc.dihedral(512)
    path = tmp_path / "d512.cayley"
    zc.write_cayley_table(G, path)
    rows = [" ".join(str(int(v)) for v in row) for row in G.mult]   # reference writer
    assert path.read_bytes() == ("\n".join([str(G.order)] + rows) + "\n").encode()
    assert np.array_equal(zc.read_cayley_table(path).mult, G.mult)

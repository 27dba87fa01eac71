import dataclasses
import itertools

import numpy as np
import pytest

import zclasses as zc
from zclasses.core import prime_power
from zclasses.errors import BadParameter
from zclasses.zclass import _cells

from conftest import (CTV, EXTRASPECIAL_CASES, PERMUTATION_GENERATORS, ZCLASS_COUNTS,
                      heisenberg_mod, shuffled)
from oracles import (naive_abelian_index_p, naive_fixed_set, naive_frattini,
                     naive_index_p_subgroups, naive_is_subgroup, naive_local_center,
                     naive_z_partition)


def noncentral(G):
    return np.flatnonzero(~zc.center(G).mask)


# ------------------------------------------------------------ fixed sets
# The library computes the strict sets (the cells); Z(C(x)), the set of y with
# C(y) >= C(x), comes from the plain-Python oracle.

def test_strict_fixed_set_central_is_center(catalog):
    for name in ("D8", "Heis3", "S3", "Q16"):
        G = catalog[name]
        for z in zc.center(G).members():
            assert np.array_equal(zc.strict_fixed_set(G, int(z)), zc.center(G).members())


def test_strict_fixed_set_heisenberg():
    G = zc.heisenberg(3)
    for x in noncentral(G)[:5]:
        assert zc.strict_fixed_set(G, int(x)).size == 6   # (p-1)|Z|


def test_strict_fixed_set_d8():
    G = zc.dihedral(8)
    for x in noncentral(G):
        assert zc.strict_fixed_set(G, int(x)).size == 2


def test_fixed_set_contains_strict_and_center(catalog):
    for name in ("D8", "D16", "Heis3", "S3"):
        G = catalog[name]
        zmem = set(zc.center(G).members().tolist())
        for x in G.elements():
            fixed = naive_fixed_set(G, x)
            assert set(zc.strict_fixed_set(G, x).tolist()) <= fixed
            assert zmem <= fixed


def test_fixed_set_of_central_is_center():
    G = zc.dihedral(8)
    z = int(zc.center(G).members()[1])
    assert naive_fixed_set(G, z) == set(zc.center(G).members().tolist())


def test_fixed_set_d8_noncentral():
    G = zc.dihedral(8)
    x = int(noncentral(G)[0])
    expect = set(zc.strict_fixed_set(G, x).tolist()) | set(zc.center(G).members().tolist())
    assert naive_fixed_set(G, x) == expect
    assert len(expect) == 4


# ------------------------------------------------------------- partition

def test_partition_abelian_single_class():
    for G in (zc.abelian([]), zc.cyclic(2), zc.abelian([4, 2])):
        part = zc.z_class_partition(G)
        assert part.num_classes == 1
        assert part.classes[0].size == G.order


def test_partition_d8():
    assert zc.z_class_count(zc.dihedral(8)) == 4


def test_partition_heisenberg_sizes():
    part = zc.z_class_partition(zc.heisenberg(3))
    assert part.num_classes == 5
    assert sorted(part.sizes()) == [3, 6, 6, 6, 6]


def test_partition_counts_match_frozen(catalog):
    for name, G in catalog.items():
        assert zc.z_class_count(G) == ZCLASS_COUNTS[name], name


def test_partition_is_a_partition(catalog):
    for G in catalog.values():
        part = zc.z_class_partition(G)
        all_members = np.concatenate([c.members for c in part.classes])
        assert sorted(all_members.tolist()) == list(range(G.order))


def test_partition_center_is_first_class(catalog):
    for G in catalog.values():
        part = zc.z_class_partition(G)
        first = part.classes[0]
        assert first.representative == 0
        assert np.array_equal(first.members, zc.center(G).members())


def test_partition_matches_pairwise_oracle(catalog):
    for name, G in catalog.items():
        if G.order > 128:
            continue
        lib = {frozenset(c.members.tolist()) for c in zc.z_class_partition(G).classes}
        assert lib == set(naive_z_partition(G)), name


def test_partition_soundness_sampled_large(catalog):
    # orders above 128: re-verify conjugacy within / across classes on every
    # pair of equal-centralizer cell representatives, which covers all pairs.
    # C_x and C_y are conjugate when their orders agree and C_y holds all of
    # some C_x^g; one gather conjugates C_x by every g, as g^-1 (h g)
    for name in ("ES(3,2,+)", "Heis3xC9"):
        G = catalog[name]
        part = zc.z_class_partition(G)
        reps = np.unique(G.mult == G.mult.T, axis=0, return_index=True)[1].tolist()
        cents = {x: zc.centralizer(G, x) for x in reps}
        for x, y in itertools.product(reps, repeat=2):
            same = part.class_index_of(x) == part.class_index_of(y)
            Cx, Cy = cents[x], cents[y]
            conjugates = G.mult[G.inv, G.mult[Cx.members()]]     # [i, g] = h_i^g
            assert (Cx.size == Cy.size and Cy.mask[conjugates].all(axis=0).any()) == same


@pytest.mark.parametrize("spec, seed", [("dihedral(1024)", None), ("dihedral(4096)", None),
                                        ("dihedral(1024)", 11), ("dihedral(2048)", 12)],
                         ids=["D1024", "D4096", "shuffled-D1024", "shuffled-D2048"])
def test_dihedral_partition_matches_closed_form(spec, seed):
    """D_N, 8 | N, has the z-classes Z = <r^(N/4)>, the other N/2 - 2
    rotations, and the reflections s*r^i in two classes of N/4 by the parity
    of i: with ids 2i + e, the odd ids 1 and 3 mod 4.  No oracle reaches these
    orders, and here the partition merges 2 + N/2 cells into 4 classes, most
    cells joining a class after a scan of more than one block of conjugators."""
    G = zc.build_group(spec) if seed is None else shuffled(spec, seed)
    n = G.order
    part = zc.z_class_partition(G)
    assert sorted(part.sizes()) == [2, n // 4, n // 4, n // 2 - 2]
    if seed is None:
        ids = np.arange(n)
        expected = [np.array([0, n // 2]), ids[ids % 4 == 1],
                    ids[(ids % 2 == 0) & (ids % (n // 2) != 0)], ids[ids % 4 == 3]]
        assert [c.members.tolist() for c in part.classes] == [e.tolist() for e in expected]


def test_class_two_partition_is_the_cells(catalog):
    """When G' lies in Z(G), every centralizer contains G' and so is normal:
    it is conjugate only to itself, each z-class is one cell of equal
    centralizers, and the partition's lookup is the cell index.  D16, Q16
    and D4096, of class above 2, merge cells, so the identity is no
    consequence of how the cells are numbered."""
    groups = [*catalog.values(), *(build() for build in EXTRASPECIAL_CASES.values()),
              heisenberg_mod(4), heisenberg_mod(9), zc.heisenberg(11)]
    class_two = [G for G in groups if zc.commutator_subgroup(G).is_subset_of(zc.center(G))]
    for G in class_two:
        assert np.array_equal(zc.z_class_partition(G).lookup, _cells(G)[1]), G.label
    assert len(class_two) > 20
    for spec, cells in (("dihedral(16)", 6), ("quaternion(16)", 6), ("dihedral(4096)", 1026)):
        G = zc.build_group(spec)
        assert (_cells(G)[0].size, zc.z_class_count(G)) == (cells, 4), spec


def test_partition_conjugation_invariance(catalog):
    for name in ("S3", "D8", "D16", "Heis3"):
        G = catalog[name]
        part = zc.z_class_partition(G)
        for x in G.elements():
            for g in G.elements():
                assert part.class_index_of(x) == part.class_index_of(G.conjugate(x, g))


def test_partition_representatives_ascending(catalog):
    for G in catalog.values():
        reps = [c.representative for c in zc.z_class_partition(G).classes]
        assert reps == sorted(reps)
        for c in zc.z_class_partition(G).classes:
            assert c.representative == int(c.members[0])


# ------------------------------------------------------- size prediction

def test_kulkarni_central_elements(catalog):
    for G in catalog.values():
        predicted, actual = zc.kulkarni_size_check(G, 0)
        assert predicted == actual == zc.center(G).size


def test_kulkarni_heisenberg_noncentral():
    G = zc.heisenberg(3)
    x = int(noncentral(G)[0])
    assert zc.kulkarni_size_check(G, x) == (6, 6)


def test_kulkarni_every_element_d16():
    G = zc.dihedral(16)
    for x in G.elements():
        predicted, actual = zc.kulkarni_size_check(G, x)
        assert predicted == actual


def test_kulkarni_nontrivial_normalizer_index_appears():
    # in D16 some centralizers are non-normal, so the index factor matters
    G = zc.dihedral(16)
    indices = {G.order // zc.normalizer(G, zc.centralizer(G, x)).size
               for x in G.elements()}
    assert indices == {1, 2}


def test_verify_kulkarni_sweep(catalog):
    for G in catalog.values():
        assert zc.verify_kulkarni(G).verdict == "confirmed"


# ------------------------------------------------------------------ ctv

def test_ctv_frozen(catalog):
    for name, G in catalog.items():
        assert zc.conjugate_type_vector(G) == CTV[name], name


def test_ctv_strictly_decreasing_ends_in_one(catalog):
    for G in catalog.values():
        ctv = zc.conjugate_type_vector(G)
        assert ctv[-1] == 1
        assert all(a > b for a, b in zip(ctv, ctv[1:]))


def test_is_type_n_1(catalog):
    assert zc.is_type_n_1(catalog["C4"]) is None
    assert zc.is_type_n_1(catalog["D16"]) is None
    assert zc.is_type_n_1(catalog["S3"]) is None
    for name in ("D8", "Q8", "ES(2,2,+)", "ES(2,2,-)"):
        assert zc.is_type_n_1(catalog[name]) == 2
    for name in ("Heis3", "M27", "ES(3,2,+)", "Heis3xC3", "Heis3xC9"):
        assert zc.is_type_n_1(catalog[name]) == 3
    assert zc.is_type_n_1(catalog["Heis5"]) == 5


# ---------------------------------------------------------------- bound

def test_max_zclass_bound_arithmetic(catalog):
    assert zc.max_zclass_bound(catalog["D8"]) == 4        # index 4, p=2, k=2
    assert zc.max_zclass_bound(catalog["ES(2,2,+)"]) == 16  # index 16: 1+2+4+8 +1
    assert zc.max_zclass_bound(catalog["Heis3"]) == 5     # index 9: (9-1)/2 + 1
    assert zc.max_zclass_bound(catalog["ES(3,2,+)"]) == 41
    assert zc.max_zclass_bound(catalog["Heis5"]) == 7


def test_max_zclass_bound_errors(catalog):
    assert zc.max_zclass_bound(catalog["C4"]) is None      # abelian: index 1
    assert zc.max_zclass_bound(catalog["S3"]) is None      # index 6


# ----------------------------------------------------------- conditions

def test_condition_quotient_elementary(catalog):
    assert zc.condition_central_quotient_elementary(catalog["Heis3"])
    assert zc.condition_central_quotient_elementary(catalog["M27"])
    assert not zc.condition_central_quotient_elementary(catalog["D16"])


@pytest.mark.parametrize("m, ctv, count", [(4, (4, 2, 1), 10), (9, (9, 3, 1), 17)],
                         ids=["Heis(Z/4)", "Heis(Z/9)"])
def test_abelian_quotient_that_is_not_elementary(m, ctv, count):
    """Heisenberg over Z/m for m = p^2: G/Z = (Z/m)^2 is abelian of exponent
    m, so condition 1 fails, and with three indices in its type vector mt is
    vacuous.  The order-64 partition is the pairwise oracle's."""
    G = heisenberg_mod(m)
    assert zc.is_abelian(zc.quotient_table(G)) and zc.center(G).size == m
    assert not zc.condition_central_quotient_elementary(G)
    assert zc.conjugate_type_vector(G) == ctv
    assert zc.z_class_count(G) == count
    assert zc.verify_theorem_mt(G).verdict == "vacuous"
    if G.order <= 64:
        lib = {frozenset(c.members.tolist()) for c in zc.z_class_partition(G).classes}
        assert lib == set(naive_z_partition(G))


def test_condition_local_center(catalog):
    for name in ("Heis3", "ES(2,2,+)", "Heis3xC3"):
        ok, witness = zc.condition_local_center(catalog[name])
        assert ok and witness is None


def test_condition_local_center_matches_oracle(catalog):
    groups = [G for G in catalog.values() if G.order <= 128]
    groups += [zc.dihedral(32), zc.quaternion(32)]
    for G in groups:
        if not zc.is_abelian(G):
            assert zc.condition_local_center(G) == naive_local_center(G), G.label


# Groups in which C(x) can hold a noncentral element of larger centralizer,
# whose cell then lies in Z(C(x)) beside x's own cell and the center; in A4
# every noncentral centralizer holds only its own cell and the center.  In
# D16xD8 some such centralizer is a multiple of |C(x)| in order and still
# does not contain C(x).
LARGER_CENTRALIZERS = {
    "A4": (lambda: zc.from_permutation_generators(PERMUTATION_GENERATORS["A4"]), False),
    "S4": (lambda: zc.from_permutation_generators(PERMUTATION_GENERATORS["S4"]), True),
    "S5": (lambda: zc.from_permutation_generators(PERMUTATION_GENERATORS["S5"]), True),
    "D12xD8": (lambda: zc.build_group("product(dihedral(12),dihedral(8))"), True),
    "D8xQ8": (lambda: zc.build_group("product(dihedral(8),quaternion(8))"), True),
    "D16xD8": (lambda: zc.build_group("product(dihedral(16),dihedral(8))"), True),
}


@pytest.mark.parametrize("name", sorted(LARGER_CENTRALIZERS))
def test_local_center_sizes_count_larger_centralizers(name):
    make, takes_larger = LARGER_CENTRALIZERS[name]
    G = make()
    reps, cell, _, local = _cells(G)
    assert local.tolist() == [len(naive_fixed_set(G, int(r))) for r in reps]
    own_and_center = np.bincount(cell) + zc.center(G).size * (np.arange(reps.size) > 0)
    assert bool((local > own_and_center).any()) == takes_larger
    assert zc.condition_local_center(G) == naive_local_center(G)


def test_condition_local_center_verifies_inside_centralizer():
    # cross-check one instance by hand: the centralizer of a noncentral
    # element of Heis3 is abelian, so its center is the whole centralizer
    G = zc.heisenberg(3)
    x = int(noncentral(G)[0])
    C = zc.centralizer(G, x)
    gen = zc.subgroup_generated(G, np.append(zc.center(G).members(), x))
    assert C == gen


# ----------------------------------------------- abelian subgroup search

def test_abelian_index_p_d8():
    D8 = zc.dihedral(8)
    sub = zc.has_abelian_subgroup_of_index_p(D8, 2)
    assert sub is not None
    assert sub.index == 2
    assert naive_is_subgroup(D8, sub.members())
    assert sorted(sub.members().tolist()) == [0, 1, 4, 5]   # C(s) for the reflection s = 1


def test_abelian_index_p_extraspecial_none(catalog):
    assert zc.has_abelian_subgroup_of_index_p(catalog["ES(2,2,+)"], 2) is None
    assert zc.has_abelian_subgroup_of_index_p(catalog["ES(2,2,-)"], 2) is None
    assert zc.has_abelian_subgroup_of_index_p(catalog["ES(3,2,+)"], 3) is None


def test_abelian_index_p_abelian_group():
    # theorem A asks the question of non-abelian p-groups only
    for G in (zc.abelian([]), zc.abelian([2, 2]), zc.abelian([6])):
        with pytest.raises(BadParameter, match="G is abelian, not a non-abelian p-group$"):
            zc.has_abelian_subgroup_of_index_p(G, 2)


# p-groups beyond the builtin catalog, with and without an abelian subgroup of index p
INDEX_P_SPECS = ["dihedral(32)", "quaternion(32)", "product(dihedral(8),dihedral(8))",
                 "product(quaternion(8),abelian(4))", "centralproduct(dihedral(8),abelian(4))",
                 "modular_p3(5)", "extraspecial(2,3,plus)", "extraspecial(2,3,minus)",
                 "centralproduct(extraspecial(3,2,plus),cyclic(9))"]
CATALOG_P_GROUPS = [e.label for e in zc.builtin_catalog()
                    if e.expect["order"] > 1 and zc.core.prime_power(e.expect["order"])]


@pytest.mark.parametrize("name", CATALOG_P_GROUPS + INDEX_P_SPECS)
def test_abelian_index_p_matches_oracle(catalog, name):
    G = catalog[name] if name in catalog else zc.build_group(name)
    p = zc.core.prime_power(G.order)[0]
    if zc.is_abelian(G):
        with pytest.raises(BadParameter, match="G is abelian"):
            zc.has_abelian_subgroup_of_index_p(G, p)
        return
    sub = zc.has_abelian_subgroup_of_index_p(G, p)
    assert (sub is None) == (naive_abelian_index_p(G, p) is None)
    if sub is not None:
        assert naive_is_subgroup(G, sub.members())
        mem = sub.members()
        assert sub.index == p
        assert (G.mult == G.mult.T)[np.ix_(mem, mem)].all()


def test_index_p_oracle_gives_the_hyperplanes_over_frattini(catalog):
    # the oracle's kernels are all the index-p subgroups containing Phi(G):
    # as many as the hyperplanes of G/Phi, and meeting exactly in Phi
    for name in CATALOG_P_GROUPS:
        G = catalog[name]
        if G.order > 64:
            continue
        p = zc.core.prime_power(G.order)[0]
        phi = naive_frattini(G)
        kernels = naive_index_p_subgroups(G, p)
        d = zc.core.prime_power(G.order // len(phi))[1]
        assert len(kernels) == (p ** d - 1) // (p - 1), name
        assert all(len(K) * p == G.order and phi <= K for K in kernels), name
        assert frozenset.intersection(*kernels) == phi, name


def test_abelian_index_p_rejects_non_p_group(catalog):
    with pytest.raises(BadParameter, match="order 6 is not a power of 2$"):
        zc.has_abelian_subgroup_of_index_p(catalog["S3"], 2)
    with pytest.raises(BadParameter, match="order 8 is not a power of 3$"):
        zc.has_abelian_subgroup_of_index_p(catalog["D8"], 3)


# ------------------------------------------------------------ class sizes

def test_zclass_size_equality_for_attainers(catalog):
    # attaining groups have every noncentral class of size exactly (p-1)|Z|
    for name in ("D8", "Q8", "Heis3", "M27", "Heis5", "ES(2,2,+)", "ES(2,2,-)",
                 "ES(3,2,+)", "Heis3xC3", "D8xC2", "Heis3xC9"):
        G = catalog[name]
        p = zc.core.prime_power(G.order)[0]
        floor = (p - 1) * zc.center(G).size
        part = zc.z_class_partition(G)
        assert all(c.size == floor for c in part.classes[1:]), name


# ------------------------------------------------------------- verifiers

def test_theorem_mt_confirmed_on_attainers(catalog):
    for name in ("D8", "Q8", "Heis3", "M27", "Heis5", "ES(2,2,+)", "ES(2,2,-)",
                 "ES(3,2,+)", "Heis3xC3", "D8xC2", "Heis3xC9"):
        rep = zc.verify_theorem_mt(catalog[name])
        assert rep.verdict == "confirmed", name
        G = catalog[name]
        assert zc.z_class_count(G) == zc.max_zclass_bound(G), name
        assert zc.condition_central_quotient_elementary(G), name
        assert zc.condition_local_center(G) == (True, None), name


def test_theorem_mt_vacuous_cases(catalog):
    for name in ("C4", "trivial", "S3", "D16", "Q16"):
        assert zc.verify_theorem_mt(catalog[name]).verdict == "vacuous"


def test_theorem_mt_heisenberg5_facts(catalog):
    G = catalog["Heis5"]
    assert zc.verify_theorem_mt(G).conclusion is True
    assert zc.z_class_count(G) == zc.max_zclass_bound(G) == 7


def test_theorem_A_branches(catalog):
    rep = zc.verify_theorem_A(catalog["D8"])
    assert rep.verdict == "confirmed" and "CpxCp" in rep.witness
    rep = zc.verify_theorem_A(catalog["ES(2,2,+)"])
    assert rep.verdict == "confirmed" and "no abelian" in rep.witness
    assert zc.verify_theorem_A(catalog["D16"]).verdict == "vacuous"
    assert zc.verify_theorem_A(catalog["S3"]).verdict == "vacuous"


def test_theorem_A_d8_has_abelian_maximal_but_first_branch_saves_it(catalog):
    # D8 does have an abelian index-2 subgroup; it attains only because
    # its central quotient is the four group
    D8 = catalog["D8"]
    assert zc.has_abelian_subgroup_of_index_p(D8, 2) is not None
    assert zc.verify_theorem_A(D8).verdict == "confirmed"


def test_corollary_est_examples(catalog):
    for name in ("Heis3", "M27", "Heis3xC9", "D8", "Q8", "ES(2,2,-)"):
        rep = zc.verify_corollary_est(catalog[name])
        assert rep.verdict == "confirmed", name
        assert zc.z_class_count(catalog[name]) == zc.max_zclass_bound(catalog[name]), name
        assert rep.witness.startswith("isoclinic to ES("), name


def test_corollary_est_preconditions(catalog):
    for name in ("D16",     # |G'| = 4
                 "C4",      # abelian
                 "S3"):     # index not a prime power
        rep = zc.verify_corollary_est(catalog[name])
        assert (rep.theorem, rep.verdict, rep.witness) == ("est", "vacuous", None), name


def test_order_125_exponent_25_group_attains():
    # the second non-abelian group of order 125 behaves like its exponent-5
    # sibling: type (5,1), seven classes, bound attained, est confirmed
    G = zc.modular_p3(5)
    assert zc.is_type_n_1(G) == 5
    assert zc.z_class_count(G) == zc.max_zclass_bound(G) == 7
    assert zc.verify_corollary_est(G).verdict == "confirmed"


def test_direct_factor_invariance_various_abelian_factors(catalog):
    for name in ("D8", "Heis3", "D16"):
        G = catalog[name]
        base = zc.z_class_count(G)
        for orders in ([2], [4], [2, 2], [3], [6]):
            P = zc.direct_product(G, zc.abelian(orders), cap=8192)
            assert zc.z_class_count(P) == base, (name, orders)


def test_bounds_report(catalog):
    rep = zc.verify_bounds(catalog["Heis3xC3"])
    assert rep.verdict == "confirmed"
    assert zc.z_class_count(catalog["Heis3xC3"]) == 5            # lower bound p + 2 = 5
    assert zc.max_zclass_bound(catalog["Heis3xC3"]) == 5         # upper bound
    assert zc.verify_bounds(catalog["C2"]).verdict == "vacuous"
    assert zc.verify_bounds(catalog["S3"]).verdict == "vacuous"


def test_no_refutations_anywhere(catalog):
    # every report over the catalog is vacuous exactly when it has no
    # conclusion, and none is refuted
    from zclasses.catalog import THEOREMS, run_theorem
    for G in catalog.values():
        for theorem in THEOREMS:
            rep = run_theorem(G, theorem, iso_cap=96)
            assert rep.theorem == theorem
            assert (rep.verdict == "vacuous") == (rep.conclusion is None)
            assert rep.verdict != "REFUTED"


def test_report_invariant_refuted_requires_hypotheses():
    # a report is vacuous exactly when it has no conclusion, and a statement
    # concludes nothing on a group outside its hypotheses: type (n,1) for mt,
    # a non-abelian p-group for A and the bounds
    from zclasses.catalog import THEOREMS, run_theorem
    for G in (zc.dihedral(8), zc.dihedral(16), zc.abelian([4])):
        for theorem in THEOREMS:
            rep = run_theorem(G, theorem, iso_cap=96)
            assert (rep.verdict == "vacuous") == (rep.conclusion is None)
            if rep.verdict == "vacuous":
                continue
            if theorem == "mt":
                assert zc.is_type_n_1(G) is not None
            if theorem in ("A", "bounds"):
                assert not zc.is_abelian(G)
                assert prime_power(G.order) is not None


def test_report_holds_only_what_a_record_prints():
    fields = [f.name for f in dataclasses.fields(zc.TheoremReport)]
    assert fields == ["theorem", "conclusion", "witness"]

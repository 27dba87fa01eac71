import numpy as np
import pytest

import zclasses as zc
from zclasses.errors import BadParameter, OrderExceedsCap

from conftest import PERMUTATION_GENERATORS
from oracles import naive_element_order, naive_frattini

CATALOG_ES_PARAMS = [(2, 1, "plus"), (2, 1, "minus"), (2, 2, "plus"), (2, 2, "minus"),
                     (3, 1, "plus"), (3, 1, "minus"), (3, 2, "plus"), (5, 1, "plus")]


def census(G):
    return sorted(naive_element_order(G, x) for x in G.elements())


def test_abelian_empty_is_trivial():
    assert zc.abelian([]).order == 1


def test_abelian_klein():
    G = zc.abelian([2, 2])
    assert zc.is_elementary_abelian(G) == 2


def test_abelian_3_3():
    G = zc.abelian([3, 3])
    assert G.order == 9
    assert zc.is_elementary_abelian(G) == 3


def test_abelian_rejects_small_factor():
    with pytest.raises(BadParameter):
        zc.abelian([2, 1])


def test_dihedral_8():
    G = zc.dihedral(8)
    assert G.order == 8
    assert zc.center(G).size == 2
    assert zc.commutator_subgroup(G).size == 2


def test_dihedral_16_class_three():
    G = zc.dihedral(16)
    quo = zc.central_quotient(G).table
    assert not zc.is_abelian(quo)


def test_dihedral_bad_order():
    for bad in (2, 7, 0):
        with pytest.raises(BadParameter):
            zc.dihedral(bad)


def test_quaternion_8_single_involution():
    G = zc.quaternion(8)
    assert census(G).count(2) == 1


def test_quaternion_16():
    G = zc.quaternion(16)
    assert G.order == 16
    assert zc.center(G).size == 2
    assert census(G).count(2) == 1   # generalized quaternion: unique involution


def test_quaternion_bad_order():
    for bad in (4, 12, 24, 2 ** 61 - 1):    # the last a prime: refused without trial division
        with pytest.raises(BadParameter, match=f"got {bad}$"):
            zc.quaternion(bad)


def test_heisenberg_3_exponent_p():
    G = zc.heisenberg(3)
    assert G.order == 27
    assert census(G) == [1] + [3] * 26


def test_heisenberg_center_equals_derived():
    G = zc.heisenberg(3)
    assert zc.center(G) == zc.commutator_subgroup(G)
    assert zc.center(G).size == 3


def test_heisenberg_5_extraspecial():
    G = zc.heisenberg(5)
    assert G.order == 125
    assert zc.is_extraspecial(G)


def test_heisenberg_rejects_non_odd_prime():
    for bad in (2, 4, 9):
        with pytest.raises(BadParameter, match=f"p must be an odd prime, got {bad}$"):
            zc.heisenberg(bad)


def test_modular_p3_has_order_9_element():
    G = zc.modular_p3(3)
    assert G.order == 27
    assert 9 in census(G)
    assert zc.is_extraspecial(G)


def test_modular_vs_heisenberg_not_isomorphic_same_count():
    # different exponent, yet both attain the same class count
    h, m = zc.heisenberg(3), zc.modular_p3(3)
    assert census(h) != census(m)
    assert zc.z_class_count(h) == zc.z_class_count(m) == 5


def test_modular_rejects_non_odd_prime():
    with pytest.raises(BadParameter, match="p must be an odd prime, got 2$"):
        zc.modular_p3(2)


def test_extraspecial_single_factor_is_d8():
    G = zc.extraspecial(2, 1, "plus")
    assert np.array_equal(G.mult, zc.dihedral(8).mult)
    assert np.array_equal(zc.extraspecial(2, 1, "minus").mult, zc.quaternion(8).mult)


def test_extraspecial_2_2_plus():
    G = zc.extraspecial(2, 2, "plus")
    assert G.order == 32
    assert zc.center(G).size == 2
    quo = zc.central_quotient(G).table
    assert quo.order == 16
    assert zc.is_elementary_abelian(quo) == 2


def test_extraspecial_3_2_type_vector():
    G = zc.extraspecial(3, 2, "plus")
    assert G.order == 243
    assert zc.conjugate_type_vector(G) == (3, 1)


@pytest.mark.parametrize("p,n,variant", CATALOG_ES_PARAMS)
def test_extraspecial_family_invariants(p, n, variant):
    G = zc.extraspecial(p, n, variant)
    assert G.order == p ** (1 + 2 * n)
    assert zc.center(G).size == p
    quo = zc.central_quotient(G).table
    assert quo.order == p ** (2 * n)
    assert zc.is_elementary_abelian(quo) == p
    assert zc.is_extraspecial(G)
    zc.validate_group_table(G)


@pytest.mark.parametrize("p,n,variant", CATALOG_ES_PARAMS)
def test_extraspecial_noncentral_centralizers_have_index_p(p, n, variant):
    G = zc.extraspecial(p, n, variant)
    Z = zc.center(G)
    for x in np.flatnonzero(~Z.mask):
        assert zc.centralizer(G, int(x)).index == p


def test_extraspecial_errors():
    with pytest.raises(BadParameter):
        zc.extraspecial(2, 1, "both")
    with pytest.raises(BadParameter, match="p must be prime, got 6$"):
        zc.extraspecial(6, 1, "plus")
    with pytest.raises(BadParameter):
        zc.extraspecial(2, 0, "plus")
    with pytest.raises(OrderExceedsCap):
        zc.extraspecial(5, 3, "plus", cap=4096)
    with pytest.raises(OrderExceedsCap, match=r"extraspecial order 3\^2000001 exceeds cap 4096"):
        zc.extraspecial(3, 10 ** 6)         # refused before p^(1+2n) is computed
    with pytest.raises(OrderExceedsCap, match="extraspecial order of 183 bits exceeds cap 4096"):
        zc.extraspecial(2 ** 61 - 1, 1)     # a prime, refused before its trial division


def test_frattini_examples():
    assert zc.frattini_subgroup(zc.abelian([2, 2]), 2).size == 1
    c4 = zc.cyclic(4)
    phi = zc.frattini_subgroup(c4, 2)
    assert phi.size == 2
    h3 = zc.heisenberg(3)
    assert zc.frattini_subgroup(h3, 3) == zc.center(h3)


def test_frattini_rejects_non_p_group():
    with pytest.raises(BadParameter, match="order 6 is not a power of 2$"):
        zc.frattini_subgroup(zc.cyclic(6), 2)
    with pytest.raises(BadParameter, match="order 8 is not a power of 3$"):
        zc.frattini_subgroup(zc.dihedral(8), 3)


def test_frattini_contains_derived(catalog):
    for G in catalog.values():
        pw = zc.core.prime_power(G.order) if G.order > 1 else None
        if pw is None:
            continue
        phi = zc.frattini_subgroup(G, pw[0])
        assert zc.commutator_subgroup(G).is_subset_of(phi)


def test_frattini_formula_matches_maximal_subgroup_oracle():
    cases = [(zc.cyclic(4), 2), (zc.abelian([2, 2]), 2), (zc.abelian([4, 2]), 2),
             (zc.dihedral(8), 2), (zc.quaternion(8), 2), (zc.dihedral(16), 2),
             (zc.heisenberg(3), 3), (zc.extraspecial(2, 2, "plus"), 2)]
    for G, p in cases:
        lib = frozenset(zc.frattini_subgroup(G, p).members().tolist())
        assert lib == naive_frattini(G)


def test_is_extraspecial_negatives():
    assert not zc.is_extraspecial(zc.abelian([4]))
    assert not zc.is_extraspecial(zc.abelian([2, 2]))
    assert not zc.is_extraspecial(zc.dihedral(16))   # derived subgroup too big
    s3 = zc.from_permutation_generators(PERMUTATION_GENERATORS["S3"])
    assert not zc.is_extraspecial(s3)


def test_is_extraspecial_positives():
    for G in (zc.dihedral(8), zc.quaternion(8), zc.heisenberg(3), zc.modular_p3(3),
              zc.extraspecial(2, 2, "plus"), zc.extraspecial(2, 2, "minus")):
        assert zc.is_extraspecial(G)


def test_constructor_labels_are_deterministic():
    assert zc.dihedral(8).label == "D8"
    assert zc.heisenberg(3).label == "Heis3"
    assert zc.extraspecial(2, 2, "minus").label == "ES(2,2,-)"
    a = zc.extraspecial(3, 2, "plus")
    b = zc.extraspecial(3, 2, "plus")
    assert np.array_equal(a.mult, b.mult)

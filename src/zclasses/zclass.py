"""Partitions of a group by conjugacy of centralizers.

Two elements are equivalent when their centralizers are conjugate.  The
checks share one memoised table on G/Z, the cells of equal centralizers and
their orders: the partition merges cells, the type vector, the local centers
and theorem A read the orders, and the orbit-size identity runs once per cell.
The ``verify_*`` functions turn each statement under test into a checkable
:class:`TheoremReport` on one concrete group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .construct import frattini_subgroup
from .core import (
    GroupTable,
    SubgroupSet,
    _ids,
    are_subgroups_conjugate,
    center,
    central_quotient,
    centralizer,
    commutator_pairing,
    element_orders,
    greedy_generating_sequence,
    is_abelian,
    is_elementary_abelian,
    normalizer,
    prime_power,
    subgroup_generated,
)
from .errors import BadParameter


@dataclass
class ZClass:
    """One class of the partition: members and its smallest member."""

    members: np.ndarray
    representative: int

    @property
    def size(self) -> int:
        return int(self.members.size)


class ZClassPartition:
    """Partition of a group's elements into classes of conjugate centralizers.

    Classes are ordered by (and represented by) their smallest member, so the
    class containing the identity -- which is exactly the center -- comes
    first.  ``members`` holds each class's sorted ids and ``lookup[x]`` the
    index of the class of x.
    """

    def __init__(self, group: GroupTable, members: list[np.ndarray], lookup: np.ndarray):
        self.group = group
        self._members = members
        self._lookup = lookup

    @property
    def classes(self) -> list[ZClass]:
        return [self.class_of(int(mem[0])) for mem in self._members]

    @property
    def num_classes(self) -> int:
        return len(self._members)

    def class_index_of(self, x: int) -> int:
        return int(self._lookup[_ids(self.group, x)])

    def class_of(self, x: int) -> ZClass:
        mem = self._members[self.class_index_of(x)]
        return ZClass(mem, int(mem[0]))

    def sizes(self) -> list[int]:
        return [int(mem.size) for mem in self._members]

    def __repr__(self) -> str:
        return f"ZClassPartition({self.group!r}, {self.num_classes} classes)"


def _cells(G: GroupTable) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cells of equal centralizers, memoised: the smallest member r of each in
    ascending order (cell 0 is the center), the cell of each element, |C_G(r)|
    and |Z(C_G(r))|.  Cells key the pairing's rows ``cm``, cosets of Z numbered
    by smallest member, so the coset ``q`` of a cell's first row holds r.
    Z(C_G(r)) is r's cell, the center, and each cell in C_G(r) whose proper
    centralizer contains C_G(r); only a proper multiple of |C_G(r)| can."""
    def compute():
        quo, cm = central_quotient(G), commutator_pairing(G) == 0
        index: dict[bytes, int] = {}
        qcell = np.array([index.setdefault(row.tobytes(), len(index)) for row in cm], np.int32)
        q = np.unique(qcell, return_index=True)[1]
        cell = qcell[quo.projection]
        counts, cent = np.bincount(cell), center(G).size * cm[q].sum(axis=1)
        local = counts + np.where(cent < G.order, counts[0], 0)
        for s in np.unique(cent[1:]):
            small = np.flatnonzero(cent == s)
            large = np.flatnonzero((cent > s) & (cent < G.order) & (cent % s == 0))
            inside = cm[np.ix_(q[small], q[large])]
            hit = inside.any(axis=1)
            for i, row in zip(small[hit], inside[hit]):
                js = large[row]
                holds = cm[np.ix_(q[js], np.flatnonzero(cm[q[i]]))].all(axis=1)
                local[i] += counts[js[holds]].sum()
        return quo.coset_reps[q], cell, cent, local
    return G._memo("cells", compute)


def strict_fixed_set(G: GroupTable, x: int) -> np.ndarray:
    """All y whose centralizer equals that of x, as a sorted id array."""
    cell = _cells(G)[1]
    return np.flatnonzero(cell == cell[_ids(G, x)])


def z_class_partition(G: GroupTable) -> ZClassPartition:
    """Partition G by conjugacy of centralizers.

    Cells of equal centralizers are merged, in ascending order of their
    smallest members, whenever their centralizers are conjugate subgroups;
    the conjugacy test short-circuits on subgroup size.
    """
    def compute():
        reps, cell = _cells(G)[:2]
        merged: list[SubgroupSet] = []
        class_of_cell = np.empty(reps.size, dtype=np.int32)
        for i, r in enumerate(reps):
            C = centralizer(G, r)
            for j, cent in enumerate(merged):
                if cent.size == C.size and are_subgroups_conjugate(G, cent, C) is not None:
                    class_of_cell[i] = j
                    break
            else:
                class_of_cell[i] = len(merged)
                merged.append(C)
        lookup = class_of_cell[cell]
        members = np.split(np.argsort(lookup, kind="stable"),
                           np.cumsum(np.bincount(lookup))[:-1])
        return members, lookup

    return ZClassPartition(G, *G._memo("zclass_partition", compute))


def z_class_count(G: GroupTable) -> int:
    return z_class_partition(G).num_classes


def kulkarni_size_check(G: GroupTable, x: int) -> tuple[int, int]:
    """(predicted, actual) size of the class of x.

    The prediction is the orbit-size identity
    ``[G : N_G(C_G(x))] * |{y : C(y) = C(x)}|``; C_G(x) is the preimage of
    the pairing row of xZ, so N_G(C_G(x)) is that of its normalizer in G/Z,
    of the same index.  The actual size comes from the computed partition.
    The two must agree for every element.
    """
    quo = central_quotient(G)
    row = SubgroupSet(quo.table, commutator_pairing(G)[quo.projection[_ids(G, x)]] == 0)
    predicted = normalizer(quo.table, row).index * int(strict_fixed_set(G, x).size)
    actual = z_class_partition(G).class_of(x).size
    return predicted, actual


def conjugate_type_vector(G: GroupTable) -> tuple[int, ...]:
    """Distinct indices [G : C(x)], one per cell, sorted descending (ends in 1)."""
    indices = np.unique(G.order // _cells(G)[2])
    return tuple(int(v) for v in indices[::-1])


def is_type_n_1(G: GroupTable) -> int | None:
    """n when the conjugate type vector is exactly (n, 1) with n > 1, else None."""
    ctv = conjugate_type_vector(G)
    if len(ctv) == 2 and ctv[1] == 1 and ctv[0] > 1:
        return ctv[0]
    return None


def max_zclass_bound(G: GroupTable) -> int | None:
    """(p^k - 1)/(p - 1) + 1 where [G : Z(G)] = p^k, in exact arithmetic, or
    None where it is undefined: G abelian (index 1) or the index not a prime
    power."""
    pw = prime_power(G.order // center(G).size)
    if pw is None:
        return None
    p, k = pw
    return (p ** k - 1) // (p - 1) + 1


def condition_central_quotient_elementary(G: GroupTable) -> bool:
    """Whether G/Z(G) is elementary abelian (non-abelian G intended)."""
    return is_elementary_abelian(central_quotient(G).table) is not None


def condition_local_center(G: GroupTable) -> tuple[bool, int | None]:
    """Check Z(C_G(x)) = <x, Z(G)> for every noncentral x.

    <x, Z(G)> always lies in Z(C_G(x)) and has order |Z(G)| * ord(xZ), so
    the condition compares two orders; Z(C_G(x)) is the union of the cells
    whose centralizer contains C_G(x), read off the cell table.
    Returns (True, None), or (False, x) for the smallest offending x.
    """
    quo, Z = central_quotient(G), center(G)
    generated = Z.size * element_orders(quo.table)[quo.projection]
    _, cell, _, local = _cells(G)
    bad = np.flatnonzero((local[cell] != generated) & ~Z.mask)
    return (False, int(bad[0])) if bad.size else (True, None)


def has_abelian_subgroup_of_index_p(G: GroupTable, p: int) -> SubgroupSet | None:
    """An abelian subgroup of index p in a p-group, or None.

    In non-abelian G such a subgroup is C_G(x) for each of its noncentral x,
    so it exists exactly when some noncentral x has [G : C_G(x)] = p and
    C_G(x) abelian, that is |Z(C_G(x))| = |C_G(x)|.  Abelian G returns
    <Phi(G), g_1 .. g_(r-1)> for its greedy generating sequence g_1 .. g_r,
    a proper subgroup since Phi(G) consists of non-generators.  Raises
    :class:`BadParameter` unless |G| is a power of p.
    """
    if G.order == 1:
        return None
    pw = prime_power(G.order)
    if pw is None or pw[0] != p:
        raise BadParameter(f"order {G.order} is not a power of {p}")
    if is_abelian(G):
        gens = greedy_generating_sequence(G)
        return subgroup_generated(G, np.append(frattini_subgroup(G, p).members(), gens[:-1]))
    reps, _, cent, local = _cells(G)
    hits = reps[(G.order == p * cent) & (cent == local)]
    return centralizer(G, hits[0]) if hits.size else None


@dataclass
class TheoremReport:
    """Outcome of checking one statement on one group.

    ``conclusion`` is None when a hypothesis fails and there is nothing to
    check; ``verdict`` follows it: ``vacuous``, ``confirmed``, or ``REFUTED``
    (all hypotheses hold and the conclusion fails -- which the test suite
    treats as a failure).
    """

    theorem: str
    conclusion: bool | None
    witness: str | None = None

    @property
    def verdict(self) -> str:
        if self.conclusion is None:
            return "vacuous"
        return "confirmed" if self.conclusion else "REFUTED"


def _p_group_prime(G: GroupTable) -> int | None:
    """p when G is a non-abelian p-group, else None."""
    pw = prime_power(G.order)
    return None if pw is None or is_abelian(G) else pw[0]


def verify_theorem_mt(G: GroupTable) -> TheoremReport:
    """Check the maximal-count characterization on a type-(n,1) group.

    For non-abelian G of type (n,1) with [G : Z(G)] = p^k the class count
    attains (p^k - 1)/(p - 1) + 1 exactly when the central quotient is
    elementary abelian and Z(C_G(x)) = <x, Z(G)> for every noncentral x.
    Both directions of the equivalence are evaluated.
    """
    if is_type_n_1(G) is None:                  # abelian G has type (1)
        return TheoremReport("mt", None)
    attains = z_class_count(G) == max_zclass_bound(G)
    c1 = condition_central_quotient_elementary(G)
    c2, w2 = condition_local_center(G)
    ok = attains == (c1 and c2)
    witness = None
    if not ok:
        witness = f"attains={attains} but cond1={c1}, cond2={c2}"
        if w2 is not None:
            witness += f" (local center fails at x={w2})"
    return TheoremReport("mt", ok, witness)


def verify_theorem_A(G: GroupTable) -> TheoremReport:
    """Check the necessary conditions for attaining the class-count bound.

    A non-abelian p-group attaining the bound must either have central
    quotient of order p^2 (elementary abelian), or have no abelian subgroup
    of index p together with an elementary abelian central quotient.
    """
    p = _p_group_prime(G)
    if p is None or z_class_count(G) != max_zclass_bound(G):
        return TheoremReport("A", None)
    elementary = condition_central_quotient_elementary(G)
    branch1 = elementary and G.order == p * p * center(G).size
    branch2 = elementary and has_abelian_subgroup_of_index_p(G, p) is None
    ok = branch1 or branch2
    witness = "central quotient CpxCp" if branch1 else (
        "no abelian index-p subgroup" if branch2 else "both branches fail")
    return TheoremReport("A", ok, witness)


def verify_kulkarni(G: GroupTable) -> TheoremReport:
    """Sweep the orbit-size identity over every element of G.

    Elements sharing a centralizer share both the predicted and actual class
    size, so the sweep runs once per distinct centralizer while still
    covering all elements.
    """
    mismatch = None
    for x in _cells(G)[0].tolist():
        predicted, actual = kulkarni_size_check(G, x)
        if predicted != actual:
            mismatch = (x, predicted, actual)
            break
    ok = mismatch is None
    witness = None if ok else f"x={mismatch[0]}: predicted {mismatch[1]}, actual {mismatch[2]}"
    return TheoremReport("kulkarni", ok, witness)


def verify_bounds(G: GroupTable) -> TheoremReport:
    """Check p + 2 <= class count <= (p^k - 1)/(p - 1) + 1 on a p-group."""
    p = _p_group_prime(G)
    if p is None:
        return TheoremReport("bounds", None)
    count = z_class_count(G)
    bound = max_zclass_bound(G)
    ok = p + 2 <= count <= bound
    witness = None if ok else f"count={count} outside [{p + 2}, {bound}]"
    return TheoremReport("bounds", ok, witness)

"""Isoclinism of finite groups via the commutator pairing.

The pairing G/Z x G/Z -> G' (send a coset pair to the commutator of any
representatives) determines a group up to isoclinism: two groups are
isoclinic when isomorphisms between their central quotients and their
commutator subgroups intertwine the pairings.  ``core.commutator_pairing``,
re-exported here, is its memoised table of ids and the library's one table
of commutation; G/Z and G' are read from their own memos.  The checks write
their isoclinisms down: G and G x C_p by the natural map gZ -> (g, 1)Z, and
a group with |G'| = p and [G : Z] = p^k onto ES(p, k/2, +) by matching
symplectic bases of the pairing.  Only a pair a user supplies is searched:
``are_isoclinic`` runs a complete backtracking search, so a ``None`` answer
is a proof of non-isoclinism at desk scale.  One helper, ``_close``, extends
every map the search tries from generators to the subgroup they generate:
the map of central quotients from the images chosen so far, and of
commutator subgroups from the pairing values forced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .construct import cyclic, extraspecial
from .core import (
    DEFAULT_ORDER_CAP,
    GroupTable,
    center,
    central_quotient,
    commutator_pairing,
    commutator_subgroup,
    direct_product,
    element_orders,
    greedy_generating_sequence,
    prime_power,
    smallest_prime_factor,
)
from .errors import NotAGroup, NotAnIsoclinism, QuotientExceedsCap
from .zclass import TheoremReport, max_zclass_bound, z_class_count

DEFAULT_ISO_CAP = 64        # the largest |G/Z| are_isoclinic searches


@dataclass
class IsoclinismWitness:
    """A concrete isoclinism: phi maps central-quotient ids of group1 to
    those of group2, psi maps commutator-subgroup member ids likewise."""

    group1: GroupTable
    group2: GroupTable
    phi: np.ndarray
    psi: dict[int, int]

    def validate(self) -> None:
        """Exhaustively re-check that (phi, psi) is an isoclinism; raises
        :class:`NotAnIsoclinism` naming the first offending pair (a, b)."""
        G1, G2 = self.group1, self.group2
        Q1, Q2 = central_quotient(G1).table, central_quotient(G2).table
        phi = self.phi
        if phi.shape != (Q1.order,) or not np.array_equal(np.sort(phi), np.arange(Q2.order)):
            raise NotAnIsoclinism("phi is not a bijection")
        _require(phi[Q1.mult] == Q2.mult[np.ix_(phi, phi)], "phi is not a homomorphism")
        d1, d2 = commutator_subgroup(G1).members(), commutator_subgroup(G2).members()
        if set(self.psi) != set(d1.tolist()) or set(self.psi.values()) != set(d2.tolist()):
            raise NotAnIsoclinism("psi is not a bijection between the commutator subgroups")
        psi = np.zeros(G1.order, dtype=np.int64)
        psi[list(self.psi)] = list(self.psi.values())
        _require(psi[G1.mult[np.ix_(d1, d1)]] == G2.mult[np.ix_(psi[d1], psi[d1])],
                 "psi is not a homomorphism", d1)
        _require(psi[commutator_pairing(G1)] == commutator_pairing(G2)[np.ix_(phi, phi)],
                 "pairing compatibility fails")

    def inverse(self) -> "IsoclinismWitness":
        inv_phi = np.empty_like(self.phi)
        inv_phi[self.phi] = np.arange(self.phi.size)
        inv_psi = {v: k for k, v in self.psi.items()}
        return IsoclinismWitness(self.group2, self.group1, inv_phi, inv_psi)

    def to_json(self) -> dict:
        return {
            "phi": [int(v) for v in self.phi],
            "psi": sorted([int(k), int(v)] for k, v in self.psi.items()),
        }


def _require(holds: np.ndarray, failure: str, ids=None) -> None:
    """Raise NotAnIsoclinism at the first pair (a, b) where ``holds`` is false;
    ``ids`` maps row and column positions to element ids."""
    if not holds.all():
        i, j = np.argwhere(~holds)[0]
        a, b = (i, j) if ids is None else (ids[i], ids[j])
        raise NotAnIsoclinism(f"{failure} at ({a}, {b})")


def _close(m1: np.ndarray, m2: np.ndarray, gens, images) -> np.ndarray | None:
    """Extend gens -> images to an embedding of <gens> in the group of table m1
    into the group of table m2: walk right multiplication by the generators
    from the identity, giving x*g the image phi(x)*image(g), the first image
    found being kept.  Returns phi, -1 off <gens>, or None unless every
    generator keeps its image (so one listed twice gets one image) and phi
    is an injective homomorphism on <gens>."""
    phi = np.full(m1.shape[0], -1, dtype=np.int64)
    phi[0] = 0
    dom = [0]
    for x in dom:                       # dom grows as it is read
        for g, im in zip(gens, images):
            y = m1[x, g]
            if phi[y] < 0:
                phi[y] = m2[phi[x], im]
                dom.append(y)
    dom = np.array(dom)
    img = phi[dom]
    if (phi[gens] != images).any() or np.unique(img).size < img.size \
            or not np.array_equal(phi[m1[dom[:, None], dom]], m2[img[:, None], img]):
        return None
    return phi


def are_isoclinic(G1: GroupTable, G2: GroupTable,
                  cap: int = DEFAULT_ISO_CAP) -> IsoclinismWitness | None:
    """Complete backtracking search for an isoclinism between two groups.

    Images are chosen for a minimal generating sequence of G1/Z1 in
    ascending id order; each partial choice is closed to a subgroup
    embedding, and the derived-subgroup map is never searched -- the pairing
    forces it, and any clash prunes the branch.  Returned witnesses are
    validated exhaustively; ``None`` means the search space was exhausted.
    """
    Q1, Q2 = central_quotient(G1).table, central_quotient(G2).table
    D1, D2 = commutator_subgroup(G1), commutator_subgroup(G2)
    if Q1.order != Q2.order or D1.size != D2.size:
        return None
    if Q1.order > cap:
        raise QuotientExceedsCap(
            f"|G/Z| = {Q1.order} exceeds the search cap {cap}")
    oq1, oq2 = element_orders(Q1), element_orders(Q2)
    if sorted(oq1.tolist()) != sorted(oq2.tolist()):
        return None
    od1 = np.sort(element_orders(G1)[D1.members()])
    od2 = np.sort(element_orders(G2)[D2.members()])
    if not np.array_equal(od1, od2):
        return None
    return _search(G1, G2, greedy_generating_sequence(Q1), oq1, oq2, [])


def _search(G1: GroupTable, G2: GroupTable, gens: list[int], oq1: np.ndarray,
            oq2: np.ndarray, images: list[int]) -> IsoclinismWitness | None:
    """One node of the search of :func:`are_isoclinic`: ``images`` holds the
    images of the first generators, the rest of ``gens`` are still open."""
    phi = _close(central_quotient(G1).table.mult, central_quotient(G2).table.mult,
                 gens[:len(images)], images)
    if phi is None:
        return None
    dom = np.flatnonzero(phi >= 0)
    forced = np.unique(commutator_pairing(G1)[np.ix_(dom, dom)].astype(np.int64) * G2.order
                       + commutator_pairing(G2)[np.ix_(phi[dom], phi[dom])])
    psi = _close(G1.mult, G2.mult, *np.divmod(forced, G2.order))
    if psi is None:
        return None
    if len(images) == len(gens):
        derived = np.flatnonzero(psi >= 0)
        psi = dict(zip(derived.tolist(), psi[derived].tolist()))
        witness = IsoclinismWitness(G1, G2, phi, psi)
        witness.validate()
        return witness
    g = gens[len(images)]
    for im in np.flatnonzero(oq2 == oq1[g]):
        found = _search(G1, G2, gens, oq1, oq2, images + [int(im)])
        if found is not None:
            return found
    return None


def is_stem_group(G: GroupTable) -> bool:
    """Whether the center is contained in the commutator subgroup."""
    return center(G).is_subset_of(commutator_subgroup(G))


def verify_isoclinism_invariance(G1: GroupTable, G2: GroupTable,
                                 witness: IsoclinismWitness | None = None) -> TheoremReport:
    """Given isoclinic groups, assert their class counts agree.

    With no witness, one is searched for under are_isoclinic's default cap;
    the report is vacuous when the search proves the groups not isoclinic.
    """
    if witness is not None:
        witness.validate()
    elif are_isoclinic(G1, G2) is None:    # a found witness is validated
        return TheoremReport("isoclinism-invariance", None)
    c1, c2 = z_class_count(G1), z_class_count(G2)
    return TheoremReport("isoclinism-invariance", c1 == c2,
                         None if c1 == c2 else f"counts differ: {c1} vs {c2}")


def verify_direct_factor_invariance(G: GroupTable, *,
                                    order_cap: int = DEFAULT_ORDER_CAP) -> TheoremReport:
    """Check that appending an abelian direct factor C_p preserves the count.

    p is the smallest prime dividing |G| (2 for the trivial group); G x C_p
    is built under ``order_cap``.  The natural isoclinism, gZ -> (g, 1)Z and
    d -> (d, 1) on G', is validated before the counts are compared.
    """
    p = 2 if G.order == 1 else smallest_prime_factor(G.order)
    H = direct_product(G, cyclic(p), cap=order_cap)
    embed = np.arange(G.order) * p               # the pairs (g, 1) in G x C_p
    phi = central_quotient(H).projection[embed[central_quotient(G).coset_reps]]
    psi = {int(d): int(embed[d]) for d in commutator_subgroup(G).members()}
    return verify_isoclinism_invariance(G, H, IsoclinismWitness(G, H, phi, psi))


def verify_corollary_est(G: GroupTable) -> TheoremReport:
    """Check: with |G'| = p and [G : Z(G)] = p^k (k >= 2), the class count
    attains the bound exactly when G is isoclinic to an extraspecial group.
    The isoclinism onto ES(p, k/2, +) is constructed and validated, so only
    attainment is left to check.  The report is vacuous when |G'| is not
    prime (abelian G has |G'| = 1), [G : Z(G)] is not a power of it, or k < 2."""
    D = commutator_subgroup(G)
    pw = prime_power(G.order // center(G).size)
    if pw is None or pw[0] != D.size or pw[1] < 2:
        return TheoremReport("est", None)
    p, k = pw
    iso = _extraspecial_witness(G, p, k)
    iso.validate()
    attains = z_class_count(G) == max_zclass_bound(G)
    witness = f"isoclinic to {iso.group2.label}" if attains else \
        "attains=False but isoclinic=True"
    return TheoremReport("est", attains, witness)


def _extraspecial_witness(G: GroupTable, p: int, k: int) -> IsoclinismWitness:
    """An isoclinism of G onto ES(p, k/2, +), given |G'| = p and [G : Z] = p^k.

    G/Z is a p-group, so G is nilpotent and its normal subgroup G' of order
    p is central; the pairing is then bilinear on G/Z = F_p^k, alternating,
    and non-degenerate, as its radical is Z/Z.  Symplectic Gram-Schmidt
    turns a generating sequence of each central quotient into a basis
    e_1, f_1, .., e_m, f_m with w(e_i, f_i) = c, the smallest nontrivial
    member of G', and every other pair trivial.  phi matches the two bases,
    psi maps c^i to c'^i.  Raises :class:`NotAGroup` on a degenerate pairing."""
    groups = (G, extraspecial(p, k // 2, "plus", cap=G.order))
    spans, powers = [], []
    for H in groups:
        Q, c = central_quotient(H).table, int(commutator_subgroup(H).members()[1])
        powers.append([H.power(c, i) for i in range(p)])
        log = np.zeros(H.order, dtype=np.int32)
        log[powers[-1]] = np.arange(p)
        w = log[commutator_pairing(H)]    # w[x, y] = i where [x, y] = c^i
        rest, span = greedy_generating_sequence(Q), np.zeros(1, dtype=np.int64)
        while rest:
            e = rest.pop(0)
            f = next((v for v in rest if w[e, v]), None)
            if f is None:
                raise NotAGroup("commutator pairing is degenerate")
            rest.remove(f)
            f = Q.power(f, pow(int(w[e, f]), -1, p))
            rest = [Q.mul(Q.mul(v, Q.power(e, -w[v, f] % p)), Q.power(f, w[v, e]))
                    for v in rest]
            for b in (e, f):
                span = np.concatenate([Q.mult[span, Q.power(b, j)] for j in range(p)])
        spans.append(span)
    phi = np.empty(spans[0].size, dtype=np.int64)
    phi[spans[0]] = spans[1]
    return IsoclinismWitness(*groups, phi, dict(zip(*powers)))

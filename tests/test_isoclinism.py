import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import zclasses as zc
from zclasses import cli, isoclinism
from zclasses.catalog import run_theorem
from zclasses.errors import NotAGroup, NotAnIsoclinism, OrderExceedsCap, QuotientExceedsCap

from conftest import PERMUTATION_GENERATORS, shuffled


def cocycle_group(B1, B2, label):
    """Class-2 group on F2^4 x F2^2 from a bilinear cocycle whose alternating
    part is the pair of forms (B1, B2).  Useful for building groups with equal
    coarse invariants but inequivalent commutator pairings."""
    U1, U2 = np.triu(np.array(B1) % 2, 1), np.triu(np.array(B2) % 2, 1)
    n = 64
    vecs = np.array([[i >> 3 & 1, i >> 2 & 1, i >> 1 & 1, i & 1] for i in range(16)])
    mult = np.zeros((n, n), dtype=int)
    for a in range(n):
        va, wa = vecs[a // 4], np.array([a % 4 >> 1, a % 4 & 1])
        for b in range(n):
            vb, wb = vecs[b // 4], np.array([b % 4 >> 1, b % 4 & 1])
            beta = np.array([va @ U1 @ vb, va @ U2 @ vb]) % 2
            v = (va + vb) % 2
            w = (wa + wb + beta) % 2
            mult[a, b] = (v[0] * 8 + v[1] * 4 + v[2] * 2 + v[3]) * 4 + w[0] * 2 + w[1]
    return zc.from_multiplication_table(mult, label=label)


def form(i, j):
    M = np.zeros((4, 4), dtype=int)
    M[i, j] = M[j, i] = 1
    return M


def pencil_groups():
    # rank multisets of the two form pencils differ, so the groups share
    # |G| = 64, |Z| = |G'| = 4 and Q = C2^4 yet are not isoclinic
    Ga = cocycle_group(form(0, 1), form(2, 3), "pencilA")
    Gb = cocycle_group(form(0, 1) + form(2, 3), form(1, 2), "pencilB")
    return Ga, Gb


@pytest.fixture(scope="module")
def pencil_pair():
    return pencil_groups()


# -------------------------------------------------------------- pairing

def test_pairing_abelian_trivial():
    W = zc.commutator_pairing(zc.abelian([4, 2]))
    assert W.shape == (1, 1)
    assert W[0, 0] == 0


def test_pairing_d8_symplectic_pattern():
    W = zc.commutator_pairing(zc.dihedral(8))
    assert W.shape == (4, 4)
    for a in range(4):
        for b in range(4):
            nonzero = a != b and a != 0 and b != 0
            assert (W[a, b] != 0) == nonzero


def test_pairing_heisenberg_nondegenerate():
    W = zc.commutator_pairing(zc.heisenberg(3))
    assert W.shape == (9, 9)
    for a in range(1, 9):
        assert any(W[a, b] != 0 for b in range(9))


def test_pairing_invariants(catalog):
    groups = [catalog[name] for name in ("D8", "Q16", "Heis3", "M27", "ES(2,2,-)")]
    for G in groups + [shuffled("extraspecial(2,2,plus)", 1)]:
        W = zc.commutator_pairing(G)
        assert np.array_equal(W.T, G.inv[W]), G.label          # w(a,b) = w(b,a)^-1
        assert not W.diagonal().any(), G.label
        assert zc.commutator_subgroup(G).mask[W].all(), G.label


def test_pairing_representative_independent(catalog):
    # the commutator [x, y] = x^-1 y^-1 x y of every pair of elements is the
    # pairing of their cosets
    groups = [catalog[name] for name in ("Q8", "Heis3", "Heis3xC3")]
    for G in groups + [shuffled("extraspecial(2,2,plus)", 1)]:
        proj = zc.central_quotient(G).projection
        expected = np.array([[G.commutator(x, y) for y in G.elements()] for x in G.elements()])
        assert np.array_equal(expected, zc.commutator_pairing(G)[np.ix_(proj, proj)]), G.label


# -------------------------------------------------------------- search

def test_isoclinic_reflexive(catalog):
    for name in ("S3", "D8", "Heis3", "ES(2,2,+)"):
        G = catalog[name]
        w = zc.are_isoclinic(G, G)
        assert w is not None
        w.validate()


def test_isoclinic_d8_q8():
    w = zc.are_isoclinic(zc.dihedral(8), zc.quaternion(8))
    assert w is not None
    w.validate()


def test_isoclinic_heisenberg_modular():
    w = zc.are_isoclinic(zc.heisenberg(3), zc.modular_p3(3))
    assert w is not None
    w.validate()


def test_isoclinic_direct_abelian_factor(catalog):
    w = zc.are_isoclinic(catalog["Heis3"], catalog["Heis3xC3"])
    assert w is not None
    w.validate()


def test_isoclinic_symmetric():
    w = zc.are_isoclinic(zc.dihedral(8), zc.quaternion(8))
    inv = w.inverse()
    inv.validate()
    assert inv.group1 is w.group2


def test_isoclinic_all_abelian_pairs():
    w = zc.are_isoclinic(zc.abelian([4]), zc.abelian([2, 2]))
    assert w is not None
    w.validate()


def test_not_isoclinic_size_prefilter(catalog):
    assert zc.are_isoclinic(catalog["D8"], catalog["D16"]) is None
    assert zc.are_isoclinic(catalog["D8"], catalog["C4"]) is None


def test_not_isoclinic_derived_structure():
    # D18 and the generalized dihedral group of C3 x C3: equal |G/Z| and
    # |G'|, but the derived subgroups are C9 vs C3 x C3
    D18 = zc.dihedral(18)
    GD = zc.from_permutation_generators(PERMUTATION_GENERATORS["GD(3,3)"], label="GD(3,3)")
    assert GD.order == 18
    assert zc.commutator_subgroup(GD).size == zc.commutator_subgroup(D18).size == 9
    assert zc.are_isoclinic(D18, GD) is None


def test_not_isoclinic_exhaustive_search(pencil_pair):
    Ga, Gb = pencil_pair
    for G in pencil_pair:
        assert zc.center(G).size == 4
        assert zc.commutator_subgroup(G).size == 4
        assert zc.is_elementary_abelian(zc.quotient_table(G)) == 2
    assert zc.are_isoclinic(Ga, Gb) is None    # defeats every prefilter
    assert zc.are_isoclinic(Ga, Ga) is not None


SEARCH_DATA = Path(__file__).parent / "data" / "isoclinism_search.jsonl"


def searched_pairs(catalog):
    """(G1, G2, cap) for every ordered pair the suite and the demos search,
    each catalog group against G x C_p at the CLI's cap of 96, and the two
    extraspecial pairs of opposite type."""
    c = catalog
    GD = zc.from_permutation_generators(PERMUTATION_GENERATORS["GD(3,3)"], label="GD(3,3)")
    Ga, Gb = pencil_groups()
    M16, SD16 = _twisted_16(5, "M16"), _twisted_16(3, "SD16")
    pairs = [(c[a], c[b]) for a, b in (
        ("S3", "S3"), ("D8", "D8"), ("Heis3", "Heis3"), ("ES(2,2,+)", "ES(2,2,+)"),
        ("D8", "Q8"), ("Heis3", "M27"), ("Heis3", "Heis3xC3"), ("C4", "C2xC2"),
        ("D8", "D16"), ("D8", "C4"), ("D16", "Q16"), ("ES(3,2,+)", "ES(3,2,+)"))]
    pairs += [(zc.dihedral(18), GD), (Ga, Gb), (Ga, Ga), (M16, c["D8"]), (SD16, c["D16"]),
              (SD16, c["Q16"]), (M16, SD16), (M16, c["D16"])]
    out = [(G1, G2, 64) for G1, G2 in pairs]
    for G in catalog.values():
        p = 2 if G.order == 1 else zc.core.smallest_prime_factor(G.order)
        out.append((G, zc.direct_product(G, zc.cyclic(p)), 96))
    for p, n in ((3, 2), (2, 3)):
        out.append((zc.extraspecial(p, n, "plus"), zc.extraspecial(p, n, "minus"), 96))
    return out


def search_line(G1, G2, cap):
    """One line of the frozen record: the witness's JSON, null, or the error."""
    try:
        w = zc.are_isoclinic(G1, G2, cap=cap)
        found = None if w is None else w.to_json()
    except QuotientExceedsCap:
        found = "QuotientExceedsCap"
    return json.dumps({"pair": f"{G1.label}~{G2.label}", "cap": cap, "found": found})


def test_search_matches_the_frozen_record(catalog):
    lines = [search_line(*pair) for pair in searched_pairs(catalog)]
    assert "\n".join(lines) + "\n" == SEARCH_DATA.read_text()


def test_quotient_cap(catalog):
    G = catalog["ES(3,2,+)"].relabeled("ES(3,2,+)")
    with pytest.raises(QuotientExceedsCap):
        zc.are_isoclinic(G, G, cap=64)
    assert "quotient_table" not in G._cache    # the refusal multiplies nothing in G/Z


def _twisted_16(t, label):
    """<a, b | a^8 = b^2 = 1, b a b = a^t> on pairs (i, j) -> 2i + j."""
    import numpy as np
    ids = np.arange(16)
    i, j = ids // 2, ids % 2
    twist = np.array([1, t])
    ri = (i[:, None] + i[None, :] * twist[j][:, None]) % 8
    rj = (j[:, None] + j[None, :]) % 2
    return zc.from_multiplication_table(ri * 2 + rj, label=label)


def test_order_16_isoclinism_families():
    # the three twisted order-16 groups sort into the known families:
    # modular (t=5) joins D8; semidihedral (t=3) joins D16 and Q16
    M16 = _twisted_16(5, "M16")
    SD16 = _twisted_16(3, "SD16")
    assert zc.commutator_subgroup(M16).size == 2
    assert zc.commutator_subgroup(SD16).size == 4
    assert zc.are_isoclinic(M16, zc.dihedral(8)) is not None
    assert zc.are_isoclinic(SD16, zc.dihedral(16)) is not None
    assert zc.are_isoclinic(SD16, zc.quaternion(16)) is not None
    assert zc.are_isoclinic(zc.dihedral(16), zc.quaternion(16)) is not None
    assert zc.are_isoclinic(M16, SD16) is None
    assert zc.are_isoclinic(M16, zc.dihedral(16)) is None
    # family membership transfers the class count
    assert zc.z_class_count(M16) == zc.z_class_count(zc.dihedral(8)) == 4
    assert zc.z_class_count(SD16) == zc.z_class_count(zc.dihedral(16)) == 4


def test_witness_serialization_round_trip():
    G1, G2 = zc.dihedral(8), zc.quaternion(8)
    w = zc.are_isoclinic(G1, G2)
    payload = w.to_json()
    assert set(payload) == {"phi", "psi"}
    psi = dict(payload["psi"])
    zc.IsoclinismWitness(G1, G2, np.array(payload["phi"]), psi).validate()
    # a corrupted witness must fail re-verification
    bad = np.array(payload["phi"][::-1])
    with pytest.raises(NotAnIsoclinism):
        zc.IsoclinismWitness(G1, G2, bad, psi).validate()


def loop_validate(w):
    """The pairwise loops that IsoclinismWitness.validate replaces, kept as
    its reference: the same checks in the same (a, b) order."""
    Q1, Q2 = zc.quotient_table(w.group1), zc.quotient_table(w.group2)
    if len(w.phi) != Q1.order or sorted(w.phi.tolist()) != list(range(Q2.order)):
        raise AssertionError("phi is not a bijection")
    for a in range(Q1.order):
        for b in range(Q1.order):
            if w.phi[Q1.mul(a, b)] != Q2.mul(int(w.phi[a]), int(w.phi[b])):
                raise AssertionError(f"phi is not a homomorphism at ({a}, {b})")
    d1 = [int(v) for v in zc.commutator_subgroup(w.group1).members()]
    d2 = [int(v) for v in zc.commutator_subgroup(w.group2).members()]
    if set(w.psi) != set(d1) or set(w.psi.values()) != set(d2):
        raise AssertionError("psi is not a bijection between the commutator subgroups")
    for a in d1:
        for b in d1:
            if w.psi[w.group1.mul(a, b)] != w.group2.mul(w.psi[a], w.psi[b]):
                raise AssertionError(f"psi is not a homomorphism at ({a}, {b})")
    W1, W2 = zc.commutator_pairing(w.group1), zc.commutator_pairing(w.group2)
    for a in range(Q1.order):
        for b in range(Q1.order):
            if w.psi[int(W1[a, b])] != int(W2[w.phi[a], w.phi[b]]):
                raise AssertionError(f"pairing compatibility fails at ({a}, {b})")


def forged_witnesses():
    """Witnesses broken in each of the ways validate checks, by editing
    found isoclinisms between groups of derived order 2, 3 and 4."""
    for G1, G2 in ((zc.dihedral(8), zc.quaternion(8)),
                   (zc.heisenberg(3), zc.modular_p3(3)),
                   (zc.dihedral(16), zc.quaternion(16))):
        w = zc.are_isoclinic(G1, G2)
        d = sorted(w.psi)
        yield zc.IsoclinismWitness(G1, G2, w.phi[::-1].copy(), w.psi)
        yield zc.IsoclinismWitness(G1, G2, np.roll(w.phi, 1), w.psi)
        yield zc.IsoclinismWitness(G1, G2, np.zeros_like(w.phi), w.psi)
        yield zc.IsoclinismWitness(G1, G2, w.phi[:-1].copy(), w.psi)
        yield zc.IsoclinismWitness(G1, G2, w.phi, {k: v for k, v in w.psi.items() if k != d[-1]})
        for i, j in [(0, 1), (1, len(d) - 1)] + ([(1, 2)] if len(d) > 2 else []):
            psi = dict(w.psi)
            psi[d[i]], psi[d[j]] = w.psi[d[j]], w.psi[d[i]]
            yield zc.IsoclinismWitness(G1, G2, w.phi, psi)
        yield zc.IsoclinismWitness(G1, G2, w.phi, w.psi)


def test_validate_matches_pairwise_loops():
    messages = set()
    for w in forged_witnesses():
        try:
            loop_validate(w)
            expected = None
        except AssertionError as exc:
            expected = str(exc)
        try:
            w.validate()
            got = None
        except NotAnIsoclinism as exc:
            got = str(exc)
        assert got == expected
        messages.add(expected and expected.split(" at ")[0])
    assert messages == {None, "phi is not a bijection", "phi is not a homomorphism",
                        "psi is not a bijection between the commutator subgroups",
                        "psi is not a homomorphism", "pairing compatibility fails"}


# ------------------------------------------------------------------ stem

def test_is_stem_group(catalog):
    for name in ("D8", "Q8", "Heis3", "M27", "ES(2,2,+)", "ES(3,2,+)"):
        assert zc.is_stem_group(catalog[name])
    assert not zc.is_stem_group(catalog["Heis3xC3"])
    assert not zc.is_stem_group(catalog["C4"])
    assert zc.is_stem_group(catalog["trivial"])


def test_stem_with_prime_derived_is_extraspecial(catalog):
    # needs the p-group hypothesis: |Z| > 1 then forces Z = G'
    # (S3 is a stem group with |G'| = 3 but has trivial center)
    hit = 0
    for G in catalog.values():
        D = zc.commutator_subgroup(G)
        if (zc.core.prime_power(G.order) and not zc.is_abelian(G)
                and zc.is_stem_group(G) and zc.core.is_prime(D.size)):
            assert zc.is_extraspecial(G), G.label
            hit += 1
    assert hit >= 8


# ------------------------------------------------------------ invariance

def test_invariance_d8_q8(catalog):
    G1, G2 = catalog["D8"], catalog["Q8"]
    rep = zc.verify_isoclinism_invariance(G1, G2, zc.are_isoclinic(G1, G2))
    assert rep.verdict == "confirmed"
    assert zc.z_class_count(G1) == zc.z_class_count(G2) == 4


def test_invariance_heisenberg_modular(catalog):
    G1, G2 = catalog["Heis3"], catalog["M27"]
    rep = zc.verify_isoclinism_invariance(G1, G2, zc.are_isoclinic(G1, G2))
    assert rep.verdict == "confirmed"
    assert zc.z_class_count(G1) == zc.z_class_count(G2) == 5


def test_invariance_requires_isoclinic(pencil_pair):
    rep = zc.verify_isoclinism_invariance(*pencil_pair, zc.are_isoclinic(*pencil_pair))
    assert (rep.theorem, rep.verdict, rep.witness) == ("isoclinism-invariance", "vacuous", None)


def test_invariance_refuses_a_corrupted_witness(catalog):
    # the check validates the isoclinism it is handed before it compares counts,
    # which D8 and Q8 share, so only validation can refuse this phi
    G1, G2 = catalog["D8"], catalog["Q8"]
    w = zc.are_isoclinic(G1, G2)
    forged = zc.IsoclinismWitness(G1, G2, np.roll(w.phi, 1), w.psi)
    with pytest.raises(NotAnIsoclinism):
        zc.verify_isoclinism_invariance(G1, G2, forged)


def test_direct_factor_invariance_catalog(catalog, monkeypatch):
    # the natural witness G -> G x C_p validates on every catalog group; no
    # search runs, so ES(3,2,+) with |G/Z| = 81 passes the search cap of 64
    validated = []
    validate = zc.IsoclinismWitness.validate

    def recording_validate(witness):
        validate(witness)
        validated.append(witness.group1)

    monkeypatch.setattr(zc.IsoclinismWitness, "validate", recording_validate)
    for name, G in catalog.items():
        rep = zc.verify_direct_factor_invariance(G)
        assert rep.verdict == "confirmed", name
        assert validated[-1] is G, name


@pytest.mark.parametrize("spec", ["dihedral(4096)", "extraspecial(5,2,plus)"])
def test_direct_factor_invariance_refuses_above_cap_first(spec):
    # |G| * p exceeds the order cap: refused before any table is built
    G = zc.build_group(spec)
    tracemalloc.start()
    try:
        with pytest.raises(OrderExceedsCap):
            zc.verify_direct_factor_invariance(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20


def test_normalized_size_multisets_agree(catalog):
    # the multiset {class size / |Z|} agrees across isoclinic pairs
    def normalized(G):
        z = zc.center(G).size
        return sorted(c.size / z for c in zc.z_class_partition(G).classes)

    for a, b in (("D8", "Q8"), ("Heis3", "M27"), ("D16", "Q16"),
                 ("Heis3", "Heis3xC3"), ("Heis3", "Heis3xC9"), ("D8", "D8xC2")):
        assert normalized(catalog[a]) == normalized(catalog[b]), (a, b)


EST_IN_SCOPE = ("D8", "Q8", "Heis3", "M27", "Heis5", "ES(2,2,+)", "ES(2,2,-)", "ES(3,2,+)",
                "Heis3xC3", "D8xC2", "Heis3xC9")
EST_LADDER = ("extraspecial(2,4,plus)", "extraspecial(2,5,minus)", "extraspecial(3,3,plus)",
              "extraspecial(5,2,plus)", "centralproduct(extraspecial(3,2,plus),cyclic(9))",
              "centralproduct(dihedral(8),cyclic(4))", "product(extraspecial(3,2,plus),cyclic(9))")


def est_witness(G):
    """The isoclinism verify_corollary_est constructs, and its (p, k)."""
    p, k = zc.core.prime_power(G.order // zc.center(G).size)
    return isoclinism._extraspecial_witness(G, p, k), p, k


def test_est_in_scope_catalog_groups(catalog):
    in_scope = [name for name, G in catalog.items()
                if run_theorem(G, "est").verdict != "vacuous"]
    assert sorted(in_scope) == sorted(EST_IN_SCOPE)
    for name in EST_IN_SCOPE:
        w, p, k = est_witness(catalog[name])
        w.validate()
        assert w.group2.label == f"ES({p},{k // 2},+)", name


@pytest.mark.parametrize("spec", EST_LADDER)
def test_est_witness_validates_on_the_ladder(spec):
    # the witness only: the partitions of the largest of these take minutes
    w, p, k = est_witness(zc.build_group(spec))
    w.validate()
    assert w.group2.order == p ** (1 + k)


@pytest.mark.parametrize("p", [11, 13])
def test_est_beyond_the_old_search_cap(p):
    rep = zc.verify_corollary_est(zc.heisenberg(p))
    assert rep.verdict == "confirmed"
    assert rep.witness == f"isoclinic to ES({p},1,+)"


@pytest.mark.parametrize("build", [lambda: zc.heisenberg(3), lambda: zc.modular_p3(5),
                                   lambda: zc.extraspecial(3, 2, "plus")],
                         ids=["Heis3", "M125", "ES(3,2,+)"])
def test_est_witness_refuses_squared_psi(build):
    w, p, _ = est_witness(build())
    c = min(d for d in w.psi if d)
    squared = {w.group1.power(c, i): w.group2.power(w.psi[c], 2 * i) for i in range(p)}
    with pytest.raises(NotAnIsoclinism, match="pairing compatibility fails"):
        zc.IsoclinismWitness(w.group1, w.group2, w.phi, squared).validate()


@pytest.mark.parametrize("spec", ["extraspecial(2,2,plus)", "extraspecial(2,2,minus)",
                                  "extraspecial(2,3,plus)", "extraspecial(3,2,plus)"])
def test_est_witness_refuses_swapped_phi(spec):
    # on |G/Z| = 4 a swap of two nonidentity images is an automorphism, so
    # the smallest groups here have |G/Z| = 16
    w, _, _ = est_witness(zc.build_group(spec))
    phi = w.phi.copy()
    phi[[1, 2]] = phi[[2, 1]]
    with pytest.raises(NotAnIsoclinism, match="phi is not a homomorphism"):
        zc.IsoclinismWitness(w.group1, w.group2, phi, w.psi).validate()


def test_failed_est_witness_is_an_error_record(monkeypatch):
    """A witness that fails validation inside a check raises a GroupError: the
    catalog writes an error record for it and `zclasses verify` exits 3."""
    build = isoclinism._extraspecial_witness

    def swapped(G, p, k):
        w = build(G, p, k)
        phi = w.phi.copy()
        phi[[1, 2]] = phi[[2, 1]]
        return zc.IsoclinismWitness(w.group1, w.group2, phi, w.psi)
    monkeypatch.setattr(isoclinism, "_extraspecial_witness", swapped)
    spec = "extraspecial(2,2,plus)"
    result = zc.run_catalog([zc.CatalogEntry(spec)])
    est = [r for r in result.records if r["theorem"] == "est"]
    assert [r["verdict"] for r in est] == ["error"]
    assert est[0]["witness"].startswith("phi is not a homomorphism at (")
    assert result.summary["errors"] == 1 and result.summary["confirmed"] == 5
    assert cli.main(["verify", spec, "--theorem", "est"]) == 3


def test_est_degenerate_pairing_raises():
    # forge the commutators of ES(2,2,+) into w(pi x, pi y), for pi the
    # projection of G/Z onto <g_1, g_2, g_3> along the last greedy generator:
    # still antisymmetric, trivial on the diagonal and valued in G', but degenerate
    G = zc.extraspecial(2, 2, "plus")
    Q = zc.quotient_table(G)
    gens = zc.core.greedy_generating_sequence(Q)
    ar = np.arange(Q.order)
    pi = np.where(zc.subgroup_generated(Q, gens[:-1]).mask, ar, Q.mult[ar, gens[-1]])
    # the real table, read off a copy of G so that G's own memo stays empty
    forged = zc.commutator_pairing(G.relabeled(G.label))[np.ix_(pi, pi)]
    G._memo("commutator_pairing", lambda: forged)    # which nothing re-checks
    with pytest.raises(NotAGroup, match="commutator pairing is degenerate"):
        isoclinism._extraspecial_witness(G, 2, 4)


@pytest.mark.parametrize("spec", ["extraspecial(2,2,minus)", "extraspecial(2,3,plus)",
                                  "extraspecial(3,2,plus)", "product(heisenberg(5),cyclic(2))"])
@pytest.mark.parametrize("seed", [1, 2])
def test_est_witness_on_relabelled_groups(spec, seed):
    # shuffled ids put the greedy generators of G/Z anywhere, so the
    # Gram-Schmidt steps cannot lean on a basis that is symplectic already
    w, _, _ = est_witness(shuffled(spec, seed))
    w.validate()

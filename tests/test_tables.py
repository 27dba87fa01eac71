"""The constructed tables themselves, and the memory it takes to build and
analyse them.

Element ids are int16, so every table holds ids below MAX_ORDER = 32767 and
no order above it is admitted; arithmetic on ids that can pass 32767 (the
commutator pairing's flat index) is computed wider, gated by a test below
that fails without it.  A central product numbers its cosets below its
order, and is held to the oracle where the G x H ids pass 32767.

The SHA-256 digests below were taken from the tables as built before the
constructors moved to int32 arithmetic and before central products were
built on the quotient directly; those from ``quaternion(4096)`` on, before
every table was filled in row blocks and permutation groups by row gathers.
They hash the ids as int32, as the tables were then stored: element ids
must not move.
"""

import gc
import hashlib
import tracemalloc

import numpy as np
import pytest

import zclasses as zc
from zclasses import catalog, cli, core
from zclasses.errors import BadParameter, NotAGroup, OrderExceedsCap
from zclasses.core import _first_conjugator
from zclasses.specs import _KINDS
from zclasses.zclass import _cells

from conftest import PERMUTATION_GENERATORS
from oracles import naive_amalgamation_pair, naive_central_product

FROZEN_DIGESTS = {
    "extraspecial(2,4,plus)": (
        "12e46adc9b071a83805e15d4f72f4f5dd3268434740b5085b86fb5f7bbb30c0e",
        "5871cff43762fc9a2e5700244470ae313dcfc0c39da0b0bd5a1f10db7fd340c9"),
    "extraspecial(2,5,minus)": (
        "62e3387f7d791218f5556c9dac8881596458a7985d41351f466e0c682bee724f",
        "56a09bee676662d48a1781ba81e01e0b9e235b9114744d460d8d6e5e2761452a"),
    "extraspecial(3,3,plus)": (
        "0b7ea0c9873c52fb5c3f949e311d52d4445b264c0bd3e924bd4f3ab05666036d",
        "a86bbe5a70890f56716c427103faae01cb07cebb3cee45aee5b5f81127f03412"),
    "extraspecial(5,2,plus)": (
        "037863d20dac6fec462c4c9685f32908ca024ece0f93f1e6f1e53f01e389dc19",
        "83626fb6a9c2674ed24eddfedd8589dccad6f9470afcf55a31aa4f34a7cb5c7d"),
    "dihedral(4096)": (
        "e2a46d143f39bcb69450e9f05bf3a7b0f6a6567bd8d7705385af493760487890",
        "2e312bdff50bf69356502c8fc80749ec030bc76b79388eb921602ee9ca2c3f0a"),
    "product(dihedral(1024),abelian(4))": (
        "9e9cfec10cae5bd6f6efc46ed3817bcd47d058d8c6493a0c307591e23b6f509a",
        "1e32fa9f20bf913f65174544b4ba6f1e94d3c2d529126e07c45b47c01eaf0cec"),
    "product(abelian(2,2),heisenberg(5))": (
        "23f50308b97df19fa6553d9cde96021b955e5f7ae881e92d22f50fe405ddd8cb",
        "28290ba89e0a3ed8dd315ff994eb1bcbf7aa3390bb65ed2992e70248210bb73f"),
    "centralproduct(dihedral(16),quaternion(16))": (
        "d98d371dc9937886b7ce36eb475d939496b79e1ba413759c8f7fb5f5e0867ad8",
        "613208cf79bc842ea2d39a7debe58939d93074ebc2edb266f51b6e0598021387"),
    "centralproduct(heisenberg(3),abelian(9))": (
        "be8f06c7af9725246bbe3ee9dc202b51c9b35b52d65e099196c436134935e696",
        "2b0637baa5591014390305b7813fbb34176994d9ee5c9d5e3845e2f4eef71648"),
    "centralproduct(cyclic(4096),cyclic(2))": (
        "02b421d09f3c9984bef07b5304d8f7bc9e4c60885abda5797919ef5753e569bc",
        "a55f428b5b698e61a108c4f33feadb3afb98b1a100981504576311228d3e4c9e"),
    "centralproduct(dihedral(8),abelian(4))": (
        "d9a17240e5f57df9dd7e171312dc94cde3e4b994193f424d4ea7bb0590c1d27d",
        "45336485444963ee2f78e9b4794d4fe5952c4d883eef7feecad892ed995dd6b3"),
    "quaternion(4096)": (
        "bec3f1cf80f8d197ba23d3e386ffd724081648fe9d00d8e9283c64435dc0cd6e",
        "af84d847ab56cecf6490c62fae4492fb08cf6e5d954f3701a5b00a2c4a99d3ce"),
    "cyclic(4096)": (
        "1aa0f9d00bae0fbfc834d104421d5be0e3b1cd4c00801bfe4ae8d0f2288f520a",
        "32cc6327f116c6a5405aa741ed9659803b2ee93d684da01afb1ef1ee25a80e4a"),
    "abelian(2,2048)": (
        "5d18ce893ac74ef783bdbf55e5cff8f8e30252ecd23f5324a04945d93a185e0f",
        "ffecfa79de85663497d6efd0b105ba980842d88b40f6f498c76e73264fd6ac5f"),
    "heisenberg(13)": (
        "e28e44921c12930ee59d428b681bac011d5d794052339f055792414ef8b3cd36",
        "3d1f0b3fa42995111e6355fa5d1889e191dc9dd42f8c7fc3756f8a5732aec0d1"),
    "modular_p3(13)": (
        "114ca85a6dd2fd36b74803e6e6e085dbbb057cf1eae99b18e2f68b37fc213b8d",
        "425e81d01b711a156249c70c15691b09a2f3209ad3a5868b426adcdb4813381a"),
    "extraspecial(13,1,minus)": (
        "114ca85a6dd2fd36b74803e6e6e085dbbb057cf1eae99b18e2f68b37fc213b8d",
        "425e81d01b711a156249c70c15691b09a2f3209ad3a5868b426adcdb4813381a"),
    # permutation groups, by their names in conftest.PERMUTATION_GENERATORS
    "S4": (
        "e8ee253f2f2f8f338c7d330f69386d5e4959c5566cc8fefe1dd7393f9942606b",
        "3566d7348f102ffa7cc284b647da592dc218d4b87c70f8b10a737955ffd39501"),
    "S5": (
        "3e773e264839d379fff4e546ccfb41cbba575ab6823b54f37a07e428c4a406e4",
        "259c858a54823c7d47fae7de479a74cd70fdee4421f1a1bf1e022c2a559fc7c3"),
    "S6": (
        "113fb7e5583cedaf2e0f77b240871c6c62b457e280d70fdcc632acd6d341951a",
        "9b4fe9c300f8b5d7a303e161a0677c0ce9348cc19a7e46b7d1b467e21e36e2df"),
    "A4": (
        "4172c7ab6cbb15065b746cc6f729ecfa853adaf0ea71082afd33d52561719e54",
        "a48ed9d05c64a04a4c7b9b97a1fd595a5466239972da9f80074d64edd4999e76"),
    "GD(3,3)": (
        "c2164703ba69e2f82c4221fc52683d830eff8846d94aeeddddf253ab69707ea0",
        "8ba5d1224d1b7939d8d3271e512c92b5720bbf388ac51079575679bbf0dd2670"),
}


@pytest.mark.parametrize("spec", sorted(FROZEN_DIGESTS))
def test_table_digest_frozen(spec):
    if spec in PERMUTATION_GENERATORS:
        G = zc.from_permutation_generators(PERMUTATION_GENERATORS[spec])
    else:
        G = zc.build_group(spec)
    assert G.mult.dtype == G.inv.dtype == "int16"
    digests = (hashlib.sha256(G.mult.astype(np.int32).tobytes()).hexdigest(),
               hashlib.sha256(G.inv.astype(np.int32).tobytes()).hexdigest())
    assert digests == FROZEN_DIGESTS[spec]


def _es_factors(p, n, variant):
    """The factors extraspecial(p, n, variant) amalgamates, in order."""
    if p == 2:
        base, last = zc.dihedral(8), zc.quaternion(8) if variant == "minus" else zc.dihedral(8)
    else:
        base, last = zc.heisenberg(p), zc.modular_p3(p) if variant == "minus" else zc.heisenberg(p)
    return [base] * (n - 1) + [last]


@pytest.mark.parametrize("p,n,variant", [(p, n, v) for p, n in ((2, 2), (2, 3), (3, 2))
                                         for v in ("plus", "minus")])
def test_extraspecial_steps_match_oracle(p, n, variant):
    """Every central product on the way to each extraspecial group of order
    at most 243 with n >= 2 (the n = 1 groups are no central product)."""
    factors = _es_factors(p, n, variant)
    G = factors[0]
    for F in factors[1:]:
        zg, zf = naive_amalgamation_pair(G, F)
        mult, inv = naive_central_product(G, F, zg, zf)
        G = zc.central_product(G, F, zg, zf)
        assert G.mult.tolist() == mult
        assert G.inv.tolist() == inv
    assert np.array_equal(G.mult, zc.extraspecial(p, n, variant).mult)


@pytest.mark.parametrize("left,right", [
    ("dihedral(8)", "quaternion(8)"), ("dihedral(8)", "abelian(4)"),
    ("heisenberg(3)", "abelian(9)"), ("heisenberg(3)", "modular_p3(3)"),
    ("dihedral(16)", "quaternion(16)"), ("abelian(6)", "dihedral(12)"),
    # centers sharing the primes 2 and 3, and a shared 3 that is not the
    # smallest prime of the left center's order
    ("cyclic(6)", "abelian(2,3)"), ("cyclic(6)", "cyclic(3)"),
    # a center with four subgroups of order 3, which the least and the
    # greatest central element of order 3 tell apart
    ("product(heisenberg(3),abelian(3))", "heisenberg(3)"),
])
def test_central_product_spec_matches_oracle(left, right):
    G, H = zc.build_group(left), zc.build_group(right)
    zg, zh = naive_amalgamation_pair(G, H)
    mult, inv = naive_central_product(G, H, zg, zh)
    P = zc.build_group(f"centralproduct({left},{right})")
    assert P.mult.tolist() == mult
    assert P.inv.tolist() == inv


AMALGAMATED = ["cyclic(1)", "cyclic(2)", "cyclic(3)", "cyclic(6)", "abelian(2,3)", "abelian(2,2)",
               "abelian(9)", "cyclic(10)", "dihedral(6)", "dihedral(8)", "dihedral(12)",
               "quaternion(8)", "heisenberg(3)", "modular_p3(3)",
               "product(heisenberg(3),abelian(2))", "product(dihedral(6),cyclic(5))"]


@pytest.mark.parametrize("left", AMALGAMATED)
def test_amalgamation_pair_matches_the_scan(left):
    """The pair read off the centers' orders by Cauchy's theorem is the pair
    the oracle's scan of every central element's order finds, refusals
    included, against each group of the list as the right factor."""
    G = zc.build_group(left)
    for right in AMALGAMATED:
        H = zc.build_group(right)
        pair = naive_amalgamation_pair(G, H)
        if pair is None:
            with pytest.raises(BadParameter, match="share no central prime order"):
                core._amalgamation_pair(G, H)
        else:
            assert core._amalgamation_pair(G, H) == pair, right


@pytest.mark.parametrize("left,right", [
    ("cyclic(1)", "dihedral(8)"), ("dihedral(8)", "cyclic(1)"), ("heisenberg(3)", "cyclic(3)"),
    ("abelian(2,2)", "quaternion(8)"), ("cyclic(3)", "dihedral(6)"),
])
def test_direct_product_matches_oracle_amalgamating_nothing(left, right):
    """For the identity pair the oracle's kernel <(0, 0)> is trivial, so its
    cosets are the pairs (g, h) with ids g*|H| + h: G x H, whether built by
    direct_product or by central_product itself."""
    G, H = zc.build_group(left), zc.build_group(right)
    mult, inv = naive_central_product(G, H, 0, 0)
    for P in (zc.direct_product(G, H), zc.central_product(G, H, 0, 0)):
        assert P.mult.tolist() == mult
        assert P.inv.tolist() == inv


@pytest.mark.parametrize("zg,zh", [(3, 1), (3, 2), (6, 1), (6, 2)])
def test_central_product_of_cyclic_9_matches_oracle(zg, zh):
    """zg is 3 or 6 in C9 and zh is 1 or 2 in Heis3: for each pairing of the
    two central subgroups of order 3, the shift that makes g * zg^i smallest
    takes h to h * zh^-i."""
    G, H = zc.cyclic(9), zc.heisenberg(3)
    mult, inv = naive_central_product(G, H, zg, zh)
    P = zc.central_product(G, H, zg, zh)
    assert P.mult.tolist() == mult
    assert P.inv.tolist() == inv


@pytest.mark.parametrize("zg", [1, 3, 4, 8])
def test_central_product_amalgamating_part_of_the_center(zg):
    """Z(Heis3 x C3) has order 9, so <zg> is one of its four subgroups of
    order 3, and the product's center (Z(G) x Z(H)) / <(zg, zh^-1)> has
    order 9."""
    G, H = zc.build_group("product(heisenberg(3),abelian(3))"), zc.heisenberg(3)
    rows = list(range(0, 729, 13)) + [728]
    mult, inv = naive_central_product(G, H, zg, 2, rows=rows)
    P = zc.central_product(G, H, zg, 2)
    assert P.mult[rows].tolist() == mult
    assert P.inv.tolist() == inv
    assert zc.center(P).size == 9


@pytest.mark.parametrize("spec", ["extraspecial(5,2,plus)", "dihedral(4096)",
                                  "product(dihedral(1024),abelian(4))"])
def test_construction_peak_under_200_mb(spec):
    """A group at the cap is built within about three n x n int32 tables
    (64 MB each at order 4096), never through a larger product."""
    tracemalloc.start()
    try:
        zc.build_group(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200e6, f"{spec}: tracemalloc peak {peak / 1e6:.0f} MB"


def test_analysed_group_dies_without_the_cycle_collector():
    """Every memo of a group holds plain arrays, so a group and everything
    derived from it is freed by reference counting alone."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for entry in zc.builtin_catalog():
            G = zc.build_group(entry.spec_text)
            catalog.analyze_group(G)
            for theorem in catalog.THEOREMS:
                catalog.run_theorem(G, theorem, iso_cap=cli.CLI_ISO_CAP)
            del G
            gc.collect()
            leaked = [type(o).__name__ for o in gc.garbage
                      if isinstance(o, (zc.GroupTable, np.ndarray))]
            gc.garbage.clear()
            assert leaked == [], f"{entry.label}: {leaked[:5]}"
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def test_kept_subgroups_do_not_keep_their_group():
    """A subgroup holds its mask and size, not its group: keeping the center,
    G' and a noncentral centralizer of ES(5,2,+) frees the group's 19.5 MB
    table and every other memo once the group goes.  With a reference to the
    group in each subgroup, 22.1 MB stayed live."""
    gc.collect()
    tracemalloc.start()
    try:
        G = zc.build_group("extraspecial(5,2,plus)")
        Z = zc.center(G)
        kept = [Z, zc.commutator_subgroup(G), zc.centralizer(G, int(np.argmin(Z.mask)))]
        del Z, G
        gc.collect()
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert [H.size for H in kept] == [5, 5, 625] and kept[0] == kept[1]
    assert live < 2e6, f"{live / 1e6:.1f} MB live"


def test_subgroups_are_read_only_memo_values():
    """center and G' hand out their memo as is, a value whose fields cannot
    be assigned and whose mask cannot be written, and which is not hashed."""
    G = zc.dihedral(16)
    for fn in (zc.center, zc.commutator_subgroup):
        H = fn(G)
        assert fn(G) is H
        for field in ("mask", "size"):
            with pytest.raises(AttributeError):
                setattr(H, field, getattr(H, field))
        with pytest.raises(ValueError, match="read-only"):
            H.mask[0] = False
        with pytest.raises(TypeError):
            hash(H)


def _memo_arrays(value, key=None):
    """(memo key, array) for every array a memo holds, quotient tables included."""
    if isinstance(value, np.ndarray):
        yield key, value
    elif isinstance(value, zc.SubgroupSet):
        yield key, value.mask
    elif isinstance(value, zc.GroupTable):
        yield from _memo_arrays((value.mult, value.inv, value._cache), key)
    elif isinstance(value, dict):
        for k, v in value.items():
            yield from _memo_arrays(v, k if key is None else key)
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from _memo_arrays(v, key)


@pytest.mark.parametrize("spec", ["dihedral(4096)", "extraspecial(5,2,plus)"])
def test_analysis_keeps_no_n_by_n_memo(spec):
    """The center comes from generators, and G', commutation, the type
    vector, the local-center condition and the cells from the |G/Z|^2
    pairing, G' from its rows at the cosets of G's generators; condition 1
    and is_extraspecial read those generators modulo Z.  So no memo holds n^2
    entries after the analysis, none holds the table of G/Z, and it peaks
    below 18 MB: 15.9 MB on dihedral(4096), where building G/Z's 2048 x 2048
    table as well took it to 24.3 MB (an n x n boolean table is 16.8 MB at
    order 4096)."""
    G = zc.build_group(spec)
    tracemalloc.start()
    try:
        zc.center(G)
        zc.commutator_subgroup(G)
        zc.conjugate_type_vector(G)
        zc.condition_central_quotient_elementary(G)
        zc.condition_local_center(G)
        zc.commutator_pairing(G)
        _cells(G)
        zc.is_extraspecial(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    big = [(key, arr.dtype.name) for key, arr in _memo_arrays(G._cache)
           if arr.size >= G.order ** 2]
    assert big == []
    assert "quotient_table" not in G._cache, sorted(G._cache)
    assert peak < 18e6, f"{spec}: tracemalloc peak {peak / 1e6:.1f} MB"


def test_memos_are_read_only():
    """Memos are handed out as they are, G/Z and the partition each as one
    value, so a write into one would change every later answer: each array
    a memo holds refuses it, and the checks still confirm after the
    attempts."""
    G = zc.extraspecial(2, 2, "plus")
    quo, part = zc.central_quotient(G), zc.z_class_partition(G)
    assert zc.central_quotient(G) is quo
    assert zc.quotient_table(G) is zc.quotient_table(G)
    assert zc.z_class_partition(G) is part
    with pytest.raises(AttributeError):
        part.members = ()
    with pytest.raises(TypeError):
        part.members[1] = part.members[0]
    handed_out = {"pairing": zc.commutator_pairing(G), "orders": zc.element_orders(G),
                  "projection": quo.projection, "coset_reps": quo.coset_reps,
                  "G/Z mult": zc.quotient_table(G).mult,
                  "class members": part.classes[1].members, "lookup": part.lookup}
    for name, arr in handed_out.items():
        with pytest.raises(ValueError, match="read-only"):
            arr[:] = 0
        assert arr.any(), name
    assert zc.verify_theorem_mt(G).verdict == "confirmed"
    assert zc.verify_bounds(G).verdict == "confirmed"
    for theorem in catalog.THEOREMS:
        catalog.run_theorem(G, theorem)
    writable = [key for key, arr in _memo_arrays(G._cache) if arr.flags.writeable]
    assert writable == []


def _traced_peak(fn, *args):
    """(result, tracemalloc peak in bytes) of one call."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("spec", ["extraspecial(5,2,plus)", "extraspecial(2,5,minus)",
                                  "dihedral(4096)", "product(dihedral(2048),cyclic(2))"])
def test_construction_peaks_near_the_kept_table(spec):
    """Central products, direct ones included, fill their table in blocks of
    rows, and GroupTable keeps an int16 table without copying it, so building
    a group allocates at most 16 MB beside the tables it keeps."""
    G, peak = _traced_peak(zc.build_group, spec)
    kept = G.mult.nbytes + G.inv.nbytes
    assert peak - kept <= 16e6, f"{spec}: peak {peak / 1e6:.1f} MB, kept {kept / 1e6:.1f} MB"


@pytest.mark.parametrize("build,bound", [
    (lambda: zc.extraspecial(5, 2), 23.5e6),
    (lambda: zc.dihedral(4096), 36.1e6),
    (lambda: zc.quaternion(4096), 36.1e6),
], ids=["extraspecial(5,2)", "dihedral(4096)", "quaternion(4096)"])
def test_constructor_allocates_little_beside_its_table(build, bound):
    """Rows are copied, not computed: each constructor allocates its table
    (19.5 MB at order 3125, 33.6 MB at 4096) and little beside it.  Filled
    entry by entry in blocks of rows, the three peaked at 25.7, 37.8 and
    46.2 MB."""
    _, peak = _traced_peak(build)
    assert peak <= bound, f"tracemalloc peak {peak / 1e6:.1f} MB"


# Each constructor kind at its largest order within the default cap; for
# extraspecial, the largest for each p and both variants.
LARGEST_IN_CAP = {
    "abelian": ["abelian(4096)"],
    "cyclic": ["cyclic(4096)"],
    "dihedral": ["dihedral(4096)"],
    "quaternion": ["quaternion(4096)"],
    "heisenberg": ["heisenberg(13)"],
    "modular_p3": ["modular_p3(13)"],
    "extraspecial": ["extraspecial(13,1,plus)", "extraspecial(13,1,minus)",
                     "extraspecial(5,2,plus)", "extraspecial(5,2,minus)",
                     "extraspecial(3,3,minus)", "extraspecial(2,5,plus)"],
}


def test_largest_in_cap_covers_every_kind():
    assert set(LARGEST_IN_CAP) == set(_KINDS)


@pytest.mark.parametrize("spec", [s for specs in LARGEST_IN_CAP.values() for s in specs])
def test_every_constructor_peaks_near_its_kept_table(spec):
    """Every table is filled in blocks of rows, so each constructor at the cap
    allocates at most 16 MB beside the tables it keeps."""
    G, peak = _traced_peak(zc.build_group, spec)
    kept = G.mult.nbytes + G.inv.nbytes
    assert peak - kept <= 16e6, f"{spec}: peak {peak / 1e6:.1f} MB, kept {kept / 1e6:.1f} MB"


def test_relabeled_shares_the_tables():
    G = zc.dihedral(16)
    H = G.relabeled("x")
    assert np.shares_memory(G.mult, H.mult) and np.shares_memory(G.inv, H.inv)
    assert not H.mult.flags.writeable


def test_pairing_checks_in_row_blocks():
    """With the central quotient at hand, the pairing of dihedral(4096) is one
    gather of its 2048 x 2048 int16 table (8.4 MB), with no re-check beside
    it: under 16 MB in all."""
    G = zc.dihedral(4096)
    zc.central_quotient(G)
    _, peak = _traced_peak(zc.commutator_pairing, G)
    assert peak < 16e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


def test_conjugacy_scan_gathers_one_block_of_conjugators():
    """_first_conjugator gathers the conjugates of H over one block of
    _ROW_BLOCK conjugators at a time: on extraspecial(2,5,minus), two distinct
    centralizers of order 1024, both normal, are scanned over every g within
    2 MB.  Gathered over all of G at once, the scan peaked at 8.5 MB."""
    G = zc.build_group("extraspecial(2,5,minus)")
    reps, _, cent, _ = _cells(G)
    H, K = (zc.centralizer(G, int(r)) for r in reps[cent == 1024][:2])
    hit, peak = _traced_peak(_first_conjugator, G, [H.members()], K)
    assert hit is None
    assert peak <= 2e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


def test_cells_key_packed_rows():
    """The cells key each pairing row by its bits packed eight to a byte:
    _cells on dihedral(4096), its 2048 x 2048 pairing built, peaks under
    7 MB.  Keyed by whole boolean rows, with a copy of the cells' rows for
    their sums, it peaked at 8.6 MB."""
    G = zc.dihedral(4096)
    zc.commutator_pairing(G)
    _, peak = _traced_peak(_cells, G)
    assert peak < 7e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


def test_validation_checks_lines_in_row_blocks():
    """Light's test compares blocks of rows, never a whole copy or transpose
    of the table: validating dihedral(4096) (a 67 MB table) allocates under
    24 MB."""
    G = zc.dihedral(4096)
    _, peak = _traced_peak(zc.validate_group_table, G)
    assert peak < 24e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


def test_cayley_writer_holds_one_row_of_strings(tmp_path):
    """The writer turns one block of 32 rows at a time into text, not all
    n^2 ids at once: writing dihedral(4096) (a 67 MB table, an 84 MB text)
    allocates under 3 MB, about 2 MB for one block's fixed-width names and
    their bytes."""
    G = zc.dihedral(4096)
    _, peak = _traced_peak(zc.write_cayley_table, G, tmp_path / "d4096.cayley")
    assert peak < 3e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


def test_cayley_load_holds_one_int32_table(tmp_path):
    """A file whose identity is not id 0 is relabelled and validated in the
    one table it was parsed into: loading a d2048 file with its identity at
    id 5 (an 18 MB text) holds the 8.4 MB int16 table and blocks, under
    20 MB, never a relabelled second table beside it."""
    D = zc.dihedral(2048)
    swap = np.arange(D.order)
    swap[[0, 5]] = [5, 0]
    path = tmp_path / "d2048-swapped.cayley"
    with path.open("w") as f:
        f.write(f"{D.order}\n")
        np.savetxt(f, swap[D.mult][np.ix_(swap, swap)], fmt="%d")
    G, peak = _traced_peak(zc.read_cayley_table, path)
    assert np.array_equal(G.mult, D.mult)
    assert peak < 20e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


def _relaid(text: bytes, per_line: int) -> bytes:
    """``text`` with every space and newline rewritten: ``per_line`` tokens a
    line, or with 0 the whole text on one line."""
    buf = np.frombuffer(text, np.uint8).copy()
    gaps = np.flatnonzero((buf == ord(" ")) | (buf == ord("\n")))
    buf[gaps] = ord(" ")
    if per_line:
        buf[gaps[per_line - 1::per_line]] = ord("\n")
    return buf.tobytes()


@pytest.mark.parametrize("per_line", [None, 0, 7], ids=["canonical", "one-line", "seven-a-line"])
def test_cayley_load_parses_in_line_blocks(tmp_path, per_line):
    """A load parses blocks of bytes straight into the int16 table, however
    the file breaks its lines: loading a d2048 file (an 18 MB text), one row
    a line, all on one line or seven ids a line, holds the 8.4 MB table and
    blocks, under 20 MB, neither the text nor an int64 parse of every
    entry."""
    D = zc.dihedral(2048)
    path = tmp_path / "d2048.cayley"
    zc.write_cayley_table(D, path)
    if per_line is not None:
        path.write_bytes(_relaid(path.read_bytes(), per_line))
    G, peak = _traced_peak(zc.read_cayley_table, path)
    assert np.array_equal(G.mult, D.mult)
    assert peak < 20e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


def test_cayley_load_refuses_a_long_line_in_its_first_block(tmp_path):
    """The declared order is checked in the first block, not after its line
    is read whole: a one-line file declaring order 40000 (an 8 MB text) is
    refused with OrderExceedsCap at a peak of a few MB."""
    path = tmp_path / "c40000.cayley"
    row = " ".join(map(str, range(4000))).encode()
    path.write_bytes(b"40000 " + b" ".join([row] * 400) + b"\n")
    tracemalloc.start()
    try:
        with pytest.raises(OrderExceedsCap, match="order 40000 exceeds cap 4096"):
            zc.read_cayley_table(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("block", [2, 3, 5, 8])
def test_cayley_load_carries_tokens_and_comments_across_blocks(tmp_path, monkeypatch, block):
    """Blocks of a few bytes split tokens, and comments longer than a block,
    at every place: the loaded table is the one the default blocks load."""
    H = zc.heisenberg(3)
    rows = [" ".join(map(str, row)) + ("\t# row %d, # and 12 34 in a comment" % i if i % 4 else "")
            for i, row in enumerate(H.mult.tolist())]
    path = tmp_path / "heis3.cayley"
    path.write_text("# Heis(3), the Heisenberg group mod 3\n27 #order\n" + "\n".join(rows))
    expected = zc.read_cayley_table(path)
    monkeypatch.setattr(core, "_BYTE_BLOCK", block)
    assert np.array_equal(zc.read_cayley_table(path).mult, expected.mult)
    assert np.array_equal(expected.mult, H.mult)


def test_cayley_load_refuses_a_token_longer_than_a_block(tmp_path, monkeypatch):
    path = tmp_path / "c1.cayley"
    path.write_text("1 0000000000\n")
    assert zc.read_cayley_table(path).order == 1
    monkeypatch.setattr(core, "_BYTE_BLOCK", 4)
    with pytest.raises(NotAGroup, match="malformed token of over 4 bytes"):
        zc.read_cayley_table(path)


def _declared_32768(tmp_path):
    path = tmp_path / "c32768.cayley"
    path.write_text("# the order alone is read\n32768\n0 1\n")
    return zc.read_cayley_table(path, cap=10**6)


S8 = [(1, 0, 2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 5, 6, 7, 0)]
# An order-32768 table of ids that takes no memory: every entry is one 0.
UNALLOCATED = np.broadcast_to(np.int16(0), (2 ** 15,) * 2)


@pytest.mark.parametrize("build", [
    lambda tmp: zc.build_group("cyclic(32768)", cap=10**6),
    lambda tmp: zc.cyclic(32768, cap=10**6),
    lambda tmp: zc.build_group("extraspecial(2,8,plus)", cap=10**6),
    lambda tmp: zc.direct_product(zc.cyclic(128), zc.cyclic(256), cap=10**6),
    lambda tmp: zc.central_product(zc.cyclic(256), zc.cyclic(512), 128, 256, cap=10**6),
    _declared_32768,
    lambda tmp: zc.from_permutation_generators(S8, cap=10**6),
    lambda tmp: zc.from_multiplication_table(UNALLOCATED),
    lambda tmp: zc.GroupTable(UNALLOCATED, UNALLOCATED[0]),
    lambda tmp: zc.cyclic(2 ** 40, cap=10**6),
    lambda tmp: zc.heisenberg(10 ** 12 + 39, cap=10**6),
    lambda tmp: zc.modular_p3(10 ** 12 + 39, cap=10**6),
    lambda tmp: zc.dihedral(2 ** 40, cap=10**6),
    lambda tmp: zc.quaternion(2 ** 40, cap=10**6),
], ids=["spec", "constructor", "extraspecial", "direct-product", "central-product",
        "cayley-file", "S8-closure", "raw-table", "GroupTable", "cyclic-ids",
        "heisenberg-ids", "modular-ids", "dihedral-ids", "quaternion-ids"])
def test_order_ceiling_refused_before_allocation(tmp_path, build):
    """Above 32767 no id fits int16, whatever the cap says: each way of
    building a group refuses before it allocates (one table is 2.1 GB).
    The ids g*|H| + h of a direct product stay below its order, so int16
    arithmetic is exact up to the ceiling; only a product past it, refused
    here, would wrap them."""
    tracemalloc.start()
    try:
        with pytest.raises(OrderExceedsCap, match="exceeds cap 32767"):
            build(tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("entry", [-1, 2 ** 15, 2 ** 16, 2 ** 31 - 1])
def test_wider_table_refused_not_wrapped(dtype, entry):
    mult = np.array([[0, 1], [1, 0]], dtype=dtype)
    mult[1, 1] = entry
    with pytest.raises(NotAGroup, match="outside the id range"):
        zc.GroupTable(mult, [0, 1])
    with pytest.raises(NotAGroup, match="outside the id range"):
        zc.GroupTable([[0, 1], [1, 0]], np.array([0, entry], dtype=dtype))


@pytest.mark.parametrize("mult", [[[0, 1], [1, 0.5]], [[0., 1.], [1., 0.7]], [[0., 1.], [1., 0.]],
                                  [[False, True], [True, False]]],
                         ids=["mixed", "float", "integral-float", "bool"])
def test_non_integer_table_refused_not_truncated(mult):
    """0.5 would truncate to the id 0 and False to 0: C2 from a table that
    holds no ids.  Floats and bools are refused even where every entry is
    integral, by every way in."""
    dtype = np.asarray(mult).dtype.name
    with pytest.raises(NotAGroup, match=f"table entries are {dtype}, not integer ids"):
        zc.from_multiplication_table(mult)
    with pytest.raises(NotAGroup, match=f"table entries are {dtype}, not integer ids"):
        zc.GroupTable(np.array(mult), [0, 1])
    with pytest.raises(NotAGroup, match=f"table entries are {dtype}, not integer ids"):
        zc.GroupTable([[0, 1], [1, 0]], np.array(mult)[1])


def test_central_product_ids_past_int16():
    """The G x H ids of C191 o C191 reach 191 * 191 - 1 = 36480."""
    G = zc.cyclic(191)
    mult, inv = naive_central_product(G, G, 1, 1)
    P = zc.build_group("centralproduct(cyclic(191),cyclic(191))")
    assert P.mult.tolist() == mult
    assert P.inv.tolist() == inv


def test_central_product_rep_products_past_int16():
    """In (D26 x C37) o C37 the coset reps of D26 x C37 are 37*d, so the
    product of two reaches id 925 and the G x H id 925*37 + 36 = 34261, as
    does the inverse of the rep 925; rows 924 on hold such products."""
    G = zc.build_group("product(dihedral(26),cyclic(37))")
    rows = [0, 1, 480, 924, 960, 961]
    mult, inv = naive_central_product(G, zc.cyclic(37), 1, 1, rows=rows)
    P = zc.build_group("centralproduct(product(dihedral(26),cyclic(37)),cyclic(37))")
    assert P.mult[rows].tolist() == mult
    assert P.inv.tolist() == inv


def test_pairing_flat_index_past_int16():
    """The pairing of heisenberg(7) reads n^2 = 117649 flat indices."""
    G = zc.heisenberg(7)
    reps = zc.central_quotient(G).coset_reps.tolist()
    assert zc.commutator_pairing(G).tolist() == [[G.commutator(a, b) for b in reps] for a in reps]


def _library_tables(G):
    quo, Q = zc.central_quotient(G), zc.quotient_table(G)
    yield "mult", G.mult
    yield "inv", G.inv
    yield "G/Z mult", Q.mult
    yield "G/Z inv", Q.inv
    yield "projection", quo.projection
    yield "coset reps", quo.coset_reps
    yield "pairing", zc.commutator_pairing(G)


def test_every_library_table_is_int16(tmp_path):
    """Group, quotient and pairing tables, from every way of building a group."""
    groups = [zc.build_group(e.spec_text) for e in zc.builtin_catalog()]
    groups.append(zc.from_permutation_generators(PERMUTATION_GENERATORS["S4"]))
    groups.append(zc.from_multiplication_table(zc.heisenberg(3).mult.astype(np.int64)))
    zc.write_cayley_table(zc.dihedral(12), tmp_path / "d12.cayley")
    groups.append(zc.read_cayley_table(tmp_path / "d12.cayley"))
    D8 = zc.dihedral(8)
    groups.append(zc.quotient_table(D8))    # D8/D8', as D8' = Z(D8)
    wide = [(G.label, name, t.dtype.name) for G in groups
            for name, t in _library_tables(G) if t.dtype != np.int16]
    assert wide == []

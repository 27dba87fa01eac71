"""The constructed tables themselves, and the memory it takes to build and
analyse them.

Element ids are int16, so every table holds ids below MAX_ORDER = 32767 and
no order above it is admitted; arithmetic on ids that can pass 32767 (the
commutator pairing's flat index, the G x H ids of a central product) is
computed wider, each site gated by a test below that fails without it.

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
from zclasses import catalog, cli
from zclasses.errors import NotAGroup, OrderExceedsCap
from zclasses.specs import _KINDS, _amalgamation_pair
from zclasses.zclass import _cells

from conftest import PERMUTATION_GENERATORS
from oracles import naive_central_product

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


def _second_central(G):
    return int(zc.center(G).members()[1])


@pytest.mark.parametrize("p,n,variant", [(p, n, v) for p, n in ((2, 2), (2, 3), (3, 2))
                                         for v in ("plus", "minus")])
def test_extraspecial_steps_match_oracle(p, n, variant):
    """Every central product on the way to each extraspecial group of order
    at most 243 with n >= 2 (the n = 1 groups are no central product)."""
    factors = _es_factors(p, n, variant)
    G = factors[0]
    for F in factors[1:]:
        zg, zf = _second_central(G), _second_central(F)
        mult, inv = naive_central_product(G, F, zg, zf)
        G = zc.central_product(G, F, zg, zf)
        assert G.mult.tolist() == mult
        assert G.inv.tolist() == inv
    assert np.array_equal(G.mult, zc.extraspecial(p, n, variant).mult)


@pytest.mark.parametrize("left,right", [
    ("dihedral(8)", "quaternion(8)"), ("dihedral(8)", "abelian(4)"),
    ("heisenberg(3)", "abelian(9)"), ("heisenberg(3)", "modular_p3(3)"),
    ("dihedral(16)", "quaternion(16)"), ("abelian(6)", "dihedral(12)"),
])
def test_central_product_spec_matches_oracle(left, right):
    G, H = zc.build_group(left), zc.build_group(right)
    zg, zh = _amalgamation_pair(G, H)
    mult, inv = naive_central_product(G, H, zg, zh)
    P = zc.build_group(f"centralproduct({left},{right})")
    assert P.mult.tolist() == mult
    assert P.inv.tolist() == inv


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


def _memo_arrays(value, key=None):
    """(memo key, array) for every array a memo holds, quotient tables included."""
    if isinstance(value, np.ndarray):
        yield key, value
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
    """The center comes from generators, G' from |S| * n commutators, and
    commutation, the type vector, both conditions and the cells from the
    |G/Z|^2 pairing, so no memo holds n^2 entries after the analysis, and it
    peaks below 32 MB (an n x n boolean table is 16.8 MB at order 4096)."""
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
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    big = [(key, arr.dtype.name) for key, arr in _memo_arrays(G._cache)
           if arr.size >= G.order ** 2]
    assert big == []
    assert peak < 32e6, f"{spec}: tracemalloc peak {peak / 1e6:.1f} MB"


def test_memos_are_read_only():
    """Memos are handed out as they are, G/Z as one value, so a write into
    one would change every later answer: each array a memo holds refuses it,
    and the checks still confirm after the attempts."""
    G = zc.extraspecial(2, 2, "plus")
    quo = zc.central_quotient(G)
    assert zc.central_quotient(G) is quo
    handed_out = {"pairing": zc.commutator_pairing(G), "orders": zc.element_orders(G),
                  "projection": quo.projection, "coset_reps": quo.coset_reps,
                  "class members": zc.z_class_partition(G).classes[1].members}
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
                                  "dihedral(4096)"])
def test_construction_peaks_near_the_kept_table(spec):
    """Central products fill their table in blocks of rows, and GroupTable
    keeps an int32 table without copying it, so building a group allocates
    at most 16 MB beside the tables it keeps."""
    G, peak = _traced_peak(zc.build_group, spec)
    kept = G.mult.nbytes + G.inv.nbytes
    assert peak - kept <= 16e6, f"{spec}: peak {peak / 1e6:.1f} MB, kept {kept / 1e6:.1f} MB"


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


def test_validation_checks_lines_in_row_blocks():
    """Light's test compares blocks of rows, never a whole copy or transpose
    of the table: validating dihedral(4096) (a 67 MB table) allocates under
    24 MB."""
    G = zc.dihedral(4096)
    _, peak = _traced_peak(zc.validate_group_table, G)
    assert peak < 24e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


def test_cayley_writer_holds_one_row_of_strings(tmp_path):
    """The writer turns one row at a time into text, not all n^2 ids at
    once: writing dihedral(4096) (a 67 MB table, an 84 MB text) allocates
    under 24 MB."""
    G = zc.dihedral(4096)
    _, peak = _traced_peak(zc.write_cayley_table, G, tmp_path / "d4096.cayley")
    assert peak < 24e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


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


def test_cayley_load_parses_in_line_blocks(tmp_path):
    """A load parses blocks of whole lines straight into the int16 table:
    loading a canonical d2048 file (an 18 MB text) holds the 8.4 MB table
    and blocks, under 20 MB, neither the text nor an int64 parse of every
    entry."""
    D = zc.dihedral(2048)
    path = tmp_path / "d2048.cayley"
    zc.write_cayley_table(D, path)
    G, peak = _traced_peak(zc.read_cayley_table, path)
    assert np.array_equal(G.mult, D.mult)
    assert peak < 20e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


def _declared_32768(tmp_path):
    path = tmp_path / "c32768.cayley"
    path.write_text("# the order alone is read\n32768\n0 1\n")
    return zc.read_cayley_table(path, cap=10**6)


S8 = [(1, 0, 2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 5, 6, 7, 0)]
# An order-32768 table of ids that takes no memory: every entry is one 0.
UNALLOCATED = np.broadcast_to(np.int16(0), (2 ** 15,) * 2)


@pytest.mark.parametrize("build", [
    lambda tmp: zc.build_group("cyclic(32768)", cap=10**6),
    lambda tmp: zc.cyclic(32768),
    lambda tmp: zc.build_group("extraspecial(2,8,plus)", cap=10**6),
    lambda tmp: zc.direct_product(zc.cyclic(128), zc.cyclic(256), cap=10**6),
    lambda tmp: zc.central_product(zc.cyclic(256), zc.cyclic(512), 128, 256, cap=10**6),
    _declared_32768,
    lambda tmp: zc.from_permutation_generators(S8, cap=10**6),
    lambda tmp: zc.from_multiplication_table(UNALLOCATED),
    lambda tmp: zc.GroupTable(UNALLOCATED, UNALLOCATED[0]),
    lambda tmp: zc.cyclic(2 ** 40),
    lambda tmp: zc.heisenberg(10 ** 12 + 39),
    lambda tmp: zc.modular_p3(10 ** 12 + 39),
    lambda tmp: zc.dihedral(2 ** 40),
    lambda tmp: zc.quaternion(2 ** 40),
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
    quo = zc.central_quotient(G)
    yield "mult", G.mult
    yield "inv", G.inv
    yield "G/Z mult", quo.table.mult
    yield "G/Z inv", quo.table.inv
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
    groups.append(zc.central_quotient(D8).table)    # D8/D8', as D8' = Z(D8)
    wide = [(G.label, name, t.dtype.name) for G in groups
            for name, t in _library_tables(G) if t.dtype != np.int16]
    assert wide == []

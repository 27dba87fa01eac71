"""Output checks against facts established apart from the library.

Each check raises :class:`CheckFailed` naming what is wrong.  The expected
values come from closed forms for the group families (not from the library's
own code paths), from ``tests/oracles.py``, or from the benchmark's own table
formulas.  ``test_checks.py`` feeds every check a wrong answer.
"""

from __future__ import annotations

from collections.abc import Iterable


class CheckFailed(Exception):
    """An output of the library disagrees with an independently known fact."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def extraspecial_class_count(p: int, n: int) -> int:
    """(p^{2n} - 1)/(p - 1) + 1: the z-class count of an extraspecial group
    of order p^{1+2n}, which attains the bound for [G : Z] = p^{2n}."""
    return (p ** (2 * n) - 1) // (p - 1) + 1


def dihedral_type_vector(order: int) -> tuple[int, ...]:
    """(m/2, 2, 1) for D_{2m} with m even, as a descending set."""
    m = order // 2
    expect(m % 2 == 0, f"closed form needs m even, got D{order}")
    return tuple(sorted({m // 2, 2, 1}, reverse=True))


def check_extraspecial(label: str, p: int, n: int, facts: dict) -> None:
    """Structure of an extraspecial group of order p^{1+2n}.

    ``facts`` holds what the library reported: ``order``, ``center``
    (|Z|), ``derived_is_center`` (G' = Z as subgroups), ``extraspecial``,
    ``ctv``, ``cond1``, ``cond2`` and, when computed, ``zclasses``.
    """
    expect(facts["order"] == p ** (1 + 2 * n),
           f"{label}: order {facts['order']} != {p}^{1 + 2 * n}")
    expect(facts["center"] == p, f"{label}: |Z| = {facts['center']}, expected {p}")
    expect(facts["derived_is_center"] is True, f"{label}: G' differs from Z")
    expect(facts["extraspecial"] is True, f"{label}: not recognised as extraspecial")
    check_family_counts(label, ("extraspecial", p, n), facts)
    expect(facts["cond1"] is True, f"{label}: G/Z reported not elementary abelian")
    expect(facts["cond2"] is True, f"{label}: local-center condition reported false")


def check_dihedral(label: str, order: int, facts: dict) -> None:
    """D_{2m} with 4 | m and m > 4: |Z| = 2, G' = <r^2> of order m/2, not
    extraspecial, G/Z = D_m not elementary abelian, and the local-center
    condition fails at r^2 (its centralizer <r> is its own center, but
    <r^2, Z> = <r^2> is half of it)."""
    m = order // 2
    expect(facts["order"] == order, f"{label}: order {facts['order']} != {order}")
    expect(facts["center"] == 2, f"{label}: |Z| = {facts['center']}, expected 2")
    expect(facts["derived"] == m // 2, f"{label}: |G'| = {facts['derived']}, expected {m // 2}")
    expect(facts["extraspecial"] is False, f"{label}: reported extraspecial")
    check_family_counts(label, ("dihedral", order), facts)
    expect(facts["cond1"] is False, f"{label}: G/Z reported elementary abelian")
    expect(facts["cond2"] is False, f"{label}: local-center condition reported true")


def check_family_counts(label: str, family: tuple, facts: dict) -> None:
    """Class count (when present) and type vector from the family's closed form."""
    kind = family[0]
    if kind == "extraspecial":
        p, n = family[1], family[2]
        classes, ctv = extraspecial_class_count(p, n), (p, 1)
    elif kind == "dihedral":
        classes, ctv = 4, dihedral_type_vector(family[1])
    elif kind == "abelian":
        classes, ctv = 1, (1,)
    else:
        raise ValueError(f"no closed form for {kind!r}")
    expect(tuple(facts["ctv"]) == ctv,
           f"{label}: type vector {tuple(facts['ctv'])}, expected {ctv}")
    if facts.get("zclasses") is not None:
        expect(facts["zclasses"] == classes,
               f"{label}: {facts['zclasses']} z-classes, expected {classes}")


def check_catalog_records(records: list[dict], labels: list[str], theorems: Iterable[str]) -> None:
    """One record per (group, check), in catalog order, none REFUTED or error."""
    theorems = tuple(theorems)
    want = [(label, t) for label in labels for t in theorems]
    got = [(r.get("group"), r.get("theorem")) for r in records]
    expect(got == want, f"catalog records {got[:3]}... do not match (group, check) order")
    bad = [(r["group"], r["theorem"], r["verdict"]) for r in records
           if r["verdict"] not in ("confirmed", "vacuous")]
    expect(not bad, f"catalog records not confirmed or vacuous: {bad}")


def check_catalog_family(label: str, family: tuple, records: list[dict]) -> None:
    """Every record of one catalog group agrees with the family's closed form;
    extraspecial groups also attain the bound, with both conditions true."""
    mine = [r for r in records if r["group"] == label]
    expect(bool(mine), f"{label}: no catalog records")
    for r in mine:
        check_family_counts(label, family, r)
        if family[0] == "extraspecial":
            p, n = family[1], family[2]
            expect((r["p"], r["k"]) == (p, 2 * n),
                   f"{label}: [G : Z] = {r['p']}^{r['k']}, expected {p}^{2 * n}")
            expect(r["attains"] is True and r["cond1"] is True and r["cond2"] is True,
                   f"{label}: attains/cond1/cond2 = {r['attains']}/{r['cond1']}/{r['cond2']}")


def check_partition(label: str, program: Iterable[Iterable[int]],
                    oracle: Iterable[Iterable[int]]) -> None:
    """The library's classes equal the oracle's, as sets of element sets."""
    mine = {frozenset(int(x) for x in cls) for cls in program}
    theirs = {frozenset(int(x) for x in cls) for cls in oracle}
    expect(mine == theirs,
           f"{label}: partition has {len(mine)} classes, the oracle {len(theirs)}, "
           f"{len(mine ^ theirs)} differ")


def check_identical(label: str, blobs: list[bytes]) -> None:
    """Every pass produced the same bytes."""
    expect(bool(blobs), f"{label}: nothing recorded")
    differ = [i for i, b in enumerate(blobs) if b != blobs[0]]
    expect(not differ, f"{label}: passes {differ} differ from pass 0")


def check_failures(failures: list[tuple[str, str, str]],
                   allowed: set[tuple[str, str]]) -> None:
    """Only the named (operation, group) pairs may fail."""
    stray = [f for f in failures if (f[0], f[1]) not in allowed]
    expect(not stray, f"unexpected failed operations: {stray[:5]}")


def check_same_table(label: str, got, want) -> None:
    """Two multiplication tables agree entry for entry."""
    expect(got.shape == want.shape and bool((got == want).all()),
           f"{label}: table differs from the expected one")


def check_rejected(label: str, error: str | None) -> None:
    """A corrupted table was refused with NotAGroup (``error`` is the name of
    the exception its load raised, None when it loaded)."""
    expect(error == "NotAGroup", f"{label}: corrupted table gave {error or 'a group'}")

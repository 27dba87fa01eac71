"""Dense-table finite group arithmetic.

A group lives on element ids ``0 .. order-1`` with the identity always at
id ``0``; ``mult[a, b]`` is the product and ``inv[a]`` the inverse.  All
set-level operations (subgroups, centralizers, the central quotient) reduce
to numpy gathers over these tables and boolean membership masks, which
keeps everything exact and brute-forceable at desk scale.  G/Z is the one
quotient: every statement checked is a statement on it.

Tables are read along their rows, never through a whole transpose, and
conjugates are gathered as ``g^-1 * (h * g)``: the products ``h * g`` are
whole rows, and each output row reads the one row ``g^-1``.

Commutation and G' are read off one table, the commutator pairing on G/Z,
since [x, y] depends only on xZ and yZ; the center it is built on comes from
generators.

Conventions used consistently throughout the package:

* conjugation is ``x^g = g^-1 * x * g``
* commutators are ``[a, b] = a^-1 * b^-1 * a * b``
"""

from __future__ import annotations

import math
import os
import re
import stat
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import BadParameter, NotAGroup, OrderExceedsCap

DEFAULT_ORDER_CAP = 4096

# Element ids are int16, and no group is larger than its largest value: every
# id and the order itself fit, so read_cayley_table can store n as the one
# out-of-range id.  Arithmetic on ids widens first (n^2 does not fit) and
# narrows only when ids are stored.
ID_DTYPE = np.int16
MAX_ORDER = int(np.iinfo(ID_DTYPE).max)    # 32767

# Rows per block wherever an n x n table is built or checked: at the cap a
# block of ids is 2 MB, so no step needs an n x n temporary beside its result.
_ROW_BLOCK = 256
# Bytes read_cayley_table reads at a time, and the longest token it admits.
_BYTE_BLOCK = 1 << 20
_WHITESPACE = b" \t\n\v\f\r"


def check_order(what: str, order: int, cap: int = MAX_ORDER) -> None:
    """Refuse an ``order`` above ``cap`` or MAX_ORDER before any table of it
    is allocated; an order too long to print in decimal is named by its bits."""
    limit = min(cap, MAX_ORDER)
    if order > limit:
        shown = order if order.bit_length() <= 64 else f"of {order.bit_length()} bits"
        raise OrderExceedsCap(f"{what} order {shown} exceeds cap {limit}")


def _fill_rows(shape, block_of) -> np.ndarray:
    """A preallocated ID_DTYPE table of ``shape``, filled _ROW_BLOCK rows at a
    time: the rows in slice ``rows`` are ``block_of(rows)``, ids computed in
    any integer type, narrowed as they are stored."""
    check_order("table", max(shape))
    out = np.empty(shape, dtype=ID_DTYPE)
    for lo in range(0, shape[0], _ROW_BLOCK):
        rows = slice(lo, lo + _ROW_BLOCK)
        out[rows] = block_of(rows)
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and smallest_prime_factor(n) == n


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, k) with n = p^k and k >= 1, or None (n = 1 included)."""
    if n < 2:
        return None
    p = smallest_prime_factor(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return (p, k) if n == 1 else None


def smallest_prime_factor(n: int) -> int:
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


class GroupTable:
    """A finite group as a dense multiplication table plus inverse table.

    Instances are immutable after construction; derived data (center,
    commutator subgroup, G/Z, partitions) is memoised on the instance as
    read-only values handed out as is, none with a reference back to it, so
    a group is freed once its last outside reference is gone, even while a
    subgroup or another memo of it is kept.  Ids are stored as ID_DTYPE
    (int16), so the order is at most MAX_ORDER (32767).  An int16 table is
    kept and frozen, not copied: the caller must not write to it afterwards.
    A wider table is narrowed only when every entry is an id.
    """

    __slots__ = ("order", "mult", "inv", "label", "_cache")

    def __init__(self, mult, inv, label: str = ""):
        mult, inv = np.asarray(mult), np.asarray(inv)
        if mult.ndim != 2 or mult.shape[0] != mult.shape[1]:
            raise NotAGroup("multiplication table is not square")
        if inv.shape != (mult.shape[0],):
            raise NotAGroup("inverse table length does not match the order")
        check_order("table", mult.shape[0])
        mult, inv = _as_ids(mult), _as_ids(inv)
        mult.setflags(write=False)
        inv.setflags(write=False)
        self.order = int(mult.shape[0])
        self.mult = mult
        self.inv = inv
        self.label = label
        self._cache: dict = {}

    def relabeled(self, label: str) -> "GroupTable":
        """Same group, new report label (tables are shared, cache is not)."""
        return GroupTable(self.mult, self.inv, label=label)

    def mul(self, a: int, b: int) -> int:
        return int(self.mult[_ids(self, a), _ids(self, b)])

    def inverse(self, a: int) -> int:
        return int(self.inv[_ids(self, a)])

    def conjugate(self, x: int, g: int) -> int:
        """x^g = g^-1 * x * g."""
        m = self.mult
        return int(m[m[self.inverse(g), _ids(self, x)], g])

    def commutator(self, a: int, b: int) -> int:
        """[a, b] = a^-1 * b^-1 * a * b."""
        m = self.mult
        return int(m[m[m[self.inverse(a), self.inverse(b)], a], b])

    def power(self, x: int, k: int) -> int:
        """x^k for any integer k, read off :func:`power_map`."""
        return int(power_map(self, self.inverse(x) if k < 0 else _ids(self, x), abs(int(k))))

    def element_order(self, x: int) -> int:
        """Smallest k >= 1 with x^k = identity, read off :func:`element_orders`."""
        return int(element_orders(self)[_ids(self, x)])

    def elements(self) -> range:
        return range(self.order)

    def _memo(self, key, compute):
        """The value of ``compute()``, computed once per key and handed out as
        is, so each array in it, or in its tuples, is made read-only."""
        if key not in self._cache:
            self._cache[key] = _read_only(compute())
        return self._cache[key]

    def __repr__(self) -> str:
        name = self.label or "unnamed"
        return f"GroupTable({name!r}, order={self.order})"


def _read_only(value):
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, tuple):
        for item in value:
            _read_only(item)
    return value


def _as_ids(a: np.ndarray) -> np.ndarray:
    """``a`` as a C-contiguous ID_DTYPE array, refused rather than truncated
    or wrapped when its entries are not integers or lie outside 0..MAX_ORDER."""
    if a.dtype.kind not in "iu":
        raise NotAGroup(f"table entries are {a.dtype}, not integer ids")
    if a.dtype != ID_DTYPE and a.size and (a.min() < 0 or a.max() > MAX_ORDER):
        raise NotAGroup(f"table entry outside the id range 0..{MAX_ORDER}")
    return np.ascontiguousarray(a, dtype=ID_DTYPE)


def _ids(G, ids):
    """``ids``, one element id of G or an array of them, once each lies in
    0..G.order-1: numpy would read a negative id from the end of a table."""
    arr = np.asarray(ids)
    if arr.size and (arr.min() < 0 or arr.max() >= G.order):
        raise ValueError("element id out of range")
    return ids


@dataclass(frozen=True, slots=True, eq=False)
class SubgroupSet:
    """A subgroup as a read-only membership mask and its size, with no reference
    to its group, so a kept subgroup does not keep the group alive; ``order``
    is read off the mask.  Equal masks are equal; closure is not verified."""

    mask: np.ndarray
    size: int

    @classmethod
    def of(cls, mask) -> "SubgroupSet":
        """The subgroup of a read-only copy of ``mask``."""
        mask = _read_only(np.array(mask, dtype=bool))
        return cls(mask, int(mask.sum()))

    @property
    def order(self) -> int:
        return self.mask.size

    @property
    def index(self) -> int:
        return self.order // self.size

    def members(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def __contains__(self, x: int) -> bool:
        return bool(self.mask[_ids(self, x)])

    def __eq__(self, other) -> bool:
        return isinstance(other, SubgroupSet) and np.array_equal(self.mask, other.mask)

    def is_subset_of(self, other: "SubgroupSet") -> bool:
        return not np.any(self.mask & ~other.mask)


class QuotientGroup(NamedTuple):
    """G/Z(G) without its table, memoised by :func:`central_quotient`:
    ``projection[a]`` is the quotient id of a*Z, ``coset_reps[q]`` the
    smallest member of coset q (rep 0 is the identity) and ``orders[q]`` its
    order in G/Z.  :func:`quotient_table` multiplies."""

    projection: np.ndarray
    coset_reps: np.ndarray
    orders: np.ndarray


def validate_group_table(G: GroupTable) -> None:
    """Check the group axioms on the dense tables, exhaustively.

    Identity and inverses are checked entry by entry, associativity by
    Light's test (Clifford & Preston, *The Algebraic Theory of Semigroups*
    I, 1961) on the generators of :func:`_greedy_walk`: ``(x*s)*y = x*(s*y)``
    for all x, y puts s in the middle nucleus N, which holds 0 and is closed
    under products.  So the closure C of the passing generators (their
    left-normed products from 0) is closed under products and lies in N; for
    x in C, c -> x*c is injective on C, as (x^-1*x)*c = x^-1*(x*c), so some
    c in C has x*c = 0, and c = x^-1.  C is a group, each closure a subgroup
    of the next and at least twice its size: at most floor(log2 n) + 1
    generators are checked on any input, O(n^2 log n) in all, and once all
    pass, G = C is a group, so Latin.  Raises :class:`NotAGroup` with the
    first offending witness; (a, b, c) for associativity, (a*b)*c != a*(b*c).
    """
    n, m = G.order, G.mult
    ar = np.arange(n, dtype=np.int32)
    if n == 0:
        raise NotAGroup("empty table")
    if m.min() < 0 or m.max() >= n:
        raise NotAGroup("table entry out of range")
    if not np.array_equal(m[0], ar):
        raise NotAGroup("row 0 is not the identity row")
    if not np.array_equal(m[:, 0], ar):
        raise NotAGroup("column 0 is not the identity column")
    if G.inv.min() < 0 or G.inv.max() >= n:
        raise NotAGroup("inverse table entry out of range")
    bad = np.flatnonzero(m[ar, G.inv] != 0)
    if bad.size:
        raise NotAGroup("right inverse fails", int(bad[0]))
    bad = np.flatnonzero(m[G.inv, ar] != 0)
    if bad.size:
        raise NotAGroup("left inverse fails", int(bad[0]))
    for s in _greedy_walk(G):
        for lo in range(0, n, _ROW_BLOCK):
            rows = slice(lo, lo + _ROW_BLOCK)
            left = m[m[rows, s]]                     # [x, y] -> (x*s)*y
            right = np.take(m[rows], m[s], axis=1)   # [x, y] -> x*(s*y)
            if not np.array_equal(left, right):
                x, y = np.argwhere(left != right)[0]
                raise NotAGroup("associativity fails", (lo + int(x), s, int(y)))


def from_multiplication_table(rows, label: str = "") -> GroupTable:
    """Build a validated GroupTable from a raw square table of element ids.

    The identity need not be at index 0 in the input; the group is relabeled
    so that it is.  Raises :class:`NotAGroup` with the first witness of any
    failed axiom.
    """
    arr = np.asarray(rows)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NotAGroup("table is not square")
    n = arr.shape[0]
    if n == 0:
        raise NotAGroup("empty table")
    check_order("table", n)
    if arr.dtype.kind not in "iu":
        raise NotAGroup(f"table entries are {arr.dtype}, not integer ids")
    if arr.min() < 0 or arr.max() >= n:
        raise NotAGroup("table entry out of range")
    return _identity_first(arr.astype(ID_DTYPE), label)    # the one copy


def _identity_first(mult: np.ndarray, label: str) -> GroupTable:
    """The validated group of ``mult``, an int16 table of ids in 0..n-1 owned
    by the caller, relabelled in place so that its identity e is id 0: the
    entries by blocks of rows, then rows 0 and e, then columns 0 and e."""
    n = mult.shape[0]
    p = np.arange(n, dtype=ID_DTYPE)
    e = int(np.argmax(mult[0] == 0))    # 0*e = 0: in a group, e is the identity
    if not (np.array_equal(mult[e], p) and np.array_equal(mult[:, e], p)):
        raise NotAGroup("no two-sided identity element", e)
    if e:
        p[[0, e]] = [e, 0]
        for lo in range(0, n, _ROW_BLOCK):
            rows = slice(lo, lo + _ROW_BLOCK)
            mult[rows] = p[mult[rows]]
        mult[[0, e]] = mult[[e, 0]]
        mult[:, [0, e]] = mult[:, [e, 0]]
    G = GroupTable(mult, mult.argmin(axis=1), label=label)    # the 0 in each row
    validate_group_table(G)
    return G


def from_permutation_generators(gens, label: str = "", *,
                                cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """Enumerate the permutation group generated by ``gens`` as a GroupTable.

    Each generator must be a bijection of ``0..m-1`` given as a sequence of
    images; products compose right-to-left, ``(p*q)(i) = p[q[i]]``.  Element
    ids follow breadth-first discovery order with the identity first.
    """
    perms = [tuple(int(v) for v in g) for g in gens]
    degree = len(perms[0]) if perms else 0
    for t in perms:
        if sorted(t) != list(range(degree)):
            raise BadParameter(f"not a bijection of 0..{degree - 1}: {t}")
    elems, parent, step = [tuple(range(degree))], [0], [0]
    index = {elems[0]: 0}
    for i, x in enumerate(elems):          # breadth first: elems grows as it is read
        for k, g in enumerate(perms):
            y = tuple(x[v] for v in g)
            if y not in index:
                check_order("permutation closure", len(elems) + 1, cap)
                index[y] = len(elems)
                elems.append(y)
                parent.append(i)
                step.append(k)
    # e_i = e_parent * g, so row i is the parent's row read at g * e_j:
    # one gather per row once each generator's left multiplication is known.
    n = len(elems)
    left = np.array([[index[tuple(g[v] for v in q)] for q in elems] for g in perms])
    mult = np.empty((n, n), dtype=ID_DTYPE)
    mult[0] = np.arange(n)
    for i in range(1, n):
        mult[i] = mult[parent[i], left[step[i]]]
    return _identity_first(mult, label)


def read_cayley_table(path, label: str | None = None, *,
                      cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """Load the plain-text Cayley format: first the order n, then n*n ids.

    Tokens are unsigned decimal integers separated by whitespace; ``#``
    starts a comment that runs to the end of the line.  The identity may sit
    at any index in the file; the loaded group is relabeled so it lands at
    id 0.  Blocks of bytes are parsed straight into the int16 table, however
    the file breaks its lines, so neither the whole text nor a wide parse of
    all n*n ids is ever held.  Raises :class:`OrderExceedsCap` when the
    declared order is above ``cap`` (or MAX_ORDER), before the table exists,
    and :class:`NotAGroup` naming the path for a malformed file.
    """
    path = Path(path)
    n, table, count = None, None, 0    # the declared order, its flat table, ids read
    with path.open("rb") as f:
        for data in _token_blocks(f, path):
            if b"#" in data:
                data = re.sub(rb"#[^\n]*", b"", data)
            # numpy's parser reads a lone sign as 0 and, before numpy 2, stops at
            # a bad token with only a warning, so any other byte is refused up front.
            if data.translate(None, b"0123456789" + _WHITESPACE):
                token = next(t for t in data.split() if not t.isdigit())
                raise NotAGroup(f"{path}: malformed token {token.decode(errors='replace')!r}")
            if not data or data.isspace():    # numpy reads blank text as one 0
                continue
            entries = np.fromstring(data, dtype=np.int64, sep=" ")    # saturates, never wraps
            if n is None:
                n, entries = int(entries[0]), entries[1:]
                check_order(f"{path}:", n, cap)
                table = np.empty(n * n, dtype=ID_DTYPE)
            head = entries[:max(table.size - count, 0)]
            np.minimum(head, n, out=table[count:count + head.size])    # ids above n stay out of range
            count += entries.size
    if n is None:
        raise NotAGroup(f"{path}: no data")
    if n < 1 or count != n * n:
        raise NotAGroup(f"{path}: expected {n}*{n} entries after the order, got {count}")
    if table.max() >= n:                # an id above n was stored as n
        raise NotAGroup("table entry out of range")
    return _identity_first(table.reshape(n, n), label or path.name)


def _token_blocks(f, path):
    """The bytes of file ``f``, _BYTE_BLOCK at a time, each block cut after its
    last whole token: a token the cut splits is carried into the next block,
    and a comment still open at the cut is carried as its ``#`` alone."""
    carry = b""
    for block in iter(lambda: f.read(_BYTE_BLOCK), b""):
        data = carry + block
        comment = data.find(b"#", data.rfind(b"\n") + 1)
        if comment >= 0:
            data, carry = data[:comment], b"#"
        else:
            cut = 1 + max(map(data.rfind, _WHITESPACE))
            data, carry = data[:cut], data[cut:]
            if len(carry) > _BYTE_BLOCK:
                raise NotAGroup(f"{path}: malformed token of over {_BYTE_BLOCK} bytes")
        yield data
    yield carry


def write_cayley_table(G: GroupTable, path) -> None:
    """Write the canonical (identity at id 0) Cayley text format: the order,
    then one line per row of single-space-separated decimal ids, gathered 32
    rows at a time as names with their separators, NUL-padded to one width."""
    spaced, ended = (np.array([f"{v}{end}" for v in range(G.order)], dtype="S") for end in " \n")
    with _overwriting(path) as out:
        out.write(b"%d\n" % G.order)
        for lo in range(0, G.order, 32):
            block = spaced[rows := G.mult[lo:lo + 32]]
            block[:, -1] = ended[rows[:, -1]]
            out.write(block.tobytes().translate(None, b"\0"))


@contextmanager
def _overwriting(path):
    """The library's one writer: ``path`` written over in place, not truncated
    first (on ext4 that makes the next rewrite wait for the disk), so it keeps
    its inode, then cut to what was written unless it is a device or a pipe."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as out:
        try:
            yield out
        finally:
            if stat.S_ISREG(os.fstat(out.fileno()).st_mode):
                out.truncate()


def subgroup_generated(G: GroupTable, gens) -> SubgroupSet:
    """Smallest subgroup containing ``gens`` (empty set gives the trivial one).
    Only ids outside the closure so far are adjoined, each at least doubling
    it, so at most log2 n are adjoined however many ids are passed."""
    garr = _ids(G, np.asarray(list(gens), dtype=np.int64))
    mask = np.zeros(G.order, dtype=bool)
    mask[0] = True
    adjoined: list[int] = []
    while not mask[garr].all():
        adjoined.append(int(garr[np.argmin(mask[garr])]))
        _adjoin(G, mask, adjoined)
    return SubgroupSet.of(mask)


def _adjoin(G: GroupTable, mask: np.ndarray, gens: list[int]) -> None:
    """Grow ``mask``, the subgroup H of gens[:-1], in place to that of ``gens``:
    the cosets H * g^k, k < t, for g = gens[-1] and the least t > 0 with g^t in
    H, found by doubling, then right products by every generator from new layers."""
    powers, step = np.zeros(1, dtype=ID_DTYPE), gens[-1]
    while not mask[more := G.mult[powers, step]].any():     # g^(k + len(powers))
        powers, step = np.concatenate([powers, more]), G.mult[step, step]
    powers = np.concatenate([powers, more[:np.argmax(mask[more])]])
    new = G.mult[np.flatnonzero(mask)[:, None], powers[1:]].ravel()
    while new.size:
        mask[new] = True
        frontier = G.mult[new[:, None], gens].ravel()
        new = np.unique(frontier[~mask[frontier]])


def greedy_generating_sequence(G: GroupTable) -> list[int]:
    """Repeatedly adjoin the smallest element outside the closure so far."""
    return list(_greedy_walk(G))


def _greedy_walk(G: GroupTable, mask=None):
    """Yield the smallest id in ``mask`` (default: all of G) outside the closure
    of the identity under right multiplication by the ids yielded so far,
    until the closure holds the mask, at most log2 |mask| ids for a subgroup.
    One closure grows by :func:`_adjoin`, and only when the caller asks for
    the next id."""
    todo = np.ones(G.order, dtype=bool) if mask is None else mask
    closure = np.zeros(G.order, dtype=bool)
    closure[0] = True
    gens: list[int] = []
    while (todo & ~closure).any():
        gens.append(int(np.argmax(todo & ~closure)))
        yield gens[-1]
        _adjoin(G, closure, gens)


def center(G: GroupTable) -> SubgroupSet:
    """The x commuting with each generator of greedy_generating_sequence(G):
    n * |S| comparisons, and no pairing, which is built on the center."""
    def compute():
        gens = greedy_generating_sequence(G)
        return SubgroupSet.of((G.mult[:, gens] == G.mult[gens].T).all(axis=1))
    return G._memo("center", compute)


def centralizer(G: GroupTable, x: int) -> SubgroupSet:
    """All elements commuting with x; contains <x> and the center: the
    pairing row of xZ read back through the projection."""
    proj = central_quotient(G).projection
    return SubgroupSet.of(commutator_pairing(G)[proj[_ids(G, x)]][proj] == 0)


def commuting_table(G: GroupTable) -> np.ndarray:
    """[x, g] true iff x*g = g*x: an unmemoised view of the pairing no check reads."""
    proj, commutes = central_quotient(G).projection, commutator_pairing(G) == 0
    out = np.empty((G.order, G.order), dtype=bool)
    for lo in range(0, G.order, _ROW_BLOCK):
        np.take(commutes[proj[lo:lo + _ROW_BLOCK]], proj, axis=1, out=out[lo:lo + _ROW_BLOCK])
    return out


def _conjugates(G: GroupTable, ids, rows: slice = slice(None)) -> np.ndarray:
    """The conjugates of the ids h_i by the g in ``rows``, all of G by default:
    entry [g, i] is g^-1 * (h_i * g), so the products h_i * g are runs of
    whole rows and each output row reads the one row g^-1."""
    return G.mult[G.inv[rows, None], G.mult[ids, rows].T]


def _first_conjugator(G: GroupTable, candidates: list[np.ndarray],
                      K: SubgroupSet) -> tuple[int, int] | None:
    """(j, g) with g^-1 * H_j * g = K, where ``candidates[j]`` holds the
    members of H_j, or None; candidates of another order than K are skipped.
    The g are walked in ascending blocks of _ROW_BLOCK ids, and each H_j is
    conjugated over one block at a time, so the scan stops in the first block
    that holds a witness, at its first H_j with one and that H_j's smallest g
    there, and no gather exceeds _ROW_BLOCK * |K| ids."""
    same = [j for j, mem in enumerate(candidates) if mem.size == K.size]
    for lo in range(0, G.order, _ROW_BLOCK):
        rows = slice(lo, lo + _ROW_BLOCK)
        for j in same:
            hits = np.flatnonzero(K.mask[_conjugates(G, candidates[j], rows)].all(axis=1))
            if hits.size:
                return j, lo + int(hits[0])
    return None


def normalizer(G: GroupTable, H: SubgroupSet) -> SubgroupSet:
    """All g with g^-1 * H * g = H; contains H.  Only generators of H are
    conjugated: once theirs lie in H, g^-1 * H * g is H by its size."""
    if H.order != G.order:
        raise ValueError("subgroup mask length does not match the group order")
    gens = list(_greedy_walk(G, H.mask))
    return SubgroupSet.of(H.mask[_conjugates(G, gens)].all(axis=1))


def central_quotient(G: GroupTable) -> QuotientGroup:
    """G/Z(G), memoised and returned as is.  Each coset is labelled by its
    smallest member, the minimum of Z*g read along the rows z of the center,
    _ROW_BLOCK rows at a time, and its order is its members' order modulo Z."""
    def compute():
        mem = center(G).members()
        coset_min = np.arange(G.order, dtype=ID_DTYPE)        # the row of the identity
        for lo in range(0, mem.size, _ROW_BLOCK):
            np.minimum(coset_min, G.mult[mem[lo:lo + _ROW_BLOCK]].min(axis=0), out=coset_min)
        reps = np.unique(coset_min)
        return QuotientGroup(np.searchsorted(reps, coset_min).astype(ID_DTYPE), reps,
                             _orders_modulo(G, center(G).mask)[reps].astype(ID_DTYPE))
    return G._memo("central_quotient", compute)


def quotient_table(G: GroupTable) -> GroupTable:
    """G/Z(G) as its own GroupTable, memoised: the projected products of the
    coset representatives.  Only the checks that multiply in G/Z build it."""
    def compute():
        proj, reps, _ = central_quotient(G)
        qmult = _fill_rows((reps.size,) * 2, lambda r: proj[np.take(G.mult[reps[r]], reps, axis=1)])
        label = f"{G.label or 'G'}/{G.order // reps.size}"
        return GroupTable(qmult, proj[G.inv[reps]], label=label)
    return G._memo("quotient_table", compute)


def commutator_pairing(G: GroupTable) -> np.ndarray:
    """The pairing table, memoised: entry [aZ, bZ] is the commutator of the
    coset representatives, an id of G.  One gather, re-checked nowhere: in a
    group [a, b] depends only on aZ and bZ, is [b, a]^-1, is trivial on the
    diagonal and lies in G', and every table here is a group, proved by
    Light's test on load or by construction."""
    def compute():
        reps = central_quotient(G).coset_reps
        def block_of(rows):
            a = reps[rows]
            ab = np.take(G.mult[a], reps, axis=1)
            # the row of a^-1 * b^-1 at the column of a * b, one intp flat index
            # into G.mult: from n = 182 on, n^2 does not fit in int16
            flat = np.take(G.mult[G.inv[a]], G.inv[reps], axis=1) * np.intp(G.order)
            flat += ab
            return np.take(G.mult, flat)
        return _fill_rows((reps.size,) * 2, block_of)
    return G._memo("commutator_pairing", compute)


def commutator_subgroup(G: GroupTable) -> SubgroupSet:
    """G' = <[s, g] : s in S, g in G>, the pairing rows at the cosets of S =
    greedy_generating_sequence(G), as [s, g] depends only on sZ and gZ:
    that subgroup is normal, as [s, g]^h = [s, h]^-1 * [s, gh], and G is
    generated by S, all central modulo it."""
    def compute():
        gens = central_quotient(G).projection[greedy_generating_sequence(G)]
        return subgroup_generated(G, commutator_pairing(G)[gens].ravel())
    return G._memo("derived", compute)


def is_abelian(G: GroupTable) -> bool:
    return center(G).size == G.order


def power_map(G: GroupTable, x, k: int) -> np.ndarray:
    """Entrywise x^k (k >= 0) of an id array, by repeated squaring."""
    acc, base = np.zeros_like(x), np.asarray(x)
    while k:
        if k & 1:
            acc = G.mult[acc, base]
        base, k = G.mult[base, base], k >> 1
    return acc


def element_orders(G: GroupTable) -> np.ndarray:
    """Vector of element orders, read off :func:`_orders_modulo`."""
    return G._memo("element_orders", lambda: _orders_modulo(G, np.arange(G.order) == 0))


def _orders_modulo(G: GroupTable, one: np.ndarray) -> np.ndarray:
    """The order of xN for each x, N the normal subgroup of mask ``one``.  For
    each prime power q^a exactly dividing |G|, y = x^(|G|/q^a) has the q-part
    of ord(xN) as the order of yN, found by at most a steps y -> y^q."""
    n = m = G.order
    orders = np.ones(n, dtype=np.int64)
    while m > 1:
        q, qa = smallest_prime_factor(m), 1
        while m % q == 0:
            m, qa = m // q, qa * q
        y = power_map(G, np.arange(n), n // qa)
        while not (inside := one[y]).all():
            orders[~inside] *= q
            y = power_map(G, y, q)
    return orders


def is_elementary_abelian(G: GroupTable) -> int | None:
    """The prime p when G is abelian with all non-identity orders p, else None.

    The trivial group returns None by convention.
    """
    if G.order == 1 or not is_abelian(G):
        return None
    distinct = np.unique(element_orders(G)[1:])
    if distinct.size != 1:
        return None
    p = int(distinct[0])
    return p if is_prime(p) else None


def direct_product(G: GroupTable, H: GroupTable, *, cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """G x H, the central product amalgamating the identities: the pair (g, h)
    gets id g*|H| + h."""
    label = f"{G.label}x{H.label}" if G.label and H.label else ""
    return central_product(G, H, 0, 0, cap=cap).relabeled(label)


def _amalgamation_pair(G: GroupTable, H: GroupTable) -> tuple[int, int]:
    """The smallest central elements of order p in G and in H, p the smallest
    prime dividing gcd(|Z(G)|, |Z(H)|): by Cauchy's theorem those primes are
    the prime orders that central elements of both groups have."""
    shared = math.gcd(center(G).size, center(H).size)
    if shared == 1:
        raise BadParameter("centralproduct: factors share no central prime order")
    p = smallest_prime_factor(shared)
    def least_of_order_p(T: GroupTable) -> int:
        Z = center(T).members()[1:]
        return int(Z[np.flatnonzero(power_map(T, Z, p) == 0)[0]])
    return least_of_order_p(G), least_of_order_p(H)


def central_product(G: GroupTable, H: GroupTable, zg: int, zh: int, *,
                    cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """(G x H) / <(zg, zh^-1)> for central zg, zh of one prime order p, or for
    the identity pair zg = zh = 0, which amalgamates nothing: G x H, p = 1.

    The result has order |G|*|H|/p and amalgamates the two chosen central
    subgroups.  The cosets are numbered in the order of their smallest G x H
    ids g*|H| + h: the coset of (g, h) is ``rank(g')*|H| + h * zh^-i(g)``,
    where i(g) is the shift that makes g' = g * zg^i smallest and rank counts
    those g' in order.  So the block of the reps a and b is rank(c')*|H| plus
    the rows h1 * zh^-i(c) of H's table, c = a*b: int16 ids, all below n."""
    og = 1                      # the identity pair needs no center or orders
    if (zg, zh) != (0, 0):
        if zg not in center(G):
            raise BadParameter(f"element {zg} is not central in {G.label or 'G'}")
        if zh not in center(H):
            raise BadParameter(f"element {zh} is not central in {H.label or 'H'}")
        og, oh = G.element_order(zg), H.element_order(zh)
        if og != oh:
            raise BadParameter(f"central element orders differ: {og} vs {oh}")
        if not is_prime(og):
            raise BadParameter(f"amalgamated order {og} is not prime")
    n = G.order * H.order // og
    check_order("central product" if og > 1 else "direct product", n, cap)
    moved = G.mult[[G.power(zg, i) for i in range(og)]]      # [i, g] = g * zg^i, zg central
    shift, least = moved.argmin(axis=0), moved.min(axis=0)    # i(g) and g'
    reps = np.unique(least)
    base = (np.searchsorted(reps, least) * H.order).astype(ID_DTYPE)    # rank(g')*|H|
    turned = H.mult[[H.power(zh, -i) for i in range(og)]]    # [i, h] = h * zh^-i
    mult = np.empty((n, n), dtype=ID_DTYPE)
    step = -(-_ROW_BLOCK // H.order)            # representatives a per block of rows
    for lo in range(0, reps.size, step):
        c = np.take(G.mult[reps[lo:lo + step]], reps, axis=1)
        rows = np.take(turned, np.take(shift, c), axis=0).transpose(0, 2, 1)    # [a, h1, b]
        block = mult[lo * H.order:(lo + step) * H.order].reshape(-1, H.order, n)
        # whole rows of H into the table; "clip" alters no id and, unlike "raise",
        # gathers into ``out`` without a copy of it
        np.take(H.mult, rows, axis=0, out=block.reshape(rows.shape + (-1,)), mode="clip")
        block += np.repeat(np.take(base, c), H.order, axis=1)[:, None]
    g = G.inv[np.repeat(reps, H.order)]         # (a, h)^-1 = (a^-1, h^-1)
    label = f"{G.label}o{H.label}" if G.label and H.label else ""
    return GroupTable(mult, base[g] + turned[shift[g], np.tile(H.inv, reps.size)], label=label)

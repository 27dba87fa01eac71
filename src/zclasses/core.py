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

Commutation is read off one table, the commutator pairing on G/Z, since
[x, y] depends only on xZ and yZ; the center it is built on comes from
generators.

Conventions used consistently throughout the package:

* conjugation is ``x^g = g^-1 * x * g``
* commutators are ``[a, b] = a^-1 * b^-1 * a * b``
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import BadParameter, NotAGroup, OrderExceedsCap

DEFAULT_ORDER_CAP = 4096

# Element ids are int16, and no group is larger than its largest value: every
# id and the order itself fit, so read_cayley_table can store n as the one
# out-of-range id.  Arithmetic on ids widens first (n^2 and the ids of G x H
# do not fit) and narrows only when ids are stored.
ID_DTYPE = np.int16
MAX_ORDER = int(np.iinfo(ID_DTYPE).max)    # 32767

# Rows per block wherever an n x n table is built or checked: at the cap a
# block of ids is 2 MB, so no step needs an n x n temporary beside its result.
_ROW_BLOCK = 256
# Bytes of whole lines read_cayley_table parses at a time.
_LINE_BLOCK = 1 << 20


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
    read-only arrays that hold no reference back to it, so no reference
    cycle keeps a group alive once its last outside reference is gone.  Ids
    are stored as ID_DTYPE (int16), so the order is at most MAX_ORDER
    (32767).  An int16 table is kept and frozen, not copied: the caller must
    not write to it afterwards.  A wider table is narrowed only when every
    entry is an id.
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
        is, so each array in it, or in its tuples and lists, is made read-only."""
        if key not in self._cache:
            self._cache[key] = _read_only(compute())
        return self._cache[key]

    def __repr__(self) -> str:
        name = self.label or "unnamed"
        return f"GroupTable({name!r}, order={self.order})"


def _read_only(value):
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, (tuple, list)):
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


def _ids(G: GroupTable, ids):
    """``ids``, one element id of G or an array of them, once each lies in
    0..n-1: numpy would read a negative id from the end of a table."""
    arr = np.asarray(ids)
    if arr.size and (arr.min() < 0 or arr.max() >= G.order):
        raise ValueError("element id out of range")
    return ids


class SubgroupSet:
    """A subgroup of a GroupTable as a boolean membership mask.

    Immutable and hashable; equality means the same owning group (by
    identity) and the same member set.  Closure is not re-verified on
    construction -- call :meth:`validate` to check the invariants.
    """

    __slots__ = ("group", "mask", "size")

    def __init__(self, group: GroupTable, mask):
        mask = np.array(mask, dtype=bool)
        if mask.shape != (group.order,):
            raise ValueError("membership mask length does not match the group order")
        mask.setflags(write=False)
        self.group = group
        self.mask = mask
        self.size = int(mask.sum())

    @classmethod
    def from_members(cls, group: GroupTable, members) -> "SubgroupSet":
        mask = np.zeros(group.order, dtype=bool)
        mask[_ids(group, np.asarray(list(members), dtype=np.int64))] = True
        return cls(group, mask)

    @property
    def index(self) -> int:
        return self.group.order // self.size

    def members(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def __contains__(self, x: int) -> bool:
        return bool(self.mask[_ids(self.group, x)])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SubgroupSet)
            and self.group is other.group
            and np.array_equal(self.mask, other.mask)
        )

    def __hash__(self) -> int:
        return hash((id(self.group), self.mask.tobytes()))

    def is_subset_of(self, other: "SubgroupSet") -> bool:
        return not np.any(self.mask & ~other.mask)

    def conjugate_by(self, g: int) -> "SubgroupSet":
        """g^-1 * H * g as a new SubgroupSet."""
        m = self.group.mult
        moved = m[m[self.group.inv[_ids(self.group, g)], self.members()], g]
        return SubgroupSet.from_members(self.group, moved)

    def validate(self) -> None:
        """Check identity membership, closure, and Lagrange divisibility."""
        if not self.mask[0]:
            raise NotAGroup("subgroup does not contain the identity")
        mem = self.members()
        if not self.mask[self.group.mult[np.ix_(mem, mem)]].all():
            raise NotAGroup("subgroup is not closed under multiplication")
        if not self.mask[self.group.inv[mem]].all():
            raise NotAGroup("subgroup is not closed under inversion")
        if self.group.order % self.size:
            raise NotAGroup("subgroup size does not divide the group order")

    def __repr__(self) -> str:
        return f"SubgroupSet(size={self.size} of {self.group!r})"


class QuotientGroup(NamedTuple):
    """The central quotient G/Z(G): its own GroupTable plus the projection
    data, one read-only value memoised by :func:`central_quotient`.

    ``projection[a]`` is the quotient id of the coset a*Z; ``coset_reps[q]``
    is the smallest parent element in coset q (so rep 0 is the identity).
    """

    table: GroupTable
    projection: np.ndarray
    coset_reps: np.ndarray


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
    id 0.  Blocks of whole lines are parsed straight into the int16 table, so
    neither the whole text nor a wide parse of all n*n ids is ever held.
    Raises :class:`OrderExceedsCap` when the declared order is above ``cap``
    (or MAX_ORDER), before the table exists, and :class:`NotAGroup` naming
    the path for a malformed file.
    """
    path = Path(path)
    n, table, count = None, None, 0    # the declared order, its flat table, ids read
    with path.open("rb") as f:
        for lines in iter(lambda: f.readlines(_LINE_BLOCK), []):
            data = b"".join(lines)
            if b"#" in data:
                data = re.sub(rb"#[^\n]*", b"", data)
            # numpy's parser reads a lone sign as 0 and, before numpy 2, stops at
            # a bad token with only a warning, so any other byte is refused up front.
            if data.translate(None, b"0123456789 \t\n\v\f\r"):
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


def write_cayley_table(G: GroupTable, path) -> None:
    """Write the canonical (identity at id 0) Cayley text format: the order,
    then one line per row of single-space-separated decimal ids."""
    names = np.array([str(v) for v in range(G.order)], dtype=object)
    with Path(path).open("w") as out:           # one row's strings at a time
        out.write(f"{G.order}\n")
        out.writelines(" ".join(names[row].tolist()) + "\n" for row in G.mult)


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
    return SubgroupSet(G, mask)


def _adjoin(G: GroupTable, mask: np.ndarray, gens: list[int]) -> None:
    """Grow ``mask``, the subgroup generated by gens[:-1], in place to the one
    generated by all of ``gens``: right products by the new generator from
    every member, then by every generator from each new layer."""
    frontier = G.mult[np.flatnonzero(mask), gens[-1]]
    while frontier.size:
        new = np.unique(frontier[~mask[frontier]])
        mask[new] = True
        frontier = G.mult[new[:, None], gens].ravel()


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
        return (G.mult[:, gens] == G.mult[gens].T).all(axis=1)
    return SubgroupSet(G, G._memo("center", compute))


def centralizer(G: GroupTable, x: int) -> SubgroupSet:
    """All elements commuting with x; contains <x> and the center: the
    pairing row of xZ read back through the projection."""
    proj = central_quotient(G).projection
    return SubgroupSet(G, commutator_pairing(G)[proj[_ids(G, x)]][proj] == 0)


def commuting_table(G: GroupTable) -> np.ndarray:
    """[x, g] true iff x*g = g*x: an unmemoised view of the pairing no check reads."""
    proj, commutes = central_quotient(G).projection, commutator_pairing(G) == 0
    out = np.empty((G.order, G.order), dtype=bool)
    for lo in range(0, G.order, _ROW_BLOCK):
        np.take(commutes[proj[lo:lo + _ROW_BLOCK]], proj, axis=1, out=out[lo:lo + _ROW_BLOCK])
    return out


def _conjugates(G: GroupTable, ids) -> np.ndarray:
    """Every conjugate of the ids h_i: entry [g, i] is g^-1 * (h_i * g), so the
    products h_i * g are whole rows and each output row reads the one row g^-1."""
    return G.mult[G.inv[:, None], G.mult[ids].T]


def normalizer(G: GroupTable, H: SubgroupSet) -> SubgroupSet:
    """All g with g^-1 * H * g = H; contains H.  Only generators of H are
    conjugated: once theirs lie in H, g^-1 * H * g is H by its size."""
    if H.group is not G:
        raise ValueError("subgroup belongs to a different group")
    gens = list(_greedy_walk(G, H.mask))
    return SubgroupSet(G, H.mask[_conjugates(G, gens)].all(axis=1))


def commutator_values(G: GroupTable, rows, cols) -> np.ndarray:
    """Commutators of a block of pairs, not memoised: entry [i, j] is the id of
    [rows[i], cols[j]], read at one flat index by rows.  The index is int32:
    n^2 < 2^31, but from n = 182 on it does not fit the int16 ids."""
    rows, cols = np.asarray(rows), np.asarray(cols)
    def block_of(block):
        a = rows[block, None]                   # the row of a^-1 * b^-1 ...
        flat = np.multiply(G.mult[G.inv[a], G.inv[cols]], G.order, dtype=np.int32)
        flat += G.mult[a, cols]                 # ... at the column of a * b
        return G.mult.ravel()[flat]
    return _fill_rows((rows.size, cols.size), block_of)


def commutator_subgroup(G: GroupTable) -> SubgroupSet:
    """G' = <[s, g] : s in S, g in G> for S = greedy_generating_sequence(G):
    that subgroup is normal, as [s, g]^h = [s, h]^-1 * [s, gh], and S is
    central modulo it.  Gathers |S| * n commutators, |S| <= log2(n), not n^2."""
    def compute():
        values = commutator_values(G, greedy_generating_sequence(G), np.arange(G.order))
        return subgroup_generated(G, values.ravel()).mask
    return SubgroupSet(G, G._memo("derived", compute))


def central_quotient(G: GroupTable) -> QuotientGroup:
    """G/Z(G), memoised and returned as is.  Each coset is labelled by its
    smallest member, the minimum of Z*g read along the rows z of the center,
    _ROW_BLOCK rows at a time."""
    def compute():
        mem = center(G).members()
        coset_min = np.arange(G.order, dtype=ID_DTYPE)        # the row of the identity
        for lo in range(0, mem.size, _ROW_BLOCK):
            np.minimum(coset_min, G.mult[mem[lo:lo + _ROW_BLOCK]].min(axis=0), out=coset_min)
        reps = np.unique(coset_min)
        proj = np.searchsorted(reps, coset_min).astype(ID_DTYPE)
        qmult = _fill_rows((reps.size,) * 2, lambda rows: proj[G.mult[reps[rows, None], reps]])
        label = f"{G.label}/{mem.size}" if G.label else f"G/{mem.size}"
        return QuotientGroup(GroupTable(qmult, proj[G.inv[reps]], label=label), proj, reps)
    return G._memo("central_quotient", compute)


def commutator_pairing(G: GroupTable) -> np.ndarray:
    """The pairing table, memoised: entry [aZ, bZ] is the commutator of the
    coset representatives, an id of G.  One gather, re-checked nowhere: in a
    group [a, b] depends only on aZ and bZ, is [b, a]^-1, is trivial on the
    diagonal and lies in G', and every table here is a group, proved by
    Light's test on load or by construction."""
    def compute():
        reps = central_quotient(G).coset_reps
        return commutator_values(G, reps, reps)
    return G._memo("commutator_pairing", compute)


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
    """Vector of element orders.  For each prime power q^a exactly dividing
    |G|, y = x^(|G|/q^a) has the q-part of ord(x) as its order, found by at
    most a steps y -> y^q."""
    def compute():
        n = G.order
        orders = np.ones(n, dtype=np.int64)
        m = n
        while m > 1:
            q, qa = smallest_prime_factor(m), 1
            while m % q == 0:
                m, qa = m // q, qa * q
            y = power_map(G, np.arange(n), n // qa)
            while y.any():
                orders[y != 0] *= q
                y = power_map(G, y, q)
        return orders
    return G._memo("element_orders", compute)


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
    """Componentwise product; pair (g, h) gets id g*|H| + h.  Every id and
    partial sum stays below n <= MAX_ORDER, so the blocks are int16."""
    n = G.order * H.order
    check_order("direct product", n, cap)
    g, h = np.divmod(np.arange(n, dtype=np.int32), H.order)
    def block_of(rows):
        block = (G.mult[g[rows]] * H.order)[:, :, None] + H.mult[h[rows]][:, None, :]
        return block.reshape(-1, n)
    label = f"{G.label}x{H.label}" if G.label and H.label else ""
    return GroupTable(_fill_rows((n, n), block_of), G.inv[g] * H.order + H.inv[h], label=label)


def central_product(G: GroupTable, H: GroupTable, zg: int, zh: int, *,
                    cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """(G x H) / <(zg, zh^-1)> for central zg, zh of one prime order p.

    The result has order |G|*|H|/p and amalgamates the two chosen central
    subgroups.  It is built on the quotient directly, never on G x H: the
    coset of the pair (g, h), which has id g*|H| + h in G x H, is labelled
    by its smallest id ``(g * zg^i)*|H| + h * zh^-i`` over the p shifts i,
    and the cosets are numbered in the order of those labels.  The G x H ids
    reach p*n, past MAX_ORDER, so they are computed in int32.
    """
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
    check_order("central product", n, cap)
    coset_min = np.full((G.order, H.order), G.order * H.order, dtype=np.int32)
    gi, hi = 0, 0
    for _ in range(og):
        shifted = np.multiply(G.mult[:, gi], H.order, dtype=np.int32)[:, None] + H.mult[:, hi]
        np.minimum(coset_min, shifted, out=coset_min)
        gi, hi = G.mul(gi, zg), H.mul(hi, int(H.inv[zh]))
    reps = np.unique(coset_min)
    proj = np.searchsorted(reps, coset_min.ravel()).astype(ID_DTYPE)
    gr, hr = np.divmod(reps, H.order)
    def block_of(rows):                         # the G x H id of the product of two reps
        block = np.multiply(G.mult[gr[rows, None], gr], H.order, dtype=np.int32)
        block += H.mult[hr[rows, None], hr]
        return proj[block]
    mult = _fill_rows((n, n), block_of)
    label = f"{G.label}o{H.label}" if G.label and H.label else ""
    inv = np.multiply(G.inv[gr], H.order, dtype=np.int32) + H.inv[hr]
    return GroupTable(mult, proj[inv], label=label)


def are_subgroups_conjugate(G: GroupTable, H: SubgroupSet, K: SubgroupSet) -> int | None:
    """Some g with g^-1 * H * g = K, or None.  Scans g in ascending id order."""
    if H.group is not G or K.group is not G:
        raise ValueError("subgroups belong to a different group")
    if H.size != K.size:
        return None
    hits = np.flatnonzero(K.mask[_conjugates(G, H.members())].all(axis=1))
    return int(hits[0]) if hits.size else None

"""Text mini-language for describing group constructions.

Grammar (whitespace-insensitive, parameters positional or named)::

    spec := name '(' args ')'
          | 'product(' spec ',' spec ')'
          | 'centralproduct(' spec ',' spec ')'
          | 'file:' path

Examples: ``extraspecial(p=3,n=2,variant=plus)``, ``heisenberg(5)``,
``dihedral(16)``, ``abelian(3,9)``, ``product(heisenberg(3),abelian(3))``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

from . import construct
from .core import DEFAULT_ORDER_CAP, GroupTable, center, central_product, check_order, \
    direct_product, element_orders, is_prime, read_cayley_table
from .errors import BadParameter, SpecSyntaxError, UnknownConstructor


class _Kind(NamedTuple):
    build: Callable               # (*values, cap) -> GroupTable
    params: tuple | None          # parameter names; None takes any number of integers
    order: Callable               # (*values) -> order of the group built
    defaults: dict = {}


# Every named constructor.  The order formula is checked against the cap
# before the constructor runs, so it must not fail or stall on parameters
# the constructor refuses: n is clamped to 0..32, as any p the constructor
# accepts makes p^65 exceed every cap a dense table can reach.
_KINDS = {
    "abelian": _Kind(lambda *orders, cap: construct.abelian(orders, cap=cap), None,
                     lambda *orders: math.prod(orders)),
    "cyclic": _Kind(lambda n, cap: construct.cyclic(n), ("n",), lambda n: n),
    "dihedral": _Kind(lambda order, cap: construct.dihedral(order), ("order",),
                      lambda order: order),
    "quaternion": _Kind(lambda order, cap: construct.quaternion(order), ("order",),
                        lambda order: order),
    "heisenberg": _Kind(lambda p, cap: construct.heisenberg(p), ("p",), lambda p: p ** 3),
    "modular_p3": _Kind(lambda p, cap: construct.modular_p3(p), ("p",), lambda p: p ** 3),
    "extraspecial": _Kind(construct.extraspecial, ("p", "n", "variant"),
                          lambda p, n, variant: p ** (1 + 2 * min(max(n, 0), 32)),
                          {"variant": "plus"}),
}
_PRODUCT_KINDS = {"product": "direct_product", "centralproduct": "central_product"}


@dataclass
class GroupSpec:
    """Parse tree of one construction expression."""

    kind: str
    args: list = field(default_factory=list)          # positional values
    kwargs: dict = field(default_factory=dict)        # named values
    children: list["GroupSpec"] = field(default_factory=list)
    path: str | None = None                           # cayley_file only

    def text(self) -> str:
        """Canonical form: lowercase, no spaces, positional children."""
        if self.kind == "cayley_file":
            return f"file:{self.path}"
        if self.kind in ("direct_product", "central_product"):
            name = "product" if self.kind == "direct_product" else "centralproduct"
            return f"{name}({self.children[0].text()},{self.children[1].text()})"
        parts = [str(a) for a in self.args]
        parts.extend(f"{k}={v}" for k, v in self.kwargs.items())
        return f"{self.kind}({','.join(parts)})"


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise SpecSyntaxError(self.pos, message)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def name(self) -> str:
        self.skip_ws()
        m = re.match(r"[A-Za-z_][A-Za-z_0-9]*", self.text[self.pos:])
        if not m:
            self.error("expected a constructor name")
        self.pos += m.end()
        return m.group(0).lower()

    def spec(self) -> GroupSpec:
        self.skip_ws()
        if self.text[self.pos:self.pos + 5].lower() == "file:":
            self.pos += 5
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos] not in ",)":
                self.pos += 1
            path = self.text[start:self.pos].strip()
            if not path:
                self.error("expected a file path after 'file:'")
            return GroupSpec(kind="cayley_file", path=path)
        name = self.name()
        if name in _PRODUCT_KINDS:
            self.expect("(")
            left = self.spec()
            self.expect(",")
            right = self.spec()
            self.expect(")")
            return GroupSpec(kind=_PRODUCT_KINDS[name], children=[left, right])
        if name not in _KINDS:
            raise UnknownConstructor(f"unknown constructor {name!r}")
        self.expect("(")
        args: list = []
        kwargs: dict = {}
        if self.peek() != ")":
            while True:
                args_len = self.pos
                token = self.value_or_pair()
                if isinstance(token, tuple):
                    key, val = token
                    if key in kwargs:
                        self.pos = args_len
                        self.error(f"duplicate parameter {key!r}")
                    kwargs[key] = val
                else:
                    if kwargs:
                        self.pos = args_len
                        self.error("positional parameter after a named one")
                    args.append(token)
                if self.peek() == ",":
                    self.expect(",")
                    continue
                break
        self.expect(")")
        return GroupSpec(kind=name, args=args, kwargs=kwargs)

    def value_or_pair(self):
        self.skip_ws()
        m = re.match(r"[A-Za-z_][A-Za-z_0-9]*\s*=", self.text[self.pos:])
        if m:
            key = m.group(0)[:-1].strip().lower()
            self.pos += m.end()
            return key, self.value()
        return self.value()

    def value(self):
        self.skip_ws()
        m = re.match(r"-?[0-9]+", self.text[self.pos:])
        if m:
            try:
                value = int(m.group(0))
            except ValueError:          # past the interpreter's limit on digits
                self.error(f"integer literal of {m.end()} characters is too long")
            self.pos += m.end()
            return value
        m = re.match(r"[A-Za-z_][A-Za-z_0-9]*", self.text[self.pos:])
        if m:
            self.pos += m.end()
            return m.group(0).lower()
        self.error("expected a number or identifier")


def parse_spec(text: str) -> GroupSpec:
    """Parse one construction expression; errors carry the source position."""
    parser = _Parser(text)
    spec = parser.spec()
    parser.skip_ws()
    if parser.pos != len(parser.text):
        parser.error("trailing input after the spec")
    return spec


def _bind(spec: GroupSpec, kind: _Kind) -> list:
    """The spec's parameter values in the order of ``kind.params``."""
    if kind.params is None:
        if spec.kwargs:
            raise BadParameter(f"{spec.kind}: parameters are positional orders")
        if not all(isinstance(a, int) for a in spec.args):
            raise BadParameter(f"{spec.kind}: orders must be integers")
        return list(spec.args)
    extra = set(spec.kwargs) - set(kind.params)
    if extra:
        raise BadParameter(f"{spec.kind}: unknown parameter(s) {sorted(extra)}")
    if len(spec.args) > len(kind.params):
        raise BadParameter(f"{spec.kind}: expected at most {len(kind.params)} parameters")
    values = []
    for position, name in enumerate(kind.params):
        if name in spec.kwargs:
            v = spec.kwargs[name]
        elif position < len(spec.args):
            v = spec.args[position]
        elif name in kind.defaults:
            v = kind.defaults[name]
        else:
            raise BadParameter(f"{spec.kind}: missing parameter {name!r}")
        wanted = type(kind.defaults.get(name, 0))
        if not isinstance(v, wanted):
            raise BadParameter(f"{spec.kind}: parameter {name!r} must be "
                               f"{'an integer' if wanted is int else 'a word'}, got {v!r}")
        values.append(v)
    return values


def build_group(spec: GroupSpec | str, *, cap: int = DEFAULT_ORDER_CAP,
                base_dir=None) -> GroupTable:
    """Construct the group a spec describes; the label is the canonical text.

    ``base_dir`` resolves relative ``file:`` paths (defaults to the working
    directory).  ``cap`` bounds every construction, ``file:`` tables included.
    """
    if isinstance(spec, str):
        spec = parse_spec(spec)
    return _build_from_spec(spec, cap=cap, base_dir=base_dir)


def _build_from_spec(spec: GroupSpec, *, cap: int, base_dir) -> GroupTable:
    if spec.kind == "cayley_file":
        path = Path(spec.path)
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        return read_cayley_table(path, label=spec.text(), cap=cap)
    if spec.kind in ("direct_product", "central_product"):
        left = _build_from_spec(spec.children[0], cap=cap, base_dir=base_dir)
        right = _build_from_spec(spec.children[1], cap=cap, base_dir=base_dir)
        if spec.kind == "direct_product":
            out = direct_product(left, right, cap=cap)
        else:
            out = central_product(left, right,
                                  *_amalgamation_pair(left, right), cap=cap)
        return out.relabeled(spec.text())
    kind = _KINDS.get(spec.kind)
    if kind is None:
        raise UnknownConstructor(f"unknown construction kind {spec.kind!r}")
    values = _bind(spec, kind)
    check_order(spec.kind, kind.order(*values), cap)
    return kind.build(*values, cap=cap).relabeled(spec.text())


def _amalgamation_pair(G: GroupTable, H: GroupTable) -> tuple[int, int]:
    """Canonical central elements for the spec form of a central product:
    the smallest central elements of the smallest shared prime order."""
    def prime_central(T: GroupTable) -> dict[int, int]:
        out: dict[int, int] = {}
        orders = element_orders(T)
        for z in center(T).members()[1:]:
            if is_prime(int(orders[z])):
                out.setdefault(int(orders[z]), int(z))
        return out

    cg, ch = prime_central(G), prime_central(H)
    shared = sorted(set(cg) & set(ch))
    if not shared:
        raise BadParameter("centralproduct: factors share no central prime order")
    p = shared[0]
    return cg[p], ch[p]

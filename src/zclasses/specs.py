"""Text mini-language for describing group constructions.

Grammar (whitespace-insensitive; each parameter given once, by place or name)::

    spec := name '(' args ')'
          | 'product(' spec ',' spec ')'
          | 'centralproduct(' spec ',' spec ')'
          | 'file:' path

A spec's parameters are its constructor's own names, order and defaults
(see ``help(zclasses.extraspecial)``).  ``cap`` is never a spec parameter:
``build_group(cap=)`` bounds every build.

Examples: ``extraspecial(p=3,n=2,variant=plus)``, ``heisenberg(5)``,
``dihedral(16)``, ``abelian(3,9)``, ``product(heisenberg(3),abelian(3))``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from inspect import BoundArguments, Parameter, signature
from pathlib import Path
from typing import Callable

from . import construct
from .core import DEFAULT_ORDER_CAP, GroupTable, _amalgamation_pair, central_product, \
    direct_product, read_cayley_table
from .errors import BadParameter, SpecSyntaxError, UnknownConstructor


_KINDS = {    # abelian takes its orders one by one, as a spec gives them
    "abelian": lambda *orders, cap=DEFAULT_ORDER_CAP: construct.abelian(orders, cap=cap),
    "cyclic": construct.cyclic,
    "dihedral": construct.dihedral,
    "quaternion": construct.quaternion,
    "heisenberg": construct.heisenberg,
    "modular_p3": construct.modular_p3,
    "extraspecial": construct.extraspecial,
}
_PRODUCT_KINDS = {"product": "direct_product", "centralproduct": "central_product"}
_PRODUCT_NAMES = {kind: name for name, kind in _PRODUCT_KINDS.items()}


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
        if self.kind in _PRODUCT_NAMES:
            left, right = (child.text() for child in self.children)
            return f"{_PRODUCT_NAMES[self.kind]}({left},{right})"
        parts = [str(a) for a in self.args]
        parts.extend(f"{k}={v}" for k, v in self.kwargs.items())
        return f"{self.kind}({','.join(parts)})"


# After optional whitespace, one token: a name, which a parameter's '=' or a
# file path's ':' may follow, the path running to the next ',' or ')'; an
# integer; or any other one character, "" at the end of the text.
_TOKEN = re.compile(r"\s*(?P<token>(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
                    r"(?:(?P<eq>\s*=)|:(?P<path>[^,)]*))?|(?P<int>-?[0-9]+)|.?)")


def parse_spec(text: str) -> GroupSpec:
    """Parse one construction expression; errors carry the source position."""
    spec, pos = _spec(text, 0)
    m = _TOKEN.match(text, pos)
    if m["token"]:
        raise SpecSyntaxError(m.start("token"), "trailing input after the spec")
    return spec


def _expect(text: str, pos: int, ch: str) -> int:
    """The position after the one-character token ``ch``, which must come next."""
    m = _TOKEN.match(text, pos)
    if m["token"] != ch:
        raise SpecSyntaxError(m.start("token"), f"expected {ch!r}")
    return m.end()


def _spec(text: str, pos: int) -> tuple[GroupSpec, int]:
    """The spec that starts at ``pos``, and the position after it."""
    m = _TOKEN.match(text, pos)
    name = (m["name"] or "").lower()
    if name == "file" and m["path"] is not None:
        path = m["path"].strip()
        if not path:
            raise SpecSyntaxError(m.end(), "expected a file path after 'file:'")
        return GroupSpec(kind="cayley_file", path=path), m.end()
    if not name:
        raise SpecSyntaxError(m.start("token"), "expected a constructor name")
    if name not in _KINDS and name not in _PRODUCT_KINDS:
        raise UnknownConstructor(f"unknown constructor {name!r}")
    pos = _expect(text, m.end("name"), "(")
    if name in _PRODUCT_KINDS:
        left, pos = _spec(text, pos)
        right, pos = _spec(text, _expect(text, pos, ","))
        return GroupSpec(kind=_PRODUCT_KINDS[name], children=[left, right]), \
            _expect(text, pos, ")")
    args, kwargs = [], {}
    if _TOKEN.match(text, pos)["token"] != ")":
        while True:
            # the errors about a parameter's place point before its spaces
            param = _TOKEN.match(text, pos)
            key = param["name"].lower() if param["eq"] else None
            value, pos = _value(text, param.end() if key else pos)
            if key in kwargs:
                raise SpecSyntaxError(param.start(), f"duplicate parameter {key!r}")
            if key:
                kwargs[key] = value
            elif kwargs:
                raise SpecSyntaxError(param.start(), "positional parameter after a named one")
            else:
                args.append(value)
            m = _TOKEN.match(text, pos)
            if m["token"] != ",":
                break
            pos = m.end()
    return GroupSpec(kind=name, args=args, kwargs=kwargs), _expect(text, pos, ")")


def _value(text: str, pos: int) -> tuple[int | str, int]:
    """The integer or lowercased word at ``pos``, and the position after it."""
    m = _TOKEN.match(text, pos)
    if m["int"]:
        try:
            return int(m["int"]), m.end()
        except ValueError:          # past the interpreter's limit on digits
            raise SpecSyntaxError(m.start("int"), f"integer literal of "
                                  f"{len(m['int'])} characters is too long") from None
    if m["name"]:
        return m["name"].lower(), m.end("name")
    raise SpecSyntaxError(m.start("token"), "expected a number or identifier")


def _bind(spec: GroupSpec, build: Callable) -> BoundArguments:
    """The spec's values bound to the parameters of ``build``, its kind's
    constructor, that a call may give by place or by name."""
    sig = signature(build)
    params = sig.parameters
    for name in spec.kwargs:
        if name not in params or params[name].kind is not Parameter.POSITIONAL_OR_KEYWORD:
            raise BadParameter(f"{spec.kind}: unknown parameter {name!r}")
    try:
        bound = sig.bind(*spec.args, **spec.kwargs)
    except TypeError as err:
        raise BadParameter(f"{spec.kind}: {err}") from None
    for name, value in bound.arguments.items():
        word = isinstance(params[name].default, str)
        for v in value if params[name].kind is Parameter.VAR_POSITIONAL else [value]:
            if not isinstance(v, str if word else int):
                raise BadParameter(f"{spec.kind}: parameter {name!r} must be "
                                   f"{'a word' if word else 'an integer'}, got {v!r}")
    return bound


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
    if spec.kind in _PRODUCT_NAMES:
        left = _build_from_spec(spec.children[0], cap=cap, base_dir=base_dir)
        right = _build_from_spec(spec.children[1], cap=cap, base_dir=base_dir)
        product = direct_product(left, right, cap=cap) if spec.kind == "direct_product" \
            else central_product(left, right, *_amalgamation_pair(left, right), cap=cap)
        return product.relabeled(spec.text())
    build = _KINDS.get(spec.kind)
    if build is None:
        raise UnknownConstructor(f"unknown construction kind {spec.kind!r}")
    bound = _bind(spec, build)
    return build(*bound.args, **bound.kwargs, cap=cap).relabeled(spec.text())


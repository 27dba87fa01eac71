import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import zclasses as zc
from zclasses.errors import BadParameter, GroupError, OrderExceedsCap, SpecSyntaxError, \
    UnknownConstructor
from zclasses.cli import main
from zclasses.specs import build_group, parse_spec

from oracles import naive_element_order


def test_parse_simple():
    spec = parse_spec("heisenberg(3)")
    assert spec.kind == "heisenberg" and spec.args == [3]


def test_parse_nested_product():
    spec = parse_spec("product(dihedral(8),abelian(2))")
    assert spec.kind == "direct_product"
    assert [c.kind for c in spec.children] == ["dihedral", "abelian"]


def test_parse_named_args():
    spec = parse_spec("extraspecial(p=2,n=2,variant=minus)")
    assert spec.kwargs == {"p": 2, "n": 2, "variant": "minus"}


def test_parse_whitespace_insensitive():
    a = parse_spec("  extraspecial ( p = 3 , n = 2 , variant = plus ) ")
    b = parse_spec("extraspecial(p=3,n=2,variant=plus)")
    assert a == b


def test_parse_file_spec():
    spec = parse_spec("file:tables/s3.cayley")
    assert spec.kind == "cayley_file" and spec.path == "tables/s3.cayley"


def test_parse_error_position():
    with pytest.raises(SpecSyntaxError) as err:
        parse_spec("dihedral(8")
    assert err.value.position == 10
    with pytest.raises(SpecSyntaxError):
        parse_spec("dihedral(8))")
    with pytest.raises(SpecSyntaxError):
        parse_spec("product(dihedral(8))")   # missing second factor


def test_parse_unknown_constructor():
    with pytest.raises(UnknownConstructor):
        parse_spec("frobnicate(3)")


def test_parse_positional_after_named():
    with pytest.raises(SpecSyntaxError):
        parse_spec("extraspecial(p=2,2)")


def test_parse_duplicate_named():
    with pytest.raises(SpecSyntaxError):
        parse_spec("extraspecial(p=2,p=3)")


# Each line: an input and the tree parse_spec makes of it, or the class,
# position and message of the error it raises.
GOLDEN_PARSES = [json.loads(line) for line in
                 (Path(__file__).parent / "data" / "spec_parses.jsonl").read_text().splitlines()]


def _tree(spec):
    return {"kind": spec.kind, "args": spec.args, "kwargs": spec.kwargs,
            "children": [_tree(c) for c in spec.children], "path": spec.path,
            "text": spec.text()}


@pytest.mark.parametrize("entry", GOLDEN_PARSES, ids=range(len(GOLDEN_PARSES)))
def test_parse_matches_golden_table(entry):
    if "spec" in entry:
        assert _tree(parse_spec(entry["input"])) == entry["spec"]
        return
    cls, position, message = entry["error"]
    with pytest.raises((SpecSyntaxError, UnknownConstructor)) as err:
        parse_spec(entry["input"])
    assert type(err.value).__name__ == cls
    if position is None:
        assert str(err.value) == message
    else:
        assert (err.value.position, err.value.message) == (position, message)


def test_build_examples():
    assert build_group("cyclic(2)").order == 2
    assert build_group("abelian()").order == 1
    assert build_group("abelian(3,9)").order == 27
    G = build_group("extraspecial(2,2,minus)")
    assert G.order == 32 and zc.is_extraspecial(G)
    P = build_group("product(heisenberg(3),abelian(3))")
    assert P.order == 81


def test_build_labels_are_canonical_text():
    assert build_group("Extraspecial( p=2, n=1, variant=plus )").label == \
        "extraspecial(p=2,n=1,variant=plus)"
    assert build_group("product(dihedral(8),abelian(2))").label == \
        "product(dihedral(8),abelian(2))"


@pytest.mark.parametrize("text, name", [
    ("dihedral()", "order"),                  # missing
    ("dihedral(8,9)", None),                  # too many
    ("dihedral(width=8)", "width"),           # unknown name
    ("abelian(x=3)", "x"),
    ("extraspecial(2,n=x)", "n"),             # a word for an integer
    ("abelian(3,plus)", "orders"),
    ("extraspecial(2,2,7)", "variant"),       # an integer for a word
])
def test_build_bad_parameters(text, name):
    """The values of a spec bind to its constructor's signature, and each
    refusal names the kind and the parameter at fault."""
    with pytest.raises(BadParameter) as err:
        build_group(text)
    message = str(err.value)
    assert message.startswith(f"{parse_spec(text).kind}: "), message
    assert name is None or f"'{name}'" in message, message


@pytest.mark.parametrize("text, name", [("dihedral(16, order=8)", "order"),
                                        ("extraspecial(3, 1, p=2)", "p"),
                                        ("extraspecial(2,2,plus,variant=minus)", "variant")])
def test_build_refuses_a_parameter_given_twice(text, name):
    # by position and again by name: neither value may win without a word
    with pytest.raises(BadParameter, match=f"multiple values for argument '{name}'"):
        build_group(text)


@pytest.mark.parametrize("text", ["dihedral(8192,cap=32767)", "abelian(2,cap=9)",
                                  "extraspecial(2,6,cap=10000)",
                                  "product(cyclic(2),dihedral(8192,cap=32767))"])
def test_a_spec_never_sets_the_cap(text):
    """cap is keyword-only in every constructor, so no spec can lift it: the
    spec is refused by the name cap before any table is allocated."""
    tracemalloc.start()
    try:
        with pytest.raises(BadParameter, match="'cap'"):
            build_group(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


def test_a_spec_never_sets_the_cap_on_the_command_line(capsys):
    assert main(["analyze", "dihedral(8192,cap=32767)"]) == 3
    assert "'cap'" in capsys.readouterr().err


def test_build_central_product_canonical_amalgamation():
    # the grammar names no central elements; the builder amalgamates the
    # smallest central elements of the smallest shared prime order
    G = build_group("centralproduct(dihedral(8),quaternion(8))")
    assert G.order == 32
    assert zc.is_extraspecial(G)
    census = sorted(naive_element_order(G, x) for x in G.elements())
    assert census.count(4) == 20   # the minus type


def test_build_central_product_no_shared_prime():
    with pytest.raises(BadParameter):
        build_group("centralproduct(cyclic(2),cyclic(3))")


def test_build_file_spec_relative(tmp_path):
    zc.write_cayley_table(zc.cyclic(3), tmp_path / "c3.cayley")
    G = build_group("file:c3.cayley", base_dir=tmp_path)
    assert G.order == 3
    H = build_group(f"file:{tmp_path / 'c3.cayley'}")
    assert np.array_equal(G.mult, H.mult)


def test_build_nested_file_in_product(tmp_path):
    zc.write_cayley_table(zc.cyclic(2), tmp_path / "c2.cayley")
    G = build_group(f"product(file:{tmp_path / 'c2.cayley'},cyclic(2))")
    assert zc.is_elementary_abelian(G) == 2


def test_build_file_spec_honours_cap(tmp_path):
    zc.write_cayley_table(zc.cyclic(8), tmp_path / "c8.cayley")
    with pytest.raises(OrderExceedsCap):
        build_group("file:c8.cayley", cap=4, base_dir=tmp_path)
    with pytest.raises(OrderExceedsCap):
        build_group("product(file:c8.cayley,cyclic(2))", cap=4, base_dir=tmp_path)
    assert build_group("file:c8.cayley", cap=8, base_dir=tmp_path).order == 8


def test_build_exhaustive_validation_applies_to_products():
    G = build_group("centralproduct(heisenberg(3),heisenberg(3))")
    zc.validate_group_table(G)
    assert G.order == 243 and zc.is_extraspecial(G)


CAP_CASES = {   # one spec per named constructor, its table above 1 MB
    "abelian": ("abelian(32,64)", 2048),
    "cyclic": ("cyclic(2048)", 2048),
    "dihedral": ("dihedral(2048)", 2048),
    "quaternion": ("quaternion(2048)", 2048),
    "heisenberg": ("heisenberg(11)", 1331),
    "modular_p3": ("modular_p3(11)", 1331),
    "extraspecial": ("extraspecial(2,5)", 2048),
}


def test_cap_cases_cover_every_constructor():
    from zclasses.specs import _KINDS
    assert set(CAP_CASES) == set(_KINDS)


@pytest.mark.parametrize("kind", sorted(CAP_CASES))
def test_build_honours_cap_before_constructing(kind):
    """Each constructor owns its cap: called by build_group or directly, it
    refuses a cap one below its order before it allocates its table."""
    text, order = CAP_CASES[kind]
    assert build_group(text, cap=order).order == order
    args, direct = parse_spec(text).args, getattr(zc, kind)
    if kind == "abelian":
        args = [args]
    for build in (lambda cap: build_group(text, cap=cap), lambda cap: direct(*args, cap=cap)):
        tracemalloc.start()
        try:
            with pytest.raises(OrderExceedsCap, match=f"^{kind} order {order} exceeds cap {order - 1}$"):
                build(order - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


# Each line: a spec, the cap it is built at, and the class and message of the
# error that refuses it.
GOLDEN_REFUSALS = [json.loads(line) for line in
                   (Path(__file__).parent / "data" / "spec_refusals.jsonl").read_text().splitlines()]


@pytest.mark.parametrize("entry", GOLDEN_REFUSALS, ids=[e["input"] for e in GOLDEN_REFUSALS])
def test_build_refusal_matches_golden_table(entry):
    with pytest.raises(GroupError) as err:
        build_group(entry["input"], cap=entry["cap"])
    assert [type(err.value).__name__, str(err.value)] == entry["error"]


def test_build_order_formula_on_refused_parameters():
    with pytest.raises(BadParameter, match="p must be prime, got 0$"):
        build_group("extraspecial(0,-1)")
    with pytest.raises(BadParameter, match="n must be >= 1, got -3$"):
        build_group("extraspecial(2,-3)")
    with pytest.raises(OrderExceedsCap):
        build_group("extraspecial(3,1000000000)")
    with pytest.raises(OrderExceedsCap, match=r"extraspecial order 3\^81 exceeds cap 4096$"):
        build_group("extraspecial(3,40)")
    with pytest.raises(OrderExceedsCap, match=r"extraspecial order 3\^2000001 exceeds cap 4096$"):
        build_group("extraspecial(3,1000000)")
    with pytest.raises(BadParameter):
        build_group("abelian(-2,3)")
    with pytest.raises(BadParameter):
        build_group("cyclic(0)")

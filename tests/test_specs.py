import numpy as np
import pytest

import zclasses as zc
from zclasses.errors import BadParameter, OrderExceedsCap, SpecSyntaxError, \
    UnknownConstructor
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


def test_build_bad_parameters():
    with pytest.raises(BadParameter):
        build_group("dihedral(7)")
    with pytest.raises(BadParameter):
        build_group("dihedral(8,9)")
    with pytest.raises(BadParameter):
        build_group("dihedral(width=8)")
    with pytest.raises(BadParameter):
        build_group("extraspecial(2,2,7)")


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


CAP_CASES = {   # one spec per named constructor, of order above 8
    "abelian": ("abelian(4,4)", 16),
    "cyclic": ("cyclic(16)", 16),
    "dihedral": ("dihedral(16)", 16),
    "quaternion": ("quaternion(16)", 16),
    "heisenberg": ("heisenberg(3)", 27),
    "modular_p3": ("modular_p3(3)", 27),
    "extraspecial": ("extraspecial(2,2)", 32),
}


def test_cap_cases_cover_every_constructor():
    from zclasses.specs import _KINDS
    assert set(CAP_CASES) == set(_KINDS)


@pytest.mark.parametrize("kind", sorted(CAP_CASES))
def test_build_honours_cap_before_constructing(kind, monkeypatch):
    text, order = CAP_CASES[kind]
    assert build_group(text, cap=order).order == order

    def refuse(*args, **kwargs):
        raise AssertionError("constructor ran above the cap")

    for name in CAP_CASES:
        monkeypatch.setattr(zc.construct, name, refuse)
    with pytest.raises(OrderExceedsCap):
        build_group(text, cap=order - 1)


def test_build_order_formula_on_refused_parameters():
    with pytest.raises(BadParameter, match="p must be prime, got 0$"):
        build_group("extraspecial(0,-1)")
    with pytest.raises(BadParameter, match="n must be >= 1, got -3$"):
        build_group("extraspecial(2,-3)")
    with pytest.raises(OrderExceedsCap):
        build_group("extraspecial(3,1000000000)")
    with pytest.raises(BadParameter):
        build_group("abelian(-2,3)")
    with pytest.raises(BadParameter):
        build_group("cyclic(0)")

"""Every check can refute: a `confirmed` verdict is evidence only if the
same check says `REFUTED` on a wrong input.

Each case breaks one ingredient of one check on a real group with
``monkeypatch`` and asserts the check's verdict and witness, the exit code
1 of ``zclasses verify`` and the `refuted` count of a catalog run over the
group alone.  Groups are built fresh, so no memo of the session's catalog
sees a fault.
"""

import json

import numpy as np
import pytest

import zclasses as zc
from zclasses import catalog, cli, isoclinism, zclass


# (check, catalog label, module, name, fault, witness, refuted in a catalog run):
# ``fault`` maps the function ``module.name`` to the one patched in its place.
FAULTS = [
    ("mt", "ES(2,2,+)", zclass, "z_class_count", lambda f: lambda G: f(G) + 1,
     "attains=False but cond1=True, cond2=True", 2),
    ("est", "ES(2,2,+)", isoclinism, "z_class_count", lambda f: lambda G: f(G) + 1,
     "attains=False but isoclinic=True", 1),
    # D16: the centralizers of ES(2,2,+), D8 and Heis3 are all normal, so there
    # the whole group is their normalizer and the fault changes nothing
    ("kulkarni", "D16", zclass, "normalizer",
     lambda f: lambda G, H: zc.SubgroupSet(G, np.ones(G.order, dtype=bool)),
     "x=1: predicted 2, actual 4", 1),
    ("bounds", "ES(2,2,+)", zclass, "max_zclass_bound", lambda f: lambda G: f(G) - 1,
     "count=16 outside [4, 15]", 2),
    ("A", "ES(2,2,+)", zclass, "has_abelian_subgroup_of_index_p",
     lambda f: lambda G, p: zc.center(G), "both branches fail", 1),
    ("isoclinism-invariance", "D8", isoclinism, "z_class_count", lambda f: lambda H: H.order,
     "counts differ: 8 vs 16", 2),
]


@pytest.mark.parametrize("check,label,module,name,fault,witness,refuted", FAULTS,
                         ids=[case[0] for case in FAULTS])
def test_check_refutes_under_one_fault(check, label, module, name, fault, witness, refuted,
                                       monkeypatch, capsys):
    entry = next(e for e in zc.builtin_catalog() if e.label == label)
    assert catalog.run_theorem(zc.build_group(entry.spec_text), check).verdict == "confirmed"
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    report = catalog.run_theorem(zc.build_group(entry.spec_text), check)
    assert (report.verdict, report.witness) == ("REFUTED", witness)
    assert cli.main(["verify", entry.spec_text, "--theorem", check]) == 1
    record = json.loads(capsys.readouterr().out)
    assert (record["verdict"], record["witness"]) == ("REFUTED", witness)
    summary = catalog.run_catalog([entry]).summary
    assert summary["refuted"] == refuted

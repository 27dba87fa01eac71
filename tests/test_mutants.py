"""Mutants that earlier fixes were checked against, kept as tests.

Each case copies ``src/`` to a temporary directory, replaces one exact
string that occurs once in it, and runs the named tests in a fresh process
that imports the patched copy: every named test must fail there.  A mutant
whose string is gone from ``src/`` fails its case, so a rewrite of the code
it patches also rewrites the mutant.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent

MUTANTS = {
    # the central-product table turns each row of H by zh^-i, not by zh^i
    "central-product-turn": ("core.py", "H.power(zh, -i)", "H.power(zh, i)", [
        "tests/test_tables.py::test_central_product_of_cyclic_9_matches_oracle[3-1]",
        "tests/test_tables.py::test_extraspecial_steps_match_oracle[3-2-plus]",
    ]),
    # the identity pair, a direct product, amalgamates nothing
    "direct-product-amalgamates": ("core.py", "if (zg, zh) != (0, 0):", "if True:", [
        "tests/test_core.py::test_direct_product_klein",
        "tests/test_tables.py::test_direct_product_matches_oracle_amalgamating_nothing"
        "[heisenberg(3)-cyclic(3)]",
    ]),
    # the scan's witness is an id of G, not an offset into its block
    "conjugator-block-offset": ("core.py", "return j, lo + int(hits[0])",
                                "return j, int(hits[0])", [
        "tests/test_core.py::test_conjugates_match_scalar_conjugation[shuffled-D512]",
        "tests/test_core.py::test_first_conjugator_scans_every_candidate_of_the_right_order",
    ]),
    # the pairing is indexed by quotient ids, not by ids of G
    "kulkarni-pairing-row": (
        "zclass.py", "commutator_pairing(G)[quo.projection[_ids(G, x)]] == 0",
        "commutator_pairing(G)[_ids(G, x)] == 0", [
            "tests/test_core.py::test_kulkarni_normalizers_in_the_quotient_match_those_in_g"
            "[ES(2,2,+)-shuffled-1]",
            "tests/test_zclass.py::test_kulkarni_every_element_d16",
        ]),
}

# prints the file of the package it imports, then runs pytest on its arguments
RUNNER = ("import sys, pytest, zclasses; print(zclasses.__file__, flush=True); "
          "sys.exit(pytest.main(['-q', '-rf', '-p', 'no:cacheprovider', *sys.argv[1:]]))")


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_fails_its_tests(name, tmp_path):
    module, old, new, nodes = MUTANTS[name]
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "zclasses" / module
    text = path.read_text()
    assert text.count(old) == 1, f"{module} holds {text.count(old)} copies of {old!r}"
    path.write_text(text.replace(old, new))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run([sys.executable, "-c", RUNNER, *nodes], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=600)
    assert run.stdout.splitlines()[0] == str(src / "zclasses" / "__init__.py"), run.stdout
    failed = {line.split()[1] for line in run.stdout.splitlines() if line.startswith("FAILED ")}
    assert run.returncode == 1 and set(nodes) <= failed, run.stdout[-3000:]

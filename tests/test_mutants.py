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
    # a direct product skips the checks only for the identity pair, not for
    # any pair with one identity
    "central-product-checks-any-zero": ("core.py", "if (zg, zh) != (0, 0):",
                                        "if zg and zh:", [
        "tests/test_core.py::test_central_product_errors",
    ]),
    # G' closes the pairing rows of the generators, not only their pairs among
    # themselves, which fall short of a normal subgroup
    "derived-generator-pairs": ("core.py", "commutator_pairing(G)[gens].ravel()",
                                "commutator_pairing(G)[np.ix_(gens, gens)].ravel()", [
        "tests/test_core.py::test_commutator_subgroup_matches_oracle[A4]",
        "tests/test_core.py::test_commutator_subgroup_matches_oracle[S4]",
    ]),
    # Z(C_G(r)) takes in the larger cells whose centralizer contains C_G(r)
    "cells-no-larger-cells": ("zclass.py", "local[i] += counts[js[holds]].sum()",
                              "local[i] += 0", [
        "tests/test_zclass.py::test_local_center_sizes_count_larger_centralizers[S4]",
        "tests/test_zclass.py::test_local_center_sizes_count_larger_centralizers[S5]",
    ]),
    # ... only those whose centralizer does contain it
    "cells-no-containment": ("zclass.py", "counts[js[holds]]", "counts[js]", [
        "tests/test_zclass.py::test_local_center_sizes_count_larger_centralizers[D16xD8]",
    ]),
    # each Gram-Schmidt step corrects the rest by both e and f
    "gram-schmidt-half-correction": (
        "isoclinism.py", "Q.mul(Q.mul(v, Q.power(e, -w[v, f] % p)), Q.power(f, w[v, e]))",
        "Q.mul(v, Q.power(e, -w[v, f] % p))", [
            "tests/test_isoclinism.py::test_est_witness_on_relabelled_groups"
            "[2-extraspecial(2,2,minus)]",
            "tests/test_isoclinism.py::test_est_witness_on_relabelled_groups"
            "[1-extraspecial(2,3,plus)]",
        ]),
    # the invariance check validates the isoclinism it is handed
    "invariance-skips-validation": (
        "isoclinism.py", """    witness.validate()
    c1, c2 = z_class_count(G1), z_class_count(G2)""",
        "    c1, c2 = z_class_count(G1), z_class_count(G2)", [
            "tests/test_isoclinism.py::test_invariance_refuses_a_corrupted_witness",
            "tests/test_isoclinism.py::test_direct_factor_invariance_catalog",
        ]),
    # an extraspecial group has a center of order p ...
    "extraspecial-any-center": ("construct.py", "center(G).size == pw[0] and ", "", [
        "tests/test_construct.py::test_is_extraspecial_matches_definition[D8xC2]",
        "tests/test_construct.py::test_is_extraspecial_needs_both_conditions"
        "[centralproduct(dihedral(8),cyclic(4))-4-True]",
    ]),
    # ... and an elementary abelian central quotient: G's generators commute
    # modulo Z, which C3 wr C3's do not, though their cubes lie in Z ...
    "quotient-elementary-no-commutator-clause": (
        "zclass.py", """Z.mask[m[m[m[np.ix_(inv, inv)], s[:, None]], s]].all()
                                   and """, "", [
            "tests/test_construct.py::test_is_extraspecial_matches_definition[perm-C3wrC3]",
            "tests/test_core.py::test_quotient_facts_read_on_g_match_the_quotient_table"
            "[perm-C3wrC3]",
        ]),
    # ... and have cosets of order at most p, which those of Heisenberg over
    # Z/p^2 do not, though they commute modulo Z
    "quotient-elementary-no-orders-clause": (
        "zclass.py", """
                                   and (quo.orders[quo.projection[s]] <= pw[0]).all())""", ")", [
            "tests/test_zclass.py::test_abelian_quotient_that_is_not_elementary[Heis(Z/4)]",
            "tests/test_core.py::test_quotient_facts_read_on_g_match_the_quotient_table"
            "[Heis(Z/9)]",
        ]),
    # the coset orders are taken modulo the center, not modulo the identity
    "coset-orders-modulo-nothing": ("core.py", "_orders_modulo(G, center(G).mask)",
                                    "_orders_modulo(G, np.arange(G.order) == 0)", [
        "tests/test_construct.py::test_is_extraspecial_needs_both_conditions"
        "[product(dihedral(8),abelian(2))-4-True]",
        "tests/test_refutation.py::test_check_refutes_under_one_fault[mt]",
    ]),
    # a token cut by the end of a block is carried into the next block
    "loader-drops-partial-token": ("core.py", "data, carry = data[:cut], data[cut:]",
                                   'data, carry = data[:cut], b""', [
        "tests/test_tables.py::test_cayley_load_parses_in_line_blocks[one-line]",
        "tests/test_tables.py::test_cayley_load_carries_tokens_and_comments_across_blocks[3]",
    ]),
    # a cap below 1 admits no group, so it is a usage error
    "cli-cap-accepts-zero": ("cli.py", "if cap < 1:", "if cap < 0:", [
        "tests/test_cli.py::test_cap_below_one_is_a_usage_error[analyze-0]",
        "tests/test_cli.py::test_cap_below_one_is_a_usage_error[catalog-0]",
    ]),
    # subgroups are equal by their members, not by their order
    "subgroup-equal-by-size": ("core.py", "np.array_equal(self.mask, other.mask)",
                               "self.size == other.size", [
        "tests/test_core.py::test_subgroups_are_equal_by_their_members",
    ]),
    # the cells key each pairing row by its own bits, packed along the row
    "cells-pack-columns": ("zclass.py", "np.packbits(cm, axis=1)", "np.packbits(cm, axis=0)", [
        "tests/test_zclass.py::test_local_center_sizes_count_larger_centralizers[S4]",
        "tests/test_zclass.py::test_kulkarni_every_element_d16",
    ]),
    # every row of a block ends in a newline, not only the block's last
    "writer-one-newline-a-block": ("core.py", "block[:, -1] = ended[rows[:, -1]]",
                                   "block[-1, -1] = ended[rows[-1, -1]]", [
        "tests/test_core.py::test_cayley_write_bytes_at_id_widths[11]",
        "tests/test_core.py::test_cayley_write_bytes_above_256",
    ]),
    # errors about a parameter's place point before the spaces that precede
    # it, not at its name
    "spec-duplicate-after-spaces": ("specs.py", 'param.start(), f"duplicate',
                                    'param.start("token"), f"duplicate', [
        "tests/test_specs.py::test_parse_matches_golden_table[55]",
    ]),
    # a word read as a value ends with its name, not after a '=' or ':' path
    # that follows it
    "spec-value-takes-its-suffix": ("specs.py", 'm["name"].lower(), m.end("name")',
                                    'm["name"].lower(), m.end()', [
        "tests/test_specs.py::test_parse_matches_golden_table[69]",
        "tests/test_specs.py::test_parse_matches_golden_table[71]",
    ]),
    # a spec names only the parameters a call may give by place or by name,
    # never the keyword-only cap
    "spec-binds-keyword-only": (
        "specs.py", "params[name].kind is not Parameter.POSITIONAL_OR_KEYWORD",
        "params[name].kind not in (Parameter.POSITIONAL_OR_KEYWORD, Parameter.KEYWORD_ONLY)", [
            "tests/test_specs.py::test_a_spec_never_sets_the_cap[dihedral(8192,cap=32767)]",
            "tests/test_specs.py::test_a_spec_never_sets_the_cap[abelian(2,cap=9)]",
        ]),
    # a dihedral or quaternion group is refused above the cap it is given, not
    # only above the int16 ceiling
    "dihedral-cap-unchecked": ("construct.py", '"dihedral", order, cap)', '"dihedral", order)', [
        "tests/test_specs.py::test_build_honours_cap_before_constructing[dihedral]",
        "tests/test_specs.py::test_build_honours_cap_before_constructing[quaternion]",
    ]),
    # the cap comes before the trial division of is_prime
    "heisenberg-cap-after-prime-test": (
        "construct.py",
        """    check_order("heisenberg", p ** 3, cap)  # before the trial division of is_prime
    if not is_prime(p) or p == 2:
        raise BadParameter(f"p must be an odd prime, got {p}")
""",
        """    if not is_prime(p) or p == 2:
        raise BadParameter(f"p must be an odd prime, got {p}")
    check_order("heisenberg", p ** 3, cap)
""", [
            "tests/test_construct.py::test_order_p3_refused_above_cap_before_its_prime_test"
            "[heisenberg]",
            "tests/test_specs.py::test_build_refusal_matches_golden_table[heisenberg(18)]",
        ]),
    # a central product amalgamates the smallest prime dividing both centers'
    # orders, not the largest ...
    "amalgamation-largest-prime": (
        "core.py", "p = smallest_prime_factor(shared)",
        "p = max(q for q in range(2, shared + 1) if shared % q == 0 and is_prime(q))", [
            "tests/test_tables.py::test_central_product_spec_matches_oracle"
            "[cyclic(6)-abelian(2,3)]",
            "tests/test_tables.py::test_amalgamation_pair_matches_the_scan[cyclic(6)]",
        ]),
    # ... and the smallest central element of that order, not the largest
    "amalgamation-largest-element": ("core.py", "power_map(T, Z, p) == 0)[0]",
                                     "power_map(T, Z, p) == 0)[-1]", [
        "tests/test_tables.py::test_central_product_spec_matches_oracle"
        "[product(heisenberg(3),abelian(3))-heisenberg(3)]",
        "tests/test_tables.py::test_amalgamation_pair_matches_the_scan[abelian(2,2)]",
    ]),
    # condition 1 reads every greedy generator of G, not only the last, which
    # depends on the order of the ids: D16's natural ids end the sequence with
    # a rotation, whose coset of order 4 fails it, so the catalog bytes hold;
    # relabelled, a reflection can end it and pass
    "cond1-last-generator-only": (
        "zclass.py", "s = np.array(greedy_generating_sequence(G), dtype=np.intp)",
        "s = np.array(greedy_generating_sequence(G)[-1:], dtype=np.intp)", [
            "tests/test_relabelling.py::test_reports_are_invariant_under_relabelling"
            "[catalog_builtin.jsonl-D16-1]",
            "tests/test_relabelling.py::test_reports_are_invariant_under_relabelling"
            "[catalog_builtin.jsonl-Q16-2]",
        ]),
    # the writer cuts a regular file to what it wrote ...
    "overwrite-keeps-stale-tail": ("core.py", "                out.truncate()",
                                   "                pass", [
        "tests/test_core.py::test_cayley_rewrite_leaves_no_stale_tail",
        "tests/test_core.py::test_overwriting_leaves_the_prefix_on_error",
        "tests/test_cli.py::test_catalog_output_over_a_longer_file",
    ]),
    # ... and only a regular file: a device or a pipe cannot be cut
    "overwrite-truncates-streams": ("core.py", "if stat.S_ISREG(os.fstat(out.fileno()).st_mode):",
                                    "if True:", [
        "tests/test_cli.py::test_catalog_output_to_dev_null",
        "tests/test_cli.py::test_catalog_output_to_a_pipe",
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

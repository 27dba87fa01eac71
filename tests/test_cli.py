import json
import subprocess
import sys
from pathlib import Path

import pytest

CLI = [sys.executable, "-m", "zclasses.cli"]
DATA = Path(__file__).parent / "data"


def run_cli(*args, **kwargs):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, **kwargs)


def test_analyze_heisenberg():
    res = run_cli("analyze", "heisenberg(3)")
    assert res.returncode == 0
    record = json.loads(res.stdout)
    assert record["order"] == 27
    assert record["zclasses"] == 5
    assert record["bound"] == 5
    assert record["attains"] is True
    assert record["ctv"] == [3, 1]
    assert record["extraspecial"] is True


def test_analyze_dihedral_16():
    record = json.loads(run_cli("analyze", "dihedral(16)").stdout)
    assert record["order"] == 16
    assert record["ctv"] == [4, 2, 1]
    assert record["attains"] is False


def test_analyze_abelian():
    record = json.loads(run_cli("analyze", "abelian(4)").stdout)
    assert record["order"] == 4
    assert record["zclasses"] == 1
    assert record["ctv"] == [1]
    assert record["bound"] is None


def test_analyze_csv():
    res = run_cli("analyze", "heisenberg(3)", "--format", "csv")
    header, row = res.stdout.strip().splitlines()
    assert header.startswith("group,order,center,derived,p,k,ctv")
    assert "3|1" in row


def test_verify_confirmed():
    res = run_cli("verify", "heisenberg(5)", "--theorem", "mt")
    assert res.returncode == 0
    record = json.loads(res.stdout)
    assert record["verdict"] == "confirmed"
    assert record["theorem"] == "mt"


def test_verify_vacuous():
    record = json.loads(run_cli("verify", "abelian(8)", "--theorem", "mt").stdout)
    assert record["verdict"] == "vacuous"


def test_verify_est_precondition_vacuous():
    record = json.loads(run_cli("verify", "dihedral(16)", "--theorem", "est").stdout)
    assert record["verdict"] == "vacuous"


def test_verify_all_theorems_on_attainer():
    for theorem in ("mt", "A", "est", "kulkarni", "bounds", "isoclinism-invariance"):
        res = run_cli("verify", "extraspecial(2,2,plus)", "--theorem", theorem)
        assert res.returncode == 0, (theorem, res.stderr)
        assert json.loads(res.stdout)["verdict"] in ("confirmed", "vacuous")


def test_verify_invariance_above_cap_exit_3():
    assert run_cli("verify", "dihedral(4096)", "--theorem", "isoclinism-invariance").returncode == 3


def test_iso_cap_flag_is_gone():
    # no check searches for an isoclinism, so no subcommand takes a search cap
    res = run_cli("verify", "extraspecial(3,2,plus)", "--theorem", "isoclinism-invariance")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["verdict"] == "confirmed"
    for command in (["analyze", "heisenberg(3)"], ["verify", "heisenberg(3)", "--theorem", "est"],
                    ["catalog"]):
        assert run_cli(*command, "--iso-cap", "8").returncode == 2, command


def test_verify_est_beyond_the_old_search_cap():
    # |G/Z| = 121: the isoclinism onto ES(11,1,+) is written down, not searched
    res = run_cli("verify", "heisenberg(11)", "--theorem", "est")
    assert res.returncode == 0, res.stderr
    record = json.loads(res.stdout)
    assert record["verdict"] == "confirmed"
    assert record["witness"] == "isoclinic to ES(11,1,+)"


def test_exit_code_parse_error():
    assert run_cli("analyze", "frobnicate(3)").returncode == 2
    assert run_cli("analyze", "dihedral(8").returncode == 2


def test_exit_code_construction_error():
    assert run_cli("analyze", "dihedral(7)").returncode == 3
    assert run_cli("analyze", "heisenberg(4)").returncode == 3


def test_order_too_long_to_print_exit_3():
    """2^15000 has more digits than Python prints; the order is named by its bits."""
    res = run_cli("analyze", f"abelian({','.join(['2'] * 15000)})")
    assert res.returncode == 3
    assert res.stderr == "zclasses: error: abelian order of 15001 bits exceeds cap 4096\n"


def test_literal_too_long_to_parse_exit_2():
    res = run_cli("analyze", f"heisenberg({'9' * 5000})")
    assert res.returncode == 2
    assert res.stderr == ("zclasses: parse error: at position 11: "
                          "integer literal of 5000 characters is too long\n")


def test_exit_code_usage_error():
    assert run_cli("verify", "dihedral(8)", "--theorem", "nope").returncode == 2
    assert run_cli().returncode == 2


@pytest.mark.parametrize("cap", ["0", "-3"])
@pytest.mark.parametrize("command", [("analyze", "cyclic(2)"),
                                     ("verify", "cyclic(2)", "--theorem", "mt"),
                                     ("catalog",)], ids=["analyze", "verify", "catalog"])
def test_cap_below_one_is_a_usage_error(tmp_path, command, cap):
    """A cap below 1 admits no group, so it is refused before any is built."""
    out = tmp_path / "report.jsonl"
    extra = ("--output", str(out)) if command[0] == "catalog" else ()
    res = run_cli(*command, "--cap", cap, *extra)
    assert res.returncode == 2
    assert f"argument --cap: expected an integer of at least 1, got '{cap}'" in res.stderr
    assert res.stdout == "" and not out.exists()


def test_catalog_builtin_green(tmp_path):
    out = tmp_path / "report.jsonl"
    res = run_cli("catalog", "--output", str(out))
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert len(lines) == 18 * 6
    summary = json.loads(res.stderr.split("summary: ", 1)[1])
    assert summary["refuted"] == 0
    assert summary["errors"] == 0
    assert summary["golden_mismatches"] == 0
    assert summary["confirmed"] + summary["vacuous"] == len(lines)
    # deterministic ordering: catalog order, then theorem order per group
    groups = [json.loads(line)["group"] for line in lines]
    assert groups == sorted(groups, key=groups.index)
    theorems = [json.loads(line)["theorem"] for line in lines[:6]]
    assert theorems == ["mt", "A", "est", "kulkarni", "bounds", "isoclinism-invariance"]


def test_catalog_byte_identical(tmp_path):
    """The builtin catalog report matches the frozen reference byte for byte."""
    out = tmp_path / "report.jsonl"
    res = run_cli("catalog", "--output", str(out))
    assert res.returncode == 0, res.stderr
    assert out.read_bytes() == (DATA / "catalog_builtin.jsonl").read_bytes()


def test_catalog_empty_file(tmp_path):
    cat = tmp_path / "empty.cat"
    cat.write_text("# nothing here\n\n")
    res = run_cli("catalog", str(cat))
    assert res.returncode == 0
    assert res.stdout == ""
    summary = json.loads(res.stderr.split("summary: ", 1)[1])
    assert summary == {"confirmed": 0, "vacuous": 0, "refuted": 0,
                       "errors": 0, "golden_mismatches": 0}


def test_catalog_file_with_expectations(tmp_path):
    cat = tmp_path / "mini.cat"
    cat.write_text(
        "# two groups with golden values\n"
        "heisenberg(3) expect order=27,zclasses=5,ctv=3|1,attains=true\n"
        "dihedral(16) expect zclasses=4,attains=false\n")
    res = run_cli("catalog", str(cat))
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("line", ["heisenberg(3)\texpect order=27,zclasses=5",
                                  "heisenberg(3) expect\torder=27,zclasses=5",
                                  "heisenberg(3)  expect  order=27,zclasses=5"],
                         ids=["tab-before", "tab-after", "two-spaces"])
def test_catalog_expect_after_any_spaces(tmp_path, line):
    from zclasses.catalog import parse_catalog_file
    cat = tmp_path / "spaced.cat"
    cat.write_text(line + "\n")
    [entry] = parse_catalog_file(cat)
    assert (entry.spec_text, entry.expect) == ("heisenberg(3)", {"order": 27, "zclasses": 5})


def test_catalog_golden_mismatch(tmp_path):
    cat = tmp_path / "bad.cat"
    cat.write_text("heisenberg(3) expect zclasses=6\n")
    res = run_cli("catalog", str(cat))
    assert res.returncode == 1
    mismatch = [json.loads(line) for line in res.stdout.splitlines()
                if json.loads(line)["verdict"] == "error"]
    assert len(mismatch) == 1
    assert "expected 6" in mismatch[0]["witness"]


def test_catalog_construction_error_in_band(tmp_path):
    cat = tmp_path / "broken.cat"
    cat.write_text("dihedral(9)\ncyclic(3)\n")
    res = run_cli("catalog", str(cat))
    assert res.returncode == 0   # errors are in-band; nothing was refuted
    records = [json.loads(line) for line in res.stdout.splitlines()]
    assert records[0]["verdict"] == "error"
    assert sum(r["group"] == "cyclic(3)" for r in records) == 6
    summary = json.loads(res.stderr.split("summary: ", 1)[1])
    assert summary["errors"] == 1


def test_catalog_parse_error_exit_2(tmp_path):
    cat = tmp_path / "syntax.cat"
    cat.write_text("dihedral(8) expect zclasses=four\n")
    assert run_cli("catalog", str(cat)).returncode == 2


def test_catalog_parse_errors_name_the_file_and_line(tmp_path):
    cat = tmp_path / "bad.catalog"
    cat.write_text("cyclic(2)\ndihedral(8 expect order=8\n")
    res = run_cli("catalog", str(cat))
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == f"zclasses: parse error: {cat}:2: at position 10: expected ')'\n"
    cat.write_text("# golden values\n\ncyclic(2) expect order=2,zclasses=one\n")
    res = run_cli("catalog", str(cat))
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == (f"zclasses: parse error: {cat}:3: "
                          "expect zclasses wants an integer, got 'one'\n")


def test_catalog_relative_file_spec(tmp_path):
    import zclasses as zc
    zc.write_cayley_table(zc.cyclic(3), tmp_path / "c3.cayley")
    cat = tmp_path / "files.cat"
    cat.write_text("file:c3.cayley expect order=3,zclasses=1\n")
    res = run_cli("catalog", str(cat))
    assert res.returncode == 0, res.stderr


def test_analyze_malformed_cayley_file(tmp_path):
    bad = tmp_path / "bad.cayley"
    bad.write_text("2\n0 1\n1 x\n")
    res = run_cli("analyze", f"file:{bad}")
    assert res.returncode == 3
    assert f"zclasses: error: {bad}: malformed token 'x'" in res.stderr
    assert "Traceback" not in res.stderr


def test_catalog_csv(tmp_path):
    res = run_cli("catalog", "--format", "csv")
    lines = res.stdout.splitlines()
    assert lines[0] == "group,order,p,k,ctv,zclasses,bound,attains,cond1,cond2,theorem,verdict,witness"
    assert len(lines) == 1 + 18 * 6


def test_missing_catalog_file():
    assert run_cli("catalog", "/nonexistent/nope.cat").returncode == 2

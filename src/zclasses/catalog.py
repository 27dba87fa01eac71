"""Catalog running: analyze groups, sweep every check, emit report records.

A catalog is a list of construction specs, optionally carrying expected
values for golden testing.  The runner produces one record per (group,
check) pair with a fixed column order, so two runs over the same catalog
are byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .core import (
    DEFAULT_ORDER_CAP,
    GroupTable,
    center,
    commutator_subgroup,
    is_abelian,
    prime_power,
)
from .construct import is_extraspecial
from .errors import GroupError, SpecSyntaxError
from .isoclinism import is_stem_group, verify_corollary_est, verify_direct_factor_invariance
from .specs import build_group, parse_spec
from .zclass import (
    TheoremReport,
    condition_central_quotient_elementary,
    condition_local_center,
    conjugate_type_vector,
    is_type_n_1,
    max_zclass_bound,
    verify_bounds,
    verify_kulkarni,
    verify_theorem_A,
    verify_theorem_mt,
    z_class_count,
)

THEOREMS = ("mt", "A", "est", "kulkarni", "bounds", "isoclinism-invariance")

ANALYZE_COLUMNS = ("group", "order", "center", "derived", "p", "k", "ctv", "type_n1",
                   "zclasses", "bound", "attains", "cond1", "cond2", "extraspecial", "stem")
RECORD_COLUMNS = ("group", "order", "p", "k", "ctv", "zclasses", "bound", "attains",
                  "cond1", "cond2", "theorem", "verdict", "witness")

_EXPECT_KEYS = ("order", "zclasses", "ctv", "attains")


@dataclass
class CatalogEntry:
    """One catalog line: a spec, a display label, optional expected values."""

    spec_text: str
    label: str = ""
    expect: dict = field(default_factory=dict)
    base_dir: Path | None = None

    def __post_init__(self):
        if not self.label:
            self.label = self.spec_text


def builtin_catalog() -> list[CatalogEntry]:
    """The default catalog: every family and branch the checks quantify over,
    with expected values confirmed by brute force and frozen."""
    s3_path = resources.files("zclasses").joinpath("data/s3.cayley")
    entries = [
        ("trivial", "abelian()",
         {"order": 1, "zclasses": 1, "ctv": (1,)}),
        ("C2", "cyclic(2)",
         {"order": 2, "zclasses": 1, "ctv": (1,)}),
        ("C2xC2", "abelian(2,2)",
         {"order": 4, "zclasses": 1, "ctv": (1,)}),
        ("C4", "abelian(4)",
         {"order": 4, "zclasses": 1, "ctv": (1,)}),
        ("S3", f"file:{s3_path}",
         {"order": 6, "zclasses": 3, "ctv": (3, 2, 1)}),
        ("D8", "dihedral(8)",
         {"order": 8, "zclasses": 4, "ctv": (2, 1), "attains": True}),
        ("Q8", "quaternion(8)",
         {"order": 8, "zclasses": 4, "ctv": (2, 1), "attains": True}),
        ("D16", "dihedral(16)",
         {"order": 16, "zclasses": 4, "ctv": (4, 2, 1), "attains": False}),
        ("Q16", "quaternion(16)",
         {"order": 16, "zclasses": 4, "ctv": (4, 2, 1), "attains": False}),
        ("Heis3", "heisenberg(3)",
         {"order": 27, "zclasses": 5, "ctv": (3, 1), "attains": True}),
        ("M27", "modular_p3(3)",
         {"order": 27, "zclasses": 5, "ctv": (3, 1), "attains": True}),
        ("Heis5", "heisenberg(5)",
         {"order": 125, "zclasses": 7, "ctv": (5, 1), "attains": True}),
        ("ES(2,2,+)", "extraspecial(2,2,plus)",
         {"order": 32, "zclasses": 16, "ctv": (2, 1), "attains": True}),
        ("ES(2,2,-)", "extraspecial(2,2,minus)",
         {"order": 32, "zclasses": 16, "ctv": (2, 1), "attains": True}),
        ("ES(3,2,+)", "extraspecial(3,2,plus)",
         {"order": 243, "zclasses": 41, "ctv": (3, 1), "attains": True}),
        ("Heis3xC3", "product(heisenberg(3),abelian(3))",
         {"order": 81, "zclasses": 5, "ctv": (3, 1), "attains": True}),
        ("D8xC2", "product(dihedral(8),abelian(2))",
         {"order": 16, "zclasses": 4, "ctv": (2, 1), "attains": True}),
        ("Heis3xC9", "product(heisenberg(3),abelian(9))",
         {"order": 243, "zclasses": 5, "ctv": (3, 1), "attains": True}),
    ]
    return [CatalogEntry(spec, label, expect) for label, spec, expect in entries]


def parse_catalog_file(path) -> list[CatalogEntry]:
    """Read a catalog file: one spec per line, optional ``expect k=v,...``
    suffix, ``#`` comments.  Relative ``file:`` paths resolve against the
    catalog file's directory."""
    path = Path(path)
    entries = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        spec_text, _, expect_text = line.partition(" expect ")
        spec_text = spec_text.strip()
        expect: dict = {}
        if expect_text.strip():
            for clause in expect_text.split(","):
                key, eq, value = clause.partition("=")
                key = key.strip().lower()
                if not eq or key not in _EXPECT_KEYS:
                    raise SpecSyntaxError(
                        lineno, f"bad expect clause {clause.strip()!r} "
                                f"(keys: {', '.join(_EXPECT_KEYS)})")
                expect[key] = _parse_expect_value(key, value.strip(), lineno)
        parse_spec(spec_text)  # surface syntax errors with the line intact
        entries.append(CatalogEntry(spec_text, expect=expect, base_dir=path.parent))
    return entries


def _parse_expect_value(key: str, text: str, lineno: int):
    if key in ("order", "zclasses"):
        try:
            return int(text)
        except ValueError:
            raise SpecSyntaxError(lineno, f"expect {key} wants an integer, got {text!r}")
    if key == "attains":
        if text.lower() in ("true", "false"):
            return text.lower() == "true"
        raise SpecSyntaxError(lineno, f"expect attains wants true/false, got {text!r}")
    if key == "ctv":
        try:
            return tuple(int(tok) for tok in text.split("|"))
        except ValueError:
            raise SpecSyntaxError(lineno, f"expect ctv wants ints joined by '|', got {text!r}")
    raise SpecSyntaxError(lineno, f"unknown expect key {key!r}")


def analyze_group(G: GroupTable, label: str | None = None) -> dict:
    """One summary record of the structural facts for a group."""
    Z = center(G)
    D = commutator_subgroup(G)
    pw = prime_power(G.order // Z.size)
    p, k = pw if pw else (None, None)
    zclasses, bound = z_class_count(G), max_zclass_bound(G)
    attains = None if bound is None else zclasses == bound
    cond1 = cond2 = None
    if not is_abelian(G):
        cond1 = condition_central_quotient_elementary(G)
        cond2 = condition_local_center(G)[0]
    return {
        "group": label if label is not None else G.label or f"order{G.order}",
        "order": G.order,
        "center": Z.size,
        "derived": D.size,
        "p": p,
        "k": k,
        "ctv": list(conjugate_type_vector(G)),
        "type_n1": is_type_n_1(G),
        "zclasses": zclasses,
        "bound": bound,
        "attains": attains,
        "cond1": cond1,
        "cond2": cond2,
        "extraspecial": is_extraspecial(G),
        "stem": is_stem_group(G),
    }


def run_theorem(G: GroupTable, theorem: str, *, iso_cap: int | None = None,
                order_cap: int = DEFAULT_ORDER_CAP) -> TheoremReport:
    """Dispatch one named check.  No check searches, so ``iso_cap`` is
    ignored (perfbench still passes it)."""
    if theorem == "mt":
        return verify_theorem_mt(G)
    if theorem == "A":
        return verify_theorem_A(G)
    if theorem == "est":
        return verify_corollary_est(G)
    if theorem == "kulkarni":
        return verify_kulkarni(G)
    if theorem == "bounds":
        return verify_bounds(G)
    if theorem == "isoclinism-invariance":
        return verify_direct_factor_invariance(G, order_cap=order_cap)
    raise ValueError(f"unknown theorem {theorem!r}")


def theorem_record(label: str, analysis: dict, report: TheoremReport) -> dict:
    """Merge the shared analysis columns with one check's outcome."""
    record = {key: analysis[key] for key in
              ("order", "p", "k", "ctv", "zclasses", "bound", "attains", "cond1", "cond2")}
    record = {"group": label, **record,
              "theorem": report.theorem, "verdict": report.verdict,
              "witness": report.witness}
    return record


@dataclass
class CatalogResult:
    records: list[dict]
    summary: dict

    @property
    def exit_code(self) -> int:
        return 1 if (self.summary["refuted"] or self.summary["golden_mismatches"]) else 0


def run_catalog(entries, *, cap: int = DEFAULT_ORDER_CAP) -> CatalogResult:
    """Analyze every entry and run every check, in catalog order then
    check order.  Per-entry failures become in-band error records; only the
    caller's I/O can abort the run."""
    records: list[dict] = []
    counts = {"confirmed": 0, "vacuous": 0, "refuted": 0}
    errors = 0
    mismatches = 0
    for entry in entries:
        try:
            G = build_group(entry.spec_text, cap=cap, base_dir=entry.base_dir)
        except GroupError as exc:
            errors += 1
            records.append(_error_record(entry.label, "construction", str(exc)))
            continue
        analysis = analyze_group(G, label=entry.label)
        for key, wanted in entry.expect.items():
            got = analysis[key]
            if key == "ctv":
                got = tuple(got)
            if got != wanted:
                mismatches += 1
                records.append(_error_record(
                    entry.label, "golden",
                    f"{key}: expected {_fmt_expect(wanted)}, got {_fmt_expect(got)}"))
        for theorem in THEOREMS:
            try:
                report = run_theorem(G, theorem, order_cap=cap)
            except GroupError as exc:
                errors += 1
                records.append(_error_record(entry.label, theorem, str(exc)))
                continue
            counts[report.verdict.lower()] += 1
            records.append(theorem_record(entry.label, analysis, report))
    summary = {**counts, "errors": errors, "golden_mismatches": mismatches}
    return CatalogResult(records=records, summary=summary)


def _fmt_expect(value) -> str:
    if isinstance(value, tuple):
        return "|".join(str(v) for v in value)
    return str(value).lower() if isinstance(value, bool) else str(value)


def _error_record(label: str, theorem: str, message: str) -> dict:
    record = {col: None for col in RECORD_COLUMNS}
    record.update({"group": label, "theorem": theorem, "verdict": "error",
                   "witness": message})
    return record


def records_to_json_lines(records) -> str:
    return "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records)


def records_to_csv(records, columns=RECORD_COLUMNS) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for record in records:
        writer.writerow([_csv_cell(record.get(col)) for col in columns])
    return buf.getvalue()


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return "|".join(str(v) for v in value)
    return str(value)

"""The two workloads: the builtin catalog, and the ladder of groups at the
order cap together with untrusted Cayley tables.

Each workload object makes its inputs from the seed, runs one pass of its
operations (``run_pass``), repeats that pass one library call at a time in
dependency order with repeat measurements of nested layers (``walk``), and
checks what the passes returned (``check``).  A pass always attempts the
same operations, so the share of failed ones is the same in every run.
"""

from __future__ import annotations

import io
import json
import signal
from contextlib import contextmanager, redirect_stderr
from pathlib import Path

import numpy as np

from zclasses import catalog, cli, construct, core, isoclinism, specs, zclass
from zclasses.errors import GroupError

import checks
import tables
from spans import Tracer


class Pass:
    """The operations of one pass: attempts, failures and the facts kept for
    the checks."""

    def __init__(self, tracer: Tracer, workload: str):
        self.tracer = tracer
        self.workload = workload
        self.attempted = 0
        self.failures: list[tuple[str, str, str]] = []
        self.facts: dict = {}
        self.group = ""

    @contextmanager
    def on(self, group: str):
        self.group = group
        with self.tracer.span("group", workload=self.workload, group=group):
            yield

    def op(self, name: str, fn, *args, **kwargs):
        """One operation, spanned as ``name``; a raised error counts it failed."""
        self.attempted += 1
        with self.tracer.span(name):
            try:
                return fn(*args, **kwargs)
            except Exception as exc:  # counted and reported; the pass goes on
                self.failures.append((name, self.group, f"{type(exc).__name__}: {exc}"))
                return None

    def extra(self, name: str, fn, *args, **kwargs):
        """A repeat measurement of a layer the pass calls inside another one."""
        with self.tracer.span(name, extra=True):
            return fn(*args, **kwargs)


class BudgetExceeded(Exception):
    """The operation ran past its wall-time budget and was stopped."""


def within_budget(seconds: float, fn, *args):
    """Call ``fn``, stopping it with BudgetExceeded after ``seconds`` of wall time."""
    def stop(signum, frame):
        raise BudgetExceeded(f"stopped after {seconds} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _construct(p: Pass, kind: str, params, measure_allocation: bool) -> None:
    """Time the constructor that build_group calls, on the same parameters;
    optionally call it again to record its allocation peak."""
    fn = getattr(construct, kind)
    p.extra(f"construct.{kind}", fn, *params)
    if measure_allocation:
        with p.tracer.allocation(f"construct.{kind}"):
            fn(*params)


def _partition_allocation(p: Pass, G: core.GroupTable) -> None:
    """Allocation peak of partitioning a fresh copy of G whose commuting
    table is built beforehand, so that only the partition is charged."""
    fresh = G.relabeled(G.label)
    core.commuting_table(fresh)
    with p.tracer.allocation("zclass.z_class_partition"):
        zclass.z_class_partition(fresh)


# --- catalog ---------------------------------------------------------------

# Catalog labels with a closed form: extraspecial groups of order p^{1+2n}
# (D8, Q8, the order-p^3 groups and the ES entries), D_{2m} with m even
# beyond order 8, and abelian groups.
CATALOG_FAMILIES = {
    "trivial": ("abelian",), "C2": ("abelian",), "C2xC2": ("abelian",), "C4": ("abelian",),
    "D8": ("extraspecial", 2, 1), "Q8": ("extraspecial", 2, 1),
    "D16": ("dihedral", 16),
    "Heis3": ("extraspecial", 3, 1), "M27": ("extraspecial", 3, 1),
    "Heis5": ("extraspecial", 5, 1),
    "ES(2,2,+)": ("extraspecial", 2, 2), "ES(2,2,-)": ("extraspecial", 2, 2),
    "ES(3,2,+)": ("extraspecial", 3, 2),
}
ORACLE_MAX_ORDER = 128
# The catalog walk records allocation peaks on its largest extraspecial group.
CATALOG_ALLOCATION_MEASURED = "ES(3,2,+)"
THEOREM_SPANS = {
    "mt": "zclass.verify_mt", "A": "zclass.verify_A", "est": "zclass.verify_est",
    "kulkarni": "zclass.verify_kulkarni", "bounds": "zclass.verify_bounds",
    "isoclinism-invariance": "isoclinism.verify_direct_factor_invariance",
}


class Catalog:
    """`zclasses catalog --output FILE` over the 18 builtin groups; the seed
    does not change these inputs."""

    name = "catalog"
    expected_failures: set = set()

    def __init__(self, seed: int, workdir: Path):
        self.entries = catalog.builtin_catalog()
        self.report = workdir / "catalog.jsonl"
        self.table = workdir / "table.cayley"

    def setup(self) -> None:
        pass

    def run_pass(self, tracer: Tracer) -> Pass:
        """One `zclasses catalog` run; its operations are the (group, check)
        pairs, and a pair fails unless its record is confirmed or vacuous."""
        p = Pass(tracer, self.name)
        with p.on("builtin"), tracer.span("cli.main"), redirect_stderr(io.StringIO()):
            code = cli.main(["catalog", "--output", str(self.report)])
        report = self.report.read_bytes()
        records = [json.loads(line) for line in report.splitlines()]
        done = {(r["group"], r["theorem"]) for r in records
                if r["verdict"] in ("confirmed", "vacuous")}
        pairs = [(e.label, t) for e in self.entries for t in catalog.THEOREMS]
        p.attempted = len(pairs)
        p.failures = [("catalog record", label, t) for label, t in pairs
                      if (label, t) not in done]
        p.facts = {"exit_code": code, "report": report, "records": records}
        return p

    def walk(self, tracer: Tracer) -> Pass:
        p = Pass(tracer, self.name)
        records = []
        for entry in self.entries:
            with p.on(entry.label):
                G = p.op("specs.build_group", specs.build_group, entry.spec_text,
                         base_dir=entry.base_dir)
                measured = entry.label == CATALOG_ALLOCATION_MEASURED
                self._constructor(p, specs.parse_spec(entry.spec_text), G, measured)
                p.extra("core.write_cayley_table", core.write_cayley_table, G, self.table)
                for name, fn in (("core.commuting_table", core.commuting_table),
                                 ("core.center", core.center),
                                 ("core.central_quotient", core.central_quotient),
                                 ("core.commutator_subgroup", core.commutator_subgroup),
                                 ("zclass.z_class_partition", zclass.z_class_partition),
                                 ("zclass.conjugate_type_vector", zclass.conjugate_type_vector)):
                    p.op(name, fn, G)
                if measured:
                    _partition_allocation(p, G)
                if not core.is_abelian(G):
                    p.op("zclass.condition_central_quotient_elementary",
                         zclass.condition_central_quotient_elementary, G)
                    p.op("zclass.condition_local_center", zclass.condition_local_center, G)
                p.op("construct.is_extraspecial", construct.is_extraspecial, G)
                analysis = p.op("catalog.analyze_group", catalog.analyze_group, G,
                                label=entry.label)
                p.op("isoclinism.commutator_pairing", isoclinism.commutator_pairing, G)
                self._isoclinism_parts(p, G)
                for theorem in catalog.THEOREMS:
                    report = p.op(THEOREM_SPANS[theorem], catalog.run_theorem, G, theorem,
                                  iso_cap=cli.CLI_ISO_CAP)
                    if analysis is not None and report is not None:
                        records.append(catalog.theorem_record(entry.label, analysis, report))
        with p.on("builtin"):
            p.op("catalog.records_to_json_lines", catalog.records_to_json_lines, records)
            with redirect_stderr(io.StringIO()):
                p.extra("cli.main", cli.main, ["catalog", "--output", str(self.report)])
        return p

    @staticmethod
    def _constructor(p: Pass, spec: specs.GroupSpec, G: core.GroupTable,
                     measure_allocation: bool) -> None:
        """Time what build_group calls inside, on the same inputs."""
        if spec.kind in ("extraspecial", "dihedral"):
            _construct(p, spec.kind, spec.args, measure_allocation)
        elif spec.kind == "direct_product":
            left, right = (specs.build_group(child) for child in spec.children)
            p.extra("core.direct_product", core.direct_product, left, right)
        elif spec.kind == "cayley_file":
            p.extra("core.read_cayley_table", core.read_cayley_table, spec.path)
            p.extra("core.validate_group_table", core.validate_group_table, G)
            with p.tracer.allocation("core.validate_group_table"):
                core.validate_group_table(G)

    @staticmethod
    def _isoclinism_parts(p: Pass, G: core.GroupTable) -> None:
        """The layers inside verify_direct_factor_invariance, on its inputs:
        G x C_p, its partition, the isoclinism search and witness validation."""
        prime = 2 if G.order == 1 else core.smallest_prime_factor(G.order)
        H = p.extra("core.direct_product", core.direct_product, G, construct.cyclic(prime),
                    cap=max(core.DEFAULT_ORDER_CAP, G.order * prime))
        p.extra("core.commuting_table", core.commuting_table, H)
        p.extra("zclass.z_class_partition", zclass.z_class_partition, H)
        p.extra("isoclinism.commutator_pairing", isoclinism.commutator_pairing, H)
        witness = p.extra("isoclinism.are_isoclinic", isoclinism.are_isoclinic, G, H,
                          cap=cli.CLI_ISO_CAP)
        if witness is not None:
            p.extra("isoclinism.witness_validate", witness.validate)

    def check(self, passes: list[Pass]) -> None:
        import oracles

        for p in passes:
            checks.check_failures(p.failures, self.expected_failures)
            checks.expect(p.facts["exit_code"] == 0,
                          f"zclasses catalog exited with {p.facts['exit_code']}")
        checks.check_identical("catalog report", [p.facts["report"] for p in passes])
        records = passes[0].facts["records"]
        checks.check_catalog_records(records, [e.label for e in self.entries], catalog.THEOREMS)
        for label, family in CATALOG_FAMILIES.items():
            checks.check_catalog_family(label, family, records)
        for entry in self.entries:
            G = specs.build_group(entry.spec_text, base_dir=entry.base_dir)
            if G.order <= ORACLE_MAX_ORDER:
                checks.check_partition(entry.label,
                                       [c.members for c in zclass.z_class_partition(G).classes],
                                       oracles.naive_z_partition(G))


# --- ladder ----------------------------------------------------------------

LADDER = [
    ("extraspecial(2,4,plus)", ("extraspecial", 2, 4, "plus")),
    ("extraspecial(2,5,minus)", ("extraspecial", 2, 5, "minus")),
    ("extraspecial(3,3,plus)", ("extraspecial", 3, 3, "plus")),
    ("extraspecial(5,2,plus)", ("extraspecial", 5, 2, "plus")),
    ("dihedral(4096)", ("dihedral", 4096)),
]
LADDER_LAYERS = [
    ("core.commuting_table", core.commuting_table),
    ("core.center", core.center),
    ("core.central_quotient", core.central_quotient),
    ("core.commutator_subgroup", core.commutator_subgroup),
    ("construct.is_extraspecial", construct.is_extraspecial),
    ("zclass.conjugate_type_vector", zclass.conjugate_type_vector),
    ("zclass.condition_central_quotient_elementary", zclass.condition_central_quotient_elementary),
    ("zclass.condition_local_center", zclass.condition_local_center),
    ("isoclinism.commutator_pairing", isoclinism.commutator_pairing),
]
# The partition of ES(2,4,+) merges 256 equal-centralizer cells pairwise and
# takes about a minute; it runs under this wall-time budget and fails.
BUDGETED = "extraspecial(2,4,plus)"
BUDGET_S = 3.0
# The traced walk records the allocation peak of the largest construction.
ALLOCATION_MEASURED = "extraspecial(5,2,plus)"


class Ladder:
    """Construction and the n x n analysis layers on the groups at the cap;
    the seed does not change these inputs."""

    def steps(self, p: Pass, walk: bool) -> None:
        for spec, family in LADDER:
            with p.on(spec):
                G = p.op("specs.build_group", specs.build_group, spec)
                if walk:
                    _construct(p, family[0], family[1:], spec == ALLOCATION_MEASURED)
                if G is None:
                    continue
                out = {name: p.op(name, fn, G) for name, fn in LADDER_LAYERS}
                part = None
                if family[0] == "dihedral":
                    part = p.op("zclass.z_class_partition", zclass.z_class_partition, G)
                    if walk:
                        _partition_allocation(p, G)
                if spec == BUDGETED:
                    part = p.op("zclass.z_class_partition", within_budget, BUDGET_S,
                                zclass.z_class_partition, G)
                p.facts[spec] = _structure(G, out, part)

    def check(self, passes: list[Pass]) -> None:
        for p in passes:
            for spec, family in LADDER:
                facts = p.facts.get(spec)
                checks.expect(facts is not None, f"{spec}: no results")
                if family[0] == "dihedral":
                    checks.check_dihedral(spec, family[1], facts)
                else:
                    checks.check_extraspecial(spec, family[1], family[2], facts)


def _structure(G: core.GroupTable, out: dict, part) -> dict | None:
    """The facts of one ladder group that the checks compare with closed forms."""
    if any(v is None for v in out.values()):
        return None
    Z, D = out["core.center"], out["core.commutator_subgroup"]
    return {
        "order": G.order, "center": Z.size, "derived": D.size, "derived_is_center": D == Z,
        "extraspecial": out["construct.is_extraspecial"],
        "ctv": out["zclass.conjugate_type_vector"],
        "cond1": out["zclass.condition_central_quotient_elementary"],
        "cond2": out["zclass.condition_local_center"][0],
        "zclasses": None if part is None else part.num_classes,
    }


# --- cayley ----------------------------------------------------------------

CAYLEY = [
    ("d1024", lambda: tables.dihedral_table(1024), ("dihedral", 1024)),
    ("heis11", lambda: tables.heisenberg_table(11), ("extraspecial", 11, 1)),
    ("d2048", lambda: tables.dihedral_table(2048), ("dihedral", 2048)),
]


def _load_error(path: Path) -> str | None:
    """Name of the error loading ``path`` raised, or None if it loaded."""
    try:
        core.read_cayley_table(path)
    except GroupError as exc:
        return type(exc).__name__
    return None


class Cayley:
    """Untrusted table files: load (parse, relabel, sampled validation above
    order 256), write back, count classes, and refuse two corrupted tables.
    The seed picks the relabelling and the corrupted cells."""

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.inputs = [tables.relabel(name, make(), rng) for name, make, _ in CAYLEY]
        self.families = {name: family for name, _, family in CAYLEY}
        d1024 = self.inputs[0]
        reflections = np.arange(512, 1024)
        self.corrupted = {
            "d1024-duplicate": tables.duplicate_entry(d1024, rng),
            "d1024-intercalate": tables.turned_intercalate(d1024, reflections, rng),
        }
        self.workdir = workdir
        self.seed = seed

    def path(self, name: str) -> Path:
        return self.workdir / f"{name}.cayley"

    def written(self, name: str) -> Path:
        return self.workdir / f"{name}.written.cayley"

    def setup(self) -> None:
        for r in self.inputs:
            tables.write_text(self.path(r.name), r.file_table,
                              f"{r.name}, relabelled with seed {self.seed}")
        for name, table in self.corrupted.items():
            tables.write_text(self.path(name), table, f"{name}, seed {self.seed}")

    def steps(self, p: Pass, walk: bool) -> None:
        for r in self.inputs:
            with p.on(r.name):
                G = p.op("core.read_cayley_table", core.read_cayley_table, self.path(r.name))
                if G is None:
                    continue
                if walk:
                    p.extra("core.validate_group_table", core.validate_group_table, G)
                    if r is self.inputs[-1]:
                        with p.tracer.allocation("core.validate_group_table"):
                            core.validate_group_table(G)
                p.op("core.write_cayley_table", core.write_cayley_table, G, self.written(r.name))
                if walk:
                    p.op("core.commuting_table", core.commuting_table, G)
                    p.op("zclass.z_class_partition", zclass.z_class_partition, G)
                count = p.op("zclass.z_class_count", zclass.z_class_count, G)
                ctv = p.op("zclass.conjugate_type_vector", zclass.conjugate_type_vector, G)
                p.facts[r.name] = {"same_table": bool(np.array_equal(G.mult, r.loaded)),
                                   "zclasses": count, "ctv": ctv}
        for name in self.corrupted:
            with p.on(name):
                p.facts[name] = p.op("core.read_cayley_table", _load_error, self.path(name))

    def check(self, passes: list[Pass]) -> None:
        for p in passes:
            for r in self.inputs:
                facts = p.facts.get(r.name)
                checks.expect(facts is not None and facts["ctv"] is not None,
                              f"{r.name}: no results")
                checks.expect(facts["same_table"], f"{r.name}: loaded table differs "
                              "from the formula under the file's relabelling")
                checks.check_family_counts(r.name, self.families[r.name], facts)
            for name in self.corrupted:
                checks.check_rejected(name, p.facts.get(name))
        # The written files must hold the loaded table in canonical form: parsed
        # here without the library, and the smallest also reloaded through it.
        for r in self.inputs:
            entries = np.fromstring(self.written(r.name).read_text(), dtype=np.int64, sep=" ")
            n = int(entries[0])
            checks.check_same_table(f"{r.name} as written", entries[1:].reshape(n, n), r.loaded)
        first = self.inputs[0]
        reloaded = core.read_cayley_table(self.written(first.name))
        checks.check_same_table(f"{first.name} written and reloaded", reloaded.mult, first.loaded)


# --- large -----------------------------------------------------------------

class Large:
    """The ladder, then the Cayley tables, in one process.

    Both take about 15 s a pass.  As separate workloads a run could hold only
    two passes of either within the time a comparison of two commits allows,
    too short to smooth this machine's slow phases of 10-30 s; together a run
    spans two 30-s passes.  The ladder's peak (ES(5,2,+)) masks the tables'
    in ``peak_rss_mb``; ``core.validate_group_table_alloc_mb`` keeps the
    tables' own figure.
    """

    name = "large"
    expected_failures = {("zclass.z_class_partition", BUDGETED)}

    def __init__(self, seed: int, workdir: Path):
        self.ladder = Ladder()
        self.tables = Cayley(seed, workdir)

    def setup(self) -> None:
        self.tables.setup()

    def run_pass(self, tracer: Tracer, walk: bool = False) -> Pass:
        p = Pass(tracer, self.name)
        self.ladder.steps(p, walk)
        self.tables.steps(p, walk)
        return p

    def walk(self, tracer: Tracer) -> Pass:
        return self.run_pass(tracer, walk=True)

    def check(self, passes: list[Pass]) -> None:
        for p in passes:
            checks.check_failures(p.failures, self.expected_failures)
        self.ladder.check(passes)
        self.tables.check(passes)


WORKLOADS = {w.name: w for w in (Catalog, Large)}

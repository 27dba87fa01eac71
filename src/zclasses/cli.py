"""Batch command line: analyze one group, verify one check, or sweep a catalog.

Exit codes: 0 ok, 1 refutation or golden mismatch, 2 usage/parse error,
3 construction error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .catalog import (
    ANALYZE_COLUMNS,
    RECORD_COLUMNS,
    THEOREMS,
    analyze_group,
    builtin_catalog,
    parse_catalog_file,
    records_to_csv,
    records_to_json_lines,
    run_catalog,
    run_theorem,
    theorem_record,
)
from .core import DEFAULT_ORDER_CAP, MAX_ORDER
from .errors import GroupError, SpecSyntaxError, UnknownConstructor
from .specs import build_group

# No subcommand searches for an isoclinism; perfbench's traced walk still
# passes this constant to run_theorem, which ignores it.
CLI_ISO_CAP = 96


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--cap", type=int, default=DEFAULT_ORDER_CAP,
                     help="maximum group order for constructions and loaded tables "
                          f"(default {DEFAULT_ORDER_CAP}; never above {MAX_ORDER}, "
                          "the largest order int16 element ids hold)")
    sub.add_argument("--format", choices=("json", "csv"), default="json",
                     help="report format")


def _emit_records(records, columns, fmt: str, output: str | None) -> None:
    if fmt == "csv":
        text = records_to_csv(records, columns or RECORD_COLUMNS)
    else:
        text = records_to_json_lines(records)
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="zclasses",
        description="Finite-group computations: centralizer-conjugacy classes, "
                    "conjugate type vectors, extraspecial groups, isoclinism.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="construct one group and report its invariants")
    p_analyze.add_argument("spec", help="construction spec, e.g. 'heisenberg(3)'")
    _add_common(p_analyze)

    p_verify = sub.add_parser("verify", help="run one named check on one group")
    p_verify.add_argument("spec")
    p_verify.add_argument("--theorem", required=True, choices=THEOREMS)
    _add_common(p_verify)

    p_catalog = sub.add_parser("catalog", help="run every check over a catalog of groups")
    p_catalog.add_argument("path", nargs="?", default=None,
                           help="catalog file (defaults to the builtin catalog)")
    p_catalog.add_argument("--output", default=None, help="write records here instead of stdout")
    _add_common(p_catalog)

    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            G = build_group(args.spec, cap=args.cap)
            record = analyze_group(G, label=args.spec)
            _emit_records([record], ANALYZE_COLUMNS, args.format, None)
            return 0
        if args.command == "verify":
            G = build_group(args.spec, cap=args.cap)
            report = run_theorem(G, args.theorem, order_cap=args.cap)
            record = theorem_record(args.spec, analyze_group(G, label=args.spec), report)
            _emit_records([record], None, args.format, None)
            return 1 if report.verdict == "REFUTED" else 0
        if args.command == "catalog":
            if args.path is None:
                entries = builtin_catalog()
            else:
                entries = parse_catalog_file(args.path)
            result = run_catalog(entries, cap=args.cap)
            _emit_records(result.records, None, args.format, args.output)
            print("summary: " + json.dumps(result.summary, separators=(",", ":")),
                  file=sys.stderr)
            return result.exit_code
    except (SpecSyntaxError, UnknownConstructor) as exc:
        print(f"zclasses: parse error: {exc}", file=sys.stderr)
        return 2
    except GroupError as exc:
        print(f"zclasses: error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"zclasses: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: validate, solve, generate-configs, build, synth,
verify-decomposition.  Results go to standard output; progress and
error diagnostics go to standard error, so output given identical input
is byte-identical run to run.

Exit codes: 0 success, 1 validation or domain failure, 2 unreadable or
unparsable input, an unwritable ``--export-lp`` path or a standard output
closed by its reader, 3 infeasible
instance, 4 internal error (a result failed its proof check, so no
answer is trusted).
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import re
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

from .cluster import solve_all, verify_decomposition
# generate_configurations is unused here, but perfbench/tracing.py patches it on this module by getattr
from .confgen import generate_configurations  # noqa: F401
from .domain import (
    MILLI,
    ClusterInstance,
    ForecastMatrix,
    InstanceDataError,
    InstanceFormatError,
    MultiClusterInstance,
    as_multi,
    default_configurations,
    dumps_instance,
    dumps_json,
    format_attendance,
    format_hhmm,
    load_instance,
    milli_to_json,
    read_document,
)
# build_joint_model is unused here, but perfbench/tracing.py patches it on this module by getattr
from .formulation import build_joint_model, build_model, direct_sum, export_lp_text  # noqa: F401
from .solver import CERTIFICATE_KINDS, CertificationError, SolveReport


def _fmt_objective(objective) -> str:
    return format_attendance(int(objective * MILLI))


def _schedule_rows(cluster: ClusterInstance, report: SolveReport) -> List[dict]:
    rows = []
    for screen_id, (film_id, config_index) in report.schedule.items():
        screen = cluster.screen_by_id[screen_id]
        config = cluster.configuration_by_key[(film_id, config_index)]
        rows.append(
            {
                "screen_id": screen.source_id,
                "location": cluster.location_by_id[screen.location_id].name,
                "film_id": film_id,
                "film_title": cluster.film_by_id[film_id].title,
                "config_index": config_index,
                "showtimes": [format_hhmm(t) for t in config.showtimes],
            }
        )
    return rows


def _print_table(all_rows: List[dict], objective) -> None:
    header = ["Screen", "Location", "Film", "Configuration", "Showtimes"]
    cells = [
        [
            str(r["screen_id"]),
            r["location"],
            r["film_title"],
            str(r["config_index"]),
            " ".join(r["showtimes"]),
        ]
        for r in all_rows
    ]
    widths = [max(len(header[i]), *(len(c[i]) for c in cells)) if cells else len(header[i])
              for i in range(len(header))]
    print("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip())
    for c in cells:
        print("  ".join(c[i].ljust(widths[i]) for i in range(len(header))).rstrip())
    print(f"Objective: {_fmt_objective(objective)}")


def _print_csv(all_rows: List[dict]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["screen_id", "location", "film_id", "film_title", "config_index", "showtimes"])
    for r in all_rows:
        writer.writerow(
            [r["screen_id"], r["location"], r["film_id"], r["film_title"],
             r["config_index"], " ".join(r["showtimes"])]
        )
    sys.stdout.write(buf.getvalue())


def _write_lp(models, path: str) -> bool:
    """Write the LP text of the one ``(cluster id, model)`` pair or of their direct sum.

    False, after one stderr line, on failure.
    """
    model = models[0][1] if len(models) == 1 else direct_sum(models)
    try:
        Path(path).write_text(export_lp_text(model), encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror}", file=sys.stderr)
        return False
    return True


def cmd_validate(args) -> int:
    try:
        load_instance(args.instance)
    except InstanceDataError as exc:
        for violation in exc.violations:
            print(str(violation))
        return 1
    print("ok")
    return 0


def cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    multi = as_multi(instance)

    started = time.perf_counter()
    report = solve_all(multi)
    elapsed = time.perf_counter() - started

    if args.export_lp and not _write_lp(report.models, args.export_lp):
        return 2

    clusters = {c.cluster_id: c for c in multi.clusters}
    if args.format == "json":
        doc = {
            "status": report.overall_status,
            "objective": (
                milli_to_json(int(report.combined_objective * MILLI))
                if report.combined_objective is not None else None
            ),
            "clusters": [],
        }
        for cluster_id, cluster_report in report.per_cluster.items():
            entry = {
                "cluster_id": cluster_id,
                "status": cluster_report.status,
                "method": cluster_report.method,
                "certified": cluster_report.certified,
            }
            if cluster_report.status == "Optimal":
                entry["objective"] = milli_to_json(int(cluster_report.objective * MILLI))
                entry["schedule"] = _schedule_rows(clusters[cluster_id], cluster_report)
            else:
                entry["diagnostic"] = cluster_report.diagnostic
            doc["clusters"].append(entry)
        print(dumps_json(doc))
    else:
        all_rows = [
            row
            for cluster_id, cluster_report in report.per_cluster.items()
            if cluster_report.status == "Optimal"
            for row in _schedule_rows(clusters[cluster_id], cluster_report)
        ]
        all_rows.sort(key=lambda r: r["screen_id"])
        if args.format == "csv":
            _print_csv(all_rows)
        elif report.overall_status == "Optimal":
            _print_table(all_rows, report.combined_objective)
        else:
            print("Status: Infeasible")

    kinds = Counter(r.certificate.kind for r in report.per_cluster.values())
    print(
        f"solved {len(multi.clusters)} cluster(s) in {elapsed * 1000:.1f} ms"
        f" (certificates: {', '.join(f'{kinds[k]} {k}' for k in CERTIFICATE_KINDS)})",
        file=sys.stderr,
    )
    if report.overall_status != "Optimal":
        for cluster_id, cluster_report in report.per_cluster.items():
            if cluster_report.status == "Infeasible":
                print(f"cluster {cluster_id}: {cluster_report.diagnostic}", file=sys.stderr)
        return 3
    return 0


def _load_partial(path: str, turnover_minutes: int):
    """The document's instance, and whether the document lists configurations.

    Missing configurations are generated on load, with the turnover, before
    the forecast is checked against them.  The parsed document is dropped
    on return, before any output is built.
    """
    document = read_document(path)
    multi = as_multi(load_instance(document, allow_partial=True, turnover_minutes=turnover_minutes))
    return multi, bool(document.get("configurations"))


def cmd_generate_configs(args) -> int:
    multi, listed = _load_partial(args.instance, args.turnover)

    if listed:   # the document's configurations are replaced, and their forecast rows dropped
        rebuilt = []
        for cluster in multi.clusters:
            configs = default_configurations(cluster, args.turnover)
            keys = {c.key() for c in configs}
            kept = {k: v for k, v in cluster.forecast.entries.items() if k[1:] in keys}
            rebuilt.append(replace(cluster, configurations=configs, forecast=ForecastMatrix(kept)))
        multi = MultiClusterInstance(clusters=tuple(rebuilt))

    sys.stdout.write(dumps_instance(multi))
    return 0


def cmd_build(args) -> int:
    clusters = sorted(as_multi(load_instance(args.instance)).clusters, key=lambda c: c.cluster_id)
    models = [(c.cluster_id, build_model(c)) for c in clusters]

    for cluster_id, model in models:
        print(
            f"cluster {cluster_id}: {model.variable_count} variables,"
            f" {len(model.screen_ids)} equality rows, {len(model.column_keys)} inequality rows"
        )
    print(
        f"total: {sum(m.variable_count for _, m in models)} variables,"
        f" {sum(len(m.screen_ids) for _, m in models)} equality rows,"
        f" {sum(len(m.column_keys) for _, m in models)} inequality rows"
    )

    if args.export_lp:
        if not _write_lp(models, args.export_lp):
            return 2
        print(f"wrote {args.export_lp}", file=sys.stderr)
    return 0


def cmd_synth(args) -> int:
    from .synth import generate_document

    match = re.fullmatch(r"(\d+)\.\.(\d+)", args.coeff_range)
    if match is None:
        print(f"error: bad --coeff-range {args.coeff_range!r}, expected LO..HI", file=sys.stderr)
        return 2
    lo, hi = int(match.group(1)), int(match.group(2))
    try:
        doc = generate_document(
            screens=args.screens,
            films=args.films,
            clusters=args.clusters,
            seed=args.seed,
            coeff_range=(lo, hi),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(dumps_json(doc))
    return 0


def cmd_verify_decomposition(args) -> int:
    instance = load_instance(args.instance)
    report = verify_decomposition(instance)

    split = report.per_cluster
    for cluster_id, cluster_report in split.per_cluster.items():
        if cluster_report.status == "Optimal":
            print(f"cluster {cluster_id}: Optimal, objective {_fmt_objective(cluster_report.objective)}")
        else:
            print(f"cluster {cluster_id}: Infeasible")
    if split.overall_status == "Optimal":
        print(f"sum of cluster optima: {_fmt_objective(split.combined_objective)}")
        print(f"joint model optimum: {_fmt_objective(report.joint_objective)}")
        print("decomposition verified: joint optimum equals the sum of cluster optima")
        return 0
    print("decomposition verified: joint model and clusters agree on infeasibility")
    for cluster_id, cluster_report in split.per_cluster.items():
        if cluster_report.status == "Infeasible":
            print(f"cluster {cluster_id}: {cluster_report.diagnostic}", file=sys.stderr)
    return 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cinestagger",
        description="Exact film-to-screen scheduler with staggered showtimes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance file, listing violations")
    p.add_argument("instance", help="instance JSON file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="solve an instance and print the schedule")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p.add_argument("--export-lp", metavar="PATH", help="also write the model as LP text")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser(
        "generate-configs",
        help="fill in showtime configurations from runtimes and the operating window",
    )
    p.add_argument("instance", help="instance JSON file, configurations optional")
    p.add_argument("--turnover", type=int, default=0, help="minutes added per screening")
    p.set_defaults(func=cmd_generate_configs)

    p = sub.add_parser("build", help="print model statistics, optionally export LP text")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("--export-lp", metavar="PATH")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("synth", help="generate a seeded random instance")
    p.add_argument("--screens", type=int, required=True, help="screens per cluster")
    p.add_argument("--films", type=int, required=True, help="films per cluster")
    p.add_argument("--clusters", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coeff-range", default="200..299", metavar="LO..HI")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser(
        "verify-decomposition",
        help="check that per-cluster optima sum to the joint optimum",
    )
    p.add_argument("instance", help="instance JSON file")
    p.set_defaults(func=cmd_verify_decomposition)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()   # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError as exc:
        # what is still buffered goes to devnull, so the flush at exit cannot fail
        # again (the Python docs' note on SIGPIPE)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write standard output: {exc.strerror}", file=sys.stderr)
        return 2
    except InstanceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InstanceDataError as exc:
        for violation in exc.violations:
            print(str(violation), file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CertificationError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

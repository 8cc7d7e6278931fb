"""Command-line front end.

Subcommands: validate, solve, generate-configs, build, synth,
verify-decomposition.  Results go to standard output, each command's in
one write; progress and error diagnostics go to standard error, so output
given identical input is byte-identical run to run.

Exit codes: 0 success, 1 validation or domain failure, 2 a bad option
value, unreadable or unparsable input, an unwritable ``--export-lp`` path,
or a standard output that its reader closed or whose encoding cannot
represent the output, 3 infeasible instance, 4 internal error (a result
failed its proof check, so no answer is trusted).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import re
import sys
import time
from collections import Counter, namedtuple
from pathlib import Path
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from .cluster import ClusterSolveReport, solve_all
# generate_configurations is unused here, but perfbench/tracing.py patches it on this module by getattr
from .confgen import generate_configurations  # noqa: F401
from .domain import (
    MILLI,
    ClusterInstance,
    InstanceDataError,
    InstanceFormatError,
    MultiClusterInstance,
    ShowtimeConfiguration,
    default_configurations,
    dumps_instance,
    dumps_json,
    format_attendance,
    format_hhmm,
    json_array,
    load_instance,
    read_document,
)
# build_joint_model is unused here, but perfbench/tracing.py patches it on this module by getattr
from .formulation import build_joint_model, build_model, export_lp_text  # noqa: F401
from .solver import CERTIFICATE_KINDS, CertificationError, SolveReport


def _fmt_objective(objective) -> str:
    return format_attendance(int(objective * MILLI))


class ScheduleRow(namedtuple("ScheduleRow", "screen_id location film_id film_title config_index showtimes")):
    """One screen's line of a solved schedule, as every output format reads it.

    The field names are the csv header.  ``screen_id`` is the document's id;
    ``showtimes`` holds format_hhmm texts, shared by the rows of one showtime
    list.
    """

    __slots__ = ()


def _schedule_rows(
    cluster: ClusterInstance, report: SolveReport, texts: Dict[Tuple[int, ...], Tuple[str, ...]]
) -> List[ScheduleRow]:
    """The cluster's schedule rows, one per screen.

    ``texts`` maps each showtime tuple already formatted to its texts; the
    caller passes one dict for all its clusters, so each distinct tuple is
    formatted once and its rows share the texts.
    """
    screens = {s.screen_id: s for s in cluster.screens}
    names = {loc.location_id: loc.name for loc in cluster.locations}
    titles = {f.film_id: f.title for f in cluster.films}
    showtimes_of = {c.key(): c.showtimes for c in cluster.configurations}
    rows = []
    for screen_id, (film_id, config_index) in report.schedule.items():
        screen = screens[screen_id]
        showtimes = showtimes_of[(film_id, config_index)]
        formatted = texts.get(showtimes)
        if formatted is None:
            formatted = texts[showtimes] = tuple(map(format_hhmm, showtimes))
        rows.append(
            ScheduleRow(
                screen.source_id, names[screen.location_id], film_id, titles[film_id], config_index, formatted
            )
        )
    return rows


def _solve_json(report: ClusterSolveReport, clusters: Dict[str, ClusterInstance]) -> str:
    """The solve document's text, as dumps_json would write it, in one pass from the schedule rows."""
    texts: Dict[Tuple[int, ...], Tuple[str, ...]] = {}
    arrays: Dict[Tuple[str, ...], str] = {}     # each distinct showtime list's JSON array text
    entries = []
    for cluster_id, cluster_report in report.per_cluster.items():
        entry = (
            '\n    {\n      "cluster_id": ' + encode_basestring_ascii(cluster_id)
            + ',\n      "status": ' + encode_basestring_ascii(cluster_report.status)
            + ',\n      "method": ' + encode_basestring_ascii(cluster_report.method)
            + ',\n      "certified": ' + ("true" if cluster_report.certified else "false")
        )
        if cluster_report.status == "Optimal":
            rows = []
            for row in _schedule_rows(clusters[cluster_id], cluster_report, texts):
                array = arrays.get(row.showtimes)
                if array is None:
                    array = arrays[row.showtimes] = json_array(
                        [f'\n            "{t}"' for t in row.showtimes], "\n          "
                    )
                rows.append(
                    f'\n        {{\n          "screen_id": {row.screen_id},'
                    '\n          "location": ' + encode_basestring_ascii(row.location)
                    + f',\n          "film_id": {row.film_id},'
                    '\n          "film_title": ' + encode_basestring_ascii(row.film_title)
                    + f',\n          "config_index": {row.config_index},'
                    '\n          "showtimes": ' + array + "\n        }"
                )
            entry += (
                ',\n      "objective": ' + _fmt_objective(cluster_report.objective)
                + ',\n      "schedule": ' + json_array(rows, "\n      ")
            )
        else:
            entry += ',\n      "diagnostic": ' + encode_basestring_ascii(cluster_report.diagnostic)
        entries.append(entry + "\n    }")
    objective = report.combined_objective
    return (
        '{\n  "status": ' + encode_basestring_ascii(report.overall_status)
        + ',\n  "objective": ' + ("null" if objective is None else _fmt_objective(objective))
        + ',\n  "clusters": ' + json_array(entries, "\n  ")
        + "\n}\n"
    )


def _table_text(all_rows: List[ScheduleRow], objective) -> str:
    header = ["Screen", "Location", "Film", "Configuration", "Showtimes"]
    cells = [header] + [
        [str(r.screen_id), r.location, r.film_title, str(r.config_index), " ".join(r.showtimes)]
        for r in all_rows
    ]
    widths = [max(len(c[i]) for c in cells) for i in range(len(header))]
    lines = ["  ".join(c[i].ljust(widths[i]) for i in range(len(header))).rstrip() for c in cells]
    return "\n".join(lines) + f"\nObjective: {_fmt_objective(objective)}\n"


def _csv_text(all_rows: List[ScheduleRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ScheduleRow._fields)
    writer.writerows(r._replace(showtimes=" ".join(r.showtimes)) for r in all_rows)
    return buf.getvalue()


class UnwritableOutputError(Exception):
    """Standard output's encoding cannot represent the text; nothing was written."""


def _write_stdout(text: str) -> None:
    """Write ``text`` to standard output whole, or raise BrokenPipeError or
    UnwritableOutputError.

    When the reader closes during one large write, the buffered writer
    returns a short count without an error and the text layer drops the
    rest.  So the bytes are handed over until every one is taken: the write
    after a short count meets the closed pipe and raises.
    """
    stream = sys.stdout
    buffer = getattr(stream, "buffer", None)
    if buffer is None:      # an in-memory text stream takes the text whole
        stream.write(text)
        return
    stream.flush()
    try:
        data = memoryview(text.encode(stream.encoding, stream.errors))
    except UnicodeEncodeError as exc:   # a ValueError, but not the document's fault
        raise UnwritableOutputError(exc) from None
    while data:
        data = data[buffer.write(data):]


def _write_lp(models, path: str) -> bool:
    """Write the LP text of the one ``(cluster id, model)`` pair, or of their direct sum block by block.

    False, after one stderr line, on failure.
    """
    model = models[0][1] if len(models) == 1 else models
    try:
        Path(path).write_text(export_lp_text(model), encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror}", file=sys.stderr)
        return False
    return True


def _infeasible(report: ClusterSolveReport) -> int:
    """Exit code 3, after one stderr line per infeasible cluster naming its diagnostic."""
    for cluster_id, cluster_report in report.per_cluster.items():
        if cluster_report.status == "Infeasible":
            print(f"cluster {cluster_id}: {cluster_report.diagnostic}", file=sys.stderr)
    return 3


def cmd_validate(args) -> int:
    try:
        load_instance(args.instance)
    except InstanceDataError as exc:
        _write_stdout("".join(f"{violation}\n" for violation in exc.violations))
        return 1
    _write_stdout("ok\n")
    return 0


def cmd_solve(args) -> int:
    instance = load_instance(args.instance)

    started = time.perf_counter()
    report = solve_all(instance)
    elapsed = time.perf_counter() - started

    if args.export_lp and not _write_lp(report.models, args.export_lp):
        return 2

    clusters = {c.cluster_id: c for c in instance.clusters}
    if args.format == "json":
        text = _solve_json(report, clusters)
    else:
        texts: Dict[Tuple[int, ...], Tuple[str, ...]] = {}
        all_rows = [
            row
            for cluster_id, cluster_report in report.per_cluster.items()
            if cluster_report.status == "Optimal"
            for row in _schedule_rows(clusters[cluster_id], cluster_report, texts)
        ]
        all_rows.sort(key=attrgetter("screen_id"))
        if args.format == "csv":
            text = _csv_text(all_rows)
        elif report.overall_status == "Optimal":
            text = _table_text(all_rows, report.combined_objective)
        else:
            text = "Status: Infeasible\n"
    _write_stdout(text)

    kinds = Counter(r.certificate.kind for r in report.per_cluster.values())
    print(
        f"solved {len(instance.clusters)} cluster(s) in {elapsed * 1000:.1f} ms"
        f" (certificates: {', '.join(f'{kinds[k]} {k}' for k in CERTIFICATE_KINDS)})",
        file=sys.stderr,
    )
    return 0 if report.overall_status == "Optimal" else _infeasible(report)


def _load_partial(path: str, turnover_minutes: int):
    """The document's instance, and whether the document lists configurations.

    Missing configurations are generated on load, with the turnover, before
    the forecast is checked against them.  The parsed document is dropped
    on return, before any output is built.
    """
    document = read_document(path)
    instance = load_instance(document, allow_partial=True, turnover_minutes=turnover_minutes)
    return instance, bool(document.get("configurations"))


def cmd_generate_configs(args) -> int:
    if args.turnover < 0:
        print(f"error: turnover must be >= 0, got {args.turnover}", file=sys.stderr)
        return 2
    instance, listed = _load_partial(args.instance, args.turnover)

    # the document's configurations are replaced; each generated one takes the
    # forecast of the listed configuration of its film with its showtimes, the
    # lowest config index where several share them, and none where none does
    if listed:
        rebuilt = []
        for cluster in instance.clusters:
            source: Dict[tuple, Tuple[int, int]] = {}
            for config in sorted(cluster.configurations, key=ShowtimeConfiguration.key):
                source.setdefault((config.film_id, config.showtimes), config.key())
            configs = default_configurations(cluster, args.turnover)
            forecast = cluster.forecast.with_columns(
                {c.key(): source.get((c.film_id, c.showtimes)) for c in configs}
            )
            rebuilt.append(cluster._replace(configurations=configs, forecast=forecast))
        instance = MultiClusterInstance(clusters=tuple(rebuilt))

    _write_stdout(dumps_instance(instance))
    return 0


def _model_counts(models) -> str:
    return (
        f"{sum(m.variable_count for m in models)} variables,"
        f" {sum(len(m.screen_ids) for m in models)} equality rows,"
        f" {sum(len(m.column_keys) for m in models)} inequality rows"
    )


def cmd_build(args) -> int:
    # the loader gives the clusters in id order
    models = [(c.cluster_id, build_model(c)) for c in load_instance(args.instance).clusters]

    lines = [f"cluster {cluster_id}: {_model_counts([model])}" for cluster_id, model in models]
    lines.append(f"total: {_model_counts([model for _, model in models])}")
    _write_stdout("".join(f"{line}\n" for line in lines))

    if args.export_lp:
        if not _write_lp(models, args.export_lp):
            return 2
        print(f"wrote {args.export_lp}", file=sys.stderr)
    return 0


def cmd_synth(args) -> int:
    from .synth import generate_document

    match = re.fullmatch(r"(\d+)\.\.(\d+)", args.coeff_range, re.ASCII)
    if match is None:
        print(f"error: bad --coeff-range {args.coeff_range!r}, expected LO..HI", file=sys.stderr)
        return 2
    try:
        lo, hi = int(match.group(1)), int(match.group(2))
    except ValueError:  # past the interpreter's limit on digits read as an int
        print("error: bad --coeff-range, a bound has too many digits", file=sys.stderr)
        return 2
    try:
        doc = generate_document(screens=args.screens, films=args.films, clusters=args.clusters,
                                seed=args.seed, coeff_range=(lo, hi))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_stdout(dumps_json(doc) + "\n")
    return 0


def cmd_verify_decomposition(args) -> int:
    # solve_all's premises make its certified cluster results the joint result
    report = solve_all(load_instance(args.instance))

    lines = [
        f"cluster {cluster_id}: Optimal, objective {_fmt_objective(cluster_report.objective)}"
        if cluster_report.status == "Optimal" else f"cluster {cluster_id}: Infeasible"
        for cluster_id, cluster_report in report.per_cluster.items()
    ]
    if report.overall_status == "Optimal":
        objective = _fmt_objective(report.combined_objective)
        lines += [
            f"sum of cluster optima: {objective}",
            "decomposition: no two clusters share a screen, so the joint optimum is the sum of cluster optima",
        ]
    else:
        lines.append(
            "decomposition: no two clusters share a screen, so the joint model is infeasible because a cluster is"
        )
    _write_stdout("".join(f"{line}\n" for line in lines))
    return 0 if report.overall_status == "Optimal" else _infeasible(report)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; ``main`` runs ``cmd_<command>``."""
    parser = argparse.ArgumentParser(
        prog="cinestagger",
        description="Exact film-to-screen scheduler with staggered showtimes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance file, listing violations")
    p.add_argument("instance", help="instance JSON file")

    p = sub.add_parser("solve", help="solve an instance and print the schedule")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p.add_argument("--export-lp", metavar="PATH", help="also write the model as LP text")

    p = sub.add_parser(
        "generate-configs",
        help="fill in showtime configurations from runtimes and the operating window",
    )
    p.add_argument("instance", help="instance JSON file, configurations optional")
    p.add_argument("--turnover", type=int, default=0, help="minutes added per screening")

    p = sub.add_parser("build", help="print model statistics, optionally export LP text")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("--export-lp", metavar="PATH")

    p = sub.add_parser("synth", help="generate a seeded random instance")
    p.add_argument("--screens", type=int, required=True, help="screens per cluster")
    p.add_argument("--films", type=int, required=True, help="films per cluster")
    p.add_argument("--clusters", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coeff-range", default="200..299", metavar="LO..HI")

    p = sub.add_parser(
        "verify-decomposition",
        help="print per-cluster optima and their sum, the joint optimum as no two clusters share a screen",
    )
    p.add_argument("instance", help="instance JSON file")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        code = command(args)
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
    except UnwritableOutputError as exc:
        print(f"error: cannot write standard output: {exc}", file=sys.stderr)
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

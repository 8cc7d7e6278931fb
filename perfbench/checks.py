"""Independent output checks for benchmark ops.

Nothing here imports ``cinestagger``: every expected value is derived from
the generated document itself, the optimum from
``scipy.optimize.linear_sum_assignment`` and the showtime configurations
from the closed-form cycle and offset rule.  Each check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

ORACLE_MAX_SCREENS = 8     # brute-force guard of the program's certifier
ORACLE_MAX_COLUMNS = 10

ConfigKey = Tuple[int, int]


def _minutes(hhmm: str) -> int:
    hours, minutes = hhmm.split(":")
    return int(hours) * 60 + int(minutes)


def _hhmm(minutes: int) -> str:
    return f"{minutes // 60:02d}:{minutes % 60:02d}"


def closed_form_configurations(
    runtime: int, window: Tuple[int, int], stagger: int
) -> List[List[str]]:
    """Showtime lists of one film: one per stagger offset of its cycle.

    The cycle is the runtime rounded up to the stagger interval; offset o
    starts at open + o and repeats every cycle up to the last showtime.
    """
    open_time, last = window
    cycle = -(-runtime // stagger) * stagger
    configs = []
    for offset in range(0, cycle, stagger):
        times = list(range(open_time + offset, last + 1, cycle))
        if times:
            configs.append([_hhmm(t) for t in times])
    return configs


class DocumentFacts:
    """Per-cluster screens, configurations and forecast of one document."""

    def __init__(self, doc: dict):
        stagger = doc["stagger_interval_minutes"]
        cluster_of_location = {loc["id"]: str(loc["cluster_id"]) for loc in doc["locations"]}
        self.cluster_ids = sorted(set(cluster_of_location.values()))
        self.screens: Dict[str, List[int]] = {c: [] for c in self.cluster_ids}
        self.cluster_of_screen: Dict[int, str] = {}
        for screen in doc["screens"]:
            cluster = cluster_of_location[screen["location_id"]]
            self.screens[cluster].append(screen["id"])
            self.cluster_of_screen[screen["id"]] = cluster

        self.film_by_title = {f["title"]: f["id"] for f in doc["films"]}
        films_of: Dict[str, List[dict]] = {c: [] for c in self.cluster_ids}
        for film in doc["films"]:
            scope = film.get("cluster_id")
            for cluster in self.cluster_ids:
                if scope is None or str(scope) == cluster:
                    films_of[cluster].append(film)

        # (film_id, config_index) -> showtimes, per cluster
        self.configs: Dict[str, Dict[ConfigKey, List[str]]] = {}
        given = {(c["film_id"], c["config_index"]): c["showtimes"]
                 for c in doc.get("configurations", [])}
        for cluster in self.cluster_ids:
            film_ids = {f["id"] for f in films_of[cluster]}
            if "configurations" in doc:
                self.configs[cluster] = {k: v for k, v in given.items() if k[0] in film_ids}
                continue
            locations = [l for l in doc["locations"] if str(l["cluster_id"]) == cluster]
            window = (min(_minutes(l["open_time"]) for l in locations),
                      max(_minutes(l["last_showtime"]) for l in locations))
            self.configs[cluster] = {
                (film["id"], index): times
                for film in sorted(films_of[cluster], key=lambda f: f["id"])
                for index, times in enumerate(
                    closed_form_configurations(film["runtime_minutes"], window, stagger),
                    start=1,
                )
            }

        self._forecast_rows = doc["forecast"]

    @cached_property
    def forecast(self) -> Dict[Tuple[int, int, int], Fraction]:
        return {
            (e["screen_id"], e["film_id"], e["config_index"]): Fraction(str(e["attendance"]))
            for e in self._forecast_rows
        }

    @property
    def variables(self) -> int:
        """Model size: screens x configurations, summed over clusters."""
        return sum(len(self.screens[c]) * len(self.configs[c]) for c in self.cluster_ids)

    def oracle_leaves(self) -> int:
        """Complete assignments the brute-force oracle enumerates for this document.

        A cluster of n screens and m configurations inside the oracle guard
        has m!/(m-n)! injective maps; clusters outside it cost none.
        """
        total = 0
        for c in self.cluster_ids:
            n, m = len(self.screens[c]), len(self.configs[c])
            if n <= min(m, ORACLE_MAX_SCREENS) and m <= ORACLE_MAX_COLUMNS:
                total += math.perm(m, n)
        return total

    def reference_optima(self) -> Dict[str, Optional[Fraction]]:
        """Per-cluster maximum total attendance, None where screens outnumber configurations."""
        optima: Dict[str, Optional[Fraction]] = {}
        for cluster in self.cluster_ids:
            screens = self.screens[cluster]
            keys = sorted(self.configs[cluster])
            if len(screens) > len(keys):
                optima[cluster] = None
                continue
            weights = [[self.forecast[(s, *k)] for k in keys] for s in screens]
            rows, cols = linear_sum_assignment(
                np.array(weights, dtype=float), maximize=True
            )
            optima[cluster] = sum((weights[r][c] for r, c in zip(rows, cols)), Fraction(0))
        return optima


def _check_schedule(
    facts: DocumentFacts,
    cluster: str,
    rows: List[Tuple[int, ConfigKey]],
    objective: Fraction,
    optimum: Optional[Fraction],
) -> List[str]:
    problems = []
    if optimum is None:
        return [f"cluster {cluster}: schedule printed although screens outnumber configurations"]
    screens = [sid for sid, _ in rows]
    if sorted(screens) != sorted(facts.screens[cluster]):
        problems.append(f"cluster {cluster}: screens scheduled {sorted(screens)}"
                        f" != cluster screens {sorted(facts.screens[cluster])}")
    chosen = [key for _, key in rows]
    if len(set(chosen)) != len(chosen):
        problems.append(f"cluster {cluster}: a configuration repeats within the cluster")
    unknown = [key for key in chosen if key not in facts.configs[cluster]]
    if unknown:
        problems.append(f"cluster {cluster}: configurations {unknown} not in the cluster")
        return problems
    recomputed = sum((facts.forecast[(sid, *key)] for sid, key in rows), Fraction(0))
    if recomputed != objective:
        problems.append(f"cluster {cluster}: printed objective {objective}"
                        f" != sum of chosen forecasts {recomputed}")
    if objective != optimum:
        problems.append(f"cluster {cluster}: objective {objective} != reference optimum {optimum}")
    return problems


_TABLE_SPLIT = re.compile(r" {2,}")


def check_solve_table(
    facts: DocumentFacts, optima: Dict[str, Optional[Fraction]], code: int, out: str
) -> List[str]:
    """``solve DOC`` in table format on a single-cluster document."""
    infeasible = any(v is None for v in optima.values())
    lines = out.splitlines()
    if infeasible:
        if code != 3 or lines != ["Status: Infeasible"]:
            return [f"expected Infeasible with exit 3, got exit {code}"]
        return []
    if code != 0:
        return [f"expected exit 0, got {code}"]
    if len(lines) < 2 or not lines[-1].startswith("Objective: "):
        return ["table output has no objective line"]
    rows = []
    for line in lines[1:-1]:
        fields = _TABLE_SPLIT.split(line)
        if len(fields) != 5:
            return [f"unparsable table row {line!r}"]
        sid, _location, title, index, times = fields
        key = (facts.film_by_title.get(title, -1), int(index))
        rows.append((int(sid), key))
        cluster = facts.cluster_of_screen.get(int(sid))
        shown = facts.configs.get(cluster, {}).get(key)
        if shown is not None and shown != times.split(" "):
            return [f"screen {sid}: showtimes {times!r} differ from configuration {key}"]
    objective = Fraction(lines[-1][len("Objective: "):])
    (cluster,) = facts.cluster_ids
    return _check_schedule(facts, cluster, rows, objective, optima[cluster])


def check_solve_json(
    facts: DocumentFacts, optima: Dict[str, Optional[Fraction]], code: int, out: str
) -> List[str]:
    """``solve DOC --format json`` on a document of any number of clusters."""
    infeasible = any(v is None for v in optima.values())
    if code != (3 if infeasible else 0):
        return [f"expected exit {3 if infeasible else 0}, got {code}"]
    doc = json.loads(out)
    want_status = "Infeasible" if infeasible else "Optimal"
    if doc["status"] != want_status:
        return [f"overall status {doc['status']} != {want_status}"]
    entries = {e["cluster_id"]: e for e in doc["clusters"]}
    if sorted(entries) != facts.cluster_ids:
        return [f"clusters reported {sorted(entries)} != {facts.cluster_ids}"]
    problems = []
    total = Fraction(0)
    for cluster, optimum in optima.items():
        entry = entries[cluster]
        if entry["status"] != ("Infeasible" if optimum is None else "Optimal"):
            problems.append(f"cluster {cluster}: status {entry['status']}")
            continue
        if optimum is None:
            continue
        rows = [(r["screen_id"], (r["film_id"], r["config_index"])) for r in entry["schedule"]]
        objective = Fraction(str(entry["objective"]))
        total += objective
        problems += _check_schedule(facts, cluster, rows, objective, optimum)
    if not infeasible and Fraction(str(doc["objective"])) != total:
        problems.append(f"overall objective {doc['objective']} != sum of clusters {total}")
    return problems


def check_validate(code: int, out: str) -> List[str]:
    return [] if (code, out) == (0, "ok\n") else [f"validate: exit {code}, output {out[:60]!r}"]


def check_generate_configs(facts: DocumentFacts, code: int, out: str) -> List[str]:
    """Generated configurations equal the closed-form rule applied to the runtimes."""
    if code != 0:
        return [f"generate-configs: exit {code}"]
    printed = {
        (c["film_id"], c["config_index"]): c["showtimes"]
        for c in json.loads(out)["configurations"]
    }
    expected = {k: v for cluster in facts.cluster_ids for k, v in facts.configs[cluster].items()}
    if printed != expected:
        missing = sorted(set(expected) - set(printed))[:3]
        extra = sorted(set(printed) - set(expected))[:3]
        return [f"generate-configs: configurations differ (missing {missing}, extra {extra})"]
    return []


def check_build(facts: DocumentFacts, code: int, out: str, lp_text: str) -> List[str]:
    """Model statistics and the LP ``Binary`` section count screens x configurations."""
    if code != 0:
        return [f"build: exit {code}"]
    want = facts.variables
    total = re.search(r"^total: (\d+) variables", out, re.MULTILINE)
    if total is None or int(total.group(1)) != want:
        return [f"build: total line does not report {want} variables"]
    _, _, tail = lp_text.partition("\nBinary\n")
    binaries = tail.split("\nEnd")[0].splitlines()
    if len(binaries) != want:
        return [f"build: LP Binary section lists {len(binaries)} variables, want {want}"]
    return []

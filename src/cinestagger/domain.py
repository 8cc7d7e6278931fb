"""Core data model for staggered-showtime scheduling instances.

An instance describes one or more clusters of neighbouring theatre
locations: the screens in each location, the films on offer with their
daily showtime configurations, and an attendance forecast for playing a
given film configuration on a given screen.

Representation choices that everything downstream relies on:

* Times are minutes since midnight, exact integers.  ``"HH:MM"`` strings
  in instance files may run past ``23:59`` (up to ``27:59``) so that late
  shows crossing midnight stay on the same scheduling day.
* Attendance coefficients are stored as integer milliunits (fixed
  denominator of 1000), so objective values and optimality comparisons
  are exact integer arithmetic end to end.
* Screens are re-indexed to ``1..S`` in file order on load, and models
  and LP names use that number.  The document id is kept on each screen;
  violations and serialization use it.  Validation needs screen ids only
  to be positive and unique, so a cluster checks the same on its own as
  inside its document.
* A cluster's forecast is one screens x configurations matrix, rows in
  ascending screen id and columns in ascending (film, config) order, the
  layout of the cluster's model.  A missing forecast entry is a ``None``
  cell.  The loader fills the matrix in one pass over the document's
  rows, and validation, the model and the writer all read it.

Instances are immutable after loading and safe to share across threads.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from decimal import Decimal, InvalidOperation
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple, Union

MILLI = 1000          # fixed scaling denominator for attendance coefficients
MAX_MINUTES = 1679    # 27:59 -- latest representable time of day
ATTENDANCE_LIMIT = 10 ** 18   # attendance magnitudes at or above this are rejected

_THOUSANDTH = Decimal("0.001")

# re.ASCII: a bare \d also matches the digits of other scripts
_TIME_RE = re.compile(r"^(\d{1,2}):([0-5]\d)$", re.ASCII)


class InstanceError(Exception):
    """Base class for instance loading problems."""


class InstanceFormatError(InstanceError):
    """The document is structurally unusable: bad JSON, missing or
    mistyped keys, unparsable times or coefficients."""


class InstanceDataError(InstanceError):
    """The document parsed but violates instance invariants."""

    def __init__(self, violations: Iterable["Violation"]):
        self.violations = list(violations)
        super().__init__("\n".join(str(v) for v in self.violations))


# records subclass collections.namedtuple: a typing.NamedTuple compiles each field's annotation on import
class Violation(namedtuple("Violation", "code message")):
    """One failed invariant, with the offending entity named in the message."""

    __slots__ = ()    # code: str, message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


def parse_hhmm(text: str) -> int:
    """Parse an ``"HH:MM"`` string to minutes since midnight.

    Hours may exceed 23 (up to 27:59) for showtimes that cross midnight.
    """
    if not isinstance(text, str):
        raise InstanceFormatError(f"bad time {text!r}: expected \"HH:MM\"")
    return _parse_hhmm_text(text)


# parse_document parses each distinct showtime list once, so this serves the times
# shared between lists, between locations and between documents; errors are not cached
@lru_cache(maxsize=4096)
def _parse_hhmm_text(text: str) -> int:
    match = _TIME_RE.match(text.strip())
    if match is None:
        raise InstanceFormatError(f"bad time {text!r}: expected \"HH:MM\"")
    minutes = int(match.group(1)) * 60 + int(match.group(2))
    if minutes > MAX_MINUTES:
        raise InstanceFormatError(
            f"time {text!r} is past {format_hhmm(MAX_MINUTES)}"
        )
    return minutes


def format_hhmm(minutes: int) -> str:
    return f"{minutes // 60:02d}:{minutes % 60:02d}"


def _shown(value) -> str:
    """``value`` as an error message quotes it: a JSON number (a Decimal) as a number, anything else by repr."""
    return str(value) if isinstance(value, Decimal) else repr(value)


def parse_attendance(value) -> int:
    """Parse an attendance coefficient to exact integer milliunits.

    Accepts ints, Decimals (json parsed with ``parse_float=Decimal``) and
    decimal strings.  More than three decimal places cannot be represented
    on the fixed denominator and is rejected, as are infinities, NaN and
    any value of magnitude ``ATTENDANCE_LIMIT`` (10**18) or more, whose
    integer conversion would take time super-linear in its digit count.
    """
    if isinstance(value, bool):
        raise InstanceFormatError(f"bad attendance value {_shown(value)}")
    if isinstance(value, int):
        if not -ATTENDANCE_LIMIT < value < ATTENDANCE_LIMIT:
            # not printed: past 4300 digits CPython refuses to convert it to text
            raise InstanceFormatError("bad attendance value (an integer of magnitude 10**18 or more)")
        return value * MILLI
    if isinstance(value, float):
        value = repr(value)
    if isinstance(value, (str, Decimal)):
        # Decimal() also reads other scripts' digits and underscores as digits
        if isinstance(value, str) and (not value.isascii() or "_" in value):
            raise InstanceFormatError(f"bad attendance value {_shown(value)}")
        try:
            number = Decimal(value)
        except InvalidOperation:
            raise InstanceFormatError(f"bad attendance value {_shown(value)}") from None
        # copy_abs, not abs: abs rounds to the context, which traps an
        # exponent past Emax as Overflow and rounds a 29th digit up to the limit
        if not number.is_finite() or number.copy_abs() >= ATTENDANCE_LIMIT:
            raise InstanceFormatError(f"bad attendance value {_shown(value)}")
        # quantize rather than multiply: a product is rounded to the context's
        # 28 digits (to 0 for a tiny exponent) and could then look whole; below
        # the limit the quantized value has at most 21 digits, so it is exact,
        # and the comparison is exact too
        milli = number.quantize(_THOUSANDTH)
        if milli != number:
            raise InstanceFormatError(
                f"attendance {value} has more than 3 decimal places"
            )
        return int(milli * MILLI)
    raise InstanceFormatError(f"bad attendance value {_shown(value)}")


def format_attendance(milli: int) -> str:
    """Render milliunits as an exact decimal string, e.g. 226500 -> "226.5"."""
    sign = "-" if milli < 0 else ""
    units, rem = divmod(abs(milli), MILLI)
    if rem == 0:
        return f"{sign}{units}"
    return f"{sign}{units}." + f"{rem:03d}".rstrip("0")


class Film(namedtuple("Film", "film_id title runtime_minutes")):
    __slots__ = ()    # film_id: int, title: str, runtime_minutes: int


class Location(namedtuple("Location", "location_id name cluster_id open_time last_showtime")):
    # location_id: int, name: str, cluster_id: str; open_time (first possible showtime)
    # and last_showtime (latest allowed start time): int minutes since midnight
    __slots__ = ()


class Screen(namedtuple("Screen", "screen_id location_id external_id", defaults=(None,))):
    # screen_id: int, 1..S after re-indexing; location_id: int; external_id: Optional[int], the document's id
    __slots__ = ()

    @property
    def source_id(self) -> int:
        return self.screen_id if self.external_id is None else self.external_id


class ShowtimeConfiguration(namedtuple("ShowtimeConfiguration", "film_id config_index showtimes")):
    __slots__ = ()    # film_id: int, config_index: int, showtimes: Tuple[int, ...]

    def key(self) -> Tuple[int, int]:
        return (self.film_id, self.config_index)


# (screen, film, config, milliunits): one forecast row
ForecastRow = Tuple[int, int, int, int]


class ForecastMatrix(namedtuple("ForecastMatrix", "screen_ids column_keys rows flagged", defaults=((),))):
    """Predicted attendance, in milliunits, as a screens x columns matrix.

    ``rows[i][j]`` is the attendance of screen ``screen_ids[i]`` playing
    ``column_keys[j]``, a (film, config) key, or None where no forecast row
    gives it.  Screen ids and column keys ascend, so the cells run in
    (screen, film, config) order.  ``flagged`` lists the rows validation
    reports on, as (screen, film, config, milli) in the order they were
    read: every negative cell, and every row outside the matrix, which is
    kept only there.  A model built from the matrix shares its rows, so
    nothing mutates them.
    """

    # screen_ids: Tuple[int, ...], column_keys: Tuple[Tuple[int, int], ...],
    # rows: List[List[Optional[int]]], flagged: Tuple[ForecastRow, ...]
    __slots__ = ()

    def _index(self) -> Tuple[Dict[int, int], Dict[Tuple[int, int], int]]:
        """(screen id -> row, (film, config) -> column)."""
        return (
            {sid: i for i, sid in enumerate(self.screen_ids)},
            {key: j for j, key in enumerate(self.column_keys)},
        )

    @property
    def stray_rows(self) -> Tuple[ForecastRow, ...]:
        """The flagged rows outside the matrix, in the order they were read."""
        row_of, column_of = self._index()
        return tuple(row for row in self.flagged if row[0] not in row_of or row[1:3] not in column_of)

    def get(self, screen_id: int, film_id: int, config_index: int) -> int:
        """The attendance of one cell; KeyError where the matrix holds none."""
        row_of, column_of = self._index()
        i, j = row_of.get(screen_id), column_of.get((film_id, config_index))
        if i is None or j is None or self.rows[i][j] is None:
            raise KeyError((screen_id, film_id, config_index))
        return self.rows[i][j]

    @property
    def entries(self) -> Mapping[Tuple[int, int, int], int]:
        """Read-only view of the cells holding a value, by (screen, film, config), in matrix order."""
        return MappingProxyType({
            (sid, film_id, config_index): milli
            for sid, row in zip(self.screen_ids, self.rows)
            for (film_id, config_index), milli in zip(self.column_keys, row)
            if milli is not None
        })

    def with_columns(self, sources: Mapping[Tuple[int, int], Optional[Tuple[int, int]]]) -> ForecastMatrix:
        """The matrix over the keys of ``sources``, each a new column with the cells of
        the column its value names, or with None cells where that is None or no column.
        A flagged row moves to the new column of its (film, config), or is dropped."""
        sources = sorted(dict(sources).items(), key=itemgetter(0))
        column_of = self._index()[1]
        picks = [column_of.get(source) for _, source in sources]
        rows = [[None if j is None else row[j] for j in picks] for row in self.rows]
        moved = {source: key for key, source in sources}
        flagged = tuple((row[0], *moved[row[1:3]], row[3]) for row in self.flagged if row[1:3] in moved)
        return ForecastMatrix(self.screen_ids, tuple(key for key, _ in sources), rows, flagged)


class ClusterInstance(namedtuple(
    "ClusterInstance", "cluster_id locations screens films configurations stagger_interval_minutes forecast",
)):
    """One cluster of neighbouring locations: the unit the optimizer solves."""

    # cluster_id: str; locations, screens, films, configurations: tuples of those
    # records; stagger_interval_minutes: int; forecast: ForecastMatrix
    __slots__ = ()

    @property
    def clusters(self) -> Tuple[ClusterInstance]:
        """The cluster alone, as a :class:`MultiClusterInstance` gives its clusters."""
        return (self,)

    @property
    def screen_count(self) -> int:
        return len(self.screens)

    @property
    def configuration_count(self) -> int:
        return len(self.configurations)

    def window(self) -> Tuple[int, int]:
        """Widest operating window over the cluster's locations."""
        return (
            min(l.open_time for l in self.locations),
            max(l.last_showtime for l in self.locations),
        )


class MultiClusterInstance(namedtuple("MultiClusterInstance", "clusters")):
    __slots__ = ()    # clusters: Tuple[ClusterInstance, ...]

    @property
    def cluster_ids(self) -> Tuple[str, ...]:
        return tuple(c.cluster_id for c in self.clusters)

    def cluster(self, cluster_id: str) -> ClusterInstance:
        for c in self.clusters:
            if c.cluster_id == cluster_id:
                return c
        raise KeyError(cluster_id)


# X | Y, not typing.Union: typing caches a subscription, so it would keep this copy alive after a re-import
Instance = ClusterInstance | MultiClusterInstance


def _require(obj: dict, key: str, context: str):
    if key not in obj:
        raise InstanceFormatError(f"{context}: missing key {key!r}")
    return obj[key]


def _require_int(value, context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InstanceFormatError(f"{context}: expected an integer, got {_shown(value)}")
    return value


def _require_str(value, context: str) -> str:
    """``value`` if it is text that UTF-8 can carry: a JSON ``"\\ud800"`` loads as a lone surrogate."""
    if not isinstance(value, str):
        raise InstanceFormatError(f"{context}: expected a string, got {_shown(value)}")
    if not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise InstanceFormatError(f"{context}: not valid Unicode text") from None
    return value


def _cluster_key(value, context: str) -> str:
    if isinstance(value, bool):
        raise InstanceFormatError(f"{context}: bad cluster_id {_shown(value)}")
    if isinstance(value, int):
        return str(value)
    # a string's text errors name the cluster_id; its type errors keep the bare context
    return _require_str(value, f"{context} cluster_id" if isinstance(value, str) else context)


class _ClusterParts:
    """One cluster's share of a document while it is being parsed; starts empty."""

    def __init__(self) -> None:
        self.locations: List[Location] = []
        self.screens: List[Screen] = []
        self.films: List[Film] = []
        self.configurations: List[ShowtimeConfiguration] = []
        # the forecast matrix being filled: its (film, config) columns, film ->
        # config index -> column for every film of the cluster, the rows, and the
        # flagged rows in document order
        self.columns: Tuple[Tuple[int, int], ...] = ()
        self.columns_of: Dict[int, Dict[int, int]] = {}
        self.rows: List[List[Optional[int]]] = []
        self.flagged: List[ForecastRow] = []


def _forecast_ids(entry: dict) -> Tuple[int, int, int]:
    """A forecast row's (screen, film, config) ids, raising the first format error."""
    return (
        _require_int(_require(entry, "screen_id", "forecast entry"), "forecast screen_id"),
        _require_int(_require(entry, "film_id", "forecast entry"), "forecast film_id"),
        _require_int(_require(entry, "config_index", "forecast entry"), "forecast config_index"),
    )


def _row_label(ext_sid: int, film_id: int, config_index: int) -> str:
    return f"forecast entry (screen {ext_sid}, film {film_id}, config {config_index})"


def parse_document(
    obj, allow_partial: bool = False, turnover_minutes: int = 0
) -> MultiClusterInstance:
    """Build a (not yet validated) instance from a parsed JSON document.

    Structural problems raise :class:`InstanceFormatError`; broken
    references and duplicate identifiers raise :class:`InstanceDataError`.
    With ``allow_partial`` the ``forecast`` block may be missing or
    incomplete (used by ``generate-configs`` before forecasts exist).
    A document without configurations gets each film's generated, with
    ``turnover_minutes`` added per screening.
    """
    if not isinstance(obj, dict):
        raise InstanceFormatError("instance document must be a JSON object")

    stagger = _require_int(
        _require(obj, "stagger_interval_minutes", "document"),
        "stagger_interval_minutes",
    )

    # each block's loop reads well-typed fields directly; only an entry that
    # fails a type check goes through the checking helpers, which raise the
    # entry's first error and build its context strings
    locations = []
    for entry in _as_list(_require(obj, "locations", "document"), "locations"):
        loc_id, name, cluster_id = entry.get("id"), entry.get("name"), entry.get("cluster_id")
        open_time, last_showtime = entry.get("open_time"), entry.get("last_showtime")
        if (type(loc_id) is int and type(name) is str and type(cluster_id) is str
                and type(open_time) is str and type(last_showtime) is str
                and name.isascii() and cluster_id.isascii()):
            locations.append(Location(loc_id, name, cluster_id, parse_hhmm(open_time), parse_hhmm(last_showtime)))
            continue
        loc_id = _require_int(_require(entry, "id", "location"), "location id")
        locations.append(
            Location(
                location_id=loc_id,
                name=_require_str(_require(entry, "name", f"location {loc_id}"), f"location {loc_id} name"),
                cluster_id=_cluster_key(_require(entry, "cluster_id", f"location {loc_id}"), f"location {loc_id}"),
                open_time=parse_hhmm(_require(entry, "open_time", f"location {loc_id}")),
                last_showtime=parse_hhmm(_require(entry, "last_showtime", f"location {loc_id}")),
            )
        )
    if not locations:
        raise InstanceDataError([Violation("no_locations", "document defines no locations")])
    location_by_id = {}
    for loc in locations:
        if loc.location_id in location_by_id:
            raise InstanceDataError(
                [Violation("duplicate_location_id", f"location id {loc.location_id} appears more than once")]
            )
        location_by_id[loc.location_id] = loc

    # each cluster's share of the document, collected in document order
    parts = {cluster_id: _ClusterParts() for cluster_id in sorted({loc.cluster_id for loc in locations})}
    for loc in locations:
        parts[loc.cluster_id].locations.append(loc)
    every_cluster = tuple(parts.values())

    seen_screens: Set[int] = set()
    for position, entry in enumerate(_as_list(_require(obj, "screens", "document"), "screens"), start=1):
        ext_id, loc_id = entry.get("id"), entry.get("location_id")
        if type(ext_id) is not int or type(loc_id) is not int:
            ext_id = _require_int(_require(entry, "id", "screen"), "screen id")
            loc_id = _require_int(_require(entry, "location_id", f"screen {ext_id}"), f"screen {ext_id} location_id")
        if ext_id in seen_screens:
            raise InstanceDataError(
                [Violation("duplicate_screen_id", f"screen id {ext_id} appears more than once")]
            )
        if loc_id not in location_by_id:
            raise InstanceDataError(
                [Violation("unknown_location", f"screen {ext_id} references unknown location {loc_id}")]
            )
        part = parts[location_by_id[loc_id].cluster_id]
        # re-index to 1..S in file order, keeping the document id around
        part.screens.append(Screen(screen_id=position, location_id=loc_id, external_id=ext_id))
        seen_screens.add(ext_id)

    # film id -> the clusters it plays in
    film_owners: Dict[int, Tuple[_ClusterParts, ...]] = {}
    for entry in _as_list(_require(obj, "films", "document"), "films"):
        film_id = entry.get("id")
        if type(film_id) is not int:
            film_id = _require_int(_require(entry, "id", "film"), "film id")
        if film_id in film_owners:
            raise InstanceDataError(
                [Violation("duplicate_film_id", f"film id {film_id} appears more than once")]
            )
        title, runtime = entry.get("title"), entry.get("runtime_minutes")
        if type(title) is not str or type(runtime) is not int or not title.isascii():
            title = _require_str(_require(entry, "title", f"film {film_id}"), f"film {film_id} title")
            runtime = _require_int(_require(entry, "runtime_minutes", f"film {film_id}"), f"film {film_id} runtime")
        film = Film(film_id, title, runtime)
        # films may be scoped to one cluster; unscoped films play in every cluster
        if "cluster_id" in entry:
            scope = entry["cluster_id"]
            if type(scope) is not str or not scope.isascii():
                scope = _cluster_key(scope, f"film {film_id}")
            if scope not in parts:
                raise InstanceDataError(
                    [Violation("unknown_cluster", f"film {film_id} references unknown cluster {scope!r}")]
                )
            owners = (parts[scope],)
        else:
            owners = every_cluster
        film_owners[film_id] = owners
        for part in owners:
            part.films.append(film)

    # films of one cycle length share showtime lists: each distinct list of
    # strings is parsed once, and a list that does not parse is never kept
    showtimes_of: Dict[Tuple[str, ...], Tuple[int, ...]] = {}
    config_rows = _as_list(obj.get("configurations", []), "configurations")
    for entry in config_rows:
        film_id, config_index = entry.get("film_id"), entry.get("config_index")
        if type(film_id) is not int or type(config_index) is not int:
            film_id = _require_int(_require(entry, "film_id", "configuration"), "configuration film_id")
            config_index = _require_int(
                _require(entry, "config_index", f"film {film_id} configuration"), "config_index"
            )
        if film_id not in film_owners:
            raise InstanceDataError(
                [Violation("unknown_film", f"configuration {config_index} references unknown film {film_id}")]
            )
        raw_times = entry.get("showtimes")
        if type(raw_times) is not list:
            raw_times = _require(entry, "showtimes", f"film {film_id} config {config_index}")
            if not isinstance(raw_times, list):
                raise InstanceFormatError(
                    f"film {film_id} config {config_index} showtimes:"
                    f" expected a list, got {type(raw_times).__name__}"
                )
        try:
            showtimes = showtimes_of.get(tuple(raw_times))
        except TypeError:   # an unhashable entry, which parse_hhmm refuses below
            showtimes = None
        if showtimes is None:
            showtimes = showtimes_of[tuple(raw_times)] = tuple(map(parse_hhmm, raw_times))
        config = ShowtimeConfiguration(film_id, config_index, showtimes)
        for part in film_owners[film_id]:
            part.configurations.append(config)

    # each cluster's configurations, generated when the document lists none,
    # fix its matrix's columns; a generation error is raised after the forecast
    # rows, whose own errors come first
    clusters: List[ClusterInstance] = []
    generation_error: Optional[Exception] = None
    for cluster_id, part in parts.items():
        # the forecast is read below, into the matrix these configurations fix
        cluster = ClusterInstance(
            cluster_id, tuple(part.locations), tuple(part.screens), tuple(part.films),
            tuple(part.configurations), stagger, ForecastMatrix((), (), []),
        )
        if not config_rows:
            try:
                cluster = cluster._replace(configurations=default_configurations(cluster, turnover_minutes))
            except (InstanceDataError, ValueError) as exc:
                generation_error = generation_error or exc
        part.columns = tuple(sorted({config.key() for config in cluster.configurations}))
        part.columns_of = {film.film_id: {} for film in part.films}
        for column, (film_id, config_index) in enumerate(part.columns):
            part.columns_of[film_id][config_index] = column
        part.rows = [[None] * len(part.columns) for _ in part.screens]
        clusters.append(cluster)
    # document screen id -> (internal screen id, its matrix row, film -> config
    # index -> column, the flagged rows) of the screen's cluster
    row_route = {
        screen.external_id: (screen.screen_id, row, part.columns_of, part.flagged)
        for part in every_cluster
        for screen, row in zip(part.screens, part.rows)
    }

    forecast_raw = obj.get("forecast")
    if forecast_raw is None:
        if not allow_partial:
            raise InstanceFormatError("document: missing key 'forecast'")
        forecast_raw = []
    # forecast rows must pair a screen with a film playing in its cluster; the
    # first row that does not is reported once every row has parsed
    outside: Optional[Tuple[int, int, int]] = None
    stray: Set[Tuple[int, int, int]] = set()    # (screen, film, config) of rows outside the matrix
    for entry in _as_list(forecast_raw, "forecast"):
        # a clean row (int ids naming an empty cell, an int attendance in
        # range) is filled by subscript; every other row takes the checks
        # below, which find its error. The types are tested after the
        # lookups, since True, 1.0 and Decimal("1") hash like 1
        try:
            ext_sid = entry["screen_id"]
            film_id = entry["film_id"]
            config_index = entry["config_index"]
            attendance = entry["attendance"]
            sid, row, columns_of, flagged = row_route[ext_sid]
            column: Optional[int] = columns_of[film_id][config_index]
        except (KeyError, TypeError):   # a missing key or cell, or an unhashable id
            pass
        else:
            if (type(ext_sid) is int and type(film_id) is int and type(config_index) is int
                    and type(attendance) is int and row[column] is None and 0 <= attendance < ATTENDANCE_LIMIT):
                row[column] = attendance * MILLI
                continue
        ext_sid, film_id, config_index = _forecast_ids(entry)
        try:
            sid, row, columns_of, flagged = row_route[ext_sid]
            column = columns_of[film_id][config_index]
        except KeyError:    # an unknown screen or film, or a row outside the matrix
            column = None
        if column is not None:
            if row[column] is not None:
                label = _row_label(ext_sid, film_id, config_index)
                raise InstanceDataError([Violation("duplicate_forecast_entry", f"{label} appears more than once")])
        else:
            route = row_route.get(ext_sid)
            if route is None:
                label = _row_label(ext_sid, film_id, config_index)
                raise InstanceDataError([Violation("unknown_screen", f"{label} references an unknown screen")])
            sid, row, columns_of, flagged = route
            if film_id not in columns_of:
                if film_id not in film_owners:
                    label = _row_label(ext_sid, film_id, config_index)
                    raise InstanceDataError([Violation("unknown_film", f"{label} references an unknown film")])
                if outside is None:
                    outside = (ext_sid, film_id, config_index)
            if (sid, film_id, config_index) in stray:
                label = _row_label(ext_sid, film_id, config_index)
                raise InstanceDataError([Violation("duplicate_forecast_entry", f"{label} appears more than once")])
            stray.add((sid, film_id, config_index))
        label = _row_label(ext_sid, film_id, config_index)
        attendance = _require(entry, "attendance", label)
        try:
            milli = parse_attendance(attendance)
        except InstanceFormatError as exc:
            raise InstanceFormatError(f"{exc} in {label}") from None
        if column is not None:
            row[column] = milli
        if column is None or milli < 0:
            flagged.append((sid, film_id, config_index, milli))

    if generation_error is not None:
        raise generation_error
    if outside is not None:
        label = _row_label(*outside)
        raise InstanceDataError([Violation("unknown_film", f"{label} pairs a screen with a film outside its cluster")])

    return MultiClusterInstance(clusters=tuple(
        cluster._replace(forecast=ForecastMatrix(
            tuple(screen.screen_id for screen in part.screens), part.columns, part.rows, tuple(part.flagged)
        ))
        for cluster, part in zip(clusters, every_cluster)
    ))


def _as_list(value, context: str) -> list:
    if not isinstance(value, list):
        raise InstanceFormatError(f"{context}: expected a list, got {type(value).__name__}")
    # the types are read in C; only a list holding some other type, perhaps a
    # dict subclass, is walked item by item
    if not set(map(type, value)) <= {dict}:
        for item in value:
            if not isinstance(item, dict):
                raise InstanceFormatError(f"{context}: entries must be objects")
    return value


def default_configurations(
    cluster: ClusterInstance, turnover_minutes: int = 0
) -> Tuple[ShowtimeConfiguration, ...]:
    """Every film's generated configurations over the cluster's window, films in id order.

    ``turnover_minutes`` is added per screening.  A stagger interval or
    runtime below 1, or an inverted window, raises the
    :class:`InstanceDataError` that :func:`validate_instance` reports for it.
    """
    # deferred import: confgen builds on the types above
    from .confgen import generate_configurations

    window = cluster.window()
    try:
        return tuple(
            config
            for film in sorted(cluster.films, key=lambda f: f.film_id)
            for config in generate_configurations(
                film, window, cluster.stagger_interval_minutes, turnover_minutes
            )
        )
    except ValueError:
        # the validator runs only here, so a loadable document pays nothing for it
        violations = [
            v for v in _validate_cluster(cluster, check_forecast=False)
            if v.code in {"bad_stagger_interval", "bad_runtime", "window_inverted"}
        ]
        if violations:
            raise InstanceDataError(violations) from None
        raise


def read_document(path: Union[str, Path]):
    """The parsed JSON document at ``path``, decimals kept exact.

    Raises :class:`InstanceFormatError` when the file cannot be read, is
    not UTF-8 or is not JSON.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InstanceFormatError(f"{path}: not valid UTF-8 ({exc})") from exc
    # bad syntax, an integer past the int-string digit limit, or nesting
    # deeper than the decoder's recursion limit
    try:
        return json.loads(text, parse_float=Decimal)
    except (ValueError, RecursionError) as exc:
        raise InstanceFormatError(f"{path}: not valid JSON ({exc})") from exc


def load_instance(
    source: Union[str, Path, dict], allow_partial: bool = False, turnover_minutes: int = 0
) -> Instance:
    """Load and validate an instance document.

    ``source`` is a filesystem path or an already-parsed document dict.
    Missing configurations are generated with ``turnover_minutes`` (see
    :func:`parse_document`) before the forecast is checked against them.
    Returns a :class:`ClusterInstance` for single-cluster documents, a
    :class:`MultiClusterInstance` otherwise.  Raises
    :class:`InstanceFormatError` for unusable documents and
    :class:`InstanceDataError` (carrying all violations) for invalid ones.
    """
    obj = read_document(source) if isinstance(source, (str, Path)) else source
    instance = parse_document(obj, allow_partial=allow_partial, turnover_minutes=turnover_minutes)
    violations = validate_instance(instance, check_forecast=not allow_partial)
    if violations:
        raise InstanceDataError(violations)
    if len(instance.clusters) == 1:
        return instance.clusters[0]
    return instance


def validate_instance(instance: Instance, check_forecast: bool = True) -> List[Violation]:
    """Check every instance invariant; returns one violation per failure.

    Violations are data, not errors: an empty list means the instance is
    well-formed.  A cluster is checked the same way on its own as inside
    a multi-cluster instance; across clusters, cluster ids and screen ids
    must be unique.
    """
    violations: List[Violation] = []
    seen_cluster_ids = set()
    screen_ids: List[int] = []     # each cluster's distinct screen ids
    for cluster in instance.clusters:
        if cluster.cluster_id in seen_cluster_ids:
            violations.append(
                Violation("duplicate_cluster_id", f"cluster id {cluster.cluster_id!r} appears more than once")
            )
        seen_cluster_ids.add(cluster.cluster_id)
        screen_ids.extend({s.screen_id for s in cluster.screens})
        violations.extend(_validate_cluster(cluster, check_forecast))
    if len(set(screen_ids)) != len(screen_ids):
        violations.append(
            Violation("duplicate_screen_id", "screen ids are not globally unique across clusters")
        )
    return violations


def _showtimes_fine(times, window: Tuple[int, int]) -> bool:
    """Whether ``times`` is non-empty, strictly increasing and inside ``window``."""
    # strictly increasing times lie in the window when the first and last do
    return bool(times) and window[0] <= times[0] and times[-1] <= window[1] and all(
        a < b for a, b in zip(times, times[1:])
    )


def _validate_cluster(cluster: ClusterInstance, check_forecast: bool) -> List[Violation]:
    v: List[Violation] = []

    if cluster.stagger_interval_minutes < 1:
        v.append(
            Violation("bad_stagger_interval", f"stagger interval must be >= 1, got {cluster.stagger_interval_minutes}")
        )
    if not cluster.cluster_id:
        v.append(Violation("empty_cluster_id", "cluster id is empty"))

    if not cluster.locations:
        v.append(Violation("no_locations", f"cluster {cluster.cluster_id!r} has no locations"))
    seen_locations = set()
    for loc in cluster.locations:
        if loc.location_id in seen_locations:
            v.append(Violation("duplicate_location_id", f"location id {loc.location_id} appears more than once"))
        seen_locations.add(loc.location_id)
        if not loc.cluster_id:
            v.append(Violation("empty_cluster_id", f"location {loc.location_id} has an empty cluster id"))
        elif loc.cluster_id != cluster.cluster_id:
            v.append(
                Violation(
                    "location_outside_cluster",
                    f"location {loc.location_id} belongs to cluster {loc.cluster_id!r},"
                    f" not {cluster.cluster_id!r}",
                )
            )
        if loc.open_time > loc.last_showtime:
            v.append(
                Violation(
                    "window_inverted",
                    f"location {loc.location_id}: open time {format_hhmm(loc.open_time)}"
                    f" is after last showtime {format_hhmm(loc.last_showtime)}",
                )
            )
        for t in (loc.open_time, loc.last_showtime):
            if not 0 <= t <= MAX_MINUTES:
                v.append(Violation("time_out_of_range", f"location {loc.location_id}: time {t} out of range"))

    source_ids: Dict[int, int] = {}     # screen id -> the document's id for it
    for screen in cluster.screens:
        if screen.screen_id in source_ids:
            v.append(Violation("duplicate_screen_id", f"screen id {screen.screen_id} appears more than once"))
        source_ids[screen.screen_id] = screen.source_id
        if screen.location_id not in seen_locations:
            v.append(
                Violation(
                    "screen_outside_cluster",
                    f"screen {screen.screen_id} references location {screen.location_id}"
                    f" outside cluster {cluster.cluster_id!r}",
                )
            )
        # a loaded screen's own id is its position; the document's id is the one to check
        bad = screen.source_id if screen.source_id < 1 else screen.screen_id
        if bad < 1:
            v.append(Violation("bad_screen_id", f"screen id {bad} must be positive"))

    if not cluster.films:
        v.append(Violation("no_films", f"cluster {cluster.cluster_id!r} has no films"))
    seen_films = set()
    for film in cluster.films:
        if film.film_id in seen_films:
            v.append(Violation("duplicate_film_id", f"film id {film.film_id} appears more than once"))
        seen_films.add(film.film_id)
        if film.runtime_minutes < 1:
            v.append(
                Violation("bad_runtime", f"film {film.film_id}: runtime must be >= 1, got {film.runtime_minutes}")
            )
        if film.film_id < 1:
            v.append(Violation("bad_film_id", f"film id {film.film_id} must be positive"))

    window = cluster.window() if cluster.locations else (0, MAX_MINUTES)
    films_with_configs = set()
    seen_config_keys = set()
    # showtimes -> whether they are fine in this cluster's window; films of
    # one cycle length share their lists, so each distinct list is checked once
    fine_times: Dict[Tuple[int, ...], bool] = {}
    for config in cluster.configurations:
        key, times = config.key(), config.showtimes
        duplicate = key in seen_config_keys
        seen_config_keys.add(key)
        films_with_configs.add(config.film_id)
        try:
            fine = fine_times.get(times)
        except TypeError:   # a hand-built list of showtimes keys no dict
            fine = _showtimes_fine(times, window)
        if fine is None:
            fine = fine_times[times] = _showtimes_fine(times, window)
        if not duplicate and config.film_id in seen_films and config.config_index >= 1 and fine:
            continue    # nothing to report, so no label
        label = f"film {config.film_id} config {config.config_index}"
        if duplicate:
            v.append(Violation("duplicate_config_index", f"{label} appears more than once"))
        if config.film_id not in seen_films:
            v.append(Violation("unknown_film", f"{label} references an unknown film"))
        if config.config_index < 1:
            v.append(Violation("bad_config_index", f"{label}: config index must be positive"))
        if not config.showtimes:
            v.append(Violation("empty_configuration", f"{label} has no showtimes"))
        elif any(b <= a for a, b in zip(config.showtimes, config.showtimes[1:])):
            v.append(
                Violation(
                    "non_increasing_showtimes",
                    f"{label}: showtimes {[format_hhmm(t) for t in config.showtimes]}"
                    " are not strictly increasing",
                )
            )
        for t in config.showtimes:
            if not window[0] <= t <= window[1]:
                v.append(
                    Violation(
                        "showtime_outside_window",
                        f"{label}: showtime {format_hhmm(t)} is outside the cluster window"
                        f" {format_hhmm(window[0])}..{format_hhmm(window[1])}",
                    )
                )
    for film in cluster.films:
        if film.film_id not in films_with_configs:
            v.append(
                Violation("film_without_configurations", f"film {film.film_id} has no showtime configurations")
            )

    forecast = cluster.forecast
    # only negative cells and rows outside the matrix can break a rule; most
    # rows are clean, and there may be tens of thousands
    for sid, film_id, config_index, milli in forecast.flagged:
        label = _row_label(source_ids.get(sid, sid), film_id, config_index)
        if milli < 0:
            v.append(Violation("negative_coefficient", f"{label} is negative ({format_attendance(milli)})"))
        if (film_id, config_index) not in seen_config_keys:
            v.append(Violation("unknown_configuration", f"{label} references an unknown configuration"))
        if sid not in source_ids:
            v.append(Violation("unknown_screen", f"{label} references an unknown screen"))
    if check_forecast:
        # a missing entry is a None cell: only a row holding one is probed cell by cell
        row_of, column_of = forecast._index()
        columns = [column_of.get(config.key()) for config in cluster.configurations]
        covered = None not in columns
        for screen in cluster.screens:
            i = row_of.get(screen.screen_id)
            row = None if i is None else forecast.rows[i]
            if covered and row is not None and None not in row:
                continue
            for config, j in zip(cluster.configurations, columns):
                if row is None or j is None or row[j] is None:
                    v.append(
                        Violation(
                            "missing_forecast_entry",
                            f"no forecast entry for (screen {screen.source_id},"
                            f" film {config.film_id}, config {config.config_index})",
                        )
                    )
    return v


def serialize_instance(instance: Instance) -> dict:
    """Instance back to the document shape accepted by :func:`load_instance`.

    The parse of :func:`dumps_instance`'s text, fractional attendance
    values as exact ``Decimal``s; raises the same ``ValueError``s.
    """
    return json.loads(dumps_instance(instance), parse_float=Decimal)


def dumps_instance(instance: Instance) -> str:
    """The instance as the document :func:`load_instance` reads, as canonical JSON text.

    Byte-deterministic for equal instances, laid out as :func:`dumps_json`
    lays out the document.  Raises ``ValueError`` when the clusters cannot
    share one document: different stagger intervals, a film playing in some
    but not all of several clusters, or a (film, config) key with different
    showtimes in two clusters.
    """
    clusters = instance.clusters

    staggers = {c.stagger_interval_minutes for c in clusters}
    if len(staggers) != 1:
        raise ValueError("cannot serialize clusters with different stagger intervals into one document")

    doc: dict = {"stagger_interval_minutes": staggers.pop()}
    doc["locations"] = [
        {
            "id": loc.location_id,
            "name": loc.name,
            "cluster_id": loc.cluster_id,
            "open_time": format_hhmm(loc.open_time),
            "last_showtime": format_hhmm(loc.last_showtime),
        }
        for cluster in clusters
        for loc in cluster.locations
    ]

    screens = sorted(
        (s for cluster in clusters for s in cluster.screens), key=lambda s: s.screen_id
    )
    doc["screens"] = [{"id": s.source_id, "location_id": s.location_id} for s in screens]

    # films playing in every cluster are written once unscoped; films seen in
    # exactly one cluster carry that cluster's id
    film_clusters: Dict[int, List[str]] = {}
    film_objects: Dict[int, Film] = {}
    for cluster in clusters:
        for film in cluster.films:
            film_clusters.setdefault(film.film_id, []).append(cluster.cluster_id)
            film_objects[film.film_id] = film
    doc["films"] = []
    for film_id in sorted(film_clusters):
        film = film_objects[film_id]
        entry = {"id": film.film_id, "title": film.title, "runtime_minutes": film.runtime_minutes}
        owners = film_clusters[film_id]
        if len(owners) == 1 and len(clusters) > 1:
            entry["cluster_id"] = owners[0]
        elif len(owners) != len(clusters):
            raise ValueError(
                f"film {film_id} plays in {len(owners)} of {len(clusters)} clusters;"
                " only global or single-cluster films serialize"
            )
        doc["films"].append(entry)

    # a configuration shared by several clusters is written once, so it must
    # have the same showtimes in each
    first_seen: Dict[Tuple[int, int], Tuple[ShowtimeConfiguration, str]] = {}
    for cluster in clusters:
        for config in cluster.configurations:
            seen = first_seen.setdefault(config.key(), (config, cluster.cluster_id))
            if seen[0].showtimes != config.showtimes:
                raise ValueError(
                    f"film {config.film_id} config {config.config_index} has different showtimes"
                    f" in clusters {seen[1]!r} and {cluster.cluster_id!r};"
                    " a document lists each configuration once"
                )
    # written as dumps_json would write each configuration's dict; one array text per showtime list
    arrays = {
        showtimes: json_array([f'\n        "{format_hhmm(t)}"' for t in showtimes], "\n      ")
        for showtimes in {config.showtimes for config, _ in first_seen.values()}
    }
    configurations = [
        f'\n    {{\n      "film_id": {config.film_id},\n      "config_index": {config.config_index},'
        '\n      "showtimes": ' + arrays[config.showtimes] + "\n    }"
        for config, _ in sorted(first_seen.values(), key=lambda seen: seen[0].key())
    ]

    # the forecast is most of the document's bytes, so its rows are written
    # as dumps_json would write each row's dict, from one text per screen, per
    # column and per distinct value; the matrices' cells are already in
    # (film, config) order within each screen
    external = {s.screen_id: s.source_id for s in screens}
    matrix_rows = []     # (screen id, its row, the row's column texts), one per screen
    for cluster in clusters:
        matrix = cluster.forecast
        stray_rows = matrix.stray_rows
        if stray_rows:
            sid, film_id, config_index, _ = stray_rows[0]
            raise ValueError(
                f"{_row_label(external.get(sid, sid), film_id, config_index)} is outside"
                f" cluster {cluster.cluster_id!r}'s screens and configurations;"
                " only rows of its forecast matrix serialize"
            )
        heads = [
            f'      "film_id": {film_id},\n      "config_index": {config_index},\n      "attendance": '
            for film_id, config_index in matrix.column_keys
        ]
        matrix_rows.extend((sid, row, heads) for sid, row in zip(matrix.screen_ids, matrix.rows))
    matrix_rows.sort(key=itemgetter(0))
    values = set().union(*(row for _, row, _ in matrix_rows))
    values.discard(None)
    literal = {milli: format_attendance(milli) + "\n    }" for milli in values}
    forecast = []   # per screen: a comma and the screen's prefix, then its cells joined by both
    for sid, row, heads in matrix_rows:
        separator = f',\n    {{\n      "screen_id": {external[sid]},\n'
        cells = [head + literal[milli] for head, milli in zip(heads, row) if milli is not None]
        if cells:
            forecast += (separator, separator.join(cells))
    # doc holds every block before the configurations; a non-empty object, its text ends "\n}"
    front = dumps_json(doc)[:-2] + ',\n  "configurations": ' + json_array(configurations, "\n  ")
    if not forecast:
        return front + ',\n  "forecast": []\n}\n'
    forecast[0] = ',\n  "forecast": [' + forecast[0][1:]    # the first row opens the array, with no comma
    return "".join([front, *forecast, "\n  ]\n}\n"])


# exact scalar types and their JSON text; bool is its own type, so never read as int
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
    Decimal: str,
}


def dumps_json(value) -> str:
    """The text of ``json.dumps(value, indent=2)``, byte for byte.

    Written by hand because CPython encodes with its pure-Python encoder
    whenever ``indent`` is set.  Takes dicts with str keys, lists, and
    str, int, bool, None and Decimal leaves; a Decimal is written as
    ``str(value)``, exact, where ``json.dumps`` would refuse it.  Any other
    type raises TypeError.
    """
    return _encode(value, "\n")


def _encode(value, indent: str) -> str:
    """``value`` as JSON whose closing bracket, if any, follows ``indent``."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = indent + "  "
    if type(value) is dict:
        if not value:
            return "{}"
        items = [
            encode_basestring_ascii(key) + ": " + _encode(item, inner)
            for key, item in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if type(value) is list:
        return json_array([inner + _encode(item, inner) for item in value], indent)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def json_array(items: List[str], indent: str) -> str:
    """The JSON array of ``items`` as :func:`dumps_json` lays it out, closing after ``indent``.

    Each item is its element's text led by its own newline and indent; an
    empty array is ``[]``.
    """
    return "[" + ",".join(items) + indent + "]" if items else "[]"


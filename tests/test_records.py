"""The package's records: constructors, equality, hashing and immutability.

Records are NamedTuples, or a plain class where it caches: ``BilpModel``.
Neither kind generates code on import, so importing the package loads no
``dataclasses``.
"""

import inspect
import os
import subprocess
import sys
import typing
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest

import cinestagger
import support
from cinestagger import domain, solver
from cinestagger import (
    BilpModel,
    ClusterInstance,
    ClusterSolveReport,
    DecompositionReport,
    FeasibilityReport,
    Film,
    ForecastMatrix,
    Location,
    MultiClusterInstance,
    Schedule,
    Screen,
    ShowtimeConfiguration,
    SolveReport,
    VariableRef,
    Violation,
    build_model,
    validate_instance,
)
from cinestagger.domain import _ClusterParts
from cinestagger.formulation import RowCheck
from cinestagger.solver import Certificate, SolveStats

SRC = Path(__file__).resolve().parents[1] / "src"


def _matrix():
    return ForecastMatrix(screen_ids=(1,), column_keys=((1, 1),), rows=[[5000]], flagged=())


def _cluster():
    return ClusterInstance(
        cluster_id="c1",
        locations=(Location(location_id=1, name="L", cluster_id="c1", open_time=720, last_showtime=1380),),
        screens=(Screen(screen_id=1, location_id=1),),
        films=(Film(film_id=1, title="T", runtime_minutes=90),),
        configurations=(ShowtimeConfiguration(film_id=1, config_index=1, showtimes=(720,)),),
        stagger_interval_minutes=15,
        forecast=_matrix(),
    )


def _model_views():
    model = build_model(_cluster())
    return dict(
        variables=model.variables,
        objective=model.objective,
        equality_rows=model.equality_rows,
        inequality_rows=model.inequality_rows,
    )


def _report(**changes):
    return SolveReport(**{
        "status": "Optimal",
        "method": "assignment",
        "schedule": Schedule(choices={1: (1, 1)}),
        "objective": Fraction(5),
        "stats": SolveStats(nodes=1),
        "certified": True,
        "diagnostic": None,
        "certificate": Certificate(kind="lp-dual", screen_duals=(5,), column_duals=(0,)),
        **changes,
    })


def _cluster_report(**changes):
    return ClusterSolveReport(**{
        "per_cluster": {"c1": _report()},
        "overall_status": "Optimal",
        "combined_objective": Fraction(5),
        "models": (("c1", build_model(_cluster())),),
        **changes,
    })


# record -> (keyword arguments of one instance, built afresh on each call;
# a field and another value for it)
CASES = {
    Violation: (lambda: dict(code="no_films", message="m"), ("message", "n")),
    Film: (lambda: dict(film_id=1, title="T", runtime_minutes=90), ("runtime_minutes", 91)),
    Location: (
        lambda: dict(location_id=1, name="L", cluster_id="c1", open_time=720, last_showtime=1380),
        ("cluster_id", "c2"),
    ),
    Screen: (lambda: dict(screen_id=1, location_id=1, external_id=7), ("external_id", None)),
    ShowtimeConfiguration: (lambda: dict(film_id=1, config_index=1, showtimes=(720,)), ("showtimes", (721,))),
    ForecastMatrix: (
        lambda: dict(screen_ids=(1,), column_keys=((1, 1),), rows=[[5000]], flagged=()),
        ("rows", [[None]]),
    ),
    ClusterInstance: (lambda: _cluster()._asdict(), ("stagger_interval_minutes", 20)),
    MultiClusterInstance: (lambda: dict(clusters=(_cluster(),)), ("clusters", ())),
    BilpModel: (_model_views, ("objective", {VariableRef(1, 1, 1): 1})),
    VariableRef: (lambda: dict(screen_id=1, film_id=1, config_index=1), ("config_index", 2)),
    RowCheck: (lambda: dict(kind="equality", key=1, chosen=1, ok=True), ("chosen", 2)),
    FeasibilityReport: (
        lambda: dict(feasible=True, rows=(RowCheck("equality", 1, 1, True),)), ("feasible", False),
    ),
    Schedule: (lambda: dict(choices={1: (1, 1)}), ("choices", {1: (1, 2)})),
    Certificate: (
        lambda: dict(kind="hall-set", screen_duals=(), column_duals=(), screens=(0, 1), columns=(0,)),
        ("columns", (1,)),
    ),
    SolveStats: (lambda: dict(nodes=3), ("nodes", 4)),
    SolveReport: (lambda: _report()._asdict(), ("certified", False)),
    ClusterSolveReport: (lambda: _cluster_report()._asdict(), ("overall_status", "Infeasible")),
    DecompositionReport: (lambda: dict(per_cluster=_cluster_report()), ("per_cluster", None)),
}

NAMED_TUPLES = [
    Violation, Film, Location, Screen, ShowtimeConfiguration, ForecastMatrix, ClusterInstance,
    MultiClusterInstance, VariableRef, RowCheck, FeasibilityReport, Schedule, Certificate, SolveStats,
    SolveReport, ClusterSolveReport, DecompositionReport,
]

# record -> its constructor's parameters in order, and their defaults
SIGNATURES = {
    Violation: ("code message", {}),
    Film: ("film_id title runtime_minutes", {}),
    Location: ("location_id name cluster_id open_time last_showtime", {}),
    Screen: ("screen_id location_id external_id", {"external_id": None}),
    ShowtimeConfiguration: ("film_id config_index showtimes", {}),
    ForecastMatrix: ("screen_ids column_keys rows flagged", {"flagged": ()}),
    ClusterInstance: (
        "cluster_id locations screens films configurations stagger_interval_minutes forecast", {},
    ),
    MultiClusterInstance: ("clusters", {}),
    BilpModel: ("variables objective equality_rows inequality_rows", {}),
    VariableRef: ("screen_id film_id config_index", {}),
    RowCheck: ("kind key chosen ok", {}),
    FeasibilityReport: ("feasible rows", {}),
    Schedule: ("choices", {}),
    Certificate: (
        "kind screen_duals column_duals screens columns tie_screen_duals tie_column_duals",
        {"screen_duals": (), "column_duals": (), "screens": (), "columns": (), "tie_screen_duals": (),
         "tie_column_duals": ()},
    ),
    SolveStats: ("nodes", {"nodes": 0}),
    SolveReport: (
        "status method schedule objective stats certified diagnostic certificate",
        {"schedule": None, "objective": None, "stats": None, "certified": False, "diagnostic": None,
         "certificate": None},
    ),
    ClusterSolveReport: ("per_cluster overall_status combined_objective models", {}),
    DecompositionReport: ("per_cluster", {}),
    _ClusterParts: ("", {}),   # parse scratch, only ever built empty
}


def test_every_record_is_covered():
    assert set(SIGNATURES) == set(CASES) | {_ClusterParts}
    assert len(SIGNATURES) == 19
    assert set(NAMED_TUPLES) == {cls for cls in CASES if issubclass(cls, tuple)}
    exported = {getattr(cinestagger, name) for name in cinestagger.__all__}
    classes = {obj for obj in exported if isinstance(obj, type) and not issubclass(obj, Exception)}
    assert classes - set(NAMED_TUPLES) == {BilpModel}


def test_importing_the_cli_loads_no_dataclasses():
    done = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, cinestagger.cli; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


# Three re-imports of the package, then the names of the earlier copies' classes that are still alive
# (a module-level typing subscription such as Union[ClusterInstance, ...] caches its arguments).
# The popped module is deleted before collecting: a leftover local would keep its copy alive.
REIMPORT = """
import gc, sys, weakref
import cinestagger.cli
refs = []
for _ in range(3):
    for name in [n for n in sys.modules if n.split('.')[0] == 'cinestagger']:
        module = sys.modules.pop(name)
        refs += [weakref.ref(v) for v in vars(module).values()
                 if isinstance(v, type) and v.__module__.split('.')[0] == 'cinestagger']
    del name, module
    import cinestagger.cli
gc.collect()
print(sorted({r().__qualname__ for r in refs if r() is not None}))
"""


def test_a_reimport_leaves_no_class_of_the_earlier_copy_alive():
    done = subprocess.run(
        [sys.executable, "-c", REIMPORT],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def _exported_functions():
    for name in cinestagger.__all__:
        obj = getattr(cinestagger, name)
        if inspect.isfunction(obj):
            yield name, obj
            continue
        for cls in obj.__mro__:   # a record's namedtuple base is the package's too
            if cls.__module__.split(".")[0] != "cinestagger":
                continue
            for attr, value in vars(cls).items():
                if isinstance(value, (staticmethod, classmethod)):
                    value = value.__func__
                elif isinstance(value, property):
                    value = value.fget
                elif isinstance(value, cached_property):
                    value = value.func
                if inspect.isfunction(value):
                    yield f"{name}.{attr}", value


def test_every_public_annotation_resolves():
    functions = list(_exported_functions())
    assert len(functions) > 100
    failed = []
    for name, function in functions:
        try:
            typing.get_type_hints(function)
        except Exception as exc:
            failed.append(f"{name}: {exc!r}")
    assert failed == []


def test_the_instance_and_search_aliases_resolve_to_types():
    assert domain.Instance == ClusterInstance | MultiClusterInstance
    assert typing.get_type_hints(validate_instance)["instance"] == domain.Instance


@pytest.mark.parametrize("cls", list(SIGNATURES), ids=lambda cls: cls.__name__)
def test_constructor_parameters_and_defaults(cls):
    names, defaults = SIGNATURES[cls]
    parameters = inspect.signature(cls).parameters
    assert list(parameters) == names.split()
    assert {
        name: p.default for name, p in parameters.items() if p.default is not inspect.Parameter.empty
    } == defaults


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_keyword_construction_and_equality(cls):
    arguments, (field, other) = CASES[cls]
    record = cls(**arguments())
    for name, value in arguments().items():
        assert getattr(record, name) == value
    same = cls(**arguments())
    assert record == same
    assert not record != same
    different = cls(**{**arguments(), field: other})
    assert record != different
    assert not record == different


@pytest.mark.parametrize("cls", NAMED_TUPLES, ids=lambda cls: cls.__name__)
def test_named_tuples_hash_as_their_fields_and_refuse_assignment(cls):
    arguments, (field, other) = CASES[cls]
    record = cls(**arguments())
    if cls in (
        ForecastMatrix, ClusterInstance, MultiClusterInstance, Schedule, SolveReport, ClusterSolveReport,
        DecompositionReport,
    ):
        # a tuple hashes its items, and these hold a list of rows, a mutable record or a dict
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(cls(**arguments()))
        assert len({record, cls(**arguments())}) == 1
    with pytest.raises(AttributeError):
        setattr(record, field, other)
    with pytest.raises(AttributeError):
        record.unknown = 1
    assert record._replace(**{field: other}) == cls(**{**arguments(), field: other})


def test_a_forecast_matrix_refuses_assignment_but_caches_its_index():
    matrix = _matrix()
    with pytest.raises(AttributeError):
        matrix.rows = [[1]]
    assert support.forecast_cells(matrix) == {(1, 1, 1): 5000}
    assert matrix == _matrix()
    with pytest.raises(TypeError):
        hash(matrix)


def test_reports_compare_on_every_field():
    assert _report(stats=SolveStats(nodes=1)) == _report()
    assert _report(stats=SolveStats(nodes=2)) != _report()
    assert _report(stats=None) != _report()
    assert SolveReport("Optimal", "assignment").stats is None
    other_model = build_model(_cluster()._replace(forecast=ForecastMatrix((1,), ((1, 1),), [[6000]])))
    assert _cluster_report(models=(("c1", build_model(_cluster())),)) == _cluster_report()
    assert _cluster_report(models=(("c1", other_model),)) != _cluster_report()
    assert _cluster_report(per_cluster={"c1": _report(stats=SolveStats(7))}) != _cluster_report()


def test_equal_models_give_equal_reports_stats_included():
    def model():
        return build_model(support.matrix_instance([[5, 6, 7], [7, 8, 2], [1, 9, 4]]))

    for solve in (solver.solve_assignment, solver.solve_branch_and_bound, solver.solve_brute_force, solver.certify):
        first, second = solve(model()), solve(model())
        assert first == second
        assert first.stats.nodes > 0 and first.stats is not second.stats


def test_certify_returns_a_certified_copy():
    model = build_model(_cluster())
    report = solver.solve_assignment(model)
    assert solver.certify(model) == report._replace(certified=True)
    assert report.certified is False


def test_decomposition_equal_is_a_constant_not_a_field():
    report = DecompositionReport(per_cluster=_cluster_report())
    assert DecompositionReport._fields == ("per_cluster",)
    assert report.equal is DecompositionReport.equal is True
    assert (report.joint_status, report.joint_objective) == ("Optimal", Fraction(5))


def test_cluster_parts_start_empty():
    parts = _ClusterParts()
    assert (parts.locations, parts.screens, parts.films, parts.configurations) == ([], [], [], [])
    assert (parts.columns, parts.columns_of, parts.rows, parts.flagged) == ((), {}, [], [])
    assert _ClusterParts().locations is not parts.locations

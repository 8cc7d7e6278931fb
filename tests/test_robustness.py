"""Mutated documents through every subcommand: each run ends in a documented
exit code and documented stderr lines, never in an escaped exception."""

import copy
import io
import json
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import support
from cinestagger.cli import main
from cinestagger.data import example_instance_path

DOCUMENTS = {
    "example": json.loads(example_instance_path().read_text(encoding="utf-8")),
    # `synth --screens 4 --films 2 --clusters 3 --seed 1`
    "synth": json.loads((Path(__file__).parent / "data" / "pinned" / "synth" / "input.json").read_text(encoding="utf-8")),
}

# each container is built afresh per draw: an edit may mutate the one it placed,
# and a shared st.just([1]) would then draw the mutated object ever after
CONTAINERS = (st.builds(list), st.builds(dict), st.builds(lambda: [1]))
WRONG_TYPES = st.one_of(st.none(), st.booleans(), st.text(max_size=4), st.floats(), *CONTAINERS)
OUT_OF_RANGE_NUMBERS = st.one_of(st.integers(-(10 ** 20), 10 ** 20), st.sampled_from([0, -1, 1680, 10 ** 18, 0.0005]))
OUT_OF_RANGE_TIMES = st.sampled_from(["00:00", "24:00", "27:59", "28:00", "99:99", "-1:00"])

ERROR = re.compile(r"error: [^\n]+")
VIOLATION = re.compile(r"[a-z]+(?:_[a-z]+)+: [^\n]+")
SUMMARY = re.compile(r"solved \d+ cluster\(s\) in \d+\.\d ms \(certificates: \d+ lp-dual, \d+ pigeonhole, \d+ hall-set\)")
DIAGNOSTIC = re.compile(r"cluster [^\n]+: [^\n]+")


def _places(node, path=()):
    """The path of every value below ``node``."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _places(child, path + (key,))


def _edit(draw, doc) -> None:
    """One edit at a drawn place: a wrong type, an out-of-range number, a
    deleted key or list entry, or a duplicated list entry."""
    *steps, key = draw(st.sampled_from(list(_places(doc))))
    parent = doc
    for step in steps:
        parent = parent[step]
    kind = draw(st.sampled_from(["wrong type", "out of range", "delete", "duplicate"]))
    if kind == "delete":
        del parent[key]
    elif kind == "duplicate" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[key] = draw(WRONG_TYPES if kind == "wrong type" else
                           OUT_OF_RANGE_TIMES if isinstance(parent[key], str) else OUT_OF_RANGE_NUMBERS)


@st.composite
def mutants(draw) -> str:
    doc = copy.deepcopy(DOCUMENTS[draw(st.sampled_from(sorted(DOCUMENTS)))])
    for _ in range(draw(st.integers(1, 3))):
        _edit(draw, doc)
    text = json.dumps(doc, indent=2)
    if draw(st.booleans()) and draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


@pytest.mark.parametrize("strategy", [WRONG_TYPES, *CONTAINERS], ids=["wrong-types", "list", "dict", "one"])
def test_mutating_a_drawn_container_leaves_the_next_draw(strategy):
    @settings(max_examples=40, deadline=None, database=None)
    @given(data=st.data())
    def draw_and_spoil(data):
        for _ in range(3):
            value = data.draw(strategy)
            if isinstance(value, (list, dict)):
                assert value in ([], {}, [1])
                value.clear()
                if isinstance(value, dict):
                    value["spoiled"] = 1
                else:
                    value.append("spoiled")

    draw_and_spoil()


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue().splitlines()


def _check(command, code, out, err, lp) -> None:
    """The exit code and stderr lines the README documents for ``command``."""
    if code == 2:
        assert out == "" and len(err) == 1 and ERROR.fullmatch(err[0])
    elif code == 1:
        if command == "validate" and not err:
            assert out and all(VIOLATION.fullmatch(line) for line in out.splitlines())
        else:
            assert out == "" and err
            assert (len(err) == 1 and ERROR.fullmatch(err[0])) or all(VIOLATION.fullmatch(line) for line in err)
    elif code == 3:
        assert command in ("solve", "verify-decomposition")
        diagnostics = err[1:] if command == "solve" else err
        assert command != "solve" or SUMMARY.fullmatch(err[0])
        assert diagnostics and all(DIAGNOSTIC.fullmatch(line) for line in diagnostics)
    else:
        assert code == 0
        assert out
        allowed = {"solve": [SUMMARY], "build": [re.compile(re.escape(f"wrote {lp}"))]}.get(command, [])
        assert all(any(p.fullmatch(line) for p in allowed) for line in err)


COMMANDS = [
    ["validate"],
    ["solve"],
    ["solve", "--format", "csv"],
    ["solve", "--format", "json", "--export-lp", "{lp}"],
    ["build", "--export-lp", "{lp}"],
    ["generate-configs"],
    ["generate-configs", "--turnover", "20"],
    ["verify-decomposition"],
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutants")


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=mutants())
def test_a_mutated_document_ends_in_a_documented_exit(workdir, text):
    path, lp = workdir / "mutant.json", workdir / "model.lp"
    path.write_text(text, encoding="utf-8")
    for command, *options in COMMANDS:
        options = [option.format(lp=lp) for option in options]
        code, out, err = _run([command, str(path), *options])
        _check(command, code, out, err, lp)


def _console(*argv):
    return subprocess.run(
        [sys.executable, "-m", "cinestagger", *argv], capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize(
    "document, command, code",
    [
        pytest.param(DOCUMENTS["example"], "solve", 0, id="0"),
        pytest.param({**DOCUMENTS["example"], "films": []}, "solve", 1, id="1"),
        pytest.param('{"stagger_interval_minutes": ', "solve", 2, id="2"),
        pytest.param(support.matrix_document([[5], [4]]), "verify-decomposition", 3, id="3"),
        pytest.param({**DOCUMENTS["example"], "screens": DOCUMENTS["example"]["screens"] * 2}, "validate", 1, id="1-many"),
    ],
)
def test_the_console_module_exits_without_a_traceback(tmp_path, document, command, code):
    path = tmp_path / "instance.json"
    path.write_text(document if isinstance(document, str) else json.dumps(document), encoding="utf-8")
    result = _console(command, str(path))
    assert result.returncode == code
    assert "Traceback" not in result.stderr
    _check(command, result.returncode, result.stdout, result.stderr.splitlines(), None)


# plants the lowered-dual solve_assignment of test_cli's certification-error test
# in a child interpreter, then runs the command there as the console script does
LYING_SOLVER = """
import sys
import cinestagger.cli
import cinestagger.solver as solver

honest = solver.solve_assignment

def lying(model):
    report = honest(model)
    duals = report.certificate.screen_duals
    return report._replace(certificate=report.certificate._replace(screen_duals=(duals[0] - 1,) + duals[1:]))

solver.solve_assignment = lying
sys.exit(cinestagger.cli.main(["solve", sys.argv[1]]))
"""


def test_a_failed_certificate_exits_4_without_a_traceback():
    result = subprocess.run(
        [sys.executable, "-c", LYING_SOLVER, str(example_instance_path())],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 4
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    (line,) = result.stderr.splitlines()
    assert line.startswith("error: internal: ")

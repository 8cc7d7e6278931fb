"""Seeded inputs and ops of each benchmark workload.

A workload's pool of documents is a balanced sample of its shape ranges:
the dimensions named in ``grid`` are fully crossed, the others cycle
through seeded permutations of their ranges.  Op cost at the seed is
heavy-tailed (the brute-force oracle enumerates m!/(m-n)! assignments per
small cluster), so each grid cell is also stratified on a work estimate
computed from the document alone: ``blocks x candidates_per_doc``
candidates are drawn, sorted by the estimate, and one is taken at random
from each of ``blocks`` equal bands.  This keeps the pool's mix of cheap
and expensive documents the same from seed to seed without dropping any
part of the distribution.  The run measures whole passes over the pool.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import checks

SPEC_PATH = Path(__file__).with_name("workloads.json")


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


@dataclass
class Document:
    facts: checks.DocumentFacts
    optima: Optional[dict]          # per-cluster reference optima, solve workloads only


@dataclass
class Op:
    doc: Document
    argv: List[str]
    lp_path: Optional[Path]

    def check(self, code: int, out: str, written: str) -> List[str]:
        """Independent check of one op's exit code, standard output and exported file."""
        command = self.argv[0]
        if command == "solve" and "json" in self.argv:
            return checks.check_solve_json(self.doc.facts, self.doc.optima, code, out)
        if command == "solve":
            return checks.check_solve_table(self.doc.facts, self.doc.optima, code, out)
        if command == "validate":
            return checks.check_validate(code, out)
        if command == "generate-configs":
            return checks.check_generate_configs(self.doc.facts, code, out)
        if command == "build":
            return checks.check_build(self.doc.facts, code, out, written)
        raise ValueError(f"no check for {command}")

    def written(self) -> str:
        """The LP file the op exported, or '' when it exports none."""
        if self.lp_path is None or not self.lp_path.exists():
            return ""
        return self.lp_path.read_text(encoding="utf-8")


def _span(bounds) -> List[int]:
    lo, hi = bounds
    return list(range(lo, hi + 1))


def _draw_document(generate_document: Callable, spec: dict, shape: Dict[str, int], seed: int) -> dict:
    films = shape.get("films")
    if films is None:
        films = max(1, round(shape["screens"] * spec["films_per_screen"]) + shape["film_offset"])
    doc = generate_document(
        screens=shape["screens"],
        films=films,
        clusters=shape["clusters"],
        seed=seed,
        coeff_range=tuple(spec["coeff_range"]),
    )
    if spec["omit_configurations"]:
        del doc["configurations"]
    return doc


def work_estimate(facts: checks.DocumentFacts):
    """Sort key for stratification: brute-force leaves, then model size."""
    return (facts.oracle_leaves(), facts.variables)


def redraw_attendance(doc: dict, coeff_range, rng: random.Random) -> None:
    """Replace every forecast attendance with a fresh draw from ``coeff_range``."""
    lo, hi = coeff_range
    for entry in doc["forecast"]:
        entry["attendance"] = rng.randint(lo, hi)


def build_pool(spec: dict, seed: int, workdir: Path, generate_document: Callable) -> List[Op]:
    """Generate the workload's documents under ``workdir`` and return its ops in order.

    The pool's structure (shapes and runtimes, hence configurations and
    brute-force leaves) comes from ``spec["structure_seed"]``; ``seed``
    draws the attendance values and the order of the documents.
    """
    rng = random.Random(spec["structure_seed"])
    draws = random.Random(seed)
    dims = spec["shape"]
    grid_names = spec["grid"]
    cells = list(itertools.product(*(_span(dims[name]) for name in grid_names)))
    rng.shuffle(cells)
    cycled = {}
    for name in dims:
        if name not in grid_names:
            values = _span(dims[name])
            rng.shuffle(values)
            cycled[name] = itertools.cycle(values)

    blocks, per_band = spec["blocks"], spec["candidates_per_doc"]
    chosen = []      # (shape, synth seed): candidates are regenerated, not kept in memory
    for cell in cells:
        candidates = []
        for _ in range(blocks * per_band):
            shape = dict(zip(grid_names, cell))
            shape.update({name: next(values) for name, values in cycled.items()})
            synth_seed = rng.randrange(1 << 30)
            doc = _draw_document(generate_document, spec, shape, synth_seed)
            candidates.append((work_estimate(checks.DocumentFacts(doc)), rng.random(), shape, synth_seed))
        candidates.sort(key=lambda c: c[:2])
        chosen += [candidates[b * per_band + rng.randrange(per_band)][2:] for b in range(blocks)]
    draws.shuffle(chosen)

    workdir.mkdir(parents=True, exist_ok=True)
    lp_path = workdir / "export.lp"
    solve = spec["ops"][0][0] == "solve"
    ops: List[Op] = []
    for index, (shape, synth_seed) in enumerate(chosen):
        doc = _draw_document(generate_document, spec, shape, synth_seed)
        redraw_attendance(doc, spec["coeff_range"], draws)
        path = workdir / f"doc{index:03d}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        # only solve checks read the forecast; other workloads do not keep it in memory
        facts = checks.DocumentFacts(doc if solve else {**doc, "forecast": []})
        document = Document(facts, facts.reference_optima() if solve else None)
        for template in spec["ops"]:
            argv = [str(path) if a == "{doc}" else str(lp_path) if a == "{lp}" else a
                    for a in template]
            ops.append(Op(document, argv, lp_path if "{lp}" in template else None))
    return ops

"""The bounded reference checker against a committed results fixture.

The checker evaluates a formula along each candidate path by progressing
it step by step, decides pre-only atoms once per search node and skips
binding sentences that name another access method.  None of that may
change a result: ``tests/data/bounded_results.json`` holds the
:class:`~repro.core.bounded_check.BoundedCheckResult` fields of a fixed
list of inputs as computed by the earlier whole-path evaluator, and every
input must still reproduce them field for field — verdict, witness path,
explored count, exhaustion and interruption.

The inputs cover the directory scenarios' relevance and containment
formulas, the Table 1 fragment suites with both implication gadgets,
seeded synthetic scenarios, a grounded-only run, a schema with exact and
idempotent methods (the sanity-replay path) and a node-capped budget.

Regenerate the fixture (only when a change is *meant* to alter results)
with ``PYTHONPATH=src python tests/test_bounded_fixture.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import properties
from repro.core.bounded_check import Bounds, bounded_satisfiability
from repro.core.budget import Budget
from repro.core.formulas import land, lnext, lnot
from repro.core.solver import AccLTLSolver
from repro.core.undecidable import (
    implication_gadget,
    implication_gadget_with_inequalities,
)
from repro.io.json_io import access_path_to_dict
from repro.relational.dependencies import (
    DisjointnessConstraint,
    FunctionalDependency,
    InclusionDependency,
)
from repro.relational.schema import make_schema
from repro.workloads.directory import (
    directory_access_schema,
    join_query,
    resident_names_query,
)
from repro.workloads.scenarios import _synthetic_scenario, standard_scenarios

FIXTURE = Path(__file__).with_name("data") / "bounded_results.json"

#: The bounds the ``decide_cold`` benchmark gives the checker.
DEFAULT_BOUNDS = Bounds(max_path_length=4, max_paths=300)


def _scenario_inputs(scenario):
    vocabulary = AccLTLSolver(scenario.access_schema).vocabulary
    probe, q1, q2 = scenario.probe_access, scenario.query_one, scenario.query_two
    return {
        f"{scenario.name}-ltr": (
            vocabulary, properties.ltr_formula(vocabulary, probe, q1), {}
        ),
        f"{scenario.name}-ltr-q2": (
            vocabulary, properties.ltr_formula(vocabulary, probe, q2), {}
        ),
        f"{scenario.name}-containment": (
            vocabulary,
            properties.containment_counterexample_formula(vocabulary, q1, q2),
            {},
        ),
    }


def _table1_suites(mobile_exact=False):
    schema = directory_access_schema(mobile_exact=mobile_exact)
    vocabulary = AccLTLSolver(schema).vocabulary
    v = vocabulary
    return vocabulary, {
        "xonly-relevance": land(
            lnot(properties.relation_nonempty_pre(v, "Mobile")),
            properties.zeroary_binding_atom("AcM1"),
            properties.relation_nonempty_post(v, "Mobile"),
            lnext(properties.relation_nonempty_post(v, "Address")),
        ),
        "access-order": properties.access_order_formula(v, "AcM2", "AcM1"),
        "zeroary-ltr": properties.ltr_formula_zeroary(v, "AcM1", join_query()),
        "disjointness": properties.disjointness_formula(
            v, DisjointnessConstraint("Mobile", 0, "Address", 0)
        ),
        "fd-zeroary-ltr": land(
            properties.fd_formula(v, FunctionalDependency("Mobile", (0,), 3)),
            properties.ltr_formula_zeroary(v, "AcM1", join_query()),
        ),
        "ltr-dataflow": land(
            properties.ltr_formula(v, schema.access("AcM1", ("Smith",)), join_query()),
            properties.dataflow_formula(v, schema.method("AcM1"), 0, "Address", 2),
        ),
        "a-automaton-ltr": properties.ltr_formula(
            v, schema.access("AcM1", ("Smith",)), join_query()
        ),
    }


def _gadget(with_inequalities):
    base = make_schema({"R": 2, "S": 2})
    constraints = [
        FunctionalDependency("R", (0,), 1),
        InclusionDependency("R", (0,), "S", (0,)),
    ]
    sigma = FunctionalDependency("S", (0,), 1)
    make = implication_gadget_with_inequalities if with_inequalities else implication_gadget
    gadget, formula = make(base, constraints, sigma)
    return gadget.vocabulary, formula


def _inputs():
    """``name -> (vocabulary, formula, keyword arguments)``, built fresh."""
    inputs = {}
    for scenario in standard_scenarios():
        inputs.update(_scenario_inputs(scenario))
    for seed in (1, 4, 9, 17, 23, 30):
        inputs.update(
            _scenario_inputs(
                _synthetic_scenario(
                    seed=seed, num_relations=2 + seed % 2, name=f"synthetic-{seed}"
                )
            )
        )
    table1_vocabulary, suites = _table1_suites()
    for name, formula in suites.items():
        inputs[f"table1-{name}"] = (table1_vocabulary, formula, {})
    exact_vocabulary, exact_suites = _table1_suites(mobile_exact=True)
    for name in ("xonly-relevance", "zeroary-ltr", "a-automaton-ltr"):
        inputs[f"exact-{name}"] = (exact_vocabulary, exact_suites[name], {})
    exact_schema = exact_vocabulary.access_schema
    inputs["exact-ltr-deep"] = (
        exact_vocabulary,
        properties.ltr_formula(
            exact_vocabulary, exact_schema.access("AcM1", ("Smith",)), join_query()
        ),
        {"bounds": Bounds(max_path_length=3, max_paths=2000)},
    )
    inputs["exact-containment-deep"] = (
        exact_vocabulary,
        properties.containment_counterexample_formula(
            exact_vocabulary, join_query(), resident_names_query()
        ),
        {"bounds": Bounds(max_path_length=3, max_paths=2000)},
    )
    for name, with_inequalities in (("gadget-fd-id", False), ("gadget-ineq", True)):
        gadget_vocabulary, formula = _gadget(with_inequalities)
        inputs[f"table1-{name}"] = (
            gadget_vocabulary,
            formula,
            {"bounds": Bounds(max_path_length=2, max_paths=3000)},
        )
    directory_vocabulary, directory_ltr, _ = inputs["directory-ltr"]
    inputs["directory-ltr-deep"] = (
        directory_vocabulary,
        directory_ltr,
        {"bounds": Bounds(max_path_length=3, max_paths=4000)},
    )
    for name in ("synthetic-4-ltr", "synthetic-1-containment", "synthetic-30-containment"):
        vocabulary, formula, _ = inputs[name]
        inputs[f"{name}-grounded"] = (vocabulary, formula, {"grounded_only": True})
    for name, cap in (
        ("directory-ltr", 100),
        ("synthetic-1-containment", 20),
        ("table1-fd-zeroary-ltr", 20),
        ("table1-fd-zeroary-ltr", 100),
    ):
        vocabulary, formula, _ = inputs[name]
        inputs[f"{name}-cap{cap}"] = (
            vocabulary, formula, {"budget": Budget(node_cap=cap)}
        )
    return inputs


def _fields(result):
    return {
        "satisfiable": result.satisfiable,
        "witness": (
            access_path_to_dict(result.witness) if result.witness is not None else None
        ),
        "paths_explored": result.paths_explored,
        "exhausted": result.exhausted,
        "interrupted": result.interrupted,
    }


def _run(spec):
    vocabulary, formula, kwargs = spec
    kwargs = dict(kwargs)
    bounds = kwargs.pop("bounds", DEFAULT_BOUNDS)
    return bounded_satisfiability(vocabulary, formula, bounds, **kwargs)


INPUTS = _inputs()


def _record():
    return {name: _fields(_run(spec)) for name, spec in INPUTS.items()}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_input(recorded):
    assert sorted(recorded) == sorted(INPUTS)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_results_match_fixture(recorded, name):
    assert _fields(_run(INPUTS[name])) == recorded[name]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(_record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")

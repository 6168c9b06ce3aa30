"""Evaluation leaves a design exactly as it was built.

A design's task key is the fingerprint of its declared inputs, so every
evaluation entry point must leave that fingerprint — and every device's
state — unchanged.  Infeasible designs may raise; the check holds on
the error path too.
"""

import pytest

import repro
from repro import casestudy
from repro.core.evaluate import evaluate_scenarios
from repro.core.validate import validate_design
from repro.design import (
    DesignSpace,
    candidate_designs,
    max_supported_capacity,
    max_supported_scale,
)
from repro.engine.keys import fingerprint
from repro.exceptions import ReproError
from repro.lint.engine import lint_design
from repro.serialization import canonical_json
from repro.workload.presets import cello

WORKLOAD = cello()
SCENARIOS = casestudy.case_study_scenarios()
REQUIREMENTS = casestudy.case_study_requirements()


def _designs():
    designs = {"baseline": casestudy.baseline_design()}
    designs.update(casestudy.all_table7_designs())
    for name, factory in candidate_designs(
        DesignSpace(), include_hybrids=True
    ).items():
        designs[f"candidate {name}"] = factory()
    return designs


def _portfolio_evaluate(design):
    portfolio = repro.Portfolio("single")
    portfolio.add_object("object", WORKLOAD, design)
    portfolio.evaluate(
        casestudy.array_failure_scenario(), REQUIREMENTS, strict_utilization=False
    )


CALLS = {
    "evaluate_scenarios": lambda design: evaluate_scenarios(
        design, WORKLOAD, SCENARIOS, REQUIREMENTS
    ),
    "validate_design": lambda design: validate_design(design, WORKLOAD),
    "DEP007": lambda design: lint_design(design, WORKLOAD, codes=["DEP007"]),
    "max_supported_scale": lambda design: max_supported_scale(design, WORKLOAD),
    "max_supported_capacity": lambda design: max_supported_capacity(
        design, WORKLOAD
    ),
    "Portfolio.evaluate": _portfolio_evaluate,
}


def _state(design):
    return (
        canonical_json(fingerprint(design)),
        [dict(vars(device)) for device in design.devices()],
    )


@pytest.mark.parametrize("call", list(CALLS), ids=list(CALLS))
def test_evaluation_leaves_every_design_unchanged(call):
    designs = _designs()
    assert len(designs) > 50
    for name, design in designs.items():
        before = _state(design)
        try:
            CALLS[call](design)
        except ReproError:
            pass
        assert _state(design) == before, name

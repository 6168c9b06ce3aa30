"""A pinned digest of the model's outputs over a whole design space.

Every candidate of the default :class:`~repro.design.DesignSpace`
(hybrids included) is evaluated against the case study's scenarios and
the per-design :func:`~repro.engine.keys.result_digest` values are
hashed into one digest.  A refactor or optimization of the evaluation
pipeline must keep every number byte-identical, so this digest must not
move; a deliberate model change updates it and says why.
"""

import hashlib

from repro import casestudy
from repro.core.evaluate import evaluate_scenarios
from repro.design import DesignSpace, candidate_designs
from repro.engine.keys import result_digest
from repro.serialization import canonical_json
from repro.workload.presets import cello

#: ``result_digest`` per candidate name, hashed over its canonical JSON.
DESIGN_SPACE_DIGEST = (
    "29bf6e1b84e93e69395292d6f88c2c33bcacb5a597debea3fcdb32df4b92da96"
)


def test_design_space_outputs_are_pinned():
    workload = cello()
    scenarios = casestudy.case_study_scenarios()
    requirements = casestudy.case_study_requirements()
    candidates = candidate_designs(DesignSpace(), include_hybrids=True)
    digests = {
        name: result_digest(
            evaluate_scenarios(factory(), workload, scenarios, requirements)
        )
        for name, factory in sorted(candidates.items())
    }
    assert len(digests) == 44
    assert None not in digests.values()
    body = canonical_json(digests).encode("utf-8")
    assert hashlib.sha256(body).hexdigest() == DESIGN_SPACE_DIGEST

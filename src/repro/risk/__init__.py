"""repro.risk — probabilistic risk assessment over scenario ensembles.

The paper's framework answers "how bad is *this* failure?"; this
package answers "how much dependability risk does the design carry
*per year*?".  It attaches annual occurrence rates to failure
scenarios, folds the evaluator's per-event severities into annualized
distributions, and cross-checks the analytics by simulation:

* :mod:`repro.risk.ensemble` — rated scenario ensembles (a generated
  grid stays a rule, :class:`MemberGrid`, read lazily), correlated
  events (array failure during the backup window) and cascades (a
  second fault during recovery, parameterized by the evaluator's own
  recovery time);
* :mod:`repro.risk.kofn` — the k-out-of-n redundancy model with
  deterministic repair (Aggarwal) that turns unit failure rates into
  per-scope effective rates;
* :mod:`repro.risk.distributions` — exact compound-Poisson folding via
  the Panjer recursion, with percentiles;
* :mod:`repro.risk.aggregate` — :func:`assess_risk`, which evaluates
  every distinct scenario through :mod:`repro.engine` (content
  addressing dedupes generated ensembles; the result cache makes
  repeat runs nearly free);
* :mod:`repro.risk.montecarlo` — seeded, substream-based Monte Carlo
  cross-checks of the analytic distributions (one substream per
  distinct severity triple, named by its smallest member id) and of
  the underlying loss model.

Layering: risk sits *above* core/scenarios/engine/simulation and is
imported by serialization's spec codecs and the CLI — never by the
models it drives.
"""

from .aggregate import (
    MemberOutcome,
    RiskAssessment,
    assess_risk,
    degenerate_assessment,
    scenario_digest,
)
from .distributions import (
    PERCENTILES,
    RiskDistribution,
    compound_poisson_distribution,
    empirical_distribution,
)
from .ensemble import (
    CascadeSpec,
    EnsembleMember,
    EnsembleMembers,
    MemberGrid,
    ScenarioEnsemble,
    array_failure_during_backup_window,
    correlated_pair,
    object_corruption_grid,
)
from .kofn import KofNModel
from .montecarlo import (
    BoundCheck,
    MonteCarloResult,
    cross_check,
    simulated_loss_check,
)

__all__ = [
    "BoundCheck",
    "CascadeSpec",
    "EnsembleMember",
    "EnsembleMembers",
    "KofNModel",
    "MemberGrid",
    "MemberOutcome",
    "MonteCarloResult",
    "PERCENTILES",
    "RiskAssessment",
    "RiskDistribution",
    "ScenarioEnsemble",
    "array_failure_during_backup_window",
    "assess_risk",
    "compound_poisson_distribution",
    "correlated_pair",
    "cross_check",
    "degenerate_assessment",
    "empirical_distribution",
    "object_corruption_grid",
    "scenario_digest",
    "simulated_loss_check",
]

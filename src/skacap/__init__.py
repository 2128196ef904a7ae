"""skacap: secret-key agreement capacities for multiterminal channel models.

Computes exact source-model SK/PK capacities via the communication-for-
omniscience linear program, lower/upper bounds and the noninteractive SK
capacity of transceiver channel models, polytree-PIN capacities via
Blahut-Arimoto, and runs a Monte-Carlo key-agreement simulator that checks
the reliability/secrecy definitions empirically.
"""

__version__ = "0.1.0"

from .models import (  # noqa: E402,F401
    CapacityReport,
    PartySpec,
    Polytree,
    PolytreeEdge,
    SourceModel,
    TransceiverModel,
    edge,
    emulated_to_source,
    polytree_to_transceiver,
)
from .linprog import LinearProgram, lp_solve  # noqa: E402,F401
from .modelio import parse_model, serialize_model  # noqa: E402,F401
from .omniscience import (  # noqa: E402,F401
    constraint_family,
    pk_capacity,
    rco,
    sk_capacity,
    sk_capacity_dual,
    source_entropies,
)
from .optimize import InputOptimizerConfig  # noqa: E402,F401
from .polytree import (  # noqa: E402,F401
    edge_capacity,
    polytree_capacity,
    wiretapped_edge_lower,
    wiretapped_polytree_bounds,
)
from .prob import (  # noqa: E402,F401
    Alphabet,
    Dmc,
    JointPMF,
    compose,
    entropy,
    marginalize,
    mutual_information,
    product_pmf,
    statistical_distance,
)
from .sim import SimConfig, SimResult, run_sim  # noqa: E402,F401
from .transceiver import (  # noqa: E402,F401
    EmulationSpec,
    emulate,
    lambda_upper_expression,
    lower_bound_pk,
    noninteractive_sk_capacity,
    sk_bounds,
    upper_bound_sk,
    wsk_upper_by_pk,
)

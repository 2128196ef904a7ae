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
    sk_capacity,
    sk_capacity_dual,
    source_entropies,
)
from .optimize import InputOptimizerConfig  # noqa: E402,F401
from .polytree import (  # noqa: E402,F401
    polytree_capacity,
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
    noninteractive_sk_capacity,
    sk_bounds,
    wsk_upper_by_pk,
)

#: The public names, in the order of the imports above, as the README's
#: "Library" section lists them.
__all__ = [
    "CapacityReport", "PartySpec", "Polytree", "PolytreeEdge", "SourceModel",
    "TransceiverModel", "edge", "emulated_to_source", "polytree_to_transceiver",
    "LinearProgram", "lp_solve",
    "parse_model", "serialize_model",
    "constraint_family", "pk_capacity", "sk_capacity", "sk_capacity_dual",
    "source_entropies",
    "InputOptimizerConfig",
    "polytree_capacity", "wiretapped_polytree_bounds",
    "Alphabet", "Dmc", "JointPMF", "compose", "entropy", "marginalize",
    "mutual_information", "product_pmf", "statistical_distance",
    "SimConfig", "SimResult", "run_sim",
    "noninteractive_sk_capacity", "sk_bounds", "wsk_upper_by_pk",
]

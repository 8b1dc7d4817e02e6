"""Trap-qubit privacy certification: exact simulator and analytics.

A verifier hides diagonal-basis trap qubits at uniformly random positions
inside a rectilinear-basis message before handing everything to an
untrusted server. Reading the data in transit or in storage disturbs each
measured trap with probability 1/2, so checking the traps later turns
eavesdropping into a detectable event. The package implements the storage
variant (the state comes back and is checked) and the erasure variant (the
state is destructively measured in the diagonal basis and announced), two
reference eavesdropping strategies with their exact detection laws, the
certification/discrimination games as seeded Monte-Carlo experiments, and
a Wegman-Carter one-time MAC for the classical integrity layer.
"""

from .qubit import Basis
from .encoding import (
    KeyLength,
    SecretKey,
    decode_non_trap,
    encode,
    generate_key,
    key_from_json,
    key_length_bits,
    key_to_json,
    random_message,
)
from .parties import (
    Custom,
    EavesdropRecord,
    ErasureCert,
    FirstBit,
    Honest,
    NoOp,
    NonTraps,
    PositionChoice,
    RectilinearSample,
    StorageCert,
    Task,
    VerifyResult,
    adversary_intervene,
    discr_guess,
    prover_respond,
    verify,
)
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    run_cert,
    run_discr,
    stream_rng,
    sweep,
)
from .bounds import (
    cert_exact,
    cert_exact_fraction,
    firstbit_advantage,
    firstbit_cert,
    firstbit_conditional_success,
    hoeffding_bound,
    hypergeom_mean,
)
from .auth import (
    AuthKey,
    AuthTag,
    generate_auth_key,
    tag,
    verify_tag,
)

__version__ = "0.1.0"

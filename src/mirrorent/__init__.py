"""Mirror entanglement: local-unitary distance monotones for pure bipartite states."""

__version__ = "0.1.0"

from .locc import KrausChannel, apply_channel, monotonicity_trial, random_channel
from .majorization import TTransform, apply_chain, increment_audit, ttransform_chain
from .monotones import (
    BRUTE_FORCE_CAP,
    PermutationSolution,
    fidelity_bruteforce,
    fidelity_exact,
    fidelity_exact_many,
    linear_entropy_bounds,
    lower_bound_coefficient,
    mirror_entanglement,
    optimal_unitary,
    unistochastic_audit,
)
from .spectra import LUSpectrum, degeneracy, is_faithful, parse_spectrum_spec, stellar
from .states import (
    PureBipartiteState,
    SchmidtSpectrum,
    linear_entropy,
    load_state,
    random_pure,
    schmidt_spectrum,
)

__all__ = [
    "BRUTE_FORCE_CAP",
    "KrausChannel",
    "LUSpectrum",
    "PermutationSolution",
    "PureBipartiteState",
    "SchmidtSpectrum",
    "TTransform",
    "apply_chain",
    "apply_channel",
    "degeneracy",
    "fidelity_bruteforce",
    "fidelity_exact",
    "fidelity_exact_many",
    "increment_audit",
    "is_faithful",
    "linear_entropy",
    "linear_entropy_bounds",
    "load_state",
    "lower_bound_coefficient",
    "mirror_entanglement",
    "monotonicity_trial",
    "optimal_unitary",
    "parse_spectrum_spec",
    "random_channel",
    "random_pure",
    "schmidt_spectrum",
    "stellar",
    "ttransform_chain",
    "unistochastic_audit",
]

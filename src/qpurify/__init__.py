"""Spin-block tools for registers of identical mixed qubits.

The package decomposes N-fold tensor powers of a mixed qubit state into
total-spin blocks, simulates the purification protocol built on that
measurement, derives optimal cloning / state-estimation fidelities, and
brute-force verifies every closed form on explicit matrices for small N.
"""

from .analytics import (
    block_fidelity,
    block_probability,
    block_spectrum,
    block_state_matrix,
    mean_fidelity,
    mean_fidelity_asymptote,
    multiplicity,
    yield_asymptote,
    yield_factor,
)
from .blocks import (
    block_swap,
    build_schur_basis,
    dicke_state,
    measure_block,
)
from .cloning import (
    estimation_lambda,
    mixed_cloning_fidelity,
    pure_cloning_fidelity,
    scaling_relation_check,
)
from .core import (
    BlockLabel,
    MixedQubit,
    SizeLimitError,
    dense_cap,
    density_matrix,
    haar_unitary,
    kron_power,
    max_abs,
    outer,
    partial_trace,
    qubit_eigenstates,
    random_direction,
)
from .oracle import (
    covariance_residual,
    pure_component_moments,
    purification_map_outputs,
    quadrature_check,
    reversibility_check,
    verify_decomposition,
)
from .protocol import (
    run_protocol,
    run_protocol_dense,
    write_outcomes_csv,
)

__version__ = "0.1.0"

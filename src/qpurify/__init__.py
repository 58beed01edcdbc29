"""Spin-block tools for registers of identical mixed qubits.

The package decomposes N-fold tensor powers of a mixed qubit state into
total-spin blocks, simulates the purification protocol built on that
measurement, derives optimal cloning / state-estimation fidelities, and
brute-force verifies every closed form on explicit matrices for small N.

The closed-form modules ``core``, ``analytics`` and ``cloning`` and the
sampler of ``protocol`` need only the standard library; ``blocks``,
``oracle`` and ``run_protocol_dense`` need numpy.  Importing the package
loads none of them: each public name below is imported from its module
on first use (PEP 562), so a closed-form or sampling caller never pays
for numpy.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_MODULES = {
    "analytics": "block_fidelity block_probability block_spectrum mean_fidelity mean_fidelity_asymptote "
    "multiplicity yield_asymptote yield_factor",
    "blocks": "block_swap build_schur_basis density_matrix dicke_state haar_unitary kron_power max_abs "
    "measure_block outer partial_trace qubit_eigenstates random_direction",
    "cloning": "estimation_lambda mixed_cloning_fidelity pure_cloning_fidelity",
    "core": "DENSE_CAP BlockLabel MixedQubit SizeLimitError",
    "oracle": "block_state_matrix covariance_residual purification_map_outputs quadrature_check verify_decomposition",
    "protocol": "run_protocol run_protocol_dense write_outcomes_csv",
}
_HOME = {name: module for module, names in _MODULES.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _MODULES:  # ``qpurify.analytics`` and the like, as when the root imported them
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))

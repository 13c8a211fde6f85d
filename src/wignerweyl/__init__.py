"""Phase-space representations of finite quantum systems.

Wigner and Weyl symbol calculus for SU(N) spin systems, truncated bosonic
modes, and their tensor products: generator construction, displaced-parity
and displacement kernels, invariant-measure quadrature, invertible
transforms, star products, dynamics, and thermal statistics.

The package namespace resolves lazily so that importing it stays free of
numpy; the CLI relies on this to apply its BLAS thread cap first.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "HW": ".algebra",
    "SUN": ".algebra",
    "Composite": ".algebra",
    "SystemDescriptor": ".algebra",
    "basis_labels": ".algebra",
    "build_generators": ".algebra",
    "diagonal_generator": ".algebra",
    "dimension": ".algebra",
    "format_system": ".algebra",
    "generator": ".algebra",
    "parse_system": ".algebra",
    "trace_norm_constant": ".algebra",
    "WEYL": ".kernels",
    "WIGNER": ".kernels",
    "KernelSpec": ".kernels",
    "kernel_at": ".kernels",
    "kernel_stack": ".kernels",
    "parity": ".kernels",
    "Axis": ".measures",
    "QuadratureGrid": ".measures",
    "cp_grid": ".measures",
    "hw_grid": ".measures",
    "product_grid": ".measures",
    "sun_grid": ".measures",
    "CompositePoint": ".points",
    "CPPoint": ".points",
    "EulerPoint": ".points",
    "HWPoint": ".points",
    "PhasePoint": ".points",
    "arecchi_rotation": ".rotations",
    "euler_angle_count": ".rotations",
    "euler_factor_sequence": ".rotations",
    "euler_rotation": ".rotations",
    "expi_hermitian": ".rotations",
    "load_matrix": ".serialize",
    "matrix_from_json": ".serialize",
    "matrix_to_json": ".serialize",
    "write_csv": ".serialize",
    "GHZ": ".states",
    "Coherent": ".states",
    "Fock": ".states",
    "HWCat": ".states",
    "RandomDensity": ".states",
    "SpinCat": ".states",
    "SpinCoherent": ".states",
    "ThermalSpec": ".states",
    "build_state": ".states",
    "coherent_vector": ".states",
    "parse_state": ".states",
    "state_vector": ".states",
    "CrossCorrelation": ".statmech",
    "autocorrelation": ".statmech",
    "free_energy": ".statmech",
    "gibbs_operator": ".statmech",
    "partition_function": ".statmech",
    "partition_oracle": ".statmech",
    "phase_cross_correlation": ".statmech",
    "thermal_mean": ".statmech",
    "weyl_axes": ".statmech",
    "weyl_moments": ".statmech",
    "EvolveResult": ".transforms",
    "PhaseFunction": ".transforms",
    "VerifyReport": ".transforms",
    "default_grid": ".transforms",
    "evolve": ".transforms",
    "generalized_fourier": ".transforms",
    "moyal_bracket": ".transforms",
    "overlap": ".transforms",
    "phase_function": ".transforms",
    "reconstruct": ".transforms",
    "star_product": ".transforms",
    "symbol_at": ".transforms",
    "symbols_at": ".transforms",
    "verify_stratonovich": ".transforms",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module_name, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))

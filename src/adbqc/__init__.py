"""Ancilla-driven blind quantum computation: simulator and verification lab.

A statevector core drives measurement-based gate gadgets for three
client-capability protocols (prepare-only, measure-only, gate-only), with
trap-based verification, adversary analyses and blindness audits on top.
"""

__version__ = "0.1.0"

from .qsim import (
    DensityMatrix,
    Gate,
    MeasurementBasis,
    StateVector,
    apply_gate,
    fidelity_up_to_phase,
    haar_random_state,
    partial_trace,
    trace_distance,
)

__all__ = [
    "__version__",
    "DensityMatrix",
    "Gate",
    "MeasurementBasis",
    "StateVector",
    "apply_gate",
    "fidelity_up_to_phase",
    "haar_random_state",
    "partial_trace",
    "trace_distance",
]

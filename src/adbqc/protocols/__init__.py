"""Client-capability protocols, trap verification and shared machinery."""

from .config import (
    CAPABILITY_BY_PROTOCOL,
    HONEST,
    PROTOCOLS,
    AdversaryConfig,
    ClientCapability,
    GateRequest,
    ProtocolConfig,
    RunManifest,
    VerificationReport,
    config_from_dict,
    config_object,
    config_to_dict,
)
from .driver import (
    RunResult,
    run,
    run_protocol1,
    run_protocol2,
    run_sueki,
)
from .gate_client import p2_hrz_on_runtime
from .measure_client import classify_angle, p1_hrz_on_runtime, solve_phase_choice
from .reference import (
    enumerated_distribution,
    reference_distribution,
    reference_state,
    total_variation,
)
from .schedule import Layer, schedule
from .traps import (
    TRAP_STATES,
    DecodedOutput,
    TrapLayout,
    decode_output,
    place_traps,
)

__all__ = [
    "AdversaryConfig",
    "CAPABILITY_BY_PROTOCOL",
    "ClientCapability",
    "DecodedOutput",
    "GateRequest",
    "HONEST",
    "Layer",
    "PROTOCOLS",
    "ProtocolConfig",
    "RunManifest",
    "RunResult",
    "TRAP_STATES",
    "TrapLayout",
    "VerificationReport",
    "classify_angle",
    "config_from_dict",
    "config_object",
    "config_to_dict",
    "decode_output",
    "enumerated_distribution",
    "p1_hrz_on_runtime",
    "p2_hrz_on_runtime",
    "place_traps",
    "reference_distribution",
    "reference_state",
    "run",
    "run_protocol1",
    "run_protocol2",
    "run_sueki",
    "schedule",
    "solve_phase_choice",
    "total_variation",
]

"""Small readers over run results, and references, that only the tests need."""

import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np

from adbqc.protocols import ProtocolConfig, config_from_dict, config_object
from adbqc.transcript import ALICE, BOB, Transcript


def rx_matrix(theta: float) -> np.ndarray:
    """R_X(theta) in the package's convention: H R_Z(theta) H = e^{i theta/2} R_X(theta)."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def read_manifest(text: str) -> ProtocolConfig:
    """The config of manifest ``text``, read as ``adbqc run --config`` reads it."""
    return config_from_dict(config_object(json.loads(text)))


def client_to_server_traffic(transcript: Transcript) -> tuple[int, int]:
    """(classical messages, qubit transfers) sent client to server."""
    sent = Counter(ev.kind for ev in transcript.events if ev.party == ALICE and ev.to == BOB)
    return sent["msg"], sent["transfer"]


def sampled_distribution(run_protocol, config, trials: int) -> dict[tuple[int, ...], float]:
    """Monte Carlo decoded-output distribution over seeds ``config.seed + t``."""
    quiet = replace(config, record_transcript=False)
    counts = Counter(
        run_protocol(quiet.with_seed(config.seed + t)).report.computation_bits
        for t in range(trials)
    )
    return {bits: c / trials for bits, c in counts.items()}

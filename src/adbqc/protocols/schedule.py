"""Packing gate requests into protocol layers.

Each layer gives every register qubit exactly one four-invocation pattern
slot (identity when idle) followed by the layer's CZ requests on disjoint
pairs. Requests are packed as early as possible while preserving program
order per qubit; a CZ runs after the patterns of its layer, so a pattern
following a CZ on the same qubit lands in a later layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # config imports this module to keep each config's layers as it checks them
    from .config import GateRequest


@dataclass(frozen=True)
class Layer:
    patterns: tuple[tuple[int, tuple[int, int, int]], ...]  # (logical q, octants)
    czs: tuple[tuple[int, int], ...]


def schedule(
    requests: tuple[GateRequest, ...], width: int, depth: int
) -> tuple[Layer, ...]:
    """Assign each request a layer; raises if ``depth`` layers do not fit."""
    slot = [0] * width  # next pattern layer per qubit
    cz_floor = [0] * width  # first layer allowed for the next CZ per qubit
    patterns: dict[int, list[tuple[int, tuple[int, int, int]]]] = {}
    czs: dict[int, list[tuple[int, int]]] = {}
    highest = 0
    for req in requests:
        if req.kind == "su":
            q = req.targets[0]
            layer = max(slot[q], cz_floor[q])
            patterns.setdefault(layer, []).append((q, req.resolved_octants()))
            slot[q] = layer + 1
        else:
            i, j = req.targets
            layer = max(slot[i] - 1, slot[j] - 1, cz_floor[i], cz_floor[j], 0)
            czs.setdefault(layer, []).append((i, j))
            cz_floor[i] = cz_floor[j] = layer + 1
            slot[i] = max(slot[i], layer + 1)
            slot[j] = max(slot[j], layer + 1)
        highest = max(highest, layer)
    needed = highest + 1 if requests else 1
    if needed > depth:
        raise ValueError(f"algorithm needs {needed} layers, configured depth is {depth}")
    return tuple(
        Layer(tuple(patterns.get(k, ())), tuple(czs.get(k, ()))) for k in range(depth)
    )

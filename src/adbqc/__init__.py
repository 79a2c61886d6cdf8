"""Ancilla-driven blind quantum computation: simulator and verification lab.

A statevector core drives measurement-based gate gadgets for three
client-capability protocols (prepare-only, measure-only, gate-only), with
trap-based verification, adversary analyses and blindness audits on top.
"""

__version__ = "0.1.0"

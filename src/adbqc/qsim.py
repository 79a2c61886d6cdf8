"""Dense statevector simulation core.

Conventions, fixed across the whole package:

- Qubits are little-endian: qubit 0 is the least significant bit of the
  amplitude index, so ``|q1 q0>`` has index ``2*q1 + q0``.
- ``R_Z(t) = diag(1, e^{it})`` and
  ``R_X(t) = [[cos(t/2), -i sin(t/2)], [-i sin(t/2), cos(t/2)]]``.
- The general single-qubit state family is
  ``|+_{a,p}> = cos(a/2)|0> + e^{ip} sin(a/2)|1>``. Its partner
  ``|-_{a,p}> = sin(a/2)|0> - e^{ip} cos(a/2)|1>`` is orthogonal to it at
  every a and p, and is only used through measurement bases.
- A gate is its complex matrix; a multi-qubit one indexes its rows and
  columns with ``targets[0]`` as the most significant bit.
- A measurement basis is a 2x2 array whose row b is the eigenstate of
  outcome b.
- A pure state on n qubits is a 1-D complex array of its 2^n amplitudes;
  ``_width`` is the one rule that reads n from the length.

Every operation returns a new array and writes none of its inputs. Measurement
and outcome enumeration live in ``runtime``. Gates apply through one kernel,
``_apply_matrix`` (also behind ``QuantumRuntime.apply``): on the top qubits,
high to low (the identity axis order, ``_TOP``), one product on the amplitudes
as they lie; on any other targets, one product on the view with the target axes
in front, its axis orders cached per (width, targets). Both callers check a
gate against its targets with ``_check_gate``. Gates and bases are built from
fixed formulas and checked nowhere in ``src/`` (the tests check that each is
unitary or orthonormal); the ones every run reuses, and the ancilla states, are
built once, at import, and ``share``d: read-only, held as given by a runtime
factor (a state, or a basis row; it copies any other input), and kept with
their conjugates in ``SHARED``.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

# The package's one tolerance table: every threshold a check compares with.
NORM_ATOL = 1e-9  # |norm - 1| float rounding leaves on a pure state or qubit
PRODUCT_ATOL = 1e-9  # purity defect of a qubit that counts as product with the rest
GADGET_FIDELITY_ATOL = 1e-9  # infidelity a gadget branch may show against its ideal gate
NO_SIGNALING_ATOL = 1e-10  # trace distance between the server's views of a step at two octants
PROBE_GRAM_ATOL = 1e-10  # entrywise gap between the simulated and closed-form probe Gram
PROBABILITY_SLACK = 1e-12  # rounding allowed when checking or bounding a probability
BRANCH_PROB_FLOOR = 1e-12  # probability below which an outcome branch is not taken
MAX_QUBITS = 16  # most qubits a state, or a runtime's factors together, may hold
BRANCH_BUDGET = 2**16  # most outcome paths one enumeration may walk

SQRT_HALF = 1.0 / math.sqrt(2.0)


def rz_matrix(theta: float) -> np.ndarray:
    return np.array([[1, 0], [0, np.exp(1j * theta)]], dtype=complex)


def plus_state(polar: float, phase: float) -> np.ndarray:
    """Amplitudes of cos(polar/2)|0> + e^{i phase} sin(polar/2)|1>."""
    return np.array(
        [math.cos(polar / 2), np.exp(1j * phase) * math.sin(polar / 2)], dtype=complex
    )


def equatorial_basis(phase: float) -> np.ndarray:
    """The basis {|+_{pi/2,p}>, |-_{pi/2,p}>}; row b is the eigenstate of outcome b."""
    minus = [math.sin(math.pi / 4), -np.exp(1j * phase) * math.cos(math.pi / 4)]
    return np.array([plus_state(math.pi / 2, phase), minus], dtype=complex)


def share(array: np.ndarray) -> np.ndarray:
    """Make ``array``, a gate, basis or state kept for good, read-only and shared; returns it."""
    conj = array.conj()
    array.flags.writeable = conj.flags.writeable = False
    SHARED[id(array)] = array, conj
    return array


SHARED: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # id -> (shared array, its conjugate)
# Built once and shared: a gate is its matrix, a basis its 2x2 array of
# eigenstate rows, and octant k means the angle k*pi/4.
H_GATE = share(np.array([[SQRT_HALF, SQRT_HALF], [SQRT_HALF, -SQRT_HALF]], dtype=complex))
X_GATE = share(np.array([[0, 1], [1, 0]], dtype=complex))
Z_GATE = share(np.array([[1, 0], [0, -1]], dtype=complex))
CZ_GATE = share(np.diag([1, 1, 1, -1]).astype(complex))
RZ_BY_OCTANT = tuple(share(rz_matrix(k * math.pi / 4)) for k in range(8))
HRZ_BY_OCTANT = tuple(share(H_GATE @ rz) for rz in RZ_BY_OCTANT)
Z_BASIS = share(np.eye(2, dtype=complex))
X_BASIS = share(np.array([[1, 1], [1, -1]], dtype=complex) * SQRT_HALF)
EQUATORIAL_BY_OCTANT = tuple(share(equatorial_basis(k * math.pi / 4)) for k in range(8))
# the prepare-only client's hidden-rotation ancilla at each hiding octant
HIDDEN_BY_OCTANT = tuple(share(plus_state(k * math.pi / 4, math.pi / 2)) for k in range(8))
ZERO_AMPS = share(np.array([1, 0], dtype=complex))
PLUS_AMPS = share(plus_state(math.pi / 2, 0.0))
_TOP = tuple(tuple(tuple(range(n - 1, n - 1 - k, -1)) for k in range(n + 1))
             for n in range(MAX_QUBITS + 1))  # _TOP[n][k]: the top k of n qubits, high to low


@functools.lru_cache(maxsize=1024)
def _transpose_plan(n: int, targets: tuple[int, ...]) -> tuple[tuple, tuple, tuple]:
    """The (2,) * n shape, the axis order with ``targets``' axes in front
    (targets[0] first), and the order that undoes it."""
    perm = [n - 1 - q for q in targets]
    perm += [ax for ax in range(n) if ax not in perm]
    inverse = sorted(range(n), key=perm.__getitem__)
    return (2,) * n, tuple(perm), tuple(inverse)


def _apply_matrix(
    amps: np.ndarray, matrix: np.ndarray, targets: tuple[int, ...], n: int
) -> np.ndarray:
    """``matrix`` on ``targets``: one gemm on the amplitudes as they lie when
    the targets are the top qubits, high to low, else on the view with the
    target axes in front."""
    if targets == _TOP[n][len(targets)]:  # the identity axis order
        return matrix.dot(amps.reshape(matrix.shape[0], -1)).reshape(-1)
    shape, perm, inverse = _transpose_plan(n, targets)
    front = amps.reshape(shape).transpose(perm).reshape(matrix.shape[0], -1)
    return (matrix @ front).reshape(shape).transpose(inverse).reshape(-1)


def _check_gate(matrix: np.ndarray, targets: Sequence) -> None:
    """Refuse no targets, repeated targets, or a matrix that is not
    2^k x 2^k for its k targets (qubit indices or runtime labels)."""
    k = len(targets)
    if not k or k > 1 and len(set(targets)) != k:
        raise ValueError(f"need one or more distinct targets, got {list(targets)}")
    if matrix.shape != (1 << k, 1 << k):
        raise ValueError(f"a {matrix.shape} matrix cannot act on targets {list(targets)}")


def _width(state: np.ndarray) -> int:
    """n for a state of 2^n amplitudes; refuses any other shape."""
    n = max(state.size.bit_length() - 1, 0)
    if state.shape != (1 << n,) or n > MAX_QUBITS:
        raise ValueError(f"a state needs 2^n amplitudes, n <= {MAX_QUBITS}; got {state.shape}")
    return n


def _has_unit_norm(amps: np.ndarray) -> bool:
    """Whether ``amps`` has norm 1 within ``NORM_ATOL``: the one normalization
    rule; a NaN norm fails the comparison, so it is refused too."""
    return abs(math.sqrt(np.vdot(amps, amps).real) - 1.0) <= NORM_ATOL


def apply_gate(state: np.ndarray, matrix: np.ndarray, targets: Sequence[int]) -> np.ndarray:
    """Apply ``matrix`` to ``targets``; targets[0] is the matrix's high bit."""
    targets = tuple(targets)
    _check_gate(matrix, targets)
    n = _width(state)
    if any(not 0 <= q < n for q in targets):
        raise ValueError(f"targets {list(targets)} out of range for {n} qubits")
    return _apply_matrix(state, matrix, targets, n)


def partial_trace(state: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """Reduced density matrix on ``keep``; keep[i] becomes output qubit i."""
    keep = list(keep)
    n = _width(state)
    if len(set(keep)) != len(keep) or any(not 0 <= q < n for q in keep):
        raise ValueError(f"invalid keep list: {keep}")
    if not keep:
        raise ValueError("keep must name at least one qubit")
    psi = state.reshape([2] * n)
    kept_axes = [n - 1 - q for q in reversed(keep)]
    other_axes = [ax for ax in range(n) if ax not in kept_axes]
    m = np.transpose(psi, kept_axes + other_axes).reshape(2 ** len(keep), -1)
    return m @ m.conj().T


def trace_distance(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """(1/2)||a - b||_1 for Hermitian matrices, or one per pair of two stacks."""
    return 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum(axis=-1)


def haar_random_states(count: int, num_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Haar-random states as rows; row i is, bit for bit, the i-th of
    ``count`` ``haar_random_state`` draws (same normals, same dot products)."""
    draws = rng.normal(size=(count, 2, 2**num_qubits))
    v = draws[:, 0] + 1j * draws[:, 1]
    re, im = v.real[:, None], v.imag[:, None]
    return v / np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0]


def haar_random_state(num_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed pure state via a normalized complex Gaussian vector."""
    return haar_random_states(1, num_qubits, rng)[0]

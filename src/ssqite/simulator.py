"""Dense statevector simulation of parameterized circuits.

Rotation convention: R_G(theta) = exp(-i * theta * G / 2) for G in {X, Y, Z},
so R_G(theta) = cos(theta/2) I - i sin(theta/2) G.
Qubit q is axis q of the statevector reshaped to (2,) * n, matching the Pauli
string ordering in :mod:`ssqite.pauli_algebra` (qubit 0 = leftmost label).

Cost model.  :func:`apply` and :func:`derivative_stack` share one kernel that
moves a batch of k states through the circuit as a (2d, k) real matrix.
Every gate is embedded once per circuit as a dense 2^n x 2^n matrix, and the
fixed gates between two rotations are multiplied into the following
rotation, so the circuit is one step matrix per rotation gate.  A sweep forms
the R prefix products W_r of the steps in log2(R) batched products, so U is
W_{R-1} times the trailing fixed gates.  Each W_r is unitary, so rotation r's
derivative U W_r^dag (-i/2 G_r) W_r psi comes, for all rotations at once,
from a fixed handful of batched products: O(R log R d^3 + R d^2 k)
arithmetic in O(log R) NumPy calls instead of a few calls per rotation.
Parameter i is the angle of the i-th rotation gate, so rotation r's
derivative is parameter r's.  The cubic cost in d is deliberate: the
package targets small dense simulation, the shipped ansaetze act on 2 and 3
qubits, and there the cost of a sweep is call overhead, not arithmetic.  So
a sweep moves the plan's first k coordinate vectors, and reads W_r psi and
U psi as column slices of W_r and U instead of forming two products; a
frame puts its inputs first (:func:`invariant_basis`), so its sweeps are
always of this kind.  Any other batch is the sweep of all 2d coordinate
vectors contracted with the batch, which for basis-state inputs selects
columns exactly.

Every matrix is stored in the real form A + iB -> [[A, -B], [B, A]] and a
batch of states in the real form [Re psi; Im psi].  The real form maps
products to products and M^dag to M^T, so the kernel is the complex one
with real arithmetic, and it writes the derivatives of a batch directly as
the (k, P, 2d) real factor t = [Re D | Im D] that the McLachlan system is
built from.  On 3 and 4 amplitudes a stacked complex product costs 2-3
times a real one of twice the width (NumPy 2.4: 8.2 us for (15, 4, 4)
complex against 4.4 us for (15, 8, 8) real), and the prefix products are
most of a sweep.

Here d = 2^n, or less when the inputs lie in a subspace that every gate maps
into itself: :func:`invariant_basis` finds an orthonormal basis Q of the
smallest such subspace, and the kernel runs unchanged on
``DenseCircuit.restrict(Q)`` with d = rank Q (3 instead of 8 for the
excitation-preserving ansatz on one-excitation inputs).  The
tensor-contraction path (:func:`derivative_state`, :func:`hadamard_test`)
stays complex, as the independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import InputError
from .pauli_algebra import PAULI_MATRICES, PauliSum, parse_pauli_string

_SQRT_X = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_CSX = np.block(
    [[np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), _SQRT_X]]
).astype(complex)
_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

# The gate vocabulary, one table per sort of gate; a kind is a key of one of
# them, and a 2^k x 2^k matrix makes its gate act on k qubits.  A rotation
# kind maps to its generator G, and dR/dtheta = (-i/2) * G * R.
_GENERATORS = {"RX": PAULI_MATRICES["X"], "RY": PAULI_MATRICES["Y"], "RZ": PAULI_MATRICES["Z"]}
# A fixed kind maps to its matrix.
_FIXED = {"CNOT": _CNOT, "CSX": _CSX, "X": PAULI_MATRICES["X"]}


@dataclass(frozen=True)
class Statevector:
    """Normalized complex amplitude vector over 2^n basis states."""

    amps: np.ndarray
    n: int

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        object.__setattr__(self, "amps", amps)
        if amps.shape != (2 ** self.n,):
            raise InputError(
                f"amplitude vector of length {amps.shape} for n={self.n}"
            )
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= 1e-10:  # also refuses NaN
            raise InputError(f"state norm {norm} deviates from 1")

    @classmethod
    def from_label(cls, label: str) -> "Statevector":
        """Computational basis state from a ket label such as ``"010"``."""
        if not isinstance(label, str) or not label or set(label) - {"0", "1"}:
            raise InputError(f"ket label must be a nonempty string of 0s and 1s, got {label!r}")
        n = len(label)
        amps = np.zeros(2 ** n, dtype=complex)
        amps[int(label, 2)] = 1.0
        return cls(amps=amps, n=n)

    @classmethod
    def zero(cls, n: int) -> "Statevector":
        return cls.from_label("0" * n)


@dataclass(frozen=True)
class Gate:
    """One circuit element.

    ``kind`` is a key of ``_GENERATORS`` (a rotation) or of ``_FIXED``, and
    its matrix there sets how many qubits it acts on.  ``targets`` lists
    qubit indices; for CNOT and CSX the first entry is the control and the
    second the target.  A rotation's angle is the circuit parameter of its
    position among the circuit's rotations.
    """

    kind: str
    targets: tuple[int, ...]

    def __post_init__(self):
        kind = self.kind if isinstance(self.kind, str) else None  # an unhashable kind is unknown too
        mat = _GENERATORS.get(kind, _FIXED.get(kind))
        if mat is None:
            raise InputError(f"unknown gate kind {self.kind!r}")
        expected = len(mat).bit_length() - 1
        if len(self.targets) != expected:
            raise InputError(f"{self.kind} acts on {expected} qubit(s)")
        if len(set(self.targets)) != len(self.targets):
            raise InputError("gate targets must be distinct")


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list on ``n`` qubits; parameter i is the angle of the i-th rotation."""

    n: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        for gate in self.gates:
            for t in gate.targets:
                if not 0 <= t < self.n:
                    raise InputError(f"target {t} outside 0..{self.n - 1}")

    @cached_property
    def _rotations(self) -> tuple[int, ...]:
        """Gate position of each parameter's rotation, in circuit order."""
        return tuple(k for k, g in enumerate(self.gates) if g.kind in _GENERATORS)

    @property
    def num_params(self) -> int:
        """Number of parameters: one per rotation gate."""
        return len(self._rotations)

    @cached_property
    def dense(self) -> "DenseCircuit":
        """Dense gate matrices of this circuit, built on first use."""
        return _compile(self)


# --- low-level tensor ops -------------------------------------------------

def _apply_matrix(tensor: np.ndarray, mat: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Apply a (2^k x 2^k) matrix to the given k qubit axes of a state tensor."""
    k = len(axes)
    out = np.tensordot(mat.reshape((2,) * (2 * k)), tensor,
                       axes=(list(range(k, 2 * k)), list(axes)))
    return np.moveaxis(out, list(range(k)), list(axes))


def _gate_matrices(c: Circuit, theta: np.ndarray) -> list[np.ndarray]:
    """Every gate's matrix in circuit order, the i-th rotation at angle theta[i]."""
    out, halves = [], iter(0.5 * theta)
    for g in c.gates:
        if g.kind in _FIXED:
            out.append(_FIXED[g.kind])
        else:
            half = next(halves)
            out.append(math.cos(half) * PAULI_MATRICES["I"]
                       - 1j * math.sin(half) * _GENERATORS[g.kind])
    return out


# --- dense batched sweep -----------------------------------------------------

def _embed(mat: np.ndarray, targets: tuple[int, ...], n: int) -> np.ndarray:
    """Dense 2^n x 2^n matrix of ``mat`` acting on the given qubits."""
    dim = 2 ** n
    columns = np.eye(dim, dtype=complex).reshape((2,) * n + (dim,))
    return _apply_matrix(columns, mat, targets).reshape(dim, dim)


def real_form(z: np.ndarray) -> np.ndarray:
    """Real form of complex amplitudes: [Re z; Im z] along the first axis."""
    z = np.asarray(z)
    return np.concatenate((z.real, z.imag))


def complex_form(x: np.ndarray) -> np.ndarray:
    """Complex amplitudes of a real form along the first axis; inverts :func:`real_form`."""
    d = len(x) // 2
    z = np.empty((d,) + x.shape[1:], dtype=complex)
    z.real, z.imag = x[:d], x[d:]
    return z


def real_matrix(m: np.ndarray) -> np.ndarray:
    """Real form [[A, -B], [B, A]] of complex matrices A + iB on the last two axes."""
    m = np.asarray(m)
    a, b = m.real, m.imag
    return np.concatenate((np.concatenate((a, -b), axis=-1),
                           np.concatenate((b, a), axis=-1)), axis=-2)


def _complex_matrix(m: np.ndarray) -> np.ndarray:
    """Complex matrices of real forms on the last two axes; inverts :func:`real_matrix`."""
    d = m.shape[-1] // 2
    return m[..., :d, :d] + 1j * m[..., d:, :d]


@dataclass(frozen=True, eq=False)
class DenseCircuit:
    """A circuit as one step per rotation gate, in circuit order.

    Step r applies ``lead[r]`` (the fixed gates since the previous rotation)
    and then rotation r, at angle theta[r]; ``tail`` holds the fixed gates
    after the last rotation, or None when there are none.  Every matrix is
    stored in its real form (:func:`real_matrix`), so it acts on real-form
    state columns.
    """

    lead: np.ndarray  # (R, 2d, 2d)
    turned_lead: np.ndarray  # (R, 2d, 2d) -i G lead, as R(theta) = cos I + sin (-i G)
    insertion: np.ndarray  # (R, 2d, 2d) -i/2 G, the derivative of rotation r
    tail: np.ndarray | None

    @property
    def num_params(self) -> int:
        return len(self.lead)

    @property
    def dim(self) -> int:
        """Number of complex amplitudes d; the matrices are 2d x 2d."""
        return self.lead.shape[1] // 2

    def restrict(self, q: np.ndarray) -> "DenseCircuit":
        """This circuit in the coordinates of an orthonormal complex (d, r) basis ``q``.

        ``q`` must span a subspace that every lead, generator and tail
        matrix maps into itself (see :func:`invariant_basis`).  Each matrix M
        becomes Q^H M Q, and because the subspace is invariant that turns
        products of matrices into products of their restrictions: a sweep of
        the result on Q^H psi gives Q^H times the full sweep on psi.  In real
        form Q^H M Q is real_matrix(Q)^T M real_matrix(Q).
        """
        qr = real_matrix(q)
        qt = qr.T
        return replace(
            self,
            lead=qt @ self.lead @ qr,
            turned_lead=qt @ self.turned_lead @ qr,
            insertion=qt @ self.insertion @ qr,
            tail=None if self.tail is None else qt @ self.tail @ qr,
        )

    def steps(self, theta: np.ndarray) -> np.ndarray:
        """All R step matrices at once: R_r(theta) @ lead[r]."""
        half = 0.5 * theta[:, None, None]
        step = np.cos(half) * self.lead
        return np.add(step, np.sin(half) * self.turned_lead, out=step)


def _compile(c: Circuit) -> DenseCircuit:
    dim = 2 ** c.n
    pending = None  # product of the fixed gates since the last rotation
    lead, gens = [], []
    for gate in c.gates:
        if gate.kind in _GENERATORS:
            lead.append(np.eye(dim, dtype=complex) if pending is None else pending)
            gens.append(_embed(_GENERATORS[gate.kind], gate.targets, c.n))
            pending = None
        else:
            fixed = _embed(_FIXED[gate.kind], gate.targets, c.n)
            pending = fixed if pending is None else fixed @ pending
    gens = np.array(gens, dtype=complex).reshape(-1, dim, dim)
    lead = np.array(lead, dtype=complex).reshape(-1, dim, dim)
    return DenseCircuit(
        lead=real_matrix(lead),
        turned_lead=real_matrix(-1j * gens @ lead),
        insertion=real_matrix(-0.5j * gens),
        tail=None if pending is None else real_matrix(pending),
    )


def invariant_basis(c: Circuit, amps) -> np.ndarray:
    """Orthonormal (2^n, r) basis of the smallest invariant subspace holding ``amps``.

    The subspace contains the orthonormal columns of ``amps`` and is mapped
    into itself by every lead, generator and tail matrix of ``c.dense``,
    hence by the circuit at every theta and by every parameter derivative.  The
    basis starts with the columns of ``amps``, so in its coordinates the
    inputs are the first k coordinate vectors.  It is extended by
    the part of every matrix's image of it that lies outside its span,
    orthonormalized, until that part vanishes (singular values at most 1e-10
    count as rounding noise).  The search runs on the complex matrices read
    back from the stored real forms.  Columns i, j whose overlap is off the
    identity by more than 1e-10, or by NaN, are an InputError naming them.
    """
    amps = np.asarray(amps, dtype=complex)
    dev = np.abs(amps.conj().T @ amps - np.eye(amps.shape[1]))
    if not dev.max(initial=0.0) <= 1e-10:  # NaN fails; zero columns pass
        i, j = np.unravel_index(np.argmax(dev), dev.shape)
        raise InputError(f"initial states {i},{j} not orthonormal (deviation {dev[i, j]:.2e})")
    plan = c.dense
    mats = [plan.lead, plan.insertion] + ([plan.tail[None]] if plan.tail is not None else [])
    mats = _complex_matrix(np.concatenate(mats))
    q = amps
    while True:
        images = (mats @ q).transpose(1, 0, 2).reshape(plan.dim, -1)
        rest = images - q @ (q.conj().T @ images)
        u, s, _ = np.linalg.svd(rest, full_matrices=False)
        if not (s > 1e-10).any():
            return q
        q = np.hstack((q, u[:, s > 1e-10]))


def _prefix_products(steps: np.ndarray) -> np.ndarray:
    """``w[r] = steps[r] @ ... @ steps[0]`` for every r, in log2(R) batched products.

    Overwrites ``steps`` with the result.
    """
    w, shift = steps, 1
    while shift < len(w):
        w[shift:] = w[shift:] @ w[:-shift]
        shift *= 2
    return w


def _sweep(plan: DenseCircuit, theta: np.ndarray, k: int,
           derivatives: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Move the plan's first k real-form coordinate vectors through U(theta) together.

    Returns the (2d, k) final states and, with ``derivatives``, the
    C-contiguous (k, P, 2d) stack t of their parameter derivatives, t[l, p]
    the real form of d_p phi_l.  With W_r the product of the first r + 1
    steps, U = V_r W_r for the rest V_r of the circuit, and W_r is
    orthogonal, so rotation r's derivative V_r I_r W_r psi equals
    U W_r^T I_r W_r psi: every rotation at once in a few batched products.
    W_r psi and U psi are the first k columns of W_r and U, read as slices.
    Every array returned is new to this sweep.
    """
    size = 2 * plan.dim
    w = _prefix_products(plan.steps(theta))
    u = w[-1] if len(w) else np.eye(size)
    if plan.tail is not None:
        u = plan.tail @ u
    if not derivatives:
        return u[:, :k], None
    rows = w.reshape(-1, size)  # the W_r stacked by rows
    # Block r of U [W_0^T | W_1^T | ...] is U W_r^T.
    back = (u @ rows.T).reshape(size, -1, size).transpose(1, 0, 2)
    # (k, R, 2d), copied to C order
    return u[:, :k], (back @ (plan.insertion @ w[:, :, :k])).transpose(2, 0, 1).copy()


def _parameters(theta, num_params: int) -> np.ndarray:
    """``theta`` as a float array, checked to be real and to hold one value per parameter."""
    theta = np.asarray(theta)
    if theta.dtype.kind == "c":
        raise TypeError("theta must be real, got a complex array")
    if theta.shape != (num_params,):
        raise InputError(f"theta has shape {theta.shape}, expected ({num_params},)")
    return theta.astype(float, copy=False)


def _sweep_inputs(c: Circuit | DenseCircuit, theta, s,
                  derivatives: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """:func:`_sweep` of the inputs ``s`` that :func:`apply` and :func:`derivative_stack` take.

    An int ``s`` is the plan's first ``s`` coordinate vectors, checked to be
    1..d of them.  A Statevector or a (2d, k) real-form batch is checked,
    and the sweep of all 2d coordinate vectors is contracted with it.
    """
    plan = c.dense if isinstance(c, Circuit) else c
    theta = _parameters(theta, plan.num_params)
    if isinstance(s, (int, np.integer)):
        if not 1 <= s <= plan.dim:
            raise InputError(f"{s} input columns, the plan has 1..{plan.dim}")
        return _sweep(plan, theta, int(s), derivatives)
    if isinstance(s, Statevector):
        if 2 ** s.n != plan.dim:
            raise InputError(f"state of {2 ** s.n} amplitudes, circuit on {plan.dim}")
        amps = real_form(s.amps)[:, None]
    else:
        amps = np.asarray(s)
        if amps.dtype.kind == "c":
            raise TypeError("a state batch is given by its real form, see real_form")
        if amps.ndim != 2 or amps.shape[0] != 2 * plan.dim:
            raise InputError(
                f"state batch has shape {amps.shape}, expected ({2 * plan.dim}, k)"
            )
        amps = amps.astype(float, copy=False)
    u, t = _sweep(plan, theta, 2 * plan.dim, derivatives)
    return u @ amps, None if t is None else np.tensordot(amps, t, (0, 0))


def apply(c: Circuit | DenseCircuit, theta, s):
    """Run the circuit: ``U(theta) |s>``.

    ``c`` is a Circuit or a DenseCircuit, such as a restricted one.  ``s`` is
    a Statevector (returns a Statevector), a (2d, k) real-form matrix of
    state columns or an int k, the plan's first k coordinate vectors (either
    returns the evolved (2d, k) real-form matrix).
    """
    out, _ = _sweep_inputs(c, theta, s, derivatives=False)
    if isinstance(s, Statevector):
        return Statevector(amps=complex_form(out[:, 0]), n=s.n)
    return out


def apply_pauli_string(string: str, amps: np.ndarray) -> np.ndarray:
    """The Pauli string with the given label acting on a raw amplitude vector."""
    n = len(parse_pauli_string(string))
    tensor = amps.reshape((2,) * n)
    for q, label in enumerate(string):
        if label == "I":
            continue
        if label in ("X", "Y"):
            tensor = np.flip(tensor, axis=q)
        if label != "X":
            # Z: diag(1, -1); Y after the flip: diag(-i, i).
            phase = np.array([1, -1]) if label == "Z" else np.array([-1j, 1j])
            shape = [1] * n
            shape[q] = 2
            tensor = tensor * phase.reshape(shape)
    return tensor.reshape(-1)


def apply_pauli_sum(h: PauliSum, amps: np.ndarray) -> np.ndarray:
    """``H |psi>`` for a raw amplitude vector."""
    out = np.zeros_like(amps, dtype=complex)
    for coeff, string in h.terms:
        out += coeff * apply_pauli_string(string, amps)
    return out


def expectation(h: PauliSum, s: Statevector) -> float:
    """Real expectation value <s|H|s> in Hartree."""
    if h.n != s.n:
        raise InputError(f"operator on {h.n} qubits, state on {s.n}")
    value = np.vdot(s.amps, apply_pauli_sum(h, s.amps))
    if abs(value.imag) > 1e-10:
        raise InputError(f"expectation has imaginary residue {value.imag}")
    return float(value.real)


# --- analytic parameter derivatives ----------------------------------------

def derivative_state(c: Circuit, theta, i: int, s0: Statevector) -> np.ndarray:
    """Exact d/d theta_i of ``apply(c, theta, s0)``, unnormalized.

    Inserts (-i/2) x generator after rotation i, the one gate parameter i drives.
    """
    theta = _parameters(theta, c.num_params)
    if not 0 <= i < c.num_params:
        raise InputError(f"parameter {i} outside 0..{c.num_params - 1}")
    if s0.n != c.n:
        raise InputError(f"state on {s0.n} qubits, circuit on {c.n}")
    pos = c._rotations[i]
    tensor = s0.amps.reshape((2,) * c.n)
    for k, (gate, mat) in enumerate(zip(c.gates, _gate_matrices(c, theta))):
        tensor = _apply_matrix(tensor, mat, gate.targets)
        if k == pos:
            tensor = -0.5j * _apply_matrix(tensor, _GENERATORS[gate.kind], gate.targets)
    return tensor.reshape(-1)


def derivative_stack(c: Circuit | DenseCircuit, theta, s0):
    """Final state plus all parameter derivatives in one forward sweep.

    For a Statevector returns ``(phi, D)`` with the complex (P, d) stack
    ``D[i] == derivative_state(c, theta, i, s0)``.  For a (2d, k) real-form
    matrix of state columns, or an int k for the plan's first k coordinate
    vectors, returns the (2d, k) real-form final states and the (k, P, 2d)
    real factor t, t[l, i] the real form of d_i phi_l, all k columns from
    the same sweep; for an int k, t is C-contiguous.  ``c`` is a Circuit or
    a DenseCircuit, such as a restricted one.
    """
    phi, t = _sweep_inputs(c, theta, s0, derivatives=True)
    if isinstance(s0, Statevector):
        return Statevector(amps=complex_form(phi[:, 0]), n=s0.n), complex_form(t[0].T).T
    return phi, t


# --- paper ansatz builders --------------------------------------------------

def build_twolocal(n: int = 2, layers: int = 4) -> Circuit:
    """Two-qubit hardware-efficient ansatz: RX/RY layers with CNOT entanglers.

    Each layer applies RX then RY on both qubits (four parameters); a CNOT
    q0->q1 sits between consecutive layers, none after the last.  The default
    four layers give 16 parameters.
    """
    if n != 2:
        raise InputError("twolocal ansatz is defined on 2 qubits")
    gates: list[Gate] = []
    for layer in range(layers):
        gates += [Gate("RX", (0,)), Gate("RX", (1,)), Gate("RY", (0,)), Gate("RY", (1,))]
        if layer < layers - 1:
            gates.append(Gate("CNOT", (0, 1)))
    return Circuit(n=2, gates=tuple(gates))


def _excitation_block(qa: int, qb: int) -> list[Gate]:
    # CNOT / controlled-sqrt(X) sandwich around RZ pair; the composite is
    # block-diagonal on Hamming-weight sectors (equals SWAP at zero angles).
    return [
        Gate("CNOT", (qa, qb)),
        Gate("CSX", (qb, qa)),
        Gate("CNOT", (qa, qb)),
        Gate("RZ", (qa,)),
        Gate("RZ", (qb,)),
        Gate("CNOT", (qa, qb)),
        Gate("CSX", (qb, qa)),
        Gate("CNOT", (qa, qb)),
    ]


def build_excitation_preserving(n: int = 3, blocks: int = 8) -> Circuit:
    """Three-qubit excitation-preserving ansatz of two-parameter blocks.

    Blocks alternate between qubit pairs (0,1) and (1,2); the default eight
    blocks give 16 parameters.  Every block commutes with the total excitation
    number, so evolution stays inside the initial Hamming-weight sector.
    """
    if n != 3:
        raise InputError("excitation-preserving ansatz is defined on 3 qubits")
    gates: list[Gate] = []
    for b in range(blocks):
        gates.extend(_excitation_block(*((0, 1) if b % 2 == 0 else (1, 2))))
    return Circuit(n=3, gates=tuple(gates))


# --- Hadamard-test estimation ----------------------------------------------

def _controlled_apply(tensor: np.ndarray, mat: np.ndarray, axes: tuple[int, ...],
                      anc_axis: int, anc_value: int) -> np.ndarray:
    """Apply ``mat`` on system axes only where the ancilla bit equals anc_value."""
    idx = [slice(None)] * tensor.ndim
    idx[anc_axis] = anc_value
    out = tensor.copy()
    out[tuple(idx)] = _apply_matrix(tensor[tuple(idx)], mat, axes)
    return out


def _ancilla_z(tensor: np.ndarray, anc_axis: int) -> float:
    probs = np.abs(tensor) ** 2
    other = tuple(a for a in range(tensor.ndim) if a != anc_axis)
    p = probs.sum(axis=other)
    return float(p[0] - p[1])


def _hadamard_test_pair(c: Circuit, theta: np.ndarray, s0: Statevector,
                        pos_a: int, pos_b: int,
                        tail: str | None, imaginary: bool) -> float:
    """Ancilla Z expectation of one Hadamard-test circuit.

    Branch anc=0 carries the generator insertion at ``pos_a``, branch anc=1
    the one at ``pos_b`` (or, when ``tail`` is given, the Pauli string applied
    after the full circuit).  With ``imaginary`` an S-dagger turns the readout
    into the imaginary part of the branch overlap.
    """
    n = c.n
    anc = n  # ancilla appended as the trailing axis
    joint = np.zeros((2,) * (n + 1), dtype=complex)
    joint[..., 0] = s0.amps.reshape((2,) * n)
    joint = _apply_matrix(joint, _HADAMARD, (anc,))
    if imaginary:
        sdg = np.array([[1, 0], [0, -1j]])
        joint = _apply_matrix(joint, sdg, (anc,))

    if tail is None and pos_a == pos_b:
        insertions = {pos_a: "both"}
    elif tail is None:
        insertions = {pos_a: 0, pos_b: 1}
    else:
        insertions = {pos_a: 0}
    last = max(insertions) if tail is None else len(c.gates) - 1
    for k, (gate, mat) in enumerate(zip(c.gates, _gate_matrices(c, theta))):
        joint = _apply_matrix(joint, mat, gate.targets)
        if k in insertions:
            gen = _GENERATORS[gate.kind]
            target = (gate.targets[0],)
            branch = insertions[k]
            if branch == "both":
                joint = _apply_matrix(joint, gen, target)
            else:
                joint = _controlled_apply(joint, gen, target, anc, branch)
        if tail is None and k == last:
            break
    if tail is not None:
        for q, label in enumerate(tail):
            if label != "I":
                joint = _controlled_apply(joint, PAULI_MATRICES[label], (q,), anc, 1)
    joint = _apply_matrix(joint, _HADAMARD, (anc,))
    return _ancilla_z(joint, anc)


def hadamard_test(c: Circuit, theta, mode: str, i: int, j: int | None = None,
                  h: PauliSum | None = None, s0: Statevector | None = None) -> float:
    """Estimate one McLachlan matrix or vector entry via ancilla circuits.

    ``mode="A-real"`` takes parameter indices i, j and returns
    Re<d_i phi|d_j phi>; ``mode="C-real"`` takes parameter i plus a Pauli sum
    and returns -Re<d_i phi|H|phi>.  Each parameter drives one rotation, so
    each entry is one insertion per branch.  Ancilla expectations are
    evaluated exactly on the statevector (the infinite-shot limit) and
    combined with the analytic insertion prefactors.
    """
    theta = _parameters(theta, c.num_params)
    if s0 is None:
        s0 = Statevector.zero(c.n)
    if s0.n != c.n:
        raise InputError(f"state on {s0.n} qubits, circuit on {c.n}")
    if not 0 <= i < c.num_params:
        raise InputError(f"parameter {i} outside 0..{c.num_params - 1}")

    if mode == "A-real":
        if j is None:
            raise InputError("A-real mode needs a second parameter index")
        if not 0 <= j < c.num_params:
            raise InputError(f"parameter {j} outside 0..{c.num_params - 1}")
        a, b = sorted((c._rotations[i], c._rotations[j]))
        return 0.25 * _hadamard_test_pair(c, theta, s0, a, b, tail=None, imaginary=False)
    if mode == "C-real":
        if h is None:
            raise InputError("C-real mode needs a Hamiltonian")
        if h.n != c.n:
            raise InputError(f"operator on {h.n} qubits, circuit on {c.n}")
        pos, total = c._rotations[i], 0.0
        for coeff, string in h.terms:
            total += 0.5 * coeff * _hadamard_test_pair(
                c, theta, s0, pos, pos, tail=string, imaginary=True
            )
        return total
    raise InputError(f"unknown mode {mode!r}; use 'A-real' or 'C-real'")


# --- finite-shot estimation --------------------------------------------------

MAX_SHOTS = np.iinfo(np.int64).max  # the largest count the binomial sampler takes


def sample_expectation(h: PauliSum, s: Statevector, shots: int, seed: int) -> float:
    """Unbiased finite-shot estimate of <s|H|s>.

    Each Pauli term is measured independently in its own eigenbasis with the
    full shot budget; outcomes are drawn from the exact +/-1 probabilities.
    ``shots`` must be an integer in 1..MAX_SHOTS.
    """
    if not isinstance(shots, (int, np.integer)) or not 1 <= shots <= MAX_SHOTS:
        raise InputError(f"shots must be an integer in 1..{MAX_SHOTS}, got {shots!r}")
    if h.n != s.n:
        raise InputError(f"operator on {h.n} qubits, state on {s.n}")
    rng = np.random.default_rng(seed)
    total = 0.0
    for coeff, string in h.terms:
        if all(label == "I" for label in string):
            total += coeff
            continue
        mean = float(np.vdot(s.amps, apply_pauli_string(string, s.amps)).real)
        p_plus = min(1.0, max(0.0, 0.5 * (1.0 + mean)))
        ones = rng.binomial(shots, p_plus)
        total += coeff * (2.0 * ones - shots) / shots
    return total

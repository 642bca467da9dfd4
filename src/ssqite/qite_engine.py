"""McLachlan imaginary-time systems, assembled and solved as one stack.

:class:`_Frame` puts a problem (H, the circuit and k orthonormal inputs) into
coordinates once: the real forms of the inputs and of H in the smallest
subspace around the inputs that every gate maps into itself.
:func:`assemble` measures the k McLachlan systems A theta_dot = C at theta,
A_ij = Re<d_i phi|d_j phi> and C_i = -Re<d_i phi|H|phi> = -1/2 dE/dtheta_i,
from one circuit sweep, and :func:`solve` solves the stack in one batched
eigendecomposition.  The frame settles once what each iteration would
otherwise pay for: its basis starts with the inputs, so they are its first k
coordinate vectors and every sweep reads them as column slices, and it
stores -h^T, so w takes one product; :func:`solve` reads its cut from the
top of the ascending spectrum, since every Gram t^T t is positive
semidefinite.  :func:`run_qite` is single-state QITE by explicit Euler
steps on a one-input frame (McArdle et al., npj Quantum Inf. 5, 75, 2019),
the k = 1 reference that a subspace run must reproduce bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, MaxStepsExceeded, SingularSystem
from .pauli_algebra import PauliSum
from .simulator import (
    Circuit,
    DenseCircuit,
    Statevector,
    _parameters,
    apply,
    derivative_stack,
    invariant_basis,
    real_matrix,
)


@dataclass(frozen=True, eq=False)
class _Frame:
    """The coordinates a run assembles and reads out in, built once per run.

    ``basis`` is the orthonormal complex (2^n, r) basis Q of the circuit's
    invariant subspace around the k inputs (:func:`~ssqite.simulator.invariant_basis`,
    the one check that they are orthonormal), which starts with the inputs,
    so in Q's coordinates they are the first k coordinate vectors.  ``plan``
    is the dense circuit restricted to Q and ``minus_ht`` -h^T for h the real
    form of Q^H H Q, so the rows of -H phi take one product.  Q preserves
    inner products, so a run's energies (each read by :meth:`readout`) and
    overlaps are computed in these coordinates; only the final states are
    lifted back to the full space.
    """

    basis: np.ndarray
    plan: DenseCircuit
    k: int
    minus_ht: np.ndarray

    @classmethod
    def of(cls, h: PauliSum, c: Circuit, amps: np.ndarray) -> "_Frame":
        if h.n != c.n:
            raise DimensionMismatch(f"Hamiltonian on {h.n} qubits, circuit on {c.n}")
        q = invariant_basis(c, amps)
        hq = q.conj().T @ h.dense @ q
        return cls(q, c.dense.restrict(q), amps.shape[1], -real_matrix(hq).T)

    def first_theta(self, theta0) -> np.ndarray:
        """A run's first parameters: zeros for None, else a real, finite copy of ``theta0``."""
        count = self.plan.num_params
        theta = np.zeros(count) if theta0 is None else _parameters(theta0, count).copy()
        if not np.isfinite(theta).all():
            raise ValueError("theta0 must be finite")
        return theta

    def readout(self, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (k, 2d) rows of a sweep's (2d, k) states, the rows of -H phi and <phi|H|phi>."""
        rows = phi.T
        w = rows @ self.minus_ht
        return rows, w, -(rows * w).sum(axis=1)


@dataclass(frozen=True)
class McLachlanSystem:
    """The McLachlan systems of a stack of k trial states, one row per state.

    Every field is real and in the frame's coordinates.  ``t`` (k, P, 2d) is
    the real factor [Re D | Im D] of each state's derivative rows
    D_i = d_i phi, the layout the circuit sweep writes; ``w`` (k, 2d) is
    -[Re H phi; Im H phi], ``energy`` (k,) is <phi|H|phi> and ``phi``
    (k, 2d) is the real form [Re phi; Im phi] of the states.  :func:`solve`
    works through the (2d, 2d) Grams t^T t.
    """

    t: np.ndarray
    w: np.ndarray
    energy: np.ndarray
    phi: np.ndarray

    @property
    def a(self) -> np.ndarray:
        """Gram matrices A = t t^T, formed on each read."""
        return self.t @ np.swapaxes(self.t, -1, -2)

    @property
    def c(self) -> np.ndarray:
        """Driving vectors C = t w, formed on each read."""
        return (self.t @ self.w[..., None])[..., 0]


@dataclass(frozen=True)
class QiteConfig:
    """Knobs for a single-state imaginary-time run: Euler steps of ``dtau``."""

    dtau: float = 0.1
    max_steps: int = 500
    grad_tol: float = 1e-5

    def __post_init__(self):
        if not 0 < self.dtau < np.inf:
            raise ValueError(f"dtau must be positive and finite, got {self.dtau}")
        if not isinstance(self.max_steps, (int, np.integer)) or self.max_steps < 1:
            raise ValueError(f"max_steps must be an integer >= 1, got {self.max_steps!r}")
        if not 0 <= self.grad_tol < np.inf:
            raise ValueError(f"grad_tol must be >= 0 and finite, got {self.grad_tol}")


def assemble(frame: _Frame, theta) -> McLachlanSystem:
    """The stacked McLachlan systems of the frame's k inputs at ``theta``, from one sweep.

    A, C and the energy are inner products, which the frame's basis
    preserves, so they equal the full-space ones; ``phi`` is in the frame's
    coordinates.
    """
    phi, t = derivative_stack(frame.plan, theta, frame.k)
    rows, w, energy = frame.readout(phi)
    return McLachlanSystem(t=t, w=w, energy=energy, phi=rows)


def solve(system: McLachlanSystem) -> np.ndarray:
    """The (k, P) rows theta_dot of A theta_dot = C, for the whole stack at once.

    One batched eigendecomposition of the (2d, 2d) Grams t^T t:
    theta_dot = t (t^T t)^+ w, which is (t t^T)^+ t w.  The pseudo-solve
    cuts the same eigenvalues as on A, since t^T t and t t^T share their
    nonzero ones.
    """
    t, w = system.t, system.w
    if not (np.isfinite(t).all() and np.isfinite(w).all()):
        raise SingularSystem("non-finite entries in the McLachlan system")
    x = _solve_stack(t.transpose(0, 2, 1) @ t, w)
    return (t @ x[:, :, None])[:, :, 0]


def _solve_stack(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(k, m) solutions of the (k, m, m) positive semidefinite systems ``a``.

    One eigendecomposition pseudo-solve: eigenvalues at or below 1e-8 times
    the largest are dropped (A is singular whenever the ansatz is locally
    redundant), the cut a least-squares solve with rcond = 1e-8 makes on
    singular values.  A Gram t^T t has no eigenvalue below zero beyond
    rounding, so the largest magnitude is the top of eigh's ascending
    spectrum.
    """
    try:
        lam, vec = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"eigendecomposition failed: {exc}") from None
    keep = lam > 1e-8 * lam[:, -1:]
    coef = (c[:, None, :] @ vec)[:, 0]
    coef = np.divide(coef, lam, out=np.zeros(coef.shape), where=keep)
    return (vec @ coef[:, :, None])[:, :, 0]


@dataclass(frozen=True)
class QiteResult:
    theta: np.ndarray
    energies: np.ndarray


def run_qite(c: Circuit, theta0, h: PauliSum, s0: Statevector,
             cfg: QiteConfig) -> QiteResult:
    """Evolve by explicit Euler steps until the parameter velocity stalls.

    Stops when ||theta_dot||_inf < cfg.grad_tol; raises MaxStepsExceeded
    (carrying the energy trace) if the cap is hit first.  The returned
    energies hold one entry per visited parameter vector, final one included
    (after the cap, from one :func:`~ssqite.simulator.apply`).  theta0 is
    checked by :meth:`_Frame.first_theta`, as for a subspace run.
    """
    if s0.n != c.n:
        raise DimensionMismatch(f"state on {s0.n} qubits, circuit on {c.n}")
    frame = _Frame.of(h, c, s0.amps[:, None])
    theta = frame.first_theta(theta0)
    energies = []
    for _ in range(cfg.max_steps):
        sys = assemble(frame, theta)
        energies.append(sys.energy[0])
        theta_dot = solve(sys)[0]
        if np.max(np.abs(theta_dot)) < cfg.grad_tol:
            return QiteResult(theta=theta, energies=np.array(energies))
        theta = theta + cfg.dtau * theta_dot
    energies.append(frame.readout(apply(frame.plan, theta, frame.k))[2][0])
    raise MaxStepsExceeded(
        f"no convergence to {cfg.grad_tol} within {cfg.max_steps} steps",
        theta=theta,
        energies=np.array(energies),
    )

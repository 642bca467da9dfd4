"""Single-state imaginary-time evolution via the McLachlan linear system.

Each step solves A(theta) theta_dot = C(theta) with
A_ij = Re<d_i phi|d_j phi> and C_i = -Re<d_i phi|H|phi>, then advances theta
by explicit Euler.  Because C = -1/2 grad E, the flow descends the energy
towards the ground state reachable from the start.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MaxStepsExceeded, SingularSystem
from .pauli_algebra import PauliSum
from .simulator import Circuit, Statevector, derivative_stack, real_form, real_matrix


@dataclass(frozen=True)
class McLachlanSystem:
    """McLachlan systems of one trial state, or of a stack of k of them.

    Every field is real.  ``t`` = [Re D | Im D] is the real factor of the
    (P, d) derivative rows D_i = d_i phi, ``w`` = -[Re H phi; Im H phi],
    ``energy`` = <phi|H|phi> and ``phi`` = [Re phi; Im phi] the real form of
    the amplitudes.  A stack carries a leading level axis on every field:
    ``t`` (k, P, 2d), ``w`` (k, 2d), ``energy`` (k,) and ``phi`` (k, 2d); the
    circuit sweep writes ``t`` in this layout.  :func:`solve` works through
    the (2d, 2d) Gram t^T t.
    """

    t: np.ndarray
    w: np.ndarray
    energy: float | np.ndarray
    phi: np.ndarray | None = None

    @property
    def a(self) -> np.ndarray:
        """Gram matrix A = t t^T, formed on each read."""
        return self.t @ np.swapaxes(self.t, -1, -2)

    @property
    def c(self) -> np.ndarray:
        """Driving vector C = t w, formed on each read."""
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
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        if not 0 <= self.grad_tol < np.inf:
            raise ValueError(f"grad_tol must be >= 0 and finite, got {self.grad_tol}")


def assemble(c, theta, h, s0) -> McLachlanSystem:
    """Measure A, C, and the energy at the current parameters.

    ``s0`` is one Statevector (returns one system) or a (2d, k) real-form
    matrix of initial-state columns (:func:`~ssqite.simulator.real_form`;
    returns the stack of k systems, all from a single circuit sweep).  Both
    forms run the same arithmetic, so a one-column batch reproduces the
    single-state system bit for bit.

    ``c`` and ``h`` are a Circuit and a PauliSum, or the same problem in the
    coordinates of an orthonormal basis Q of an invariant subspace of the
    circuit (:func:`~ssqite.simulator.invariant_basis`): the DenseCircuit
    ``c.dense.restrict(Q)``, the real form of the matrix Q^H H Q
    (:func:`~ssqite.simulator.real_matrix`) and input columns Q^H psi.  A,
    C and the energy are inner products, which Q preserves, so both give
    the same systems; ``phi`` is in the coordinates of the inputs.
    """
    single = isinstance(s0, Statevector)
    phi, t = derivative_stack(c, theta, real_form(s0.amps)[:, None] if single else s0)
    h = real_matrix(h.dense) if isinstance(h, PauliSum) else h
    rows = phi.T  # (k, 2d)
    w = -(rows @ h.T)  # the rows of -H phi
    energies = -np.sum(rows * w, axis=1)
    if single:
        return McLachlanSystem(t=t[0], w=w[0], energy=float(energies[0]), phi=rows[0])
    return McLachlanSystem(t=t, w=w, energy=energies, phi=rows)


def solve(system: McLachlanSystem) -> np.ndarray:
    """Solve A theta_dot = C for one system or a stack of them.

    Returns the (P,) theta_dot of one system or the (k, P) rows of a stack,
    solved together in one batched eigendecomposition of the (2d, 2d) Grams
    t^T t: theta_dot = t (t^T t)^+ w, which is (t t^T)^+ t w.  The
    pseudo-solve cuts the same eigenvalues as on A, since t^T t and t t^T
    share their nonzero ones.
    """
    single = system.t.ndim == 2
    t, w = (system.t[None], system.w[None]) if single else (system.t, system.w)
    if not (np.isfinite(t).all() and np.isfinite(w).all()):
        raise SingularSystem("non-finite entries in the McLachlan system")
    x = _solve_stack(t.transpose(0, 2, 1) @ t, w)
    theta_dot = (t @ x[:, :, None])[:, :, 0]
    return theta_dot[0] if single else theta_dot


def _solve_stack(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(k, m) solutions of the (k, m, m) symmetric systems ``a``.

    One eigendecomposition pseudo-solve: eigenvalues with
    |lambda| <= 1e-8 max |lambda| are dropped (A is singular whenever the
    ansatz is locally redundant), the cut a least-squares solve with
    rcond = 1e-8 makes on singular values.
    """
    try:
        lam, vec = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"eigendecomposition failed: {exc}") from None
    mag = np.abs(lam)
    keep = mag > 1e-8 * mag.max(axis=1, keepdims=True)
    coef = (c[:, None, :] @ vec)[:, 0]
    coef = np.divide(coef, lam, out=np.zeros_like(coef), where=keep)
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
    energies hold one entry per visited parameter vector, final one included.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    energies: list[float] = []
    for _ in range(cfg.max_steps):
        sys = assemble(c, theta, h, s0)
        energies.append(sys.energy)
        theta_dot = solve(sys)
        if np.max(np.abs(theta_dot)) < cfg.grad_tol:
            return QiteResult(theta=theta, energies=np.array(energies))
        theta = theta + cfg.dtau * theta_dot
    final = assemble(c, theta, h, s0)
    energies.append(final.energy)
    raise MaxStepsExceeded(
        f"no convergence to {cfg.grad_tol} within {cfg.max_steps} steps",
        theta=theta,
        energies=np.array(energies),
    )

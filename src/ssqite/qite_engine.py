"""McLachlan imaginary-time systems, assembled and solved as one stack.

:class:`_Frame` puts a problem (H, the circuit and k orthonormal inputs) into
coordinates once, so no iteration pays for it: the real forms of the inputs
and of H in the smallest subspace around the inputs that every gate maps
into itself.  Only its H part differs between the geometries of a scan.
:func:`assemble` measures the k McLachlan systems A theta_dot = C at theta,
A_ij = Re<d_i phi|d_j phi> and C_i = -Re<d_i phi|H|phi> = -1/2 dE/dtheta_i,
from one circuit sweep, and :func:`solve` solves the stack in one batched
eigendecomposition, its cut read from the top of the ascending spectrum
since every Gram t^T t is positive semidefinite.  :class:`SsqiteConfig`
holds the settings of both evolution loops, and :func:`run_qite` is
single-state QITE by explicit Euler steps on a one-input frame (McArdle et
al., npj Quantum Inf. 5, 75, 2019), the k = 1 reference that a subspace run
must reproduce bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError, MaxItersExceeded, SingularSystem
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
    form of Q^H H Q (added by :meth:`at`; the rest is built once per scan), so
    the rows of -H phi take one product.  Q preserves inner products, so a
    run's energies (each read by :meth:`readout`) and overlaps are computed in
    these coordinates; only the final states are lifted back to the full space.
    """

    n: int
    basis: np.ndarray
    plan: DenseCircuit
    k: int
    minus_ht: np.ndarray | None = None

    @classmethod
    def of(cls, h: PauliSum, c: Circuit, states) -> "_Frame":
        """The frame of the input ``Statevector``s for ``h``: :meth:`around`, then :meth:`at`."""
        return cls.around(c, states).at(h)

    @classmethod
    def around(cls, c: Circuit, states) -> "_Frame":
        """The frame of the input ``Statevector``s without H, widths checked against ``c``."""
        states = tuple(states)
        if not states:
            raise InputError("k must be an integer >= 1, got 0")
        for s in states:
            if s.n != c.n:
                raise InputError(f"state on {s.n} qubits, circuit on {c.n}")
        q = invariant_basis(c, np.column_stack([s.amps for s in states]))
        return cls(c.n, q, c.dense.restrict(q), len(states))

    def at(self, h: PauliSum) -> "_Frame":
        """This frame with the H part of ``h``, after checking its width."""
        if h.n != self.n:
            raise InputError(f"Hamiltonian on {h.n} qubits, circuit on {self.n}")
        hq = self.basis.conj().T @ h.dense @ self.basis
        return replace(self, minus_ht=-real_matrix(hq).T)

    def first_theta(self, theta0) -> np.ndarray:
        """A run's first parameters: zeros for None, else a real, finite copy of ``theta0``."""
        count = self.plan.num_params
        theta = np.zeros(count) if theta0 is None else _parameters(theta0, count).copy()
        if not np.isfinite(theta).all():
            raise InputError("theta0 must be finite")
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
class SsqiteConfig:
    """Settings of either evolution loop, :func:`run_qite` or a subspace run.

    ``b`` is the base imaginary-time step; a level counts as converged once
    its ||theta_dot||_inf stays below ``grad_tol`` for ``patience``
    consecutive iterations, and a run makes at most ``max_iters`` of them.
    """

    b: float = 0.55
    grad_tol: float = 3e-4
    patience: int = 3
    max_iters: int = 6000

    def __post_init__(self):
        if not 0 < self.b < np.inf:
            raise InputError(f"b must be positive and finite, got {self.b}")
        if not 0 <= self.grad_tol < np.inf:
            raise InputError(f"grad_tol must be >= 0 and finite, got {self.grad_tol}")
        for key in ("patience", "max_iters"):
            value = getattr(self, key)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise InputError(f"{key} must be an integer >= 1, got {value!r}")


def _reach(bound: float, dtau, speeds, cfg: SsqiteConfig, i: int) -> float:
    """``bound`` on max|theta| plus update i's sum_l dtau_l ||theta_dot_l||_inf, in Python
    floats, so an update that would overflow is refused before NumPy makes it and warns."""
    for step, speed in zip(dtau, speeds):
        bound += step * speed
    if not bound < np.inf:
        raise InputError(f"b = {cfg.b!r} takes theta past the float range at iteration {i}")
    return bound


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


def run_qite(h: PauliSum, c: Circuit, s0: Statevector, cfg: SsqiteConfig,
             theta0=None) -> QiteResult:
    """Evolve by explicit Euler steps of ``cfg.b`` until the parameter velocity stalls.

    Stops once ||theta_dot||_inf < cfg.grad_tol on cfg.patience consecutive
    steps, the rule a subspace level converges by; raises MaxItersExceeded
    carrying the QiteResult reached if cfg.max_iters steps come first.  The
    energies hold one entry per visited parameter vector, final one included
    (after the cap, from one :func:`~ssqite.simulator.apply`).  The frame
    checks the inputs and theta0, as for a subspace run.
    """
    frame = _Frame.of(h, c, [s0])
    theta = frame.first_theta(theta0)
    bound, streak, energies = float(np.abs(theta).max(initial=0.0)), 0, []
    for i in range(cfg.max_iters):
        sys = assemble(frame, theta)
        energies.append(sys.energy[0])
        theta_dot = solve(sys)[0]
        speed = float(np.max(np.abs(theta_dot)))
        streak = streak + 1 if speed < cfg.grad_tol else 0
        if streak >= cfg.patience:
            return QiteResult(theta=theta, energies=np.array(energies))
        bound = _reach(bound, (float(cfg.b),), (speed,), cfg, i)
        theta = theta + cfg.b * theta_dot
    energies.append(frame.readout(apply(frame.plan, theta, frame.k))[2][0])
    raise MaxItersExceeded(
        f"no convergence to {cfg.grad_tol} within {cfg.max_iters} iterations",
        result=QiteResult(theta=theta, energies=np.array(energies)),
    )

"""Simultaneous imaginary-time evolution of k orthogonal states.

All levels share one ansatz.  Level l advances with its own step size,
initialized to dtau_l = b / 2^l so lower levels dominate the joint parameter
update; once a level converges, every step size from that level upward
doubles (ratios intact), which keeps the total iteration count from growing
like 2^k.

A single parameter vector receives the sum of every level's update, so the
evolved states stay exactly orthogonal (one unitary applied to orthogonal
inputs).

A run keeps one columnar log.  Iteration i measures every level's McLachlan
system at theta_i in one derivative sweep and writes what that sweep gave as
row i: the energies, each level's ||theta_dot||_inf, the step sizes of the
update it applied, and the states at theta_i.  The columns live in buffers
that double when full, so an iteration creates no record object and computes
no overlap.  Reading ``history`` gives them as a :class:`History`, whose
overlaps are computed then, for all rows in one batched product.  That and
the final fields of :class:`SubspaceResult` are the one way to read a run.
The final energies, overlaps and states come from one ``apply`` when the
run ends.

A run is bound to its problem when it starts, in the coordinates of an
orthonormal basis Q of the smallest subspace that holds its input states
and that every gate of the circuit maps into itself
(:func:`~ssqite.simulator.invariant_basis`).  For the excitation-preserving
ansatz on one-excitation inputs that is the 3-dimensional one-excitation
sector, so every sweep and solve works on 3 amplitudes instead of 8.  The
systems are the same as in the full space.  Every energy and overlap a run
reports is computed in the frame, since Q preserves them; only the states
it reports are lifted to the full 2^n basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, MaxItersExceeded
from .pauli_algebra import PauliSum
from .qite_engine import assemble, solve
from .simulator import (
    Circuit,
    DenseCircuit,
    Statevector,
    apply,
    complex_form,
    invariant_basis,
    real_form,
    real_matrix,
)


@dataclass(frozen=True)
class SsqiteConfig:
    """Subspace-run parameters.

    ``b`` is the base imaginary-time step; a level counts as converged once
    its ||theta_dot||_inf stays below ``grad_tol`` for ``patience``
    consecutive iterations.
    """

    b: float = 0.55
    grad_tol: float = 3e-4
    patience: int = 3
    max_iters: int = 6000

    def __post_init__(self):
        if not 0 < self.b < np.inf:
            raise ValueError(f"b must be positive and finite, got {self.b}")
        if not 0 <= self.grad_tol < np.inf:
            raise ValueError(f"grad_tol must be >= 0 and finite, got {self.grad_tol}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


def init_schedule(k: int, b: float) -> np.ndarray:
    """Per-level step sizes dtau_l = b / 2^l.

    Each entry dominates the tail sum of the later ones, which is what lets
    lower levels win the competition for the shared parameters.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if b <= 0:
        raise ValueError(f"b must be positive, got {b}")
    return b / np.power(2.0, np.arange(k))


@dataclass(frozen=True)
class OrthoReport:
    """Overlap magnitudes between levels (and exact eigenvectors if given)."""

    exact: np.ndarray | None
    max_offdiag: float


def _max_offdiag(phi: np.ndarray):
    """Largest |<phi_a|phi_b>|, a != b, of (..., k, 2d) real-form state rows."""
    z = complex_form(phi.T).T
    pairwise = np.abs(z.conj() @ np.swapaxes(z, -1, -2))
    k = pairwise.shape[-1]
    pairwise[..., range(k), range(k)] = 0.0
    return pairwise.max(axis=(-2, -1))


def _exact_overlaps(phi: np.ndarray, exact_states):
    """|<phi_l|E_j>| of (..., k, 2d) real-form state rows, or None without E."""
    if exact_states is None:
        return None
    return np.abs(complex_form(phi.T).T @ np.conj(exact_states))


@dataclass(frozen=True, eq=False)
class History:
    """A run's iterations as columns; row i was measured at theta_i by one sweep.

    ``energies``, ``grads`` (||theta_dot||_inf) and ``dtau`` (the step sizes
    of the update iteration i applied) are (n, k); ``phi`` holds the
    (n, k, 2d) real-form states and ``exact_states`` the exact eigenvector
    columns, both in the run's frame.  The overlaps are computed on read,
    for every row in one batched product.
    """

    energies: np.ndarray
    grads: np.ndarray
    dtau: np.ndarray
    phi: np.ndarray
    exact_states: np.ndarray | None

    def __len__(self) -> int:
        return len(self.energies)

    @property
    def max_offdiag(self) -> np.ndarray:
        """(n,) largest overlap between two levels at each iteration."""
        return _max_offdiag(self.phi)

    @property
    def exact(self) -> np.ndarray | None:
        """(n, k, m) overlaps with the exact eigenvectors, when they were given."""
        return _exact_overlaps(self.phi, self.exact_states)


class _Log:
    """A run's columns, one row per iteration, in buffers that double when full."""

    def __init__(self, k: int, width: int):
        self.n, rows = 0, 64
        self.energies, self.grads, self.dtau = (np.empty((rows, k)) for _ in range(3))
        self.phi = np.empty((rows, k, width))

    def append(self, energies, grads, dtau, phi) -> None:
        n = self.n
        if n == len(self.phi):
            for name in ("energies", "grads", "dtau", "phi"):
                full = getattr(self, name)
                setattr(self, name, np.concatenate((full, np.empty_like(full))))
        self.energies[n], self.grads[n], self.dtau[n], self.phi[n] = energies, grads, dtau, phi
        self.n = n + 1


@dataclass(frozen=True, eq=False)
class _Frame:
    """The coordinates a run assembles and reads out in, built once per run.

    ``basis`` is the orthonormal complex basis Q of the circuit's invariant
    subspace around the inputs, or None when that subspace is the whole
    space.  ``plan`` is the dense circuit and ``inputs`` the (2r, k)
    real-form input columns in Q's coordinates, ``h`` the real form of
    Q^H H Q (:func:`~ssqite.simulator.real_matrix`) and ``exact`` the exact
    eigenvector columns projected onto them, Q^H E.  Q preserves inner
    products, and <E|Q phi> = <Q^H E|phi>, so every energy and overlap a run
    reports is computed in these coordinates; only the reported states are
    lifted back to the full space.
    """

    basis: np.ndarray | None
    plan: DenseCircuit
    inputs: np.ndarray
    h: np.ndarray
    exact: np.ndarray | None

    @classmethod
    def of(cls, h: PauliSum, c: Circuit, amps: np.ndarray, exact_states) -> "_Frame":
        if h.n != c.n:
            raise DimensionMismatch(f"Hamiltonian on {h.n} qubits, circuit on {c.n}")
        if exact_states is not None and np.shape(exact_states)[:1] != (2 ** c.n,):
            raise DimensionMismatch(f"exact states of shape {np.shape(exact_states)}, "
                                    f"circuit on {c.n} qubits")
        q = invariant_basis(c, amps)
        if q.shape[1] == q.shape[0]:
            return cls(None, c.dense, real_form(amps), real_matrix(h.dense), exact_states)
        qh = q.conj().T
        exact = None if exact_states is None else qh @ exact_states
        return cls(q, c.dense.restrict(q), real_form(qh @ amps),
                   real_matrix(qh @ h.dense @ q), exact)


@dataclass
class SubspaceRun:
    """Evolving state of one subspace search, bound to its problem by ``frame``.

    :func:`iteration` advances it; its states are reported on ``n`` qubits.
    """

    n: int
    theta: np.ndarray
    dtau: np.ndarray
    converged: np.ndarray
    streaks: np.ndarray
    log: _Log
    frame: _Frame
    cfg: SsqiteConfig

    @classmethod
    def start(cls, h: PauliSum, c: Circuit, initial_states, cfg: SsqiteConfig,
              theta0=None, exact_states=None) -> "SubspaceRun":
        """Validate inputs and build the iteration-zero run and its frame, once per run."""
        initial_states = tuple(initial_states)
        k = len(initial_states)
        dtau = init_schedule(k, cfg.b)
        for s in initial_states:
            if s.n != c.n:
                raise DimensionMismatch(f"state on {s.n} qubits, circuit on {c.n}")
        amps = np.column_stack([s.amps for s in initial_states])
        dev = np.abs(np.abs(amps.conj().T @ amps) - np.eye(k))
        if dev.max() > 1e-10:
            i, j = np.unravel_index(np.argmax(dev), dev.shape)
            raise ValueError(
                f"initial states {i},{j} not orthonormal (deviation {dev[i, j]:.2e})"
            )
        if theta0 is None:
            theta0 = np.zeros(c.num_params)
        frame = _Frame.of(h, c, amps, exact_states)
        return cls(
            n=c.n,
            theta=np.array(theta0, dtype=float),
            dtau=dtau,
            converged=np.zeros(k, dtype=bool),
            streaks=np.zeros(k, dtype=int),
            log=_Log(k, len(frame.inputs)),
            frame=frame,
            cfg=cfg,
        )

    @property
    def k(self) -> int:
        return len(self.dtau)

    @property
    def iteration(self) -> int:
        """Number of iterations run so far."""
        return self.log.n

    @property
    def history(self) -> History:
        """The iterations so far, as read-only views of the log's columns."""
        log, n = self.log, self.log.n
        columns = [c[:n] for c in (log.energies, log.grads, log.dtau, log.phi)]
        for column in columns:
            column.flags.writeable = False  # the next iteration reads the last row
        return History(*columns, self.frame.exact)


def _converged_prefix(converged: np.ndarray) -> int:
    """Number of levels, counted from level 0, converged without a gap."""
    return len(converged) if converged.all() else int(converged.argmin())


def iteration(run: SubspaceRun) -> SubspaceRun:
    """One joint update of all k levels; advances ``run`` in place and returns it.

    Measures every level's McLachlan system at the current parameters from
    one batched circuit sweep in the run's frame, with the Hamiltonian and
    config the run was started with, solves the stack in one call and
    writes what it measured as one row of the run's log.  Marks levels
    whose velocity stalled for ``patience`` iterations as converged
    (doubling the step sizes from that level upward), then adds every
    level's update to the shared parameters.
    """
    k, frame, cfg, log = run.k, run.frame, run.cfg, run.log
    system = assemble(frame.plan, run.theta, frame.h, frame.inputs)
    theta_dots = solve(system)
    speeds = np.abs(theta_dots).max(axis=1)
    grads = speeds.tolist()

    # A converged level whose velocity re-awakens and keeps growing signals
    # that step doubling pushed dtau past the explicit-integrator stability
    # bound; back off all step sizes together so the dtau ratios stay intact.
    if log.n and any(
        run.converged[l]
        and grads[l] > 10.0 * cfg.grad_tol
        and grads[l] > log.grads[log.n - 1, l]
        for l in range(k)
    ):
        run.dtau *= 0.5
    # Every level of the converged prefix has already had its doubling.
    doubled = _converged_prefix(run.converged)
    for l in range(k):
        if run.converged[l]:
            continue
        run.streaks[l] = run.streaks[l] + 1 if grads[l] < cfg.grad_tol else 0
        if run.streaks[l] >= cfg.patience:
            run.converged[l] = True
    # Doubling starts at the converged level itself, which keeps the dtau
    # ratios (and the head >= tail-sum property) intact; it fires only once
    # the whole prefix below has converged, so an early high level cannot tie
    # its step with a still-active lower one.
    for l in range(doubled, _converged_prefix(run.converged)):
        run.dtau[l:] *= 2.0

    theta = run.theta
    for l in range(k):
        theta = theta + run.dtau[l] * theta_dots[l]
    run.theta = theta
    log.append(system.energy, speeds, run.dtau, system.phi)
    return run


@dataclass(frozen=True)
class SubspaceResult:
    """Outcome of a subspace run, energies in level order.

    ``history`` holds the iterations as columns; row i describes theta_i
    (with exact-eigenvector overlaps whenever the oracle states were
    supplied), so leakage toward already-converged or lower states can be
    audited after the fact.  ``ortho`` describes the final iterate.
    """

    theta: np.ndarray
    energies: np.ndarray
    history: History
    ortho: OrthoReport
    ascending: bool
    converged: np.ndarray
    final_states: tuple[Statevector, ...]

    @property
    def iterations(self) -> int:
        return len(self.history)


def _finalize(run: SubspaceRun) -> SubspaceResult:
    """The result at the final parameters, read out in the run's frame from one sweep."""
    frame = run.frame
    phi = apply(frame.plan, run.theta, frame.inputs)
    rows = phi.T
    # The logged energies' form: Re(phi^dag H phi) on the real form.
    energies = np.sum(rows * (rows @ frame.h.T), axis=1)
    ortho = OrthoReport(_exact_overlaps(rows, frame.exact), float(_max_offdiag(rows)))
    amps = complex_form(phi)
    if frame.basis is not None:
        amps = frame.basis @ amps
    return SubspaceResult(
        theta=run.theta,
        energies=energies,
        history=run.history,
        ortho=ortho,
        ascending=bool(np.all(np.diff(energies) >= -1e-6)),
        converged=run.converged.copy(),
        final_states=tuple(Statevector(amps=a, n=run.n) for a in amps.T.copy()),
    )


def run(h: PauliSum, c: Circuit, initial_states, cfg: SsqiteConfig,
        theta0=None, exact_states=None) -> SubspaceResult:
    """Evolve until every level's convergence flag is set.

    Raises MaxItersExceeded carrying the partial result if the cap is hit;
    energies in the result come from the final iterate, reported in level
    order with ``ascending`` flagging any ordering violation.
    """
    state = SubspaceRun.start(h, c, initial_states, cfg, theta0=theta0,
                              exact_states=exact_states)
    while not np.all(state.converged):
        if state.iteration >= cfg.max_iters:
            raise MaxItersExceeded(
                f"{int(np.sum(~state.converged))} level(s) unconverged "
                f"after {cfg.max_iters} iterations",
                result=_finalize(state),
            )
        state = iteration(state)
    return _finalize(state)


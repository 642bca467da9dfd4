"""Simultaneous imaginary-time evolution of k orthogonal states.

All levels share one ansatz.  Level l advances with its own step size,
initialized to dtau_l = b / 2^l so lower levels dominate the joint parameter
update; once a level converges, every step size from that level upward
doubles (ratios intact), which keeps the total iteration count from growing
like 2^k.

A single parameter vector receives the sum of every level's update, so the
evolved states stay exactly orthogonal (one unitary applied to orthogonal
inputs).

A run keeps one append-only stream of :class:`IterationRecord`, one per
iteration.  Iteration i measures every level's McLachlan system at theta_i
in one derivative sweep, and its record holds what that sweep gave: the
energies, each level's ||theta_dot||_inf, the step sizes of the update it
applied, and the overlaps of the states at theta_i.  That stream, as
``history``, and the final fields of :class:`SubspaceResult` are the one way
to read a run.  The final energies, overlaps and states come from one
``apply`` when the run ends.

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


def _report(amps: np.ndarray, exact_states) -> OrthoReport:
    """Overlaps of the state columns ``amps`` from one k x k Gram matrix."""
    pairwise = np.abs(amps.conj().T @ amps)
    exact = None
    if exact_states is not None:
        exact = np.abs(amps.T @ np.conj(exact_states))
    max_offdiag = float((pairwise - np.diag(pairwise.diagonal())).max())
    return OrthoReport(exact, max_offdiag)


@dataclass(frozen=True)
class IterationRecord:
    """What one iteration measured at its parameters theta_i, from one sweep."""

    energies: tuple[float, ...]
    grads: tuple[float, ...]  # ||theta_dot||_inf per level
    dtau: tuple[float, ...]  # step sizes of the update this iteration applied
    ortho: OrthoReport  # overlaps of the states at theta_i


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
    history: list[IterationRecord]
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
        return cls(
            n=c.n,
            theta=np.array(theta0, dtype=float),
            dtau=dtau,
            converged=np.zeros(k, dtype=bool),
            streaks=np.zeros(k, dtype=int),
            history=[],
            frame=_Frame.of(h, c, amps, exact_states),
            cfg=cfg,
        )

    @property
    def k(self) -> int:
        return len(self.dtau)

    @property
    def iteration(self) -> int:
        """Number of iterations run so far."""
        return len(self.history)


def _converged_prefix(converged: np.ndarray) -> int:
    """Number of levels, counted from level 0, converged without a gap."""
    return len(converged) if converged.all() else int(converged.argmin())


def iteration(run: SubspaceRun) -> SubspaceRun:
    """One joint update of all k levels; advances ``run`` in place and returns it.

    Measures every level's McLachlan system at the current parameters from
    one batched circuit sweep in the run's frame, with the Hamiltonian and
    config the run was started with, solves the stack in one call and
    appends what it measured to the record stream.  Marks levels
    whose velocity stalled for ``patience`` iterations as converged
    (doubling the step sizes from that level upward), then adds every
    level's update to the shared parameters.
    """
    k, frame, cfg = run.k, run.frame, run.cfg
    system = assemble(frame.plan, run.theta, frame.h, frame.inputs)
    theta_dots = solve(system)
    grads = np.abs(theta_dots).max(axis=1).tolist()
    ortho = _report(complex_form(system.phi.T), frame.exact)

    # A converged level whose velocity re-awakens and keeps growing signals
    # that step doubling pushed dtau past the explicit-integrator stability
    # bound; back off all step sizes together so the dtau ratios stay intact.
    if run.history and any(
        run.converged[l]
        and grads[l] > 10.0 * cfg.grad_tol
        and grads[l] > run.history[-1].grads[l]
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
    run.history.append(IterationRecord(
        energies=tuple(system.energy.tolist()),
        grads=tuple(grads),
        dtau=tuple(run.dtau.tolist()),
        ortho=ortho,
    ))
    return run


@dataclass(frozen=True)
class SubspaceResult:
    """Outcome of a subspace run, energies in level order.

    ``history`` holds one record per iteration; record i describes theta_i
    (with exact-eigenvector overlaps whenever the oracle states were
    supplied), so leakage toward already-converged or lower states can be
    audited after the fact.  ``ortho`` describes the final iterate.
    """

    theta: np.ndarray
    energies: np.ndarray
    history: tuple[IterationRecord, ...]
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
    # The recorded energies' form: Re(phi^dag H phi) on the real form.
    energies = np.sum(rows * (rows @ frame.h.T), axis=1)
    amps = complex_form(phi)
    ortho = _report(amps, frame.exact)
    if frame.basis is not None:
        amps = frame.basis @ amps
    return SubspaceResult(
        theta=run.theta,
        energies=energies,
        history=tuple(run.history),
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


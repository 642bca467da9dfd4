"""Simultaneous imaginary-time evolution of k orthogonal states.

All levels share one ansatz, and one parameter vector receives the sum of
every level's update, so the states stay exactly orthogonal (one unitary on
orthogonal inputs).  Level l starts with step size dtau_l = b / 2^l, so lower
levels dominate the joint update; once a level converges, every step size
from that level upward doubles (ratios intact), which keeps the iteration
count from growing like 2^k.

A run keeps one columnar log.  Iteration i measures every level's McLachlan
system at theta_i in one derivative sweep and writes row i: the energies,
each level's ||theta_dot||_inf, the step sizes of the update it applied and
the states at theta_i, into buffers that double when full.  ``history``
reads the rows as a :class:`History`, whose overlaps between the levels are
computed on read in one batched product; that and :class:`SubspaceResult`
are the one way to read a run.  The final energies and states come from
one ``apply`` when the run ends.

The schedule's bookkeeping is Python scalars: each level's flag, streak and
last speed are Python lists on the run, and the k speeds are read once per
iteration with ``tolist`` (on k = 3 levels a NumPy scalar index costs more
than the comparison it feeds).  Theta takes the k rows of one product
dtau[:, None] * theta_dot in level order, the bits of one update per level.

A run works in an orthonormal basis Q of the smallest subspace that holds
its inputs and that every gate maps into itself
(:func:`~ssqite.simulator.invariant_basis`), built once when it starts.  For
the excitation-preserving ansatz on one-excitation inputs that is the
3-dimensional one-excitation sector, so every sweep and solve works on 3
amplitudes instead of 8.  Q preserves energies and overlaps, so only the
final states are lifted to the full 2^n basis.
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
        for key in ("patience", "max_iters"):
            value = getattr(self, key)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{key} must be an integer >= 1, got {value!r}")


def init_schedule(k: int, b: float) -> np.ndarray:
    """Per-level step sizes dtau_l = b / 2^l.

    Each entry dominates the tail sum of the later ones, which is what lets
    lower levels win the competition for the shared parameters.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0 < b < np.inf:
        raise ValueError(f"b must be positive and finite, got {b}")
    return b / np.power(2.0, np.arange(k))


@dataclass(frozen=True, eq=False)
class History:
    """A run's iterations as columns; row i was measured at theta_i by one sweep.

    ``energies``, ``grads`` (||theta_dot||_inf) and ``dtau`` (the step sizes
    of the update iteration i applied) are (n, k); ``phi`` holds the
    (n, k, 2d) real-form states in the run's frame.
    """

    energies: np.ndarray
    grads: np.ndarray
    dtau: np.ndarray
    phi: np.ndarray

    def __len__(self) -> int:
        return len(self.energies)

    @property
    def max_offdiag(self) -> np.ndarray:
        """(n,) largest |<phi_a|phi_b>|, a != b, at each iteration, in one batched product."""
        z = complex_form(self.phi.T).T
        pairwise = np.abs(z.conj() @ np.swapaxes(z, -1, -2))
        k = pairwise.shape[-1]
        pairwise[..., range(k), range(k)] = 0.0
        return pairwise.max(axis=(-2, -1))


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
    space.  ``plan`` is the dense circuit, ``inputs`` the (2r, k) real-form
    input columns in Q's coordinates and ``h`` the real form of Q^H H Q
    (:func:`~ssqite.simulator.real_matrix`).  Q preserves inner products, so
    every energy and overlap a run reports is computed in these
    coordinates; only the final states are lifted back to the full space.
    """

    basis: np.ndarray | None
    plan: DenseCircuit
    inputs: np.ndarray
    h: np.ndarray

    @classmethod
    def of(cls, h: PauliSum, c: Circuit, amps: np.ndarray) -> "_Frame":
        if h.n != c.n:
            raise DimensionMismatch(f"Hamiltonian on {h.n} qubits, circuit on {c.n}")
        q = invariant_basis(c, amps)
        if q.shape[1] == q.shape[0]:
            return cls(None, c.dense, real_form(amps), real_matrix(h.dense))
        qh = q.conj().T
        return cls(q, c.dense.restrict(q), real_form(qh @ amps), real_matrix(qh @ h.dense @ q))


@dataclass
class SubspaceRun:
    """Evolving state of one subspace search, bound to its problem by ``frame``.

    :func:`iteration` advances it; its states are reported on ``n`` qubits.
    ``flags``, ``streaks`` and ``speeds`` (inf before the first iteration)
    are each level's schedule state.
    """

    n: int
    theta: np.ndarray
    dtau: np.ndarray
    flags: list[bool]
    streaks: list[int]
    speeds: list[float]
    log: _Log
    frame: _Frame
    cfg: SsqiteConfig

    @classmethod
    def start(cls, h: PauliSum, c: Circuit, initial_states, cfg: SsqiteConfig,
              theta0=None) -> "SubspaceRun":
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
        theta = np.zeros(c.num_params) if theta0 is None else np.array(theta0, dtype=float)
        if theta.shape != (c.num_params,):
            raise DimensionMismatch(f"theta0 has shape {theta.shape}, expected ({c.num_params},)")
        if not np.isfinite(theta).all():
            raise ValueError("theta0 must be finite")
        frame = _Frame.of(h, c, amps)
        return cls(
            n=c.n,
            theta=theta,
            dtau=dtau,
            flags=[False] * k,
            streaks=[0] * k,
            speeds=[np.inf] * k,
            log=_Log(k, len(frame.inputs)),
            frame=frame,
            cfg=cfg,
        )

    @property
    def converged(self) -> np.ndarray:
        """(k,) bool convergence flags, copied from ``flags``."""
        return np.array(self.flags, dtype=bool)

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
        return History(*columns)


def _converged_prefix(flags: list[bool]) -> int:
    """Number of levels, counted from level 0, converged without a gap."""
    return flags.index(False) if False in flags else len(flags)


def iteration(run: SubspaceRun) -> SubspaceRun:
    """One joint update of all k levels; advances ``run`` in place and returns it.

    One batched circuit sweep in the run's frame measures every level's
    McLachlan system at the current parameters, one call solves the stack,
    and what was measured becomes one row of the run's log.  Levels whose
    velocity stalled for ``patience`` iterations converge (doubling the step
    sizes from that level upward), then every level's update is added to the
    shared parameters.  The schedule reads only Python floats and lists.
    """
    frame, cfg, flags, streaks = run.frame, run.cfg, run.flags, run.streaks
    system = assemble(frame.plan, run.theta, frame.h, frame.inputs)
    theta_dots = solve(system)
    speeds = np.maximum.reduce(np.abs(theta_dots), axis=1)
    grads = speeds.tolist()

    # A converged level whose velocity re-awakens and keeps growing signals
    # that step doubling pushed dtau past the explicit-integrator stability
    # bound; back off all step sizes together so the dtau ratios stay intact.
    if True in flags and any(f and g > 10.0 * cfg.grad_tol and g > p
                             for f, g, p in zip(flags, grads, run.speeds)):
        run.dtau *= 0.5
    run.speeds = grads
    # Every level of the converged prefix has already had its doubling.
    doubled = _converged_prefix(flags)
    for l, g in enumerate(grads):
        if not flags[l]:
            streaks[l] = streaks[l] + 1 if g < cfg.grad_tol else 0
            flags[l] = streaks[l] >= cfg.patience
    # Doubling starts at the converged level itself, which keeps the dtau
    # ratios (and the head >= tail-sum property) intact; it fires only once
    # the whole prefix below has converged, so an early high level cannot tie
    # its step with a still-active lower one.
    for l in range(doubled, _converged_prefix(flags)):
        run.dtau[l:] *= 2.0

    # One product for all levels, then the adds in level order: the same
    # products and the same summation order as one update per level.
    steps = run.dtau[:, None] * theta_dots
    theta = run.theta + steps[0]
    for step in steps[1:]:
        theta += step
    run.theta = theta
    run.log.append(system.energy, speeds, run.dtau, system.phi)
    return run


@dataclass(frozen=True)
class SubspaceResult:
    """Outcome of a subspace run, energies in level order.

    ``history`` holds the iterations as columns; row i describes theta_i.
    ``theta``, ``energies``, ``ascending`` and ``final_states`` describe the
    final iterate, ``converged`` the levels' flags when the run ended.
    """

    theta: np.ndarray
    energies: np.ndarray
    history: History
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
    amps = complex_form(phi)
    if frame.basis is not None:
        amps = frame.basis @ amps
    return SubspaceResult(
        theta=run.theta,
        energies=energies,
        history=run.history,
        ascending=bool(np.all(np.diff(energies) >= -1e-6)),
        converged=run.converged,
        final_states=tuple(Statevector(amps=a, n=run.n) for a in amps.T.copy()),
    )


def run(h: PauliSum, c: Circuit, initial_states, cfg: SsqiteConfig,
        theta0=None) -> SubspaceResult:
    """Evolve until every level's convergence flag is set.

    Raises MaxItersExceeded carrying the partial result if the cap is hit;
    energies in the result come from the final iterate, reported in level
    order with ``ascending`` flagging any ordering violation.
    """
    state = SubspaceRun.start(h, c, initial_states, cfg, theta0=theta0)
    while not all(state.flags):
        if state.iteration >= cfg.max_iters:
            raise MaxItersExceeded(
                f"{state.flags.count(False)} level(s) unconverged "
                f"after {cfg.max_iters} iterations",
                result=_finalize(state),
            )
        state = iteration(state)
    return _finalize(state)


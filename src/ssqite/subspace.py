"""Simultaneous imaginary-time evolution of k orthogonal states.

All levels share one ansatz, and one parameter vector receives the sum of
every level's update, so the states stay exactly orthogonal (one unitary on
orthogonal inputs).  Level l starts with step size dtau_l = b / 2^l, so lower
levels dominate the joint update; once a level converges, every step size
from that level upward doubles (ratios intact), which keeps the iteration
count from growing like 2^k.  When a converged level's speed re-awakens and
grows, every step size halves, but never below its initial b / 2^l.

A run puts its problem into coordinates once, when it starts: its frame
(:class:`~ssqite.qite_engine._Frame`) works in the smallest subspace around
the inputs that every gate maps into itself, 3 amplitudes instead of 8 for
the excitation-preserving ansatz on one-excitation inputs.  Each iteration
assembles and solves the stacked McLachlan systems of all levels from one
circuit sweep and appends one row of what it measured to the run's rows;
the schedule reads the k speeds as Python floats.  Energies and overlaps are
read in the frame, and only the final states are lifted to the full 2^n basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, MaxItersExceeded
from .pauli_algebra import PauliSum
from .qite_engine import SsqiteConfig, _Frame, _reach, assemble, solve
from .simulator import Circuit, Statevector, apply, complex_form


def init_schedule(k: int, b: float) -> np.ndarray:
    """Per-level step sizes dtau_l = b / 2^l.

    Each entry dominates the tail sum of the later ones, which is what lets
    lower levels win the competition for the shared parameters.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise InputError(f"k must be an integer >= 1, got {k!r}")
    if not 0 < b < np.inf:
        raise InputError(f"b must be positive and finite, got {b}")
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


@dataclass
class SubspaceRun:
    """Evolving state of one subspace search, bound to its problem by ``frame``.

    :func:`iteration` advances it; its states are reported on ``n`` qubits.
    ``flags`` and ``streaks`` are each level's schedule state, and ``bound``
    bounds max|theta|.  ``rows`` holds one ``(energies, speeds, dtau, phi)``
    row per iteration, each owning its values.
    """

    n: int
    theta: np.ndarray
    bound: float
    dtau: np.ndarray
    flags: list[bool]
    streaks: list[int]
    rows: list[tuple]
    frame: _Frame
    cfg: SsqiteConfig

    @classmethod
    def start(cls, h: PauliSum, c: Circuit, initial_states, cfg: SsqiteConfig,
              theta0=None) -> "SubspaceRun":
        """The iteration-zero run and its frame, built once per run.

        The frame checks the states' widths and that they are orthonormal,
        and turns theta0 into the first parameters (:meth:`_Frame.first_theta`).
        """
        initial_states = tuple(initial_states)
        k = len(initial_states)
        dtau = init_schedule(k, cfg.b)
        frame = _Frame.of(h, c, initial_states)
        theta = frame.first_theta(theta0)
        return cls(
            n=c.n,
            theta=theta,
            bound=float(np.abs(theta).max(initial=0.0)),
            dtau=dtau,
            flags=[False] * k,
            streaks=[0] * k,
            rows=[],
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
        return len(self.rows)

    @property
    def history(self) -> History:
        """The iterations so far, stacked from the rows into new read-only columns."""
        n, k = len(self.rows), len(self.flags)
        shapes = ((n, k),) * 3 + ((n, k, 2 * self.frame.plan.dim),)
        columns = [np.array([row[i] for row in self.rows]).reshape(shape)
                   for i, shape in enumerate(shapes)]
        for column in columns:
            column.flags.writeable = False
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
    shared parameters, unless it could leave the floating-point range
    (InputError).  The schedule reads only Python floats and lists.
    """
    cfg, flags, streaks = run.cfg, run.flags, run.streaks
    system = assemble(run.frame, run.theta)
    theta_dots = solve(system)
    grads = np.maximum.reduce(np.abs(theta_dots), axis=1).tolist()

    # A converged level whose velocity re-awakens and keeps growing signals
    # that step doubling pushed dtau past the explicit-integrator stability
    # bound; back off all step sizes together, each to no less than its
    # initial b / 2^l: halving with no floor, on consecutive iterations,
    # drives every step to zero.  A flag is set only after an iteration, so
    # the previous row's speeds exist whenever this reads them.
    if True in flags and any(f and g > 10.0 * cfg.grad_tol and g > p
                             for f, g, p in zip(flags, grads, run.rows[-1][1])):
        np.maximum(0.5 * run.dtau, init_schedule(len(flags), cfg.b), out=run.dtau)
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

    run.bound = _reach(run.bound, run.dtau.tolist(), grads, cfg, len(run.rows))
    # One product for all levels, then the adds in level order: the same
    # products and the same summation order as one update per level.
    steps = run.dtau[:, None] * theta_dots
    theta = run.theta + steps[0]
    for step in steps[1:]:
        theta += step
    run.theta = theta
    # Copies: the schedule updates dtau in place, and phi views the sweep's buffer.
    run.rows.append((system.energy, grads, run.dtau.copy(), system.phi.copy()))
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
    phi = apply(frame.plan, run.theta, frame.k)
    _, _, energies = frame.readout(phi)  # as each iteration's energies are read
    amps = frame.basis @ complex_form(phi)
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


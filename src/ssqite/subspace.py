"""Simultaneous imaginary-time evolution of k orthogonal states.

All levels share one ansatz.  Level l advances with its own step size,
initialized to dtau_l = b / 2^l so lower levels dominate the joint parameter
update; once a level converges, every step size from that level upward
doubles (ratios intact), which keeps the total iteration count from growing
like 2^k.

In ``shared`` update mode a single parameter vector receives the sum of the
per-level updates, so the evolved states stay exactly orthogonal (one unitary
applied to orthogonal inputs).  The ``per-level`` mode advances k independent
parameter vectors and merely monitors orthogonality.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, MaxItersExceeded, NonDecreasingWeights
from .pauli_algebra import PauliSum
from .qite_engine import assemble, solve
from .simulator import Circuit, Statevector, apply, expectation

UPDATE_MODES = ("shared", "per-level")


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
    ortho_tol: float = 1e-8
    update_mode: str = "shared"
    regularization: float = 0.0

    def __post_init__(self):
        if self.b <= 0:
            raise ValueError(f"b must be positive, got {self.b}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.update_mode not in UPDATE_MODES:
            raise ValueError(f"update_mode must be one of {UPDATE_MODES}")


@dataclass(frozen=True)
class SsvqeWeights:
    """Strictly decreasing positive weights for the diagnostic loss."""

    omega: np.ndarray

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        object.__setattr__(self, "omega", omega)
        if omega.ndim != 1 or omega.size == 0:
            raise NonDecreasingWeights("weights must be a nonempty vector")
        if np.any(omega <= 0):
            raise NonDecreasingWeights("weights must be positive")
        if omega.size > 1 and np.any(np.diff(omega) >= 0):
            raise NonDecreasingWeights("weights must be strictly decreasing")


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


def _columns(states) -> np.ndarray:
    """(2^n, k) matrix whose columns are the states' amplitudes."""
    return np.column_stack([s.amps for s in states])


def _gram(states) -> np.ndarray:
    """k x k matrix of inner products <psi_i|psi_j>."""
    amps = _columns(states)
    return amps.conj().T @ amps


def _evolve(c: Circuit, theta: np.ndarray, initial_states,
            per_level: bool) -> tuple[Statevector, ...]:
    """Trial states U(theta)|phi_l>, one sweep for all levels when shared."""
    if per_level:
        return tuple(apply(c, theta[l], s) for l, s in enumerate(initial_states))
    rows = apply(c, theta, _columns(initial_states)).T.copy()
    return tuple(Statevector(amps=amps, n=c.n) for amps in rows)


@dataclass(frozen=True)
class TraceRecord:
    """One per-level monitoring row emitted every iteration."""

    iteration: int
    level: int
    energy: float
    grad_inf: float
    dtau: float
    ortho_max_offdiag: float


@dataclass(frozen=True)
class SubspaceRun:
    """Evolving state of one subspace search."""

    k: int
    b: float
    theta: np.ndarray  # (num_params,) shared mode, (k, num_params) per-level
    initial_states: tuple[Statevector, ...]
    dtau: np.ndarray
    converged: np.ndarray
    traces: tuple[tuple[float, ...], ...]
    states: tuple[Statevector, ...]  # trial states at the current parameters
    streaks: np.ndarray
    snapshots: dict[int, Statevector]
    records: tuple[TraceRecord, ...]
    iteration: int
    update_mode: str
    doubled_prefix: int = 0  # levels whose convergence already doubled steps
    prev_grads: np.ndarray | None = None

    @classmethod
    def start(cls, c: Circuit, initial_states, cfg: SsqiteConfig,
              theta0=None) -> "SubspaceRun":
        """Validate inputs and build the iteration-zero run."""
        initial_states = tuple(initial_states)
        k = len(initial_states)
        dtau = init_schedule(k, cfg.b)
        for s in initial_states:
            if s.n != c.n:
                raise DimensionMismatch(f"state on {s.n} qubits, circuit on {c.n}")
        dev = np.abs(np.abs(_gram(initial_states)) - np.eye(k))
        if dev.max() > 1e-10:
            i, j = np.unravel_index(np.argmax(dev), dev.shape)
            raise ValueError(
                f"initial states {i},{j} not orthonormal (deviation {dev[i, j]:.2e})"
            )
        if theta0 is None:
            theta0 = np.zeros(c.num_params)
        theta0 = np.asarray(theta0, dtype=float)
        per_level = cfg.update_mode == "per-level"
        if per_level and theta0.ndim == 1:
            theta0 = np.tile(theta0, (k, 1))
        return cls(
            k=k,
            b=cfg.b,
            theta=theta0.copy(),
            initial_states=initial_states,
            dtau=dtau,
            converged=np.zeros(k, dtype=bool),
            traces=tuple(() for _ in range(k)),
            states=_evolve(c, theta0, initial_states, per_level),
            streaks=np.zeros(k, dtype=int),
            snapshots={},
            records=(),
            iteration=0,
            update_mode=cfg.update_mode,
        )

    def monitor_states(self) -> tuple[Statevector, ...]:
        """States used for orthogonality checks.

        Converged levels in per-level mode are represented by the snapshot
        taken when they converged; shared mode always uses live states.
        """
        if self.update_mode != "per-level":
            return self.states
        return tuple(
            self.snapshots.get(l, self.states[l]) if self.converged[l] else self.states[l]
            for l in range(self.k)
        )

    @cached_property
    def gram(self) -> np.ndarray:
        """Inner products <psi_i|psi_j> of the monitor states.

        Computed at most once per run object: :func:`ortho_report` and the
        next iteration's trace record both read it.
        """
        return _gram(self.monitor_states())


def _offdiag_max(gram: np.ndarray) -> float:
    k = gram.shape[0]
    return float(np.max(np.abs(gram[np.triu_indices(k, 1)]))) if k > 1 else 0.0


def iteration(run: SubspaceRun, h: PauliSum, c: Circuit,
              cfg: SsqiteConfig) -> SubspaceRun:
    """One joint update of all k levels.

    Measures every level's McLachlan system at the current parameters (in
    shared mode all k levels come from one batched circuit sweep), marks
    levels whose velocity stalled for ``patience`` iterations as converged
    (doubling the step sizes from that level upward), then applies the
    per-level updates.
    """
    k = run.k
    per_level = run.update_mode == "per-level"
    if per_level:
        systems = [assemble(c, run.theta[l], h, run.initial_states[l]) for l in range(k)]
    else:
        systems = assemble(c, run.theta, h, _columns(run.initial_states))
    theta_dots = [solve(sys, cfg.regularization) for sys in systems]
    grads = np.array([np.max(np.abs(dot)) for dot in theta_dots])
    energies = [sys.energy for sys in systems]

    converged = run.converged.copy()
    streaks = run.streaks.copy()
    dtau = run.dtau.copy()
    snapshots = dict(run.snapshots)
    # A converged level whose velocity re-awakens and keeps growing signals
    # that step doubling pushed dtau past the explicit-integrator stability
    # bound; back off all step sizes together so the dtau ratios stay intact.
    if run.prev_grads is not None and any(
        converged[l]
        and grads[l] > 10.0 * cfg.grad_tol
        and grads[l] > run.prev_grads[l]
        for l in range(k)
    ):
        dtau *= 0.5
    for l in range(k):
        if converged[l]:
            continue
        streaks[l] = streaks[l] + 1 if grads[l] < cfg.grad_tol else 0
        if streaks[l] >= cfg.patience:
            converged[l] = True
            snapshots[l] = run.states[l]
    # Doubling starts at the converged level itself, which keeps the dtau
    # ratios (and the head >= tail-sum property) intact; it fires only once
    # the whole prefix below has converged, so an early high level cannot tie
    # its step with a still-active lower one.
    doubled_prefix = run.doubled_prefix
    while doubled_prefix < k and converged[doubled_prefix]:
        dtau[doubled_prefix:] *= 2.0
        doubled_prefix += 1

    if per_level:
        theta = run.theta.copy()
        for l in range(k):
            theta[l] = theta[l] + dtau[l] * theta_dots[l]
    else:
        theta = run.theta
        for l in range(k):
            theta = theta + dtau[l] * theta_dots[l]
    states = _evolve(c, theta, run.initial_states, per_level)

    ortho_max = _offdiag_max(run.gram)
    records = run.records + tuple(
        TraceRecord(
            iteration=run.iteration,
            level=l,
            energy=float(energies[l]),
            grad_inf=float(grads[l]),
            dtau=float(dtau[l]),
            ortho_max_offdiag=ortho_max,
        )
        for l in range(k)
    )
    return dataclasses.replace(
        run,
        theta=theta,
        dtau=dtau,
        converged=converged,
        streaks=streaks,
        snapshots=snapshots,
        states=states,
        traces=tuple(run.traces[l] + (float(energies[l]),) for l in range(k)),
        records=records,
        iteration=run.iteration + 1,
        doubled_prefix=doubled_prefix,
        prev_grads=grads,
    )


@dataclass(frozen=True)
class OrthoReport:
    """Overlap magnitudes between levels (and exact eigenvectors if given)."""

    pairwise: np.ndarray
    exact: np.ndarray | None
    max_offdiag: float
    flagged: bool


def ortho_report(run_or_states, exact_states=None, tol: float = 1e-8) -> OrthoReport:
    """Pairwise |<psi_i|psi_j>| matrix; flags the run when levels coincide.

    ``exact_states`` may be a matrix of eigenvector columns, adding the
    |<E_j|psi_i>| block.  Accepts a SubspaceRun or a plain state sequence.
    """
    if isinstance(run_or_states, SubspaceRun):
        states = run_or_states.monitor_states()
        gram = run_or_states.gram
    else:
        states = tuple(run_or_states)
        gram = _gram(states)
    k = len(states)
    pairwise = np.abs(gram)
    exact = None
    if exact_states is not None:
        exact_states = np.asarray(exact_states, dtype=complex)
        exact = np.abs(_columns(states).T @ exact_states.conj())
    off = pairwise - np.eye(k)
    max_offdiag = float(np.max(np.abs(off))) if k > 1 else 0.0
    return OrthoReport(
        pairwise=pairwise,
        exact=exact,
        max_offdiag=max_offdiag,
        flagged=bool(max_offdiag > tol),
    )


@dataclass(frozen=True)
class SubspaceResult:
    """Outcome of a subspace run, energies in level order.

    ``ortho_history`` holds one report per iteration (with exact-eigenvector
    overlaps whenever the oracle states were supplied), so leakage toward
    already-converged or lower states can be audited after the fact.
    """

    theta: np.ndarray
    energies: np.ndarray
    traces: tuple[tuple[float, ...], ...]
    records: tuple[TraceRecord, ...]
    ortho: OrthoReport
    ortho_history: tuple[OrthoReport, ...]
    ascending: bool
    iterations: int
    converged: np.ndarray
    final_states: tuple[Statevector, ...]


def _finalize(run: SubspaceRun, h: PauliSum, cfg: SsqiteConfig,
              exact_states, history) -> SubspaceResult:
    energies = np.array([expectation(h, s) for s in run.states])
    ascending = bool(np.all(np.diff(energies) >= -1e-6))
    report = ortho_report(run, exact_states=exact_states, tol=cfg.ortho_tol)
    return SubspaceResult(
        theta=run.theta,
        energies=energies,
        traces=run.traces,
        records=run.records,
        ortho=report,
        ortho_history=tuple(history),
        ascending=ascending,
        iterations=run.iteration,
        converged=run.converged.copy(),
        final_states=run.states,
    )


def run(h: PauliSum, c: Circuit, initial_states, cfg: SsqiteConfig,
        theta0=None, exact_states=None) -> SubspaceResult:
    """Evolve until every level's convergence flag is set.

    Raises MaxItersExceeded carrying the partial result if the cap is hit;
    energies in the result come from the final iterate, reported in level
    order with ``ascending`` flagging any ordering violation.
    """
    state = SubspaceRun.start(c, initial_states, cfg, theta0=theta0)
    history: list[OrthoReport] = []
    while not np.all(state.converged):
        if state.iteration >= cfg.max_iters:
            partial = _finalize(state, h, cfg, exact_states, history)
            raise MaxItersExceeded(
                f"{int(np.sum(~state.converged))} level(s) unconverged "
                f"after {cfg.max_iters} iterations",
                result=partial,
            )
        state = iteration(state, h, c, cfg)
        history.append(ortho_report(state, exact_states=exact_states, tol=cfg.ortho_tol))
    return _finalize(state, h, cfg, exact_states, history)


def ssvqe_loss(h: PauliSum, c: Circuit, theta, initial_states,
               w: SsvqeWeights) -> float:
    """Weighted energy sum over the evolved levels (diagnostic only)."""
    initial_states = tuple(initial_states)
    if w.omega.size != len(initial_states):
        raise NonDecreasingWeights(
            f"{w.omega.size} weights for {len(initial_states)} states"
        )
    total = 0.0
    for weight, phi in zip(w.omega, initial_states):
        total += weight * expectation(h, apply(c, theta, phi))
    return total

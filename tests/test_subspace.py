"""Subspace scheduling, joint iteration, convergence doubling, orthogonality."""

import numpy as np
import pytest

from conftest import complete_basis, single_ry
from ssqite.errors import InputError, MaxItersExceeded, SingularSystem
from ssqite.exact_oracle import eigensolve
from ssqite.pauli_algebra import PauliSum
from ssqite.qite_engine import _Frame, assemble, run_qite, solve
from ssqite.simulator import (
    Statevector,
    apply,
    build_excitation_preserving,
    build_twolocal,
    complex_form,
)
from ssqite.subspace import (
    SsqiteConfig,
    SubspaceRun,
    _finalize,
    init_schedule,
    iteration,
    run,
)

Z = PauliSum.from_terms([(1.0, "Z")])
ZZ = PauliSum.from_terms([(1.0, "ZZ")])


def basis(*labels):
    return [Statevector.from_label(l) for l in labels]


def seeded_theta(num_params, seed=11, scale=0.1):
    return np.random.default_rng(seed).normal(0, scale, num_params)


def exact_overlaps(result, eigenvectors):
    """(k, m) |<E_j|phi_l>| of a result's final states with exact eigenvectors."""
    amps = np.column_stack([s.amps for s in result.final_states])
    return np.abs(amps.T @ eigenvectors.conj())


class TestSchedule:
    def test_three_levels(self):
        np.testing.assert_allclose(init_schedule(3, 1.0), [1.0, 0.5, 0.25])

    def test_single_level(self):
        np.testing.assert_allclose(init_schedule(1, 0.1), [0.1])

    @pytest.mark.parametrize("k", range(1, 11))
    def test_head_dominates_tail(self, k):
        dtau = init_schedule(k, 0.7)
        for i in range(k):
            assert dtau[i] >= dtau[i + 1:].sum()

    def test_validation(self):
        for k in (0, 2.5):
            with pytest.raises(InputError, match="k must be an integer >= 1"):
                init_schedule(k, 1.0)
        for b in (-1.0, np.nan, np.inf):
            with pytest.raises(InputError, match="b must be positive and finite"):
                init_schedule(3, b)


class TestConfig:
    def test_validation(self):
        with pytest.raises(InputError, match="b must be positive and finite"):
            SsqiteConfig(b=0.0)
        with pytest.raises(InputError, match="grad_tol must be >= 0 and finite"):
            SsqiteConfig(grad_tol=-1.0)
        SsqiteConfig(grad_tol=0.0)

    @pytest.mark.parametrize("key", ["b", "grad_tol"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, key, value):
        with pytest.raises(InputError, match=f"{key} must be"):
            SsqiteConfig(**{key: value})

    # Only constructed, never run: a NaN cap would let ``run`` iterate forever.
    @pytest.mark.parametrize("key", ["patience", "max_iters"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, 2.5, 3.0, 0, -1])
    def test_non_integer_counts_rejected(self, key, value):
        with pytest.raises(InputError, match=f"{key} must be an integer >= 1"):
            SsqiteConfig(grad_tol=0.0, **{key: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = SsqiteConfig(patience=np.int64(2), max_iters=np.int64(10))
        assert (cfg.patience, cfg.max_iters) == (2, 10)


class TestStart:
    """``SubspaceRun.start`` refuses a bad theta0 before any sweep (constructed only)."""

    @pytest.mark.parametrize("theta0", [np.zeros(15), np.zeros(17), np.zeros((1, 16))])
    def test_theta0_length_checked(self, theta0):
        with pytest.raises(InputError, match="theta has shape"):
            SubspaceRun.start(ZZ, build_twolocal(), basis("00", "01"), SsqiteConfig(),
                              theta0=theta0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_theta0_must_be_finite(self, bad):
        theta0 = seeded_theta(16)
        theta0[5] = bad
        with pytest.raises(InputError, match="theta0 must be finite") as exc:
            SubspaceRun.start(ZZ, build_twolocal(), basis("00", "01"), SsqiteConfig(),
                              theta0=theta0)
        assert not isinstance(exc.value, SingularSystem)

    def test_theta0_must_be_real(self):
        # Refused, not cut to its real part with a ComplexWarning.
        with pytest.raises(TypeError):
            SubspaceRun.start(ZZ, build_twolocal(), basis("00", "01"), SsqiteConfig(),
                              theta0=np.full(16, 0.1 + 0.5j))

    @pytest.mark.parametrize("labels", [("000", "001"), ("00", "010")])
    def test_state_width_checked(self, labels):
        with pytest.raises(InputError, match="state on 3 qubits, circuit on 2"):
            run(ZZ, build_twolocal(), basis(*labels), SsqiteConfig())

    def test_non_orthonormal_states_named(self):
        # The frame's invariant_basis is the one check, with the deviation
        # of the worst pair.
        skewed = Statevector(amps=np.array([1, 1, 0, 0]) / np.sqrt(2), n=2)
        with pytest.raises(InputError, match=r"initial states 0,2 not orthonormal \(deviation 7.07e-01\)"):
            SubspaceRun.start(ZZ, build_twolocal(), basis("00", "11") + [skewed], SsqiteConfig())

    def test_theta0_is_copied(self):
        theta0 = seeded_theta(16)
        state = SubspaceRun.start(ZZ, build_twolocal(), basis("00", "01"), SsqiteConfig(),
                                  theta0=theta0)
        np.testing.assert_array_equal(state.theta, theta0)
        assert state.theta is not theta0


class TestIteration:
    def test_orthonormal_inputs_required(self):
        skewed = Statevector(amps=np.array([1, 1, 0, 0]) / np.sqrt(2), n=2)
        with pytest.raises(InputError, match="initial states 0,1 not orthonormal"):
            SubspaceRun.start(ZZ, build_twolocal(), [basis("00")[0], skewed], SsqiteConfig())

    def test_shared_mode_keeps_orthogonality(self, h2_series):
        _, h = h2_series.nearest(0.95)
        c = build_twolocal()
        cfg = SsqiteConfig()
        states = basis("00", "01", "10")
        state = SubspaceRun.start(h, c, states, cfg, theta0=seeded_theta(16))
        for _ in range(50):
            state = iteration(state)
            amps = np.column_stack([apply(c, state.theta, s).amps for s in states])
            gram = np.abs(amps.conj().T @ amps)
            assert (gram - np.diag(gram.diagonal())).max() < 1e-10

    def test_doubling_fires_when_level_converges(self, h2_series):
        # When level 0's flag flips, the higher-level steps double exactly on
        # that iteration (and so does level 0's own, keeping the ratios).
        _, h = h2_series.nearest(0.95)
        c = build_twolocal()
        cfg = SsqiteConfig()
        state = SubspaceRun.start(h, c, basis("00", "01", "10"), cfg, theta0=seeded_theta(16))
        flip = None
        for _ in range(cfg.max_iters):
            prev_dtau = state.dtau.copy()
            was = state.converged.copy()
            state = iteration(state)
            newly = state.converged & ~was
            if newly[0] and not was[1] and not was[2]:
                flip = state.iteration - 1
                assert state.dtau[1] == 2.0 * prev_dtau[1]
                assert state.dtau[2] == 2.0 * prev_dtau[2]
                assert state.dtau[0] == 2.0 * prev_dtau[0]
                dtau = state.history.dtau[flip]
                assert dtau[1] == 2.0 * prev_dtau[1]
                assert dtau[2] == 2.0 * prev_dtau[2]
                break
            if state.converged.all():
                break
        assert flip is not None, "level 0 never converged first"

    def test_flags_monotone(self, h2_series):
        _, h = h2_series.nearest(0.95)
        c = build_twolocal()
        cfg = SsqiteConfig()
        state = SubspaceRun.start(h, c, basis("00", "01", "10"), cfg, theta0=seeded_theta(16))
        seen = np.zeros(3, dtype=bool)
        for _ in range(400):
            state = iteration(state)
            assert np.all(state.converged >= seen)
            seen = state.converged.copy()
            if seen.all():
                break


def reference_schedule(h, c, states, cfg, theta0):
    """The schedule rules written out as one plain loop over NumPy arrays.

    Each iteration: one stacked ``assemble`` and ``solve``; if a converged
    level's ||theta_dot||_inf is above 10 grad_tol and above its previous
    value, every step size halves, but not below its initial b / 2^l; a level below grad_tol for ``patience``
    iterations in a row converges; each level that joins the converged
    prefix doubles the step sizes from itself upward; then theta takes
    every level's update in level order.  Returns the final theta, the
    (energies, speeds, dtau) rows and the schedule events.
    """
    k = len(states)
    frame = _Frame.of(h, c, states)
    theta, dtau = np.array(theta0, dtype=float), init_schedule(k, cfg.b)
    converged, streaks = np.zeros(k, dtype=bool), np.zeros(k, dtype=int)
    rows, events, previous = [], [], None

    def prefix():
        return k if converged.all() else int(np.argmin(converged))

    while not converged.all():
        assert len(rows) < cfg.max_iters
        i = len(rows)
        system = assemble(frame, theta)
        dots = solve(system)
        speeds = np.abs(dots).max(axis=1)
        growing = converged & (speeds > 10.0 * cfg.grad_tol)
        if previous is not None and np.any(growing & (speeds > previous)):
            dtau = np.maximum(dtau * 0.5, init_schedule(k, cfg.b))
            events.append((i, "halve"))
        doubled = prefix()
        for l in np.flatnonzero(~converged):
            streaks[l] = streaks[l] + 1 if speeds[l] < cfg.grad_tol else 0
            converged[l] = streaks[l] >= cfg.patience
        for l in range(doubled, prefix()):
            dtau[l:] = 2.0 * dtau[l:]
            events.append((i, "double", l))
        rows.append((system.energy, speeds, dtau.copy()))
        for l in range(k):
            theta = theta + dtau[l] * dots[l]
        previous = speeds
    return theta, rows, events


class TestReferenceSchedule:
    """``run`` against :func:`reference_schedule`, bit for bit.

    H2 at R = 0.35 from the CLI's seed-11 start runs 262 iterations.  Level 0
    converges at iteration 231, which doubles every step; its speed then
    grows again and the back-off halves every step at 248; levels 1 and 2
    converge together on the last iteration, 261.  Of the shipped series only
    R = 0.35 and 0.45 reach the back-off.
    """

    def test_h2_back_off_and_doubling(self, h2_series):
        _, h = h2_series.nearest(0.35)
        c, states, theta0 = build_twolocal(), basis("00", "01", "10"), seeded_theta(16)
        cfg = SsqiteConfig()
        result = run(h, c, states, cfg, theta0=theta0)
        theta, rows, events = reference_schedule(h, c, states, cfg, theta0)
        energies, speeds, dtau = (np.array(column) for column in zip(*rows))
        assert result.iterations == len(rows) == 262
        np.testing.assert_array_equal(result.theta, theta)
        np.testing.assert_array_equal(result.history.energies, energies)
        np.testing.assert_array_equal(result.history.grads, speeds)
        np.testing.assert_array_equal(result.history.dtau, dtau)
        assert events == [(231, "double", 0), (248, "halve"),
                          (261, "double", 1), (261, "double", 2)]
        np.testing.assert_array_equal(result.converged, [True, True, True])


class TestBackOffFloor:
    def test_no_step_below_initial_schedule(self, lih_series):
        # LiH at R = 1.4 with b = 0.7: levels 0 and 1 converge and double
        # the steps at iterations 87 and 109, and from 133 on level 0's
        # speed grows and the back-off fires on every iteration.  Halving
        # without a floor drove dtau to 3e-16 and the run to max_iters; the
        # floor holds it at the initial schedule until level 2 converges.
        _, h = lih_series.nearest(1.4)
        cfg = SsqiteConfig(b=0.7)
        result = run(h, build_excitation_preserving(), basis("010", "001", "100"), cfg,
                     theta0=seeded_theta(16))
        floor = init_schedule(3, cfg.b)
        dtau = result.history.dtau
        assert (dtau >= floor).all()
        assert (dtau[134:279] == floor).all() and (dtau[133] > floor).any()
        assert result.converged.all()


class TestReduction:
    # Both loops assemble on the same one-input frame: for LiH that is the
    # 3-dimensional one-excitation sector, not all 8 amplitudes.
    @pytest.mark.parametrize(
        "series, build, label, bond",
        [pytest.param("h2_series", build_twolocal, "00", 0.95, id="h2"),
         pytest.param("lih_series", build_excitation_preserving, "010", 1.6, id="lih")],
    )
    def test_k1_trace_matches_run_qite_bitwise(self, request, series, build, label, bond):
        _, h = request.getfixturevalue(series).nearest(bond)
        c = build()
        theta0 = seeded_theta(16)
        s0 = Statevector.from_label(label)
        cfg = SsqiteConfig(grad_tol=0.0, max_iters=40)

        with pytest.raises(MaxItersExceeded) as qite_exc:
            run_qite(h, c, s0, cfg, theta0=theta0)
        with pytest.raises(MaxItersExceeded) as ss_exc:
            run(h, c, [s0], cfg, theta0=theta0)

        qite_trace = qite_exc.value.result.energies[:cfg.max_iters]
        ss_trace = ss_exc.value.result.history.energies[:, 0]
        np.testing.assert_array_equal(qite_trace, ss_trace)

    # Converging runs from one default config: the same stopping rule
    # (patience steps below grad_tol) ends both loops on the same iteration.
    @pytest.mark.parametrize(
        "series, build, label, bond, iterations",
        [pytest.param("h2_series", build_twolocal, "00", bond, n, id=f"h2-{bond}")
         for bond, n in [(0.35, 21), (0.95, 19), (1.75, 83), (2.25, 206)]]
        + [pytest.param("lih_series", build_excitation_preserving, "010", bond, n,
                        id=f"lih-{bond}") for bond, n in [(1.6, 53), (2.25, 30)]],
    )
    def test_k1_converged_run_matches_run_qite(self, request, series, build, label, bond,
                                               iterations):
        _, h = request.getfixturevalue(series).nearest(bond)
        c, s0, cfg = build(), Statevector.from_label(label), SsqiteConfig()
        qite = run_qite(h, c, s0, cfg, theta0=seeded_theta(16))
        result = run(h, c, [s0], cfg, theta0=seeded_theta(16))
        assert len(qite.energies) == result.iterations == iterations
        np.testing.assert_array_equal(qite.energies, result.history.energies[:, 0])


class TestBatchedIteration:
    """The one-sweep iteration against k separate single-state assemblies."""

    def test_matches_separate_assembly(self, h2_series):
        _, h = h2_series.nearest(1.75)
        c = build_twolocal()
        cfg = SsqiteConfig()
        states = basis("00", "01", "10")
        state = SubspaceRun.start(h, c, states, cfg, theta0=seeded_theta(16))
        theta = np.array(state.theta)
        dtau = state.dtau.copy()
        frames = [_Frame.of(h, c, [s]) for s in states]
        for _ in range(5):
            systems = [assemble(frame, theta) for frame in frames]
            dots = [solve(sys)[0] for sys in systems]
            state = iteration(state)
            assert not state.converged.any()  # no dtau change in these steps
            for step, dot in zip(dtau, dots):
                theta = theta + step * dot
            np.testing.assert_allclose(state.theta, theta, rtol=0, atol=1e-12)
            history = state.history
            for l, (sys, dot) in enumerate(zip(systems, dots)):
                assert abs(history.energies[-1, l] - sys.energy[0]) <= 1e-12
                assert abs(history.grads[-1, l] - np.max(np.abs(dot))) <= 1e-12
            for got, s in zip(_finalize(state).final_states, states):
                np.testing.assert_allclose(got.amps, apply(c, theta, s).amps, atol=1e-12)

    def test_batched_systems_match_single(self, rng):
        # A k-column frame gives the systems of k one-column frames.
        c = build_excitation_preserving()
        h = PauliSum.from_terms([(0.3, "ZZI"), (-0.7, "XXI"), (0.2, "IYY"), (0.1, "ZIZ")])
        theta = rng.uniform(-np.pi, np.pi, 16)
        states = basis("010", "001", "100")
        batch = assemble(_Frame.of(h, c, states), theta)
        for l, s in enumerate(states):
            single = assemble(_Frame.of(h, c, [s]), theta)
            np.testing.assert_allclose(batch.a[l], single.a[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(batch.c[l], single.c[0], rtol=0, atol=1e-12)
            assert abs(batch.energy[l] - single.energy[0]) <= 1e-12


class TestInvariantFrame:
    """LiH runs assemble on the 3-dimensional one-excitation sector."""

    @staticmethod
    def full_space(monkeypatch):
        from ssqite import qite_engine

        monkeypatch.setattr(qite_engine, "invariant_basis", complete_basis)

    def test_restricted_matches_full_space(self, lih_series, monkeypatch):
        # The same systems in 3 and 8 amplitudes differ by rounding, which
        # the pseudo-solve amplifies by up to 1 / 3.3e-5 (the smallest kept
        # eigenvalue ratio over the LiH series): theta and the speeds agree
        # to 1e-11 over these 10 steps, the energies to 1e-14.
        _, h = lih_series.nearest(1.6)
        c = build_excitation_preserving()
        cfg = SsqiteConfig()
        states = basis("010", "001", "100")
        restricted = SubspaceRun.start(h, c, states, cfg, theta0=seeded_theta(16))
        self.full_space(monkeypatch)
        full = SubspaceRun.start(h, c, states, cfg, theta0=seeded_theta(16))
        assert restricted.frame.basis.shape == (8, 3) and full.frame.basis.shape == (8, 8)
        for _ in range(10):
            restricted = iteration(restricted)
            full = iteration(full)
            np.testing.assert_allclose(restricted.theta, full.theta, rtol=0, atol=1e-10)
            rec, ref = restricted.history, full.history
            np.testing.assert_allclose(rec.energies[-1], ref.energies[-1], rtol=0, atol=1e-12)
            np.testing.assert_allclose(rec.grads[-1], ref.grads[-1], rtol=0, atol=1e-10)
            np.testing.assert_array_equal(rec.dtau[-1], ref.dtau[-1])
        lifted, reference = _finalize(restricted), _finalize(full)
        for got, want in zip(lifted.final_states, reference.final_states):
            assert got.amps.shape == (8,)
            np.testing.assert_allclose(got.amps, want.amps, rtol=0, atol=1e-10)
        np.testing.assert_allclose(restricted.history.max_offdiag, full.history.max_offdiag,
                                   rtol=0, atol=1e-10)


class TestRun:
    def test_two_level_complete_spectrum(self):
        result = run(Z, single_ry(), basis("0", "1"), SsqiteConfig(), theta0=np.array([0.3]))
        np.testing.assert_allclose(result.energies, [-1.0, 1.0], atol=1e-6)
        assert result.ascending

    def test_degenerate_pair_zz(self):
        result = run(
            ZZ, build_twolocal(), basis("00", "01"), SsqiteConfig(),
            theta0=seeded_theta(16),
        )
        assert abs(result.energies[0] - result.energies[1]) < 1e-6
        np.testing.assert_allclose(result.energies, [-1.0, -1.0], atol=1e-5)
        assert result.ascending

    def test_h2_three_levels(self, h2_series):
        _, h = h2_series.nearest(0.95)
        exact = eigensolve(h)
        result = run(
            h, build_twolocal(), basis("00", "01", "10"), SsqiteConfig(),
            theta0=seeded_theta(16),
        )
        np.testing.assert_allclose(
            result.energies, exact.eigenvalues[:3], atol=1.6e-3
        )
        assert result.ascending
        assert np.all(result.converged)
        # traces reach every converged energy within 200 iterations
        traces = result.history.energies.T
        settled = np.all(
            np.abs(traces[:, :200] - exact.eigenvalues[:3, None]) < 1.6e-3, axis=0
        )
        assert settled.any()
        # and the exact-state overlaps confirm the level assignment
        assert np.all(np.diag(exact_overlaps(result, exact.eigenvectors)) > 0.999)

    @pytest.mark.parametrize(
        "series, build, labels, bond",
        [("h2_series", build_twolocal, ("00", "01", "10"), 0.95),
         ("lih_series", build_excitation_preserving, ("010", "001", "100"), 1.6)],
    )
    def test_final_readout_matches_full_space(self, request, series, build, labels, bond):
        # The final energies are read in the run's frame (the 3-dimensional
        # sector for LiH, the whole space for H2); they match the full-space
        # formula on the lifted states, which hold the exact eigenstates.
        _, h = request.getfixturevalue(series).nearest(bond)
        exact = eigensolve(h).eigenvectors[:, :3]
        c, states = build(), basis(*labels)
        result = run(h, c, states, SsqiteConfig(), theta0=seeded_theta(16))
        amps = np.column_stack([s.amps for s in result.final_states])
        energies = np.real(np.sum(amps.conj() * (h.dense @ amps), axis=0))
        np.testing.assert_allclose(result.energies, energies, rtol=0, atol=1e-13)
        assert np.all(np.diag(exact_overlaps(result, exact)) > 0.999)
        for got, s in zip(result.final_states, states):
            np.testing.assert_allclose(got.amps, apply(c, result.theta, s).amps,
                                       rtol=0, atol=1e-12)

    def test_max_iters_carries_partial_result(self, h2_series):
        _, h = h2_series.nearest(0.95)
        cfg = SsqiteConfig(max_iters=5)
        with pytest.raises(MaxItersExceeded) as exc:
            run(h, build_twolocal(), basis("00", "01", "10"), cfg, theta0=seeded_theta(16))
        partial = exc.value.result
        assert partial.iterations == 5
        assert partial.history.energies.shape == (5, 3)
        assert not np.all(partial.converged)

    def test_record_overlaps_track_every_iteration(self, h2_series):
        _, h = h2_series.nearest(0.95)
        result = run(
            h, build_twolocal(), basis("00", "01", "10"), SsqiteConfig(),
            theta0=seeded_theta(16),
        )
        history = result.history
        assert len(history.max_offdiag) == result.iterations
        assert np.all(history.max_offdiag < 1e-10)
        offdiag = history.max_offdiag.tolist()
        assert len(set(offdiag)) > len(offdiag) // 2  # the overlaps move


class TestOrthoReport:
    def test_orthogonal_levels_clean(self):
        result = run(Z, single_ry(), basis("0", "1"), SsqiteConfig(), theta0=np.array([0.3]))
        first, second = result.final_states
        assert abs(np.vdot(first.amps, second.amps)) < 1e-12
        assert np.all(result.history.max_offdiag < 1e-12)


class TestRecordStream:
    """One derivative sweep per iteration."""

    def test_one_derivative_sweep_per_iteration(self, h2_series, monkeypatch):
        from ssqite import qite_engine, subspace

        calls = {"derivative_stack": 0, "apply": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(qite_engine, "derivative_stack")
        counted(subspace, "apply")
        _, h = h2_series.nearest(0.95)
        cfg = SsqiteConfig(max_iters=25)
        with pytest.raises(MaxItersExceeded) as exc:
            run(h, build_twolocal(), basis("00", "01", "10"), cfg, theta0=seeded_theta(16))
        partial = exc.value.result
        assert partial.iterations == 25
        assert calls["derivative_stack"] == partial.iterations
        assert calls["apply"] <= 1
        assert len(partial.final_states) == 3


class TestColumnarLog:
    """The run's log against what each iteration measured and a per-iteration monitor.

    H2 at R = 0.95 runs 267 iterations, longer than the log's first buffers,
    so the rows written before and after every growth are both checked.
    """

    @staticmethod
    def report(phi):
        # The monitor as it ran inside the loop: one k x k Gram per iteration.
        amps = complex_form(phi.T)
        pairwise = np.abs(amps.conj().T @ amps)
        return float((pairwise - np.diag(pairwise.diagonal())).max())

    @pytest.fixture(scope="class")
    def problem(self, h2_series):
        _, h = h2_series.nearest(0.95)
        return h, build_twolocal(), basis("00", "01", "10")

    @pytest.fixture(scope="class")
    def full(self, problem):
        h, c, states = problem
        return run(h, c, states, SsqiteConfig(), theta0=seeded_theta(16))

    def test_rows_are_what_each_iteration_measured(self, problem, monkeypatch):
        from ssqite import subspace

        h, c, states = problem
        systems, dots = [], []

        def recorded(record, fn):
            def wrapper(*args):
                out = fn(*args)
                record.append(out)
                return out
            return wrapper

        monkeypatch.setattr(subspace, "assemble", recorded(systems, subspace.assemble))
        monkeypatch.setattr(subspace, "solve", recorded(dots, subspace.solve))
        result = run(h, c, states, SsqiteConfig(), theta0=seeded_theta(16))
        fresh = SubspaceRun.start(h, c, states, SsqiteConfig())
        history = result.history
        assert result.iterations == len(history) == len(systems) == 267
        assert len(history) > len(fresh.log.phi)
        np.testing.assert_array_equal(history.energies, [sys.energy for sys in systems])
        np.testing.assert_array_equal(history.phi, [sys.phi for sys in systems])
        np.testing.assert_array_equal(history.grads, np.abs(dots).max(axis=2))
        assert history.dtau.shape == (267, 3)

    def test_batched_overlaps_match_per_iteration_report(self, full):
        offdiag = full.history.max_offdiag
        assert offdiag.shape == (267,)
        for i, phi in enumerate(full.history.phi):
            assert offdiag[i] == self.report(phi)

    def test_partial_result_has_max_iters_rows(self, problem, full):
        h, c, states = problem
        with pytest.raises(MaxItersExceeded) as exc:
            run(h, c, states, SsqiteConfig(max_iters=100), theta0=seeded_theta(16))
        partial = exc.value.result.history
        assert len(partial) == exc.value.result.iterations == 100
        for name in ("energies", "grads", "dtau", "phi", "max_offdiag"):
            np.testing.assert_array_equal(getattr(partial, name),
                                          getattr(full.history, name)[:100])

    def test_history_is_read_only(self, problem):
        h, c, states = problem
        state = iteration(SubspaceRun.start(h, c, states, SsqiteConfig(), theta0=seeded_theta(16)))
        with pytest.raises(ValueError):
            state.history.grads[-1] = 0.0
        assert state.log.grads.flags.writeable


class TestMetamorphic:
    """Exact invariances of the McLachlan flow, checked on whole runs.

    H2 at R = 0.95 from the CLI's seed-11 start runs 267 iterations.  Each
    transformed problem must retrace that run: a rounding change in the
    kernel that moves a trajectory shows up here, with no exact solver.
    """

    LABELS = ("00", "01", "10")

    @pytest.fixture(scope="class")
    def problem(self, h2_series):
        _, h = h2_series.nearest(0.95)
        return h, build_twolocal(), seeded_theta(16)

    @pytest.fixture(scope="class")
    def base(self, problem):
        h, c, theta0 = problem
        return run(h, c, basis(*self.LABELS), SsqiteConfig(), theta0=theta0)

    @staticmethod
    def energies(result):
        return result.history.energies

    def test_energy_shift(self, problem, base):
        # Re<d phi|phi> = 0, so H + 5 I leaves C and every theta_dot unchanged.
        h, c, theta0 = problem
        shifted = PauliSum.from_terms(list(h.terms) + [(5.0, "II")])
        got = run(shifted, c, basis(*self.LABELS), SsqiteConfig(), theta0=theta0)
        assert got.iterations == base.iterations
        np.testing.assert_allclose(self.energies(got) - 5.0, self.energies(base),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.theta, base.theta, rtol=0, atol=1e-10)

    def test_scale_by_two(self, problem, base):
        # 2H doubles C and theta_dot exactly; b / 2 and 2 grad_tol undo both,
        # and powers of two scale without rounding.
        h, c, theta0 = problem
        doubled = PauliSum.from_terms([(2.0 * coeff, s) for coeff, s in h.terms])
        cfg = SsqiteConfig(b=SsqiteConfig.b / 2, grad_tol=2 * SsqiteConfig.grad_tol)
        got = run(doubled, c, basis(*self.LABELS), cfg, theta0=theta0)
        np.testing.assert_array_equal(got.theta, base.theta)
        np.testing.assert_array_equal(self.energies(got), 2.0 * self.energies(base))
        np.testing.assert_array_equal(got.history.dtau, np.multiply(base.history.dtau, 0.5))

    def test_input_phases(self, problem, base):
        # A global phase on each input leaves every level's A, C and energy
        # unchanged; only the rounding of the sweep moves.
        h, c, theta0 = problem
        states = [Statevector(amps=np.exp(1j * alpha) * s.amps, n=s.n)
                  for alpha, s in zip((0.3, 1.7, -2.2), basis(*self.LABELS))]
        got = run(h, c, states, SsqiteConfig(), theta0=theta0)
        assert got.iterations == base.iterations
        np.testing.assert_allclose(self.energies(got), self.energies(base),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.theta, base.theta, rtol=0, atol=1e-10)

"""Subspace scheduling, joint iteration, convergence doubling, orthogonality."""

import numpy as np
import pytest

from ssqite.errors import MaxItersExceeded, MaxStepsExceeded, NonDecreasingWeights
from ssqite.exact_oracle import eigensolve
from ssqite.pauli_algebra import PauliSum
from ssqite.qite_engine import QiteConfig, assemble, run_qite, solve
from ssqite.simulator import (
    Circuit,
    Gate,
    Statevector,
    apply,
    build_excitation_preserving,
    build_twolocal,
    real_form,
)
from ssqite.subspace import (
    SsqiteConfig,
    SsvqeWeights,
    SubspaceRun,
    init_schedule,
    iteration,
    ortho_report,
    run,
    ssvqe_loss,
)

Z = PauliSum.from_terms([(1.0, "Z")])
ZZ = PauliSum.from_terms([(1.0, "ZZ")])


def single_ry():
    return Circuit(n=1, gates=(Gate("RY", (0,), 0),), num_params=1)


def basis(*labels):
    return [Statevector.from_label(l) for l in labels]


def seeded_theta(num_params, seed=11, scale=0.1):
    return np.random.default_rng(seed).normal(0, scale, num_params)


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
        with pytest.raises(ValueError):
            init_schedule(0, 1.0)
        with pytest.raises(ValueError):
            init_schedule(3, -1.0)


class TestConfig:
    def test_negative_regularization_rejected(self):
        with pytest.raises(ValueError):
            SsqiteConfig(regularization=-1e-6)
        SsqiteConfig(regularization=0.0)

    @pytest.mark.parametrize("key", ["b", "grad_tol", "ortho_tol", "regularization"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, key, value):
        with pytest.raises(ValueError):
            SsqiteConfig(**{key: value})


class TestWeights:
    def test_strictly_decreasing_ok(self):
        SsvqeWeights(omega=np.array([3.0, 2.0, 1.0]))

    def test_non_decreasing_rejected(self):
        with pytest.raises(NonDecreasingWeights):
            SsvqeWeights(omega=np.array([1.0, 1.0]))

    def test_negative_rejected(self):
        with pytest.raises(NonDecreasingWeights):
            SsvqeWeights(omega=np.array([1.0, -2.0]))


class TestSsvqeLoss:
    def test_single_level_equals_expectation(self):
        c = single_ry()
        theta = np.array([0.7])
        from ssqite.simulator import apply, expectation

        loss = ssvqe_loss(Z, c, theta, basis("0"), SsvqeWeights(omega=np.array([1.0])))
        assert loss == pytest.approx(expectation(Z, apply(c, theta, basis("0")[0])))

    def test_eigenbasis_identity_circuit(self):
        # No gates: the loss is the weighted sum of the eigenvalues directly.
        c = Circuit(n=1, gates=(), num_params=0)
        w = SsvqeWeights(omega=np.array([2.0, 1.0]))
        loss = ssvqe_loss(Z, c, np.zeros(0), basis("1", "0"), w)
        assert loss == pytest.approx(2.0 * (-1.0) + 1.0 * (+1.0))

    def test_weight_count_checked(self):
        c = single_ry()
        with pytest.raises(NonDecreasingWeights):
            ssvqe_loss(Z, c, [0.1], basis("0", "1"), SsvqeWeights(omega=np.array([1.0])))

    def test_loss_decreases_along_trajectory(self, h2_series):
        # Logged diagnostic only; the flow does not optimize this functional.
        _, h = h2_series.nearest(0.95)
        c = build_twolocal()
        states = basis("00", "01", "10")
        cfg = SsqiteConfig(max_iters=300)
        w = SsvqeWeights(omega=np.array([3.0, 2.0, 1.0]))
        state = SubspaceRun.start(h, c, states, cfg, theta0=seeded_theta(16))
        losses = [ssvqe_loss(h, c, state.theta, states, w)]
        for _ in range(150):
            state = iteration(state)
            losses.append(ssvqe_loss(h, c, state.theta, states, w))
        print(
            f"ssvqe loss along trajectory: start {losses[0]:.6f}, "
            f"min {min(losses):.6f}, end {losses[-1]:.6f}"
        )
        assert np.all(np.isfinite(losses))


class TestIteration:
    def test_orthonormal_inputs_required(self):
        skewed = Statevector(amps=np.array([1, 1, 0, 0]) / np.sqrt(2), n=2)
        with pytest.raises(ValueError):
            SubspaceRun.start(ZZ, build_twolocal(), [basis("00")[0], skewed], SsqiteConfig())

    def test_shared_mode_keeps_orthogonality(self, h2_series):
        _, h = h2_series.nearest(0.95)
        c = build_twolocal()
        cfg = SsqiteConfig()
        state = SubspaceRun.start(h, c, basis("00", "01", "10"), cfg, theta0=seeded_theta(16))
        for _ in range(50):
            state = iteration(state)
            report = ortho_report(state)
            assert report.max_offdiag < 1e-10

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
                recs = [r for r in state.records if r.iteration == flip]
                assert recs[1].dtau == 2.0 * prev_dtau[1]
                assert recs[2].dtau == 2.0 * prev_dtau[2]
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


class TestReduction:
    def test_k1_trace_matches_run_qite_bitwise(self, h2_series):
        _, h = h2_series.nearest(0.95)
        c = build_twolocal()
        theta0 = seeded_theta(16)
        s0 = Statevector.from_label("00")
        steps = 40

        qcfg = QiteConfig(
            dtau=0.55, integrator="euler", grad_tol=0.0, max_steps=steps,
            regularization=0.0,
        )
        with pytest.raises(MaxStepsExceeded) as qite_exc:
            run_qite(c, theta0, h, s0, qcfg)

        scfg = SsqiteConfig(b=0.55, grad_tol=0.0, max_iters=steps, regularization=0.0)
        with pytest.raises(MaxItersExceeded) as ss_exc:
            run(h, c, [s0], scfg, theta0=theta0)

        qite_trace = qite_exc.value.energies[:steps]
        ss_trace = np.array(ss_exc.value.result.traces[0])
        np.testing.assert_array_equal(qite_trace, ss_trace)


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
        for _ in range(5):
            systems = [assemble(c, theta, h, s) for s in states]
            dots = [solve(sys, cfg.regularization) for sys in systems]
            state = iteration(state)
            assert not state.converged.any()  # no dtau change in these steps
            for step, dot in zip(dtau, dots):
                theta = theta + step * dot
            np.testing.assert_allclose(state.theta, theta, rtol=0, atol=1e-12)
            recs = state.records[-3:]
            for rec, sys, dot in zip(recs, systems, dots):
                assert abs(rec.energy - sys.energy) <= 1e-12
                assert abs(rec.grad_inf - np.max(np.abs(dot))) <= 1e-12
            for l, s in enumerate(states):
                np.testing.assert_allclose(
                    state.states[l].amps, apply(c, theta, s).amps, atol=1e-12
                )

    def test_batched_systems_match_single(self, rng):
        c = build_excitation_preserving()
        h = PauliSum.from_terms([(0.3, "ZZI"), (-0.7, "XXI"), (0.2, "IYY"), (0.1, "ZIZ")])
        theta = rng.uniform(-np.pi, np.pi, 16)
        states = basis("010", "001", "100")
        batch = assemble(c, theta, h, real_form(np.column_stack([s.amps for s in states])))
        for l, s in enumerate(states):
            single = assemble(c, theta, h, s)
            np.testing.assert_allclose(batch.a[l], single.a, rtol=0, atol=1e-12)
            np.testing.assert_allclose(batch.c[l], single.c, rtol=0, atol=1e-12)
            assert abs(batch.energy[l] - single.energy) <= 1e-12


class TestInvariantFrame:
    """LiH runs assemble on the 3-dimensional one-excitation sector."""

    @staticmethod
    def full_space(monkeypatch):
        from ssqite import subspace

        monkeypatch.setattr(subspace, "invariant_basis", lambda c, amps: np.eye(2 ** c.n))

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
        assert restricted.frame.basis.shape == (8, 3) and full.frame.basis is None
        for _ in range(10):
            restricted = iteration(restricted)
            full = iteration(full)
            np.testing.assert_allclose(restricted.theta, full.theta, rtol=0, atol=1e-10)
            rec, ref = restricted.history[-1], full.history[-1]
            np.testing.assert_allclose(rec.energies, ref.energies, rtol=0, atol=1e-12)
            np.testing.assert_allclose(rec.grads, ref.grads, rtol=0, atol=1e-10)
            assert rec.dtau == ref.dtau
        for got, want in zip(restricted.states, full.states):
            assert got.amps.shape == (8,)
            np.testing.assert_allclose(got.amps, want.amps, rtol=0, atol=1e-10)
        np.testing.assert_allclose(ortho_report(restricted).pairwise,
                                   ortho_report(full).pairwise, rtol=0, atol=1e-10)


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
            theta0=seeded_theta(16), exact_states=exact.eigenvectors[:, :3],
        )
        np.testing.assert_allclose(
            result.energies, exact.eigenvalues[:3], atol=1.6e-3
        )
        assert result.ascending
        assert np.all(result.converged)
        # traces reach every converged energy within 200 iterations
        traces = np.array(result.traces)
        settled = np.all(
            np.abs(traces[:, :200] - exact.eigenvalues[:3, None]) < 1.6e-3, axis=0
        )
        assert settled.any()
        # and the exact-state overlaps confirm the level assignment
        assert np.all(np.diag(result.ortho.exact) > 0.999)

    @pytest.mark.parametrize(
        "series, build, labels, bond",
        [("h2_series", build_twolocal, ("00", "01", "10"), 0.95),
         ("lih_series", build_excitation_preserving, ("010", "001", "100"), 1.6)],
    )
    def test_final_readout_matches_full_space(self, request, series, build, labels, bond):
        # The final energies and overlaps are read in the run's frame (the
        # 3-dimensional sector for LiH, the whole space for H2); they match
        # the full-space formulas on the lifted states.
        _, h = request.getfixturevalue(series).nearest(bond)
        exact = eigensolve(h).eigenvectors[:, :3]
        c, states = build(), basis(*labels)
        result = run(h, c, states, SsqiteConfig(), theta0=seeded_theta(16),
                     exact_states=exact)
        amps = np.column_stack([s.amps for s in result.final_states])
        energies = np.real(np.sum(amps.conj() * (h.dense @ amps), axis=0))
        np.testing.assert_allclose(result.energies, energies, rtol=0, atol=1e-13)
        np.testing.assert_allclose(result.ortho.exact, np.abs(exact.conj().T @ amps).T,
                                   rtol=0, atol=1e-12)
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
        assert len(partial.traces[0]) == 5
        assert not np.all(partial.converged)

    def test_ortho_history_tracks_every_iteration(self, h2_series):
        _, h = h2_series.nearest(0.95)
        exact = eigensolve(h)
        result = run(
            h, build_twolocal(), basis("00", "01", "10"), SsqiteConfig(),
            theta0=seeded_theta(16), exact_states=exact.eigenvectors[:, :3],
        )
        assert len(result.ortho_history) == result.iterations
        assert all(rep.exact is not None for rep in result.ortho_history)
        assert all(rep.max_offdiag < 1e-10 for rep in result.ortho_history)


class TestOrthoReport:
    def test_identical_levels_flagged(self):
        s = Statevector.from_label("00")
        report = ortho_report([s, s], tol=1e-8)
        assert report.pairwise[0, 1] == pytest.approx(1.0)
        assert report.flagged

    def test_orthogonal_levels_clean(self):
        report = ortho_report(basis("00", "01"))
        assert report.max_offdiag < 1e-12
        assert not report.flagged

    def test_exact_overlap_block_shape(self, h2_series):
        _, h = h2_series.nearest(0.95)
        exact = eigensolve(h)
        report = ortho_report(basis("00", "01"), exact_states=exact.eigenvectors[:, :3])
        assert report.exact.shape == (2, 3)
        assert np.all(report.exact <= 1 + 1e-10)


class TestRecordStream:
    """One derivative sweep per iteration, and views that agree on the iterate."""

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

    def test_views_describe_the_same_iterate(self, h2_series):
        _, h = h2_series.nearest(0.95)
        exact = eigensolve(h)
        result = run(
            h, build_twolocal(), basis("00", "01", "10"),
            SsqiteConfig(),
            theta0=seeded_theta(16), exact_states=exact.eigenvectors[:, :3],
        )
        history = result.ortho_history
        offdiag = [rep.max_offdiag for rep in history]
        assert len(set(offdiag)) > len(offdiag) // 2  # the overlaps move
        assert len(history) == len(result.traces[0]) == result.iterations
        rows = result.records
        assert len(rows) == 3 * result.iterations
        for rec in rows:
            i, l = rec.iteration, rec.level
            assert rec.ortho_max_offdiag == history[i].max_offdiag
            assert rec.energy == result.traces[l][i]
            assert history[i].exact is not None

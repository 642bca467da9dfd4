"""McLachlan system assembly, pseudo-solve, and Euler imaginary-time stepping."""

import numpy as np
import pytest

from conftest import complete_basis, random_hermitian
from ssqite.errors import DimensionMismatch, MaxStepsExceeded, SingularSystem
from ssqite.pauli_algebra import PauliSum, decompose_dense
from ssqite.qite_engine import (
    McLachlanSystem,
    QiteConfig,
    _Frame,
    _solve_stack,
    assemble,
    run_qite,
    solve,
)
from ssqite.simulator import (
    Circuit,
    Gate,
    Statevector,
    apply,
    build_excitation_preserving,
    build_twolocal,
    derivative_stack,
    expectation,
    real_form,
    real_matrix,
)


def single_ry():
    return Circuit(n=1, gates=(Gate("RY", (0,)),))


Z = PauliSum.from_terms([(1.0, "Z")])


def frame_of(h, c, s0):
    """The one-input frame of state ``s0``, as ``run_qite`` builds it."""
    return _Frame.of(h, c, s0.amps[:, None])


class TestAssemble:
    def test_single_ry_closed_form(self):
        sys = assemble(frame_of(Z, single_ry(), Statevector.zero(1)), [np.pi / 2])
        assert sys.a[0, 0, 0] == pytest.approx(0.25, abs=1e-12)
        assert sys.c[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert sys.energy[0] == pytest.approx(0.0, abs=1e-12)

    def test_gram_matrix_symmetric_psd(self, rng):
        c = build_twolocal()
        h = decompose_dense(random_hermitian(rng, 4))
        for _ in range(5):
            a = assemble(frame_of(h, c, Statevector.zero(2)), rng.uniform(-np.pi, np.pi, 16)).a[0]
            assert np.max(np.abs(a - a.T)) < 1e-10
            assert np.linalg.eigvalsh(a).min() > -1e-9

    def test_c_is_half_negative_gradient(self, rng):
        # C_i == -1/2 dE/dtheta_i, checked by central differences.
        c = build_twolocal()
        s0 = Statevector.zero(2)
        for _ in range(20):
            h = decompose_dense(random_hermitian(rng, 4))
            theta = rng.uniform(-np.pi, np.pi, 16)
            sys = assemble(frame_of(h, c, s0), theta)
            eps = 1e-6
            for i in rng.choice(16, size=4, replace=False):
                tp, tm = theta.copy(), theta.copy()
                tp[i] += eps
                tm[i] -= eps
                grad = (
                    expectation(h, apply(c, tp, s0)) - expectation(h, apply(c, tm, s0))
                ) / (2 * eps)
                assert sys.c[0, i] == pytest.approx(-0.5 * grad, abs=1e-8)

    def test_energy_shift_leaves_velocity_unchanged(self, rng):
        # Subtracting E*I from H shifts nothing for a unitary ansatz: the
        # velocity direction is identical because Re<d_i phi|phi> vanishes.
        c = build_twolocal()
        theta = rng.uniform(-np.pi, np.pi, 16)
        s0 = Statevector.zero(2)
        h = decompose_dense(random_hermitian(rng, 4))
        plain = assemble(frame_of(h, c, s0), theta)
        shifted_terms = list(h.terms) + [(-plain.energy[0], "I" * 2)]
        h_shifted = PauliSum.from_terms(shifted_terms)
        shifted = assemble(frame_of(h_shifted, c, s0), theta)
        np.testing.assert_allclose(shifted.c, plain.c, atol=1e-12)
        np.testing.assert_allclose(shifted.a, plain.a, atol=1e-12)
        assert shifted.energy[0] == pytest.approx(0.0, abs=1e-10)
        np.testing.assert_allclose(solve(shifted), solve(plain), atol=1e-10)

    @pytest.mark.parametrize("restricted", [False, True])
    @pytest.mark.parametrize(
        "series, build, labels",
        [("h2_series", build_twolocal, ("00", "01", "10")),
         ("lih_series", build_excitation_preserving, ("010", "001", "100"))],
    )
    def test_stack_is_real_factor_of_complex_derivatives(
        self, request, rng, monkeypatch, series, build, labels, restricted
    ):
        # The sweep writes t as the C-contiguous (k, P, 2d) stack of
        # [Re D | Im D]; w, the energies and phi follow the complex formulas,
        # in the coordinates of the frame's basis Q: the invariant subspace
        # when restricted, else a basis of the whole space that starts with
        # the inputs.
        from ssqite import qite_engine

        if not restricted:
            monkeypatch.setattr(qite_engine, "invariant_basis", complete_basis)
        c = build()
        states = [Statevector.from_label(l) for l in labels]
        amps = np.column_stack([s.amps for s in states])
        _, h = request.getfixturevalue(series).points[3]
        frame = _Frame.of(h, c, amps)
        q = frame.basis
        if not restricted:
            assert q.shape == (len(amps), len(amps))
        qh = q.conj().T
        for _ in range(3):
            theta = rng.uniform(-np.pi, np.pi, c.num_params)
            system = assemble(frame, theta)
            assert system.t.shape == (len(states), c.num_params, 2 * q.shape[1])
            assert system.t.flags.c_contiguous and system.w.flags.c_contiguous
            for l, s in enumerate(states):
                phi, stack = derivative_stack(c, theta, s)
                rows = stack @ q.conj()  # row i is (Q^H d_i phi)^T
                np.testing.assert_allclose(system.t[l], np.hstack((rows.real, rows.imag)),
                                           rtol=0, atol=1e-12)
                h_phi = qh @ (h.dense @ phi.amps)
                np.testing.assert_allclose(system.w[l], -real_form(h_phi), rtol=0, atol=1e-12)
                np.testing.assert_allclose(system.phi[l], real_form(qh @ phi.amps),
                                           rtol=0, atol=1e-12)
                assert abs(system.energy[l] - expectation(h, phi)) <= 1e-12


def general_assemble(frame, h, theta):
    """``assemble`` by the public batch path, with no fact of the frame used.

    The frame's inputs, given as a (2r, k) batch, are contracted with the
    sweep of all 2r coordinate vectors, and w is -(rows @ h_r^T) for h_r the
    real form of Q^H H Q, rebuilt from ``h``.
    """
    batch = np.eye(2 * frame.plan.dim)[:, :frame.k]
    phi, t = derivative_stack(frame.plan, theta, batch)
    hq = frame.basis.conj().T @ h.dense @ frame.basis
    rows = phi.T
    w = -(rows @ real_matrix(hq).T)
    return t, w, -(rows * w).sum(axis=1), rows


def basis_frame(h, c, labels):
    return _Frame.of(h, c, np.column_stack([Statevector.from_label(l).amps for l in labels]))


class TestPlanFacts:
    """Each shortcut the frame takes gives the public batch path's bits.

    The frame's basis starts with its inputs, so a sweep reads them as the
    first k coordinate vectors, and w takes one product with the stored -h^T.
    """

    @staticmethod
    def assert_same_bits(frame, h, rng, count=5):
        for _ in range(count):
            theta = rng.uniform(-np.pi, np.pi, frame.plan.num_params)
            system = assemble(frame, theta)
            for got, want in zip((system.t, system.w, system.energy, system.phi),
                                 general_assemble(frame, h, theta)):
                np.testing.assert_array_equal(got, want)
            assert system.t.flags.c_contiguous

    @staticmethod
    def inputs(labels):
        return np.column_stack([Statevector.from_label(l).amps for l in labels])

    @pytest.mark.parametrize(
        "series, build, labels",
        [("h2_series", build_twolocal, ("00", "01", "10")),
         ("lih_series", build_excitation_preserving, ("010", "001", "100"))],
    )
    def test_shipped_frames_take_both_shortcuts(self, request, rng, series, build, labels):
        _, h = request.getfixturevalue(series).points[3]
        frame = basis_frame(h, build(), labels)
        assert frame.k == 3
        np.testing.assert_array_equal(frame.basis[:, :3], self.inputs(labels))
        self.assert_same_bits(frame, h, rng)

    def test_inputs_not_leading(self, h2_series, rng):
        # |11> first: in the full space the inputs are coordinate vectors 3,
        # 0 and 1, and the frame's basis reorders the space so that they
        # come first.
        _, h = h2_series.points[3]
        labels = ("11", "00", "01")
        frame = basis_frame(h, build_twolocal(), labels)
        assert frame.basis.shape == (4, 4)
        np.testing.assert_array_equal(frame.basis[:, :3], self.inputs(labels))
        self.assert_same_bits(frame, h, rng)

    def test_other_batches_take_the_general_path(self, lih_series, rng):
        # apply and derivative_stack give the same results for the first k
        # coordinate vectors named by their count and given as a batch.
        _, h = lih_series.points[3]
        frame = basis_frame(h, build_excitation_preserving(), ("010", "001", "100"))
        theta = rng.uniform(-np.pi, np.pi, frame.plan.num_params)
        batch = np.eye(2 * frame.plan.dim)[:, :frame.k]
        np.testing.assert_array_equal(apply(frame.plan, theta, frame.k),
                                      apply(frame.plan, theta, batch))
        for got, want in zip(derivative_stack(frame.plan, theta, frame.k),
                             derivative_stack(frame.plan, theta, batch)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("batch", [None, np.zeros((3, 1))])
    def test_unbound_plan_still_checks_the_batch(self, batch):
        c = build_twolocal()
        with pytest.raises(DimensionMismatch):
            apply(c.dense, np.zeros(16), batch)

    @pytest.mark.parametrize("k", [0, -1, 4, 6])
    def test_input_count_checked(self, lih_series, k):
        # An int names the plan's first k coordinate vectors, 1 <= k <= d:
        # 3 on the restricted LiH plan.
        _, h = lih_series.points[3]
        frame = basis_frame(h, build_excitation_preserving(), ("010", "001", "100"))
        with pytest.raises(DimensionMismatch):
            apply(frame.plan, np.zeros(16), k)
        with pytest.raises(DimensionMismatch):
            derivative_stack(frame.plan, np.zeros(16), k)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            QiteConfig(dtau=0.0)
        with pytest.raises(ValueError):
            QiteConfig(max_steps=0)
        with pytest.raises(ValueError):
            QiteConfig(grad_tol=-1.0)
        QiteConfig(grad_tol=0.0)

    @pytest.mark.parametrize("key", ["dtau", "grad_tol"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, key, value):
        with pytest.raises(ValueError):
            QiteConfig(**{key: value})

    # Only constructed, never run.
    @pytest.mark.parametrize("value", [np.nan, np.inf, 2.5, 3.0])
    def test_non_integer_max_steps_rejected(self, value):
        with pytest.raises(ValueError):
            QiteConfig(max_steps=value)


class TestSolve:
    def test_scalar_division(self):
        x = _solve_stack(np.array([[[0.25]]]), np.array([[0.5]]))[0]
        assert x[0] == pytest.approx(2.0, abs=1e-12)

    def test_stationary_zero_system(self):
        x = _solve_stack(np.zeros((1, 1, 1)), np.zeros((1, 1)))[0]
        assert x[0] == pytest.approx(0.0)

    def test_spd_residual(self, rng):
        for _ in range(5):
            m = rng.normal(size=(8, 8))
            a = m @ m.T + 0.5 * np.eye(8)
            cvec = rng.normal(size=8)
            x = _solve_stack(a[None], cvec[None])[0]
            assert np.linalg.norm(a @ x - cvec) < 1e-9

    def test_singular_truncated(self):
        # Rank-1 A with C in range: pseudo-solve recovers the range component.
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        x = _solve_stack(a[None], np.array([[2.0, 0.0]]))[0]
        np.testing.assert_allclose(x, [2.0, 0.0], atol=1e-10)

    @pytest.mark.parametrize(
        "series, build, labels",
        [("h2_series", build_twolocal, ("00", "01", "10")),
         ("lih_series", build_excitation_preserving, ("010", "001", "100"))],
    )
    def test_stack_matches_lstsq_on_rank_deficient_systems(
        self, request, rng, series, build, labels
    ):
        # Real McLachlan systems are singular (more slots than state
        # directions); the stacked pseudo-solve keeps lstsq's rcond cut.
        c = build()
        amps = np.column_stack([Statevector.from_label(l).amps for l in labels])
        for _, h in request.getfixturevalue(series).points[::3]:
            theta = rng.normal(0, 0.5, c.num_params)
            systems = assemble(_Frame.of(h, c, amps), theta)
            stacked = solve(systems)
            assert stacked.shape == (3, c.num_params)
            for a, cvec, t, w, phi, got in zip(systems.a, systems.c, systems.t, systems.w,
                                               systems.phi, stacked):
                assert np.linalg.matrix_rank(a, tol=1e-8) < c.num_params
                want, *_ = np.linalg.lstsq(a, cvec, rcond=1e-8)
                assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
                level = McLachlanSystem(t=t[None], w=w[None], energy=np.zeros(1), phi=phi[None])
                np.testing.assert_allclose(solve(level)[0], got, rtol=0, atol=1e-12)

    def test_cut_matches_lstsq_rcond(self, rng):
        # Eigenvalues on both sides of 1e-8 of the largest: 2e-8 is kept and
        # 5e-9 dropped, as lstsq's rcond = 1e-8 does with singular values.
        # C has an O(1) solution component along every eigenvector, so
        # keeping or dropping any one of them moves the result by O(1).
        # The systems are Grams, positive semidefinite up to a small
        # negative eigenvalue, which is dropped.
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        lams = np.array([[1.0, 2e-8, 5e-9, 0.0], [3.0, 1.0, 4e-8, -1e-8]])
        a = np.array([q @ np.diag(lam) @ q.T for lam in lams])
        cvecs = np.array([q @ (np.abs(lam) * rng.uniform(1, 2, 4)) for lam in lams])
        for a_l, c_l, got in zip(a, cvecs, _solve_stack(a, cvecs)):
            want, *_ = np.linalg.lstsq(a_l, c_l, rcond=1e-8)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)

    @pytest.mark.parametrize(
        "series, build, labels",
        [("h2_series", build_twolocal, ("00", "01", "10")),
         ("lih_series", build_excitation_preserving, ("010", "001", "100"))],
    )
    def test_psd_cut_gives_the_magnitude_cut_bits(self, request, rng, series, build, labels):
        # The cut read from the top of eigh's ascending spectrum gives the
        # bits of the cut on |lambda| against its max-reduce, on Grams t^T t
        # of real systems (rank-deficient: t's rows are orthogonal to phi),
        # on the same Grams with a zero system in the stack, and on an
        # all-zero stack.
        def magnitude_cut(a, c):
            lam, vec = np.linalg.eigh(a)
            mag = np.abs(lam)
            keep = mag > 1e-8 * np.maximum.reduce(mag, axis=1, keepdims=True)
            coef = (c[:, None, :] @ vec)[:, 0]
            coef = np.divide(coef, lam, out=np.zeros(coef.shape), where=keep)
            return (vec @ coef[:, :, None])[:, :, 0]

        c = build()
        frame = basis_frame(request.getfixturevalue(series).points[3][1], c, labels)
        for _ in range(5):
            system = assemble(frame, rng.uniform(-np.pi, np.pi, c.num_params))
            grams = system.t.transpose(0, 2, 1) @ system.t
            assert all(np.linalg.matrix_rank(g) < len(g) for g in grams)
            with_zero = grams.copy()
            with_zero[1] = 0.0
            for a in (grams, with_zero, np.zeros_like(grams)):
                np.testing.assert_array_equal(_solve_stack(a, system.w), magnitude_cut(a, system.w))

    @pytest.mark.parametrize(
        "series, build, labels",
        [("h2_series", build_twolocal, ("00", "01", "10")),
         ("lih_series", build_excitation_preserving, ("010", "001", "100"))],
    )
    def test_velocity_moves_the_states_by_the_whole_residual(
        self, request, series, build, labels
    ):
        # A reference-free check of assemble and solve.  On the shipped
        # frames the ansatz reaches every tangent direction, so the states'
        # change t^T theta_dot is all of w + E phi = -(H - E) phi, not just
        # its projection, per level to rounding (measured at most 3.3e-15
        # for H2 and 3.9e-13 for LiH).  Checked along the R = 2.0 run from
        # the CLI's start, at iterations 0, 50 and 400; at the first two the
        # energy variance |w + E phi|^2 is far from zero.
        from ssqite.subspace import SsqiteConfig, SubspaceRun, iteration

        _, h = request.getfixturevalue(series).nearest(2.0)
        states = [Statevector.from_label(l) for l in labels]
        run = SubspaceRun.start(h, build(), states, SsqiteConfig(),
                                theta0=np.random.default_rng(11).normal(0, 0.1, 16))
        for i in range(401):
            if i in (0, 50, 400):
                system = assemble(run.frame, run.theta)
                moved = np.einsum("lpi,lp->li", system.t, solve(system))
                residual = system.w + system.energy[:, None] * system.phi
                assert np.abs(moved - residual).max() <= 1e-10
                assert i == 400 or ((residual ** 2).sum(axis=1) > 1e-7).all()
            run = iteration(run)

    def test_non_finite_entry_in_one_system(self):
        w = np.ones((3, 2))
        w[1, 1] = np.nan  # one entry of the middle system's driving vector
        stack = McLachlanSystem(t=np.stack([np.eye(2)] * 3), w=w, energy=np.zeros(3),
                                phi=np.zeros((3, 2)))
        with pytest.raises(SingularSystem):
            solve(stack)

    def test_eigendecomposition_failure_is_singular(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        stack = McLachlanSystem(t=np.stack([np.eye(2)] * 2), w=np.ones((2, 2)),
                                energy=np.zeros(2), phi=np.zeros((2, 2)))
        with pytest.raises(SingularSystem):
            solve(stack)

    def test_stacked_cholesky_matches_single(self, rng):
        a, cvecs = [], []
        for _ in range(3):
            m = rng.normal(size=(6, 6))
            a.append(m @ m.T)
            cvecs.append(rng.normal(size=6))
        a, cvecs = np.array(a), np.array(cvecs)
        stacked = _solve_stack(a, cvecs)
        for l, got in enumerate(stacked):
            want = np.linalg.solve(a[l], cvecs[l])
            np.testing.assert_allclose(got, want, rtol=1e-9)
            single = _solve_stack(a[l:l + 1], cvecs[l:l + 1])[0]
            np.testing.assert_allclose(single, got, rtol=0, atol=1e-12)


class TestStep:
    """One Euler step: run_qite capped at one step, read from MaxStepsExceeded."""

    @staticmethod
    def one_step(theta, dtau):
        cfg = QiteConfig(dtau=dtau, max_steps=1, grad_tol=0.0)
        with pytest.raises(MaxStepsExceeded) as exc:
            run_qite(single_ry(), theta, Z, Statevector.zero(1), cfg)
        return exc.value.theta

    def test_euler_closed_form(self):
        new = self.one_step([np.pi / 2], 0.1)
        assert new[0] == pytest.approx(np.pi / 2 + 0.2, abs=1e-12)

    def test_small_step_energy_descent(self):
        dtau = 1e-3
        theta = np.array([1.1])
        s0 = Statevector.zero(1)
        e0 = expectation(Z, apply(single_ry(), theta, s0))
        new = self.one_step(theta, dtau)
        e1 = expectation(Z, apply(single_ry(), new, s0))
        theta_dot = 2 * np.sin(theta[0])
        c_entry = np.sin(theta[0]) / 2
        predicted = -2 * c_entry * theta_dot * dtau
        assert e1 < e0
        assert (e1 - e0) == pytest.approx(predicted, rel=1e-2)


class TestRunQite:
    def test_ground_state_of_z(self):
        cfg = QiteConfig(dtau=0.1, max_steps=500, grad_tol=1e-7)
        result = run_qite(single_ry(), [np.pi / 2], Z, Statevector.zero(1), cfg)
        assert result.energies[-1] == pytest.approx(-1.0, abs=1e-6)
        assert result.theta[0] == pytest.approx(np.pi, abs=1e-3)

    def test_stationary_start_converges_immediately(self):
        cfg = QiteConfig(dtau=0.1, grad_tol=1e-5)
        result = run_qite(single_ry(), [np.pi], Z, Statevector.zero(1), cfg)
        assert len(result.energies) == 1
        assert result.energies[0] == pytest.approx(-1.0, abs=1e-12)

    def test_h2_ground_state(self, h2_series, rng):
        _, h = h2_series.nearest(0.95)
        from ssqite.exact_oracle import eigensolve

        exact = eigensolve(h).eigenvalues[0]
        cfg = QiteConfig(dtau=0.15, max_steps=500, grad_tol=1e-5)
        theta0 = np.random.default_rng(11).normal(0, 0.1, 16)
        result = run_qite(build_twolocal(), theta0, h, Statevector.zero(2), cfg)
        assert result.energies[-1] == pytest.approx(exact, abs=1.6e-3)

    def test_state_width_checked(self):
        with pytest.raises(DimensionMismatch):
            run_qite(single_ry(), [0.1], Z, Statevector.zero(2), QiteConfig())

    def test_complex_theta0_rejected(self):
        # Refused, not cut to its real part with a ComplexWarning.
        with pytest.raises(TypeError):
            run_qite(single_ry(), np.array([0.1 + 0.5j]), Z, Statevector.zero(1), QiteConfig())

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_theta0_rejected(self, monkeypatch, value):
        # Refused before the first sweep, as SubspaceRun.start refuses it,
        # not a SingularSystem after one.
        from ssqite import qite_engine

        def no_sweep(*args):
            raise AssertionError("swept a non-finite theta0")

        monkeypatch.setattr(qite_engine, "derivative_stack", no_sweep)
        with pytest.raises(ValueError, match="theta0"):
            run_qite(build_twolocal(), np.full(16, value), PauliSum.from_terms([(1.0, "ZZ")]),
                     Statevector.zero(2), QiteConfig())

    def test_max_steps_carries_trace(self):
        cfg = QiteConfig(dtau=0.05, max_steps=5, grad_tol=0.0)
        with pytest.raises(MaxStepsExceeded) as exc:
            run_qite(single_ry(), [np.pi / 2], Z, Statevector.zero(1), cfg)
        assert len(exc.value.energies) == 6
        assert exc.value.theta.shape == (1,)

    def test_capped_run_reads_its_last_energy_from_one_apply(self, h2_series, monkeypatch):
        # One derivative sweep per step and one apply after the cap, whose
        # energy is the one a derivative sweep at the final theta reads.
        from ssqite import qite_engine

        _, h = h2_series.nearest(0.95)
        calls = {"derivative_stack": 0, "apply": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(qite_engine, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(qite_engine, name, counted)
        cfg = QiteConfig(dtau=0.05, max_steps=7, grad_tol=0.0)
        s0 = Statevector.zero(2)
        with pytest.raises(MaxStepsExceeded) as exc:
            run_qite(build_twolocal(), np.random.default_rng(11).normal(0, 0.1, 16), h, s0, cfg)
        assert calls == {"derivative_stack": 7, "apply": 1}
        final = assemble(frame_of(h, build_twolocal(), s0), exc.value.theta)
        assert exc.value.energies[-1] == final.energy[0]

    def test_energy_monotone_euler_small_steps(self, h2_series):
        _, h = h2_series.nearest(0.95)
        cfg = QiteConfig(dtau=0.05, max_steps=200, grad_tol=0.0)
        theta0 = np.random.default_rng(11).normal(0, 0.1, 16)
        with pytest.raises(MaxStepsExceeded) as exc:
            run_qite(build_twolocal(), theta0, h, Statevector.zero(2), cfg)
        energies = exc.value.energies
        assert np.all(np.diff(energies) <= 1e-9)

"""McLachlan system assembly, pseudo-solve, and Euler imaginary-time stepping."""

import numpy as np
import pytest

from conftest import random_hermitian
from ssqite.errors import MaxStepsExceeded, SingularSystem
from ssqite.pauli_algebra import PauliSum, decompose_dense
from ssqite.qite_engine import (
    McLachlanSystem,
    QiteConfig,
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
    invariant_basis,
    real_form,
    real_matrix,
)


def single_ry():
    return Circuit(n=1, gates=(Gate("RY", (0,), 0),), num_params=1)


Z = PauliSum.from_terms([(1.0, "Z")])


class TestAssemble:
    def test_single_ry_closed_form(self):
        sys = assemble(single_ry(), [np.pi / 2], Z, Statevector.zero(1))
        assert sys.a[0, 0] == pytest.approx(0.25, abs=1e-12)
        assert sys.c[0] == pytest.approx(0.5, abs=1e-12)
        assert sys.energy == pytest.approx(0.0, abs=1e-12)

    def test_gram_matrix_symmetric_psd(self, rng):
        c = build_twolocal()
        h = decompose_dense(random_hermitian(rng, 4))
        for _ in range(5):
            sys = assemble(c, rng.uniform(-np.pi, np.pi, 16), h, Statevector.zero(2))
            assert np.max(np.abs(sys.a - sys.a.T)) < 1e-10
            assert np.linalg.eigvalsh(sys.a).min() > -1e-9

    def test_c_is_half_negative_gradient(self, rng):
        # C_i == -1/2 dE/dtheta_i, checked by central differences.
        c = build_twolocal()
        s0 = Statevector.zero(2)
        for _ in range(20):
            h = decompose_dense(random_hermitian(rng, 4))
            theta = rng.uniform(-np.pi, np.pi, 16)
            sys = assemble(c, theta, h, s0)
            eps = 1e-6
            for i in rng.choice(16, size=4, replace=False):
                tp, tm = theta.copy(), theta.copy()
                tp[i] += eps
                tm[i] -= eps
                grad = (
                    expectation(h, apply(c, tp, s0)) - expectation(h, apply(c, tm, s0))
                ) / (2 * eps)
                assert sys.c[i] == pytest.approx(-0.5 * grad, abs=1e-8)

    def test_energy_shift_leaves_velocity_unchanged(self, rng):
        # Subtracting E*I from H shifts nothing for a unitary ansatz: the
        # velocity direction is identical because Re<d_i phi|phi> vanishes.
        c = build_twolocal()
        theta = rng.uniform(-np.pi, np.pi, 16)
        s0 = Statevector.zero(2)
        h = decompose_dense(random_hermitian(rng, 4))
        plain = assemble(c, theta, h, s0)
        shifted_terms = list(h.terms) + [(-plain.energy, "I" * 2)]
        h_shifted = PauliSum.from_terms(shifted_terms)
        shifted = assemble(c, theta, h_shifted, s0)
        np.testing.assert_allclose(shifted.c, plain.c, atol=1e-12)
        np.testing.assert_allclose(shifted.a, plain.a, atol=1e-12)
        assert shifted.energy == pytest.approx(0.0, abs=1e-10)
        np.testing.assert_allclose(solve(shifted), solve(plain), atol=1e-10)

    @pytest.mark.parametrize("restricted", [False, True])
    @pytest.mark.parametrize(
        "series, build, labels",
        [("h2_series", build_twolocal, ("00", "01", "10")),
         ("lih_series", build_excitation_preserving, ("010", "001", "100"))],
    )
    def test_stack_is_real_factor_of_complex_derivatives(
        self, request, rng, series, build, labels, restricted
    ):
        # The sweep writes t as the C-contiguous (k, P, 2d) stack of
        # [Re D | Im D]; w, the energies and phi follow the complex formulas,
        # in the coordinates of the invariant basis Q when restricted.
        c = build()
        states = [Statevector.from_label(l) for l in labels]
        amps = np.column_stack([s.amps for s in states])
        _, h = request.getfixturevalue(series).points[3]
        q = invariant_basis(c, amps) if restricted else np.eye(len(amps))
        qh = q.conj().T
        for _ in range(3):
            theta = rng.uniform(-np.pi, np.pi, c.num_params)
            if restricted:
                system = assemble(c.dense.restrict(q), theta,
                                  real_matrix(qh @ h.dense @ q), real_form(qh @ amps))
            else:
                system = assemble(c, theta, h, real_form(amps))
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
            systems = assemble(c, theta, h, real_form(amps))
            stacked = solve(systems)
            assert stacked.shape == (3, c.num_params)
            for a, cvec, t, w, got in zip(systems.a, systems.c, systems.t, systems.w, stacked):
                assert np.linalg.matrix_rank(a, tol=1e-8) < c.num_params
                want, *_ = np.linalg.lstsq(a, cvec, rcond=1e-8)
                assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
                level = McLachlanSystem(t=t, w=w, energy=0.0)
                np.testing.assert_allclose(solve(level), got, rtol=0, atol=1e-12)

    def test_cut_matches_lstsq_rcond(self, rng):
        # Eigenvalues on both sides of 1e-8 of the largest: 2e-8 is kept and
        # 5e-9 dropped, as lstsq's rcond = 1e-8 does with singular values.
        # C has an O(1) solution component along every eigenvector, so
        # keeping or dropping any one of them moves the result by O(1).
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        lams = np.array([[1.0, 2e-8, 5e-9, 0.0], [3.0, -1.0, 4e-8, -1e-8]])
        a = np.array([q @ np.diag(lam) @ q.T for lam in lams])
        cvecs = np.array([q @ (np.abs(lam) * rng.uniform(1, 2, 4)) for lam in lams])
        for a_l, c_l, got in zip(a, cvecs, _solve_stack(a, cvecs)):
            want, *_ = np.linalg.lstsq(a_l, c_l, rcond=1e-8)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)

    def test_non_finite_entry_in_one_system(self):
        w = np.ones((3, 2))
        w[1, 1] = np.nan  # one entry of the middle system's driving vector
        stack = McLachlanSystem(t=np.stack([np.eye(2)] * 3), w=w, energy=np.zeros(3))
        with pytest.raises(SingularSystem):
            solve(stack)

    def test_eigendecomposition_failure_is_singular(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        stack = McLachlanSystem(t=np.stack([np.eye(2)] * 2), w=np.ones((2, 2)),
                                energy=np.zeros(2))
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

    def test_max_steps_carries_trace(self):
        cfg = QiteConfig(dtau=0.05, max_steps=5, grad_tol=0.0)
        with pytest.raises(MaxStepsExceeded) as exc:
            run_qite(single_ry(), [np.pi / 2], Z, Statevector.zero(1), cfg)
        assert len(exc.value.energies) == 6
        assert exc.value.theta.shape == (1,)

    def test_energy_monotone_euler_small_steps(self, h2_series):
        _, h = h2_series.nearest(0.95)
        cfg = QiteConfig(dtau=0.05, max_steps=200, grad_tol=0.0)
        theta0 = np.random.default_rng(11).normal(0, 0.1, 16)
        with pytest.raises(MaxStepsExceeded) as exc:
            run_qite(build_twolocal(), theta0, h, Statevector.zero(2), cfg)
        energies = exc.value.energies
        assert np.all(np.diff(energies) <= 1e-9)

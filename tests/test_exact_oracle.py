"""Dense diagonalization ground truth."""

import numpy as np
import pytest

from conftest import random_hermitian
from ssqite.exact_oracle import eigensolve
from ssqite.pauli_algebra import PauliSum, decompose_dense
from ssqite.simulator import Statevector, expectation


class TestEigensolve:
    def test_single_z(self):
        spec = eigensolve(PauliSum.from_terms([(1.0, "Z")]))
        np.testing.assert_allclose(spec.eigenvalues, [-1.0, 1.0])

    def test_zz_degenerate(self):
        spec = eigensolve(PauliSum.from_terms([(1.0, "ZZ")]))
        np.testing.assert_allclose(spec.eigenvalues, [-1.0, -1.0, 1.0, 1.0])

    def test_residuals_random_three_qubits(self, rng):
        h = decompose_dense(random_hermitian(rng, 8))
        spec = eigensolve(h)
        m = h.dense
        for j in range(8):
            residual = m @ spec.eigenvectors[:, j] - spec.eigenvalues[j] * spec.eigenvectors[:, j]
            assert np.linalg.norm(residual) < 1e-9

    def test_eigenvectors_orthonormal(self, rng):
        spec = eigensolve(decompose_dense(random_hermitian(rng, 8)))
        gram = spec.eigenvectors.conj().T @ spec.eigenvectors
        np.testing.assert_allclose(gram, np.eye(8), atol=1e-9)

    def test_trace_identity(self, rng):
        h = decompose_dense(random_hermitian(rng, 8))
        spec = eigensolve(h)
        expected = h.coefficient("III") * 8
        assert spec.eigenvalues.sum() == pytest.approx(expected, abs=1e-9)

    def test_self_consistency_with_expectation(self, rng):
        h = decompose_dense(random_hermitian(rng, 4))
        spec = eigensolve(h)
        for j in range(4):
            s = Statevector(amps=spec.eigenvectors[:, j], n=2)
            assert expectation(h, s) == pytest.approx(spec.eigenvalues[j], abs=1e-9)


class TestReferenceCurve:
    """The exact curves along the shipped series, as the CLI reads them."""

    def test_h2_ground_minimum_interior(self, h2_series):
        ground = [eigensolve(h).eigenvalues[0] for _, h in h2_series.points]
        argmin = int(np.argmin(ground))
        assert 0 < argmin < len(h2_series) - 1
        # equilibrium of the shipped data sits near 0.735 Angstrom
        assert h2_series.bond_lengths[argmin] == pytest.approx(0.735, abs=0.15)

    def test_full_spectrum(self, h2_series):
        for _, h in h2_series.points:
            values = eigensolve(h).eigenvalues
            assert values.shape == (4,)
            assert np.all(np.diff(values) >= -1e-12)

    def test_lih_low_states_in_weight_one_sector(self, lih_series):
        # The three lowest eigenvectors must live on the single-excitation
        # basis states, matching the ansatz sector the benchmark explores.
        for _, h in lih_series.points:
            spec = eigensolve(h)
            for j in range(3):
                v = spec.eigenvectors[:, j]
                weight_one = sum(abs(v[i]) ** 2 for i in (0b100, 0b010, 0b001))
                assert weight_one == pytest.approx(1.0, abs=1e-10)

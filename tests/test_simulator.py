"""Gate application, ansatz structure, derivatives, Hadamard tests, sampling."""

import re

import numpy as np
import pytest

from conftest import random_hermitian, single_ry
from ssqite.errors import InputError
from ssqite.pauli_algebra import PauliSum, decompose_dense
from ssqite.simulator import (
    Circuit,
    Gate,
    Statevector,
    apply,
    apply_pauli_string,
    apply_pauli_sum,
    build_excitation_preserving,
    build_twolocal,
    complex_form,
    derivative_stack,
    derivative_state,
    expectation,
    hadamard_test,
    invariant_basis,
    real_form,
    real_matrix,
    sample_expectation,
)


def random_state(rng, n):
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return Statevector(amps=amps / np.linalg.norm(amps), n=n)


def complex_stack(t):
    """The complex (P, d, k) derivative stack of a batch sweep's (k, P, 2d) real factor."""
    return complex_form(t.transpose(2, 1, 0)).transpose(1, 0, 2)


def complex_matrix(m):
    """A + iB from the real forms [[A, -B], [B, A]] on the last two axes."""
    d = m.shape[-1] // 2
    return m[..., :d, :d] + 1j * m[..., d:, :d]


class TestApply:
    def test_ry_pi_flips(self):
        out = apply(single_ry(), [np.pi], Statevector.zero(1))
        assert abs(out.amps[1]) == pytest.approx(1.0, abs=1e-12)

    def test_ry_closed_form(self):
        theta = 0.813
        out = apply(single_ry(), [theta], Statevector.zero(1))
        np.testing.assert_allclose(
            out.amps, [np.cos(theta / 2), np.sin(theta / 2)], atol=1e-12
        )

    def test_cnot_makes_bell(self):
        plus_zero = Statevector(amps=np.array([1, 0, 1, 0]) / np.sqrt(2), n=2)
        c = Circuit(n=2, gates=(Gate("CNOT", (0, 1)),))
        bell = apply(c, [], plus_zero)
        np.testing.assert_allclose(bell.amps, np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_theta_length_checked(self):
        with pytest.raises(InputError, match="theta has shape"):
            apply(single_ry(), [0.1, 0.2], Statevector.zero(1))

    def test_state_size_checked(self):
        with pytest.raises(InputError, match="state of 4 amplitudes, circuit on 2"):
            apply(single_ry(), [0.1], Statevector.zero(2))
        with pytest.raises(InputError, match="state on 2 qubits, circuit on 1"):
            derivative_state(single_ry(), [0.1], 0, Statevector.zero(2))
        with pytest.raises(InputError, match="amplitude vector of length"):
            Statevector(amps=np.array([1.0, 0.0, 0.0]), n=1)
        # int(label, 2) would read "0b1" as a 3-qubit |001>, "-1" as |11>,
        # "1_0" as |010> and " 1" as |01>.
        for label in ("0b1", "-1", "1_0", " 1", "", "012"):
            with pytest.raises(InputError, match=f"got {re.escape(repr(label))}"):
                Statevector.from_label(label)

    def test_rotation_sign_convention(self):
        # R_Z(theta)|0> = exp(-i theta/2)|0> under exp(-i theta G / 2).
        c = Circuit(n=1, gates=(Gate("RZ", (0,)),))
        out = apply(c, [0.7], Statevector.zero(1))
        assert out.amps[0] == pytest.approx(np.exp(-0.35j), abs=1e-12)

    def test_x_gate(self):
        c = Circuit(n=2, gates=(Gate("X", (1,)),))
        out = apply(c, [], Statevector.from_label("00"))
        assert abs(out.amps[int("01", 2)]) == pytest.approx(1.0)

    def test_csx_squares_to_cnot(self):
        one = Circuit(n=2, gates=(Gate("CNOT", (0, 1)),))
        two = Circuit(n=2, gates=(Gate("CSX", (0, 1)), Gate("CSX", (0, 1))))
        rng = np.random.default_rng(5)
        s = random_state(rng, 2)
        np.testing.assert_allclose(
            apply(two, [], s).amps, apply(one, [], s).amps, atol=1e-12
        )

    def test_statevector_norm_enforced(self):
        with pytest.raises(InputError, match="state norm"):
            Statevector(amps=np.array([1.0, 1.0]), n=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_statevector_non_finite_rejected(self, bad):
        with pytest.raises(InputError, match="state norm"):
            Statevector(amps=np.array([bad, 0.0]), n=1)

    def test_expectation_dimension_checks(self):
        h = PauliSum.from_terms([(1.0, "Z")])
        with pytest.raises(InputError, match="operator on 1 qubits, state on 2"):
            expectation(h, Statevector.zero(2))
        with pytest.raises(InputError, match="operator on 1 qubits, state on 2"):
            sample_expectation(h, Statevector.zero(2), 10, seed=0)
        # The constructor skips from_terms' real-coefficient check, so a
        # non-Hermitian sum leaves an imaginary <Y> on (|0> + i|1>)/sqrt(2).
        iy = PauliSum(terms=((1j, "Y"),), n=1)
        with pytest.raises(InputError, match="imaginary residue"):
            expectation(iy, Statevector(amps=np.array([1, 1j]) / np.sqrt(2), n=1))


class TestCircuitValidation:
    @pytest.mark.parametrize(
        "kind, targets",
        [("RW", (0,)), ("RY", (0, 1)), ("X", (0, 1)), ("CNOT", (0,)), ("CSX", (1,)),
         ("CNOT", (1, 1)), ("RZ", (2,)), ("CSX", (0, -1)), (["RX"], (0,))],
    )
    def test_bad_gate_rejected(self, kind, targets):
        # An unknown kind (an unhashable one too), the wrong arity, a repeated
        # target, or a target outside the circuit's two qubits.
        with pytest.raises(InputError, match="unknown gate kind|acts on|must be distinct|outside 0..1"):
            Circuit(n=2, gates=(Gate(kind, targets),))


def test_ansatz_width_checked():
    with pytest.raises(InputError, match="twolocal ansatz is defined on 2 qubits"):
        build_twolocal(n=3)
    with pytest.raises(InputError, match="excitation-preserving ansatz is defined on 3 qubits"):
        build_excitation_preserving(n=2)


class TestTwoLocal:
    def test_sixteen_parameters(self):
        assert build_twolocal().num_params == 16

    def test_zero_theta_identity_on_00(self):
        out = apply(build_twolocal(), np.zeros(16), Statevector.zero(2))
        assert abs(out.amps[0]) == pytest.approx(1.0, abs=1e-12)

    def test_norm_preserved(self, rng):
        c = build_twolocal()
        for _ in range(10):
            out = apply(c, rng.uniform(-np.pi, np.pi, 16), random_state(rng, 2))
            assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-10

    def test_default_structure(self):
        # four RX/RY layers with three interleaved CNOTs, none trailing
        kinds = [g.kind for g in build_twolocal().gates]
        assert kinds.count("CNOT") == 3
        assert kinds.count("RX") == 8 and kinds.count("RY") == 8
        assert kinds[-1] != "CNOT"

    def test_layer_knob(self):
        assert build_twolocal(layers=2).num_params == 8
        # one CNOT between the two layers, none trailing
        kinds = [g.kind for g in build_twolocal(layers=2).gates]
        assert kinds.count("CNOT") == 1
        assert kinds[-1] != "CNOT"


class TestExcitationPreserving:
    def test_sixteen_parameters(self):
        assert build_excitation_preserving().num_params == 16

    def test_hamming_weight_conserved_from_010(self, rng):
        c = build_excitation_preserving()
        out = apply(c, rng.uniform(-np.pi, np.pi, 16), Statevector.from_label("010"))
        weight_one = {0b100, 0b010, 0b001}
        leakage = sum(
            abs(out.amps[i]) ** 2 for i in range(8) if i not in weight_one
        )
        assert leakage < 1e-10

    def test_sector_leakage_random_vectors(self, rng):
        c = build_excitation_preserving()
        for _ in range(20):
            theta = rng.uniform(-np.pi, np.pi, 16)
            for label, sector in (("000", {0}), ("110", {0b110, 0b101, 0b011})):
                out = apply(c, theta, Statevector.from_label(label))
                leakage = sum(
                    abs(out.amps[i]) ** 2 for i in range(8) if i not in sector
                )
                assert leakage < 1e-10

    def test_zero_theta_preserves_total_z(self):
        c = build_excitation_preserving()
        total_z = PauliSum.from_terms([(1.0, "ZII"), (1.0, "IZI"), (1.0, "IIZ")])
        for label in ("010", "011", "101"):
            s = Statevector.from_label(label)
            out = apply(c, np.zeros(16), s)
            assert expectation(total_z, out) == pytest.approx(
                expectation(total_z, s), abs=1e-10
            )


class TestExpectation:
    def test_z_on_zero(self):
        h = PauliSum.from_terms([(1.0, "Z")])
        assert expectation(h, Statevector.zero(1)) == pytest.approx(1.0)

    def test_x_on_plus(self):
        h = PauliSum.from_terms([(1.0, "X")])
        plus = Statevector(amps=np.array([1, 1]) / np.sqrt(2), n=1)
        assert expectation(h, plus) == pytest.approx(1.0)

    def test_matches_dense_quadratic_form(self, rng):
        for n in (1, 2, 3):
            h = decompose_dense(random_hermitian(rng, 2 ** n))
            s = random_state(rng, n)
            expected = np.vdot(s.amps, h.dense @ s.amps).real
            assert expectation(h, s) == pytest.approx(expected, abs=1e-10)

    def test_pauli_string_action_matches_dense(self, rng):
        for label in ("X", "Y", "Z", "XY", "ZYX", "IYI"):
            n = len(label)
            s = random_state(rng, n)
            dense = PauliSum.from_terms([(1.0, label)]).dense
            np.testing.assert_allclose(
                apply_pauli_string(PauliSum.from_terms([(1.0, label)]).terms[0][1], s.amps),
                dense @ s.amps,
                atol=1e-12,
            )


class TestOverlap:
    def test_unitary_preserves_orthogonality(self, rng):
        c = build_twolocal()
        theta = rng.uniform(-np.pi, np.pi, 16)
        a = apply(c, theta, Statevector.from_label("00"))
        b = apply(c, theta, Statevector.from_label("01"))
        assert abs(np.vdot(a.amps, b.amps)) < 1e-10


class TestDerivatives:
    def test_ry_derivative_norm(self):
        for theta in (0.0, 0.4, 2.2):
            d = derivative_state(single_ry(), [theta], 0, Statevector.zero(1))
            assert np.vdot(d, d).real == pytest.approx(0.25, abs=1e-12)

    def test_slot_bounds(self):
        with pytest.raises(InputError, match="parameter 1 outside 0..0"):
            derivative_state(single_ry(), [0.1], 1, Statevector.zero(1))
        for i, j in ((1, 0), (0, 1), (-1, 0)):
            with pytest.raises(InputError, match=r"parameter -?1 outside 0\.\.0"):
                hadamard_test(single_ry(), [0.1], "A-real", i, j=j)

    @pytest.mark.parametrize("size", [15, 17, 20])
    def test_theta_length_checked(self, size):
        # The oracles reject a theta that apply rejects, in either direction.
        c = build_twolocal()
        with pytest.raises(InputError, match="theta has shape"):
            apply(c, np.zeros(size), Statevector.zero(2))
        with pytest.raises(InputError, match="theta has shape"):
            derivative_state(c, np.zeros(size), 0, Statevector.zero(2))
        with pytest.raises(InputError, match="theta has shape"):
            hadamard_test(c, np.zeros(size), "A-real", 0, j=1)
        with pytest.raises(InputError, match="theta has shape"):
            hadamard_test(c, np.zeros(size), "C-real", 0, h=PauliSum.from_terms([(1.0, "ZZ")]))

    def test_complex_theta_rejected(self):
        # Refused, not cut to its real part with a ComplexWarning.
        c, theta, s0 = build_twolocal(), np.full(16, 0.1 + 0.5j), Statevector.zero(2)
        with pytest.raises(TypeError):
            apply(c, theta, s0)
        with pytest.raises(TypeError):
            derivative_stack(c, theta, s0)
        with pytest.raises(TypeError):
            derivative_state(c, theta, 0, s0)
        with pytest.raises(TypeError):
            hadamard_test(c, theta, "A-real", 0, j=1)

    @pytest.mark.parametrize("builder,n", [(build_twolocal, 2), (build_excitation_preserving, 3)])
    def test_finite_difference_each_slot(self, builder, n, rng):
        c = builder()
        theta = rng.uniform(-np.pi, np.pi, c.num_params)
        s0 = Statevector.zero(n)
        eps = 1e-5
        for i in range(c.num_params):
            d = derivative_state(c, theta, i, s0)
            tp, tm = theta.copy(), theta.copy()
            tp[i] += eps
            tm[i] -= eps
            fd = (apply(c, tp, s0).amps - apply(c, tm, s0).amps) / (2 * eps)
            assert np.max(np.abs(d - fd)) < 1e-8

    def test_fifty_random_triples(self, rng):
        # circuits x parameter points x slots, both ansatz families
        worst = 0.0
        for trial in range(50):
            c = build_twolocal() if trial % 2 == 0 else build_excitation_preserving()
            theta = rng.uniform(-np.pi, np.pi, c.num_params)
            slot = int(rng.integers(c.num_params))
            s0 = random_state(rng, c.n)
            d = derivative_state(c, theta, slot, s0)
            eps = 1e-5
            tp, tm = theta.copy(), theta.copy()
            tp[slot] += eps
            tm[slot] -= eps
            fd = (apply(c, tp, s0).amps - apply(c, tm, s0).amps) / (2 * eps)
            worst = max(worst, float(np.max(np.abs(d - fd))))
        assert worst < 1e-7

    def test_stack_matches_per_slot(self, rng):
        c = build_twolocal()
        theta = rng.uniform(-np.pi, np.pi, 16)
        s0 = random_state(rng, 2)
        phi, stack = derivative_stack(c, theta, s0)
        np.testing.assert_allclose(phi.amps, apply(c, theta, s0).amps, atol=1e-12)
        for i in range(16):
            np.testing.assert_allclose(
                stack[i], derivative_state(c, theta, i, s0), atol=1e-12
            )

    @pytest.mark.parametrize(
        "build, n", [(build_twolocal, 2), (build_excitation_preserving, 3)]
    )
    def test_batched_stack_matches_oracle(self, rng, build, n):
        # Three columns through one sweep: every column of the (P, 2^n, 3)
        # stack equals the per-slot tensor-contraction oracle.
        c = build()
        for _ in range(3):
            theta = rng.uniform(-np.pi, np.pi, c.num_params)
            states = [random_state(rng, n) for _ in range(3)]
            amps = np.column_stack([s.amps for s in states])
            phi, t = derivative_stack(c, theta, real_form(amps))
            assert phi.shape == (2 ** (n + 1), 3)
            assert t.shape == (3, c.num_params, 2 ** (n + 1)) and t.flags.c_contiguous
            np.testing.assert_array_equal(phi, apply(c, theta, real_form(amps)))
            phi, stack = complex_form(phi), complex_stack(t)
            for l, s in enumerate(states):
                np.testing.assert_allclose(phi[:, l], apply(c, theta, s).amps, atol=1e-12)
                for i in range(c.num_params):
                    np.testing.assert_allclose(
                        stack[i, :, l], derivative_state(c, theta, i, s), atol=1e-12
                    )

    def test_batched_shared_slot_and_trailing_fixed_gates(self, rng):
        # Three rotations, fixed gates before, between and after them.
        c = Circuit(
            n=2,
            gates=(
                Gate("X", (1,)), Gate("RY", (0,)), Gate("CSX", (0, 1)),
                Gate("RZ", (1,)), Gate("RX", (0,)), Gate("CNOT", (1, 0)),
            ),
        )
        theta = rng.uniform(-np.pi, np.pi, 3)
        states = [random_state(rng, 2) for _ in range(2)]
        _, t = derivative_stack(c, theta, real_form(np.column_stack([s.amps for s in states])))
        stack = complex_stack(t)
        for l, s in enumerate(states):
            for i in range(3):
                np.testing.assert_allclose(
                    stack[i, :, l], derivative_state(c, theta, i, s), atol=1e-12
                )

    def test_deep_circuit_matches_oracle(self, rng):
        # The sweep pulls each rotation's derivative back through W_r^dag,
        # which is exact only while the prefix products stay unitary; 200
        # rotations, between fixed gates at both ends and in between, must
        # still agree with the oracle.
        fixed = [Gate("X", (2,)), Gate("CNOT", (0, 2)), Gate("CSX", (1, 0))]
        gates = list(fixed)
        for _ in range(200):
            if rng.random() < 0.3:
                gates.append(fixed[rng.integers(len(fixed))])
            kind = ("RX", "RY", "RZ")[rng.integers(3)]
            gates.append(Gate(kind, (int(rng.integers(3)),)))
        gates.extend(fixed[::-1])
        c = Circuit(n=3, gates=tuple(gates))
        theta = rng.uniform(-np.pi, np.pi, 200)
        s0 = random_state(rng, 3)
        phi, stack = derivative_stack(c, theta, s0)
        assert np.linalg.norm(phi.amps) == pytest.approx(1.0, abs=1e-12)
        for i in range(200):
            np.testing.assert_allclose(
                stack[i], derivative_state(c, theta, i, s0), rtol=0, atol=1e-11
            )

    def test_batch_shape_checked(self):
        # A batch of 2-qubit states is (8, k): the real form of 4 amplitudes.
        with pytest.raises(InputError, match="state batch has shape"):
            derivative_stack(build_twolocal(), np.zeros(16), np.zeros((4, 2)))
        with pytest.raises(InputError, match="state batch has shape"):
            apply(build_twolocal(), np.zeros(16), np.zeros(8))
        with pytest.raises(TypeError):
            apply(build_twolocal(), np.zeros(16), np.zeros((8, 2), dtype=complex))

    def test_real_form_round_trip(self, rng):
        z = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        m = rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4))
        np.testing.assert_array_equal(complex_form(real_form(z)), z)
        # Products and adjoints carry over: real(M Z) = real(M) real(Z), M^H -> M^T.
        np.testing.assert_allclose(real_form(m[0] @ z), real_matrix(m[0]) @ real_form(z),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(real_matrix(m @ m), real_matrix(m) @ real_matrix(m),
                                   rtol=0, atol=1e-12)
        np.testing.assert_array_equal(real_matrix(m.conj().swapaxes(1, 2)),
                                      real_matrix(m).swapaxes(1, 2))


class TestInvariantBasis:
    """The smallest gate-invariant subspace around the inputs, and sweeps restricted to it."""

    @pytest.mark.parametrize(
        "build, labels, rank",
        [(build_twolocal, ("00", "01", "10"), 4),
         (build_excitation_preserving, ("010", "001", "100"), 3),
         (build_excitation_preserving, ("010", "001"), 3),
         (build_excitation_preserving, ("000",), 1)],
    )
    def test_rank_and_invariance(self, rng, build, labels, rank):
        c = build()
        amps = np.column_stack([Statevector.from_label(l).amps for l in labels])
        q = invariant_basis(c, amps)
        assert q.shape == (2 ** c.n, rank)
        np.testing.assert_array_equal(q[:, :len(labels)], amps)  # the inputs come first
        np.testing.assert_allclose(q.conj().T @ q, np.eye(rank), rtol=0, atol=1e-12)
        plan = c.dense
        mats = list(plan.lead) + list(plan.insertion) + [m for m in [plan.tail] if m is not None]
        for m in mats:
            image = complex_matrix(m) @ q
            np.testing.assert_allclose(q @ (q.conj().T @ image), image, rtol=0, atol=1e-12)
        # Restricting commutes with the real form: each matrix becomes the
        # real form of Q^H M Q.
        restricted = plan.restrict(q)
        for full, small in [(plan.lead, restricted.lead), (plan.insertion, restricted.insertion),
                            (plan.turned_lead, restricted.turned_lead)]:
            want = q.conj().T @ complex_matrix(full) @ q
            np.testing.assert_allclose(small, real_matrix(want), rtol=0, atol=1e-12)
        # The restricted sweep gives Q^H times the full states and derivatives.
        theta = rng.uniform(-np.pi, np.pi, c.num_params)
        phi, t = derivative_stack(c, theta, real_form(amps))
        phi_r, t_r = derivative_stack(restricted, theta, real_form(q.conj().T @ amps))
        assert t_r.shape == (len(labels), c.num_params, 2 * rank)
        np.testing.assert_allclose(q @ complex_form(phi_r), complex_form(phi), rtol=0, atol=1e-12)
        np.testing.assert_allclose(q @ complex_stack(t_r), complex_stack(t), rtol=0, atol=1e-12)

    def test_inputs_must_be_orthonormal(self):
        amps = np.column_stack([Statevector.from_label(l).amps for l in ("010", "001")])
        with pytest.raises(InputError, match="initial states 0,1 not orthonormal"):
            invariant_basis(build_excitation_preserving(), amps + amps[:, ::-1])

    def test_nan_input_refused(self):
        amps = np.column_stack([Statevector.from_label(l).amps for l in ("010", "001")])
        amps[3, 1] = np.nan
        with pytest.raises(InputError, match=r"initial states 0,1 not orthonormal \(deviation nan\)"):
            invariant_basis(build_excitation_preserving(), amps)


class TestHadamardTest:
    def test_single_ry_a_diagonal(self):
        assert hadamard_test(single_ry(), [0.3], "A-real", 0, j=0) == pytest.approx(
            0.25, abs=1e-10
        )

    def test_single_ry_c_half_sine(self):
        h = PauliSum.from_terms([(1.0, "Z")])
        assert hadamard_test(
            single_ry(), [np.pi / 2], "C-real", 0, h=h
        ) == pytest.approx(0.5, abs=1e-10)
        theta = 0.77
        assert hadamard_test(single_ry(), [theta], "C-real", 0, h=h) == pytest.approx(
            np.sin(theta) / 2, abs=1e-10
        )

    def test_matches_direct_inner_products(self, rng):
        c = build_twolocal()
        theta = rng.uniform(-np.pi, np.pi, 16)
        s0 = Statevector.zero(2)
        phi, stack = derivative_stack(c, theta, s0)
        h = decompose_dense(random_hermitian(rng, 4))
        h_phi = apply_pauli_sum(h, phi.amps)
        for i in range(0, 16, 3):
            for j in range(0, 16, 5):
                direct = float(np.real(np.vdot(stack[i], stack[j])))
                assert hadamard_test(c, theta, "A-real", i, j=j) == pytest.approx(
                    direct, abs=1e-10
                )
            direct_c = -float(np.real(np.vdot(stack[i], h_phi)))
            assert hadamard_test(c, theta, "C-real", i, h=h) == pytest.approx(
                direct_c, abs=1e-10
            )

    def test_unknown_mode(self):
        with pytest.raises(InputError, match="unknown mode 'B-imag'"):
            hadamard_test(single_ry(), [0.1], "B-imag", 0, j=0)

    def test_state_width_checked(self):
        c = build_twolocal()
        h = PauliSum.from_terms([(1.0, "ZZ")])
        for mode, operand in (("A-real", {"j": 1}), ("C-real", {"h": h})):
            with pytest.raises(InputError, match="state on 1 qubits, circuit on 2"):
                hadamard_test(c, np.zeros(16), mode, 0, s0=Statevector.zero(1), **operand)
        with pytest.raises(InputError, match="operator on 1 qubits, circuit on 2"):
            hadamard_test(c, np.zeros(16), "C-real", 0, h=PauliSum.from_terms([(1.0, "Z")]))

    def test_missing_operand(self):
        with pytest.raises(InputError, match="needs a second parameter index"):
            hadamard_test(single_ry(), [0.1], "A-real", 0)
        with pytest.raises(InputError, match="needs a Hamiltonian"):
            hadamard_test(single_ry(), [0.1], "C-real", 0)


class TestSampling:
    def test_deterministic_outcome_exact(self):
        h = PauliSum.from_terms([(1.0, "Z")])
        assert sample_expectation(h, Statevector.zero(1), 10 ** 6, seed=3) == 1.0

    def test_seed_repeatable(self):
        h = PauliSum.from_terms([(0.7, "X"), (0.1, "Z")])
        plus = Statevector(amps=np.array([1, 1]) / np.sqrt(2), n=1)
        a = sample_expectation(h, plus, 500, seed=42)
        b = sample_expectation(h, plus, 500, seed=42)
        assert a == b
        assert sample_expectation(h, plus, 500, seed=43) != a

    def test_zero_shots_rejected(self):
        # Also a fractional count, which the binomial sampler would take,
        # and one beyond its int64 range, which it would overflow on.
        h = PauliSum.from_terms([(1.0, "Z"), (0.5, "X")])
        for shots in (0, 2.5, 2 ** 63):
            with pytest.raises(InputError, match="shots must be an integer in 1.."):
                sample_expectation(h, Statevector.zero(1), shots, seed=1)

    def test_identity_term_exact(self):
        h = PauliSum.from_terms([(0.25, "II")])
        assert sample_expectation(h, Statevector.zero(2), 10, seed=0) == 0.25

    def test_stderr_within_three_of_analytic(self, rng):
        h = decompose_dense(random_hermitian(rng, 4))
        s = random_state(rng, 2)
        shots = 2000
        # analytic: independent per-term binomials
        variance = 0.0
        for coeff, string in h.terms:
            if all(l == "I" for l in string):
                continue
            mean = float(np.vdot(s.amps, apply_pauli_string(string, s.amps)).real)
            variance += coeff ** 2 * (1.0 - mean ** 2) / shots
        analytic = np.sqrt(variance)
        estimates = [
            sample_expectation(h, s, shots, seed=1000 + r) for r in range(100)
        ]
        empirical = np.std(estimates, ddof=1)
        assert empirical < 3 * analytic
        assert empirical > analytic / 3

    def test_unbiased_against_exact(self, rng):
        h = decompose_dense(random_hermitian(rng, 4))
        s = random_state(rng, 2)
        estimates = [sample_expectation(h, s, 4000, seed=r) for r in range(200)]
        assert np.mean(estimates) == pytest.approx(expectation(h, s), abs=0.01)

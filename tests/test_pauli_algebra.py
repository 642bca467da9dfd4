"""Pauli-string parsing, dense conversion, and geometry-file ingestion."""

import itertools

import numpy as np
import pytest

from conftest import random_hermitian
from ssqite.errors import InputError
from ssqite.pauli_algebra import (
    PAULI_MATRICES,
    PauliSum,
    decompose_dense,
    load_geometry_series,
    parse_pauli_string,
)
from ssqite.simulator import apply_pauli_string, apply_pauli_sum


def kron_chain(labels):
    out = np.array([[1.0 + 0j]])
    for l in labels:
        out = np.kron(out, PAULI_MATRICES[l])
    return out


class TestParse:
    def test_zi(self):
        assert parse_pauli_string("ZI") == "ZI"

    def test_xyzi(self):
        assert parse_pauli_string("XYZI") == "XYZI"

    def test_bad_label(self):
        with pytest.raises(InputError, match="unknown Pauli label 'A'"):
            parse_pauli_string("ZA")
        with pytest.raises(InputError, match="unknown Pauli label 'A'"):
            PauliSum.from_terms([(1.0, "ZA")])
        with pytest.raises(InputError, match="unknown Pauli label 'A'"):
            apply_pauli_string("A", np.array([1.0, 0.0]))
        h = PauliSum.from_terms([(1.0, "ZZ")])
        for amps in (np.zeros(8), np.zeros((2, 2)), np.zeros(2)):
            with pytest.raises(InputError, match=r"'ZZ' acts on 4 amplitudes, got shape"):
                apply_pauli_string("ZZ", amps)
            with pytest.raises(InputError, match=r"'ZZ' acts on 4 amplitudes, got shape"):
                apply_pauli_sum(h, amps)

    def test_empty(self):
        with pytest.raises(InputError, match="empty Pauli string token"):
            parse_pauli_string("")
        with pytest.raises(InputError, match="needs at least one term"):
            PauliSum.from_terms([])

    def test_roundtrip_str(self):
        assert str(parse_pauli_string("XZIY")) == "XZIY"


class TestPauliSum:
    def test_merge_duplicates(self):
        h = PauliSum.from_terms([(0.25, "ZI"), (0.5, "XI"), (0.75, "ZI")])
        assert len(h) == 2
        assert h.coefficient("ZI") == pytest.approx(1.0)
        assert h.coefficient("ZZ") == 0.0

    def test_rejects_complex_coefficient(self):
        with pytest.raises(InputError, match="is not real"):
            PauliSum.from_terms([(1.0 + 0.5j, "Z")])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(np.nan, 0.0)])
    def test_rejects_non_finite_coefficient(self, value):
        with pytest.raises(InputError, match="is not finite"):
            PauliSum.from_terms([(value, "Z")])

    @pytest.mark.parametrize("second", ["ZI", "IZ"])
    def test_rejects_magnitudes_past_float_range(self, second):
        # "ZI" twice merges to inf; "ZI" and "IZ" stay finite, but the sum
        # of their magnitudes, which bounds the entries of dense, does not.
        with pytest.raises(InputError, match="whose square is past the float range"):
            PauliSum.from_terms([(1e308, "ZI"), (1e308, second)])

    def test_rejects_magnitudes_whose_square_is_past_float_range(self):
        # A finite sum of magnitudes is not enough: its square must be finite
        # too, or the McLachlan solve overflows.  1e154 is just inside.
        with pytest.raises(InputError, match="whose square is past the float range"):
            PauliSum.from_terms([(1e308, "ZI"), (0.125, "XX")])
        assert PauliSum.from_terms([(1e154, "ZI"), (0.125, "XX")]).coefficient("ZI") == 1e154

    def test_rejects_mixed_lengths(self):
        with pytest.raises(InputError, match="has length 2, expected 1"):
            PauliSum.from_terms([(1.0, "Z"), (1.0, "ZZ")])


class TestToDense:
    def test_single_z(self):
        m = PauliSum.from_terms([(1.0, "Z")]).dense
        np.testing.assert_allclose(m, np.diag([1.0, -1.0]))

    def test_bit_flip_positions(self):
        m = PauliSum.from_terms([(0.5, "XI"), (0.5, "IX")]).dense
        # XI flips the first qubit (stride 2), IX the second (stride 1).
        expected = np.zeros((4, 4))
        for i, j in [(0, 2), (1, 3), (0, 1), (2, 3)]:
            expected[i, j] = expected[j, i] = 0.5
        np.testing.assert_allclose(m, expected)

    def test_guardrail(self):
        h = PauliSum.from_terms([(1.0, "Z" * 13)])
        with pytest.raises(InputError, match="capped at 12 qubits"):
            h.dense

    def test_hermitian(self, rng):
        for n in (1, 2, 3):
            labels = ["".join(t) for t in itertools.product("IXYZ", repeat=n)]
            coeffs = rng.normal(size=len(labels))
            m = PauliSum.from_terms(list(zip(coeffs, labels))).dense
            assert np.max(np.abs(m - m.conj().T)) < 1e-12

    def test_tensor_ordering(self):
        # Leftmost label acts on the highest basis-index bit: ZI == Z (x) I.
        m = PauliSum.from_terms([(1.0, "ZI")]).dense
        np.testing.assert_allclose(m, np.kron(PAULI_MATRICES["Z"], np.eye(2)))


class TestDecomposeDense:
    def test_diag_z(self):
        h = decompose_dense(np.diag([1.0, -1.0]).astype(complex))
        assert len(h) == 1
        assert h.coefficient("Z") == pytest.approx(1.0)

    def test_identity(self):
        h = decompose_dense(np.eye(4, dtype=complex))
        assert len(h) == 1
        assert h.coefficient("II") == pytest.approx(1.0)

    def test_matches_brute_force_traces(self, rng):
        m = random_hermitian(rng, 4)
        h = decompose_dense(m)
        for labels in itertools.product("IXYZ", repeat=2):
            expected = np.trace(m @ kron_chain(labels)).real / 4
            assert h.coefficient("".join(labels)) == pytest.approx(expected, abs=1e-12)

    def test_not_hermitian(self, rng):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        with pytest.raises(InputError, match="deviates from Hermitian"):
            decompose_dense(m)

    def test_not_power_of_two(self):
        with pytest.raises(InputError, match="dimension 3 is not a power of two"):
            decompose_dense(np.eye(3, dtype=complex))
        with pytest.raises(InputError, match="dimension 6 is not a power of two"):
            decompose_dense(np.eye(6, dtype=complex))
        with pytest.raises(InputError, match="expected a square matrix"):
            decompose_dense(np.ones((2, 4)))

    def test_drop_tol(self):
        m = np.diag([1.0, -1.0]).astype(complex) + 1e-14 * np.eye(2)
        assert len(decompose_dense(m)) == 1
        assert len(decompose_dense(m, drop_tol=1e-16)) == 2
        assert len(decompose_dense(m, drop_tol=0.0)) == 4  # every string, zeros too
        for bad in (float("nan"), float("inf"), -1e-12):
            with pytest.raises(InputError, match="drop_tol must be >= 0 and finite"):
                decompose_dense(m, drop_tol=bad)


class TestInvariants:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_round_trip(self, n, rng):
        m = random_hermitian(rng, 2 ** n)
        h = decompose_dense(m)
        np.testing.assert_allclose(h.dense, m, atol=1e-10)
        # coefficient-level round trip
        h2 = decompose_dense(h.dense)
        for coeff, string in h.terms:
            assert h2.coefficient(string) == pytest.approx(coeff, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pauli_basis_orthogonality(self, n):
        labels = ["".join(t) for t in itertools.product("IXYZ", repeat=n)]
        for la in labels:
            pa = kron_chain(la)
            for lb in labels:
                expected = 1.0 if la == lb else 0.0
                value = np.trace(pa @ kron_chain(lb)).real / 2 ** n
                assert value == pytest.approx(expected, abs=1e-12)


class TestGeometryFile:
    def _write(self, tmp_path, body):
        p = tmp_path / "h.txt"
        p.write_text(body, encoding="utf-8")
        return p

    def test_two_blocks(self, tmp_path):
        series = load_geometry_series(self._write(tmp_path, """
# comment
molecule H2
geometry 0.5
ZI 0.25
IZ 0.25
geometry 0.95
ZI 0.5
"""))
        assert series.label == "H2"
        assert len(series) == 2
        np.testing.assert_allclose(series.bond_lengths, [0.5, 0.95])

    def test_duplicate_terms_merged(self, tmp_path):
        series = load_geometry_series(self._write(tmp_path, """
molecule X2
geometry 1.0
ZI 0.25
ZI 0.5
"""))
        h = series.points[0][1]
        assert len(h) == 1
        assert h.coefficient("ZI") == pytest.approx(0.75)

    def test_non_monotonic(self, tmp_path):
        with pytest.raises(InputError, match="strictly increasing"):
            load_geometry_series(self._write(tmp_path, """
molecule X2
geometry 1.0
ZI 0.25
geometry 0.5
ZI 0.25
"""))

    def test_parse_error_carries_line(self, tmp_path):
        with pytest.raises(InputError, match="unknown Pauli label 'Q'") as exc:
            load_geometry_series(self._write(tmp_path, "molecule X2\ngeometry 1.0\nZQ 0.25\n"))
        assert exc.value.line == 3

    def test_empty_file(self, tmp_path):
        with pytest.raises(InputError, match="missing 'molecule' header"):
            load_geometry_series(self._write(tmp_path, "\n# nothing here\n"))

    def test_term_before_geometry(self, tmp_path):
        with pytest.raises(InputError, match="term before any geometry line"):
            load_geometry_series(self._write(tmp_path, "molecule X2\nZI 0.5\n"))

    def test_bad_coefficient(self, tmp_path):
        with pytest.raises(InputError, match="bad coefficient 'abc'"):
            load_geometry_series(self._write(tmp_path, "molecule X2\ngeometry 1.0\nZI abc\n"))

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("body, line", [
        ("molecule X2\ngeometry {}\nZI 0.25\n", 2),
        ("molecule X2\ngeometry 1.0\nZI {}\n", 3),
    ], ids=["geometry", "coefficient"])
    def test_non_finite_number_names_line(self, tmp_path, body, line, value):
        with pytest.raises(InputError, match="bad (bond length|coefficient)") as exc:
            load_geometry_series(self._write(tmp_path, body.format(value)))
        assert exc.value.line == line and repr(value) in str(exc.value)

    def test_mixed_qubit_counts_across_blocks(self, tmp_path):
        with pytest.raises(InputError, match="string length 3 != 2 used earlier"):
            load_geometry_series(self._write(tmp_path, """
molecule X2
geometry 1.0
ZI 0.25
geometry 2.0
ZII 0.25
"""))

    def test_duplicate_molecule_header(self, tmp_path):
        with pytest.raises(InputError, match="duplicate molecule header"):
            load_geometry_series(self._write(tmp_path, "molecule A\nmolecule B\ngeometry 1.0\nZ 1.0\n"))

    def test_shipped_h2_hermitian_round_trip(self, h2_series):
        for _, h in h2_series.points:
            m = h.dense
            assert np.max(np.abs(m - m.conj().T)) < 1e-12
            h2 = decompose_dense(m)
            for coeff, string in h.terms:
                assert h2.coefficient(string) == pytest.approx(coeff, abs=1e-10)

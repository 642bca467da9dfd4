"""Pauli-sum Hamiltonians: parsing, dense conversion, and geometry-series files.

A Pauli string is its label text, such as ``"XZ"``: one key of
:data:`PAULI_MATRICES` per qubit, checked by :func:`parse_pauli_string`.

Tensor ordering convention, used everywhere in this package: position 0 of a
Pauli string (the leftmost character) acts on the highest-numbered bit of the
basis index, i.e. the ``dense`` matrix of ``"XZ"`` is ``kron(X, Z)``.
Equivalently, qubit ``q`` corresponds to axis ``q`` of the statevector
reshaped to ``(2,) * n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import InputError

# The Pauli alphabet, in the order I, X, Y, Z of decompose_dense's basis.
PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

DENSE_QUBIT_LIMIT = 12


def parse_pauli_string(text: str) -> str:
    """The label ``text``, such as ``"XZIY"``, checked to be a nonempty str over the alphabet."""
    if not isinstance(text, str) or len(text) == 0:
        raise InputError("empty Pauli string token")
    for p in text:
        if p not in PAULI_MATRICES:
            raise InputError(f"unknown Pauli label {p!r}")
    return text


@dataclass(frozen=True)
class PauliSum:
    """Weighted sum of Pauli strings with real coefficients (Hartree).

    ``terms`` holds (coefficient, label) pairs, each label a Pauli string as
    text; terms are merged so no label appears twice, and all labels share
    length n.
    """

    terms: tuple[tuple[float, str], ...]
    n: int

    @classmethod
    def from_terms(cls, terms, n: int | None = None) -> "PauliSum":
        """Build from (coefficient, label) pairs, merging duplicate labels.

        Coefficients must be real and finite; complex, NaN and infinite
        values are rejected outright.  So is a sum whose merged coefficients'
        magnitudes add up to a total whose square is past the float range:
        that total bounds every entry of :attr:`dense` and of H phi, and its
        square leaves the McLachlan solve, which divides by small Gram
        eigenvalues, room to stay finite.
        """
        merged: dict[str, float] = {}
        width = n
        for coeff, label in terms:
            label = parse_pauli_string(label)
            if isinstance(coeff, complex):
                if abs(coeff.imag) > 0:
                    raise InputError(f"coefficient {coeff} is not real")
                coeff = coeff.real
            coeff = float(coeff)
            if not math.isfinite(coeff):
                raise InputError(f"coefficient {coeff} is not finite")
            if width is None:
                width = len(label)
            elif len(label) != width:
                raise InputError(
                    f"string {label} has length {len(label)}, expected {width}"
                )
            merged[label] = merged[label] + coeff if label in merged else coeff
        if width is None:
            raise InputError("a PauliSum needs at least one term or an explicit n")
        total = sum(abs(coeff) for coeff in merged.values())
        if not math.isfinite(total * total):
            raise InputError(
                f"the coefficients' magnitudes sum to {total:g}, whose square is past the float range"
            )
        return cls(terms=tuple((coeff, label) for label, coeff in merged.items()), n=width)

    def __len__(self) -> int:
        return len(self.terms)

    def coefficient(self, label: str) -> float:
        """Coefficient of the given label, 0.0 if absent."""
        return next((c for c, l in self.terms if l == label), 0.0)

    @cached_property
    def dense(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix of the sum, built on first use; Hermitian."""
        if self.n > DENSE_QUBIT_LIMIT:
            raise InputError(f"dense conversion capped at {DENSE_QUBIT_LIMIT} qubits")
        dim = 2 ** self.n
        out = np.zeros((dim, dim), dtype=complex)
        for coeff, label in self.terms:
            term = np.array([[1.0]], dtype=complex)
            for p in label:
                term = np.kron(term, PAULI_MATRICES[p])
            out += coeff * term
        return out


def decompose_dense(m: np.ndarray, drop_tol: float = 1e-12) -> PauliSum:
    """Expand a Hermitian matrix over the Pauli-string basis.

    Coefficients are ``2^-n * trace(m @ P)`` for each string P; entries with
    magnitude below ``drop_tol`` are omitted.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"expected a square matrix, got shape {m.shape}")
    dim = m.shape[0]
    n = int(dim).bit_length() - 1
    if 2 ** n != dim or n < 1:
        raise InputError(f"dimension {dim} is not a power of two >= 2")
    if np.max(np.abs(m - m.conj().T)) > 1e-10:
        raise InputError("matrix deviates from Hermitian by more than 1e-10")

    # Contract each (row-bit, col-bit) axis pair against the four Paulis:
    # coeffs[j1..jn] = 2^-n * Tr[m * P_{j1} x ... x P_{jn}].
    alphabet = "".join(PAULI_MATRICES)  # "IXYZ"
    basis = np.stack([PAULI_MATRICES[l] for l in alphabet])  # (4, 2, 2)
    tensor = m.reshape((2,) * (2 * n))
    for t in range(n):
        # t qubits already contracted: layout is (rows..., cols..., paulis...)
        # with n - t row axes, so the leading row pairs with the col at n - t.
        tensor = np.tensordot(basis, tensor, axes=([1, 2], [n - t, 0]))
        # New Pauli axis arrives in front; rotate to the back so finished axes
        # stay ordered by string position.
        tensor = np.moveaxis(tensor, 0, -1)
    coeffs = tensor / dim  # shape (4,) * n, axis k = string position k

    terms = []
    flat = coeffs.reshape(-1)
    for idx in np.flatnonzero(np.abs(flat) >= drop_tol):
        digits = np.unravel_index(idx, (4,) * n)
        label = "".join(alphabet[d] for d in digits)
        terms.append((flat[idx].real, label))
    return PauliSum.from_terms(terms, n=n)


@dataclass(frozen=True)
class GeometrySeries:
    """Per-bond-length Hamiltonians for one molecule, bond lengths ascending."""

    label: str
    points: tuple[tuple[float, PauliSum], ...]

    @property
    def bond_lengths(self) -> np.ndarray:
        return np.array([r for r, _ in self.points])

    @property
    def n(self) -> int:
        return self.points[0][1].n

    def nearest(self, bond_length: float, tol: float = 1e-6) -> tuple[float, PauliSum]:
        """Point whose bond length matches within tol; raises if none does."""
        best = min(self.points, key=lambda p: abs(p[0] - bond_length))
        if not abs(best[0] - bond_length) <= tol:  # a NaN R matches nothing
            raise InputError(
                f"no geometry within {tol} of R={bond_length} "
                f"(closest is {best[0]})"
            )
        return best

    def __len__(self) -> int:
        return len(self.points)


def _finite(text: str, what: str, lineno: int) -> float:
    """The finite number ``text`` names; anything else is an InputError on ``lineno``."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise InputError(f"bad {what} {text!r}", lineno)
    return value


def content_lines(path):
    """Yield (line number, text) for each nonblank line of a UTF-8 text file.

    Text from ``#`` to the end of a line is a comment and is cut.  A file that
    is not UTF-8 is an InputError naming it.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: byte {exc.start} is not UTF-8 ({exc.reason})") from None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def load_geometry_series(path) -> GeometrySeries:
    """Read a Hamiltonian coefficient file.

    Format (line oriented, `#` starts a comment, blank lines ignored)::

        molecule H2
        geometry 0.95
        ZI   -0.3980
        XX    0.1810

    Bond lengths are Angstrom and coefficients Hartree, both finite.
    Duplicate strings within a block are merged by addition; bond lengths
    must be strictly increasing.
    """
    path = Path(path)
    label: str | None = None
    blocks: list[tuple[float, list, int]] = []  # (R, term list, header line no)
    qubits: int | None = None

    for lineno, line in content_lines(path):
        fields = line.split()
        if fields[0] == "molecule":
            if label is not None:
                raise InputError("duplicate molecule header", lineno)
            if len(fields) != 2:
                raise InputError("expected 'molecule <name>'", lineno)
            label = fields[1]
        elif fields[0] == "geometry":
            if len(fields) != 2:
                raise InputError("expected 'geometry <R>'", lineno)
            blocks.append((_finite(fields[1], "bond length", lineno), [], lineno))
        else:
            if len(fields) != 2:
                raise InputError("expected '<pauli-string> <coefficient>'", lineno)
            if not blocks:
                raise InputError("term before any geometry line", lineno)
            try:
                string = parse_pauli_string(fields[0])
            except InputError as exc:
                raise InputError(str(exc), lineno) from None
            coeff = _finite(fields[1], "coefficient", lineno)
            if qubits is None:
                qubits = len(string)
            elif len(string) != qubits:
                raise InputError(
                    f"string length {len(string)} != {qubits} used earlier", lineno
                )
            blocks[-1][1].append((coeff, string))

    if label is None:
        raise InputError(f"{path}: missing 'molecule' header")
    if not blocks:
        raise InputError(f"{path}: no geometry blocks")

    points = []
    for bond, terms, lineno in blocks:
        if not terms:
            raise InputError("geometry block has no terms", lineno)
        try:
            points.append((bond, PauliSum.from_terms(terms, n=qubits)))
        except InputError as exc:
            raise InputError(str(exc), lineno) from None

    bonds = [r for r, _ in points]
    if any(b2 <= b1 for b1, b2 in zip(bonds, bonds[1:])):
        raise InputError(
            f"bond lengths must be strictly increasing, got {bonds}"
        )
    return GeometrySeries(label=label, points=tuple(points))

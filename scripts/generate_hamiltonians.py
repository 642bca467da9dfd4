#!/usr/bin/env python3
"""Generate the benchmark Hamiltonian coefficient files under data/.

Everything is computed from scratch at the minimal-basis (STO-3G) level:
McMurchie-Davidson Gaussian integrals for s/p shells, restricted
Hartree-Fock, and an exact configuration-interaction treatment of a
two-orbital valence space per geometry.

H2  -> 2 qubits: the four Sz = 0 determinants over the sigma-g/sigma-u
       molecular orbitals form the qubit basis |00>, |01>, |10>, |11>
       (alpha-electron orbital, beta-electron orbital); the CI matrix is
       expanded over Pauli strings.
LiH -> 3 qubits: with the Li 1s core frozen, the three singlet
       configurations {sigma^2, open-shell sigma sigma*, sigma*^2} give a
       3x3 CI matrix, one-hot encoded on the Hamming-weight-1 sector
       (|100>, |010>, |001>).  A penalty of 100 Ha per unit deviation
       squared from single occupation pushes every other sector far above,
       so the three lowest eigenvalues of the 8x8 operator are exactly the
       CI energies.

Run from the repository root:  python3 scripts/generate_hamiltonians.py
"""

import itertools
import sys
from pathlib import Path

import numpy as np
from scipy.special import hyp1f1

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from ssqite.exact_oracle import eigensolve  # noqa: E402
from ssqite.pauli_algebra import decompose_dense, load_geometry_series  # noqa: E402

ANGSTROM_TO_BOHR = 1.8897259886

# STO-3G exponents / contraction coefficients (normalized primitives).
H_1S = [(3.42525091, 0.15432897), (0.62391373, 0.53532814), (0.16885540, 0.44463454)]
LI_1S = [(16.1195750, 0.15432897), (2.9362007, 0.53532814), (0.7946505, 0.44463454)]
LI_2SP_EXP = [0.6362897, 0.1478601, 0.0480887]
LI_2S_COEF = [-0.09996723, 0.39951283, 0.70011547]
LI_2P_COEF = [0.15591627, 0.60768372, 0.39195739]


class Shell:
    """One contracted Cartesian Gaussian."""

    def __init__(self, center, lmn, primitives):
        self.center = np.asarray(center, dtype=float)
        self.lmn = tuple(lmn)
        exps = np.array([e for e, _ in primitives])
        coefs = np.array([c for _, c in primitives])
        self.exps = exps
        self.coefs = coefs * _primitive_norm(exps, lmn)
        # Renormalize the contracted function.
        self_overlap = 0.0
        for a, ca in zip(self.exps, self.coefs):
            for b, cb in zip(self.exps, self.coefs):
                self_overlap += ca * cb * _primitive_overlap(a, self.center, lmn, b, self.center, lmn)
        self.coefs = self.coefs / np.sqrt(self_overlap)


def _double_factorial(n):
    return 1 if n < 2 else n * _double_factorial(n - 2)


def _primitive_norm(a, lmn):
    l, m, n = lmn
    num = (2 * a / np.pi) ** 0.75 * (4 * a) ** ((l + m + n) / 2)
    den = np.sqrt(_double_factorial(2 * l - 1) * _double_factorial(2 * m - 1) * _double_factorial(2 * n - 1))
    return num / den


def _hermite_e(i, j, t, qx, a, b):
    """McMurchie-Davidson expansion coefficient E_t^{ij} along one axis."""
    p = a + b
    mu = a * b / p
    if t < 0 or t > i + j:
        return 0.0
    if i == j == t == 0:
        return np.exp(-mu * qx * qx)
    if j == 0:
        return (
            _hermite_e(i - 1, j, t - 1, qx, a, b) / (2 * p)
            - (mu * qx / a) * _hermite_e(i - 1, j, t, qx, a, b)
            + (t + 1) * _hermite_e(i - 1, j, t + 1, qx, a, b)
        )
    return (
        _hermite_e(i, j - 1, t - 1, qx, a, b) / (2 * p)
        + (mu * qx / b) * _hermite_e(i, j - 1, t, qx, a, b)
        + (t + 1) * _hermite_e(i, j - 1, t + 1, qx, a, b)
    )


def _primitive_overlap(a, A, lmn1, b, B, lmn2):
    p = a + b
    out = (np.pi / p) ** 1.5
    for axis in range(3):
        out *= _hermite_e(lmn1[axis], lmn2[axis], 0, A[axis] - B[axis], a, b)
    return out


def _primitive_kinetic(a, A, lmn1, b, B, lmn2):
    l2, m2, n2 = lmn2

    def s(lmn):
        return _primitive_overlap(a, A, lmn1, b, B, lmn)

    term0 = b * (2 * (l2 + m2 + n2) + 3) * s((l2, m2, n2))
    term1 = -2 * b * b * (s((l2 + 2, m2, n2)) + s((l2, m2 + 2, n2)) + s((l2, m2, n2 + 2)))
    term2 = -0.5 * (
        l2 * (l2 - 1) * s((l2 - 2, m2, n2)) if l2 >= 2 else 0.0
    ) - 0.5 * (
        m2 * (m2 - 1) * s((l2, m2 - 2, n2)) if m2 >= 2 else 0.0
    ) - 0.5 * (
        n2 * (n2 - 1) * s((l2, m2, n2 - 2)) if n2 >= 2 else 0.0
    )
    return term0 + term1 + term2


def _boys(m, t):
    return hyp1f1(m + 0.5, m + 1.5, -t) / (2 * m + 1)


def _hermite_coulomb(t, u, v, n, p, PC):
    """Auxiliary Hermite Coulomb integral R^n_{tuv}."""
    if t == u == v == 0:
        return (-2 * p) ** n * _boys(n, p * float(PC @ PC))
    if t > 0:
        val = PC[0] * _hermite_coulomb(t - 1, u, v, n + 1, p, PC)
        if t > 1:
            val += (t - 1) * _hermite_coulomb(t - 2, u, v, n + 1, p, PC)
        return val
    if u > 0:
        val = PC[1] * _hermite_coulomb(t, u - 1, v, n + 1, p, PC)
        if u > 1:
            val += (u - 1) * _hermite_coulomb(t, u - 2, v, n + 1, p, PC)
        return val
    val = PC[2] * _hermite_coulomb(t, u, v - 1, n + 1, p, PC)
    if v > 1:
        val += (v - 1) * _hermite_coulomb(t, u, v - 2, n + 1, p, PC)
    return val


def _primitive_nuclear(a, A, lmn1, b, B, lmn2, C):
    p = a + b
    P = (a * A + b * B) / p
    val = 0.0
    for t in range(lmn1[0] + lmn2[0] + 1):
        for u in range(lmn1[1] + lmn2[1] + 1):
            for v in range(lmn1[2] + lmn2[2] + 1):
                e = (
                    _hermite_e(lmn1[0], lmn2[0], t, A[0] - B[0], a, b)
                    * _hermite_e(lmn1[1], lmn2[1], u, A[1] - B[1], a, b)
                    * _hermite_e(lmn1[2], lmn2[2], v, A[2] - B[2], a, b)
                )
                if e != 0.0:
                    val += e * _hermite_coulomb(t, u, v, 0, p, P - C)
    return 2 * np.pi / p * val


def _primitive_eri(a, A, la, b, B, lb, c, C, lc, d, D, ld):
    p = a + b
    q = c + d
    alpha = p * q / (p + q)
    P = (a * A + b * B) / p
    Q = (c * C + d * D) / q
    PQ = P - Q
    val = 0.0
    for t in range(la[0] + lb[0] + 1):
        for u in range(la[1] + lb[1] + 1):
            for v in range(la[2] + lb[2] + 1):
                e1 = (
                    _hermite_e(la[0], lb[0], t, A[0] - B[0], a, b)
                    * _hermite_e(la[1], lb[1], u, A[1] - B[1], a, b)
                    * _hermite_e(la[2], lb[2], v, A[2] - B[2], a, b)
                )
                if e1 == 0.0:
                    continue
                for tt in range(lc[0] + ld[0] + 1):
                    for uu in range(lc[1] + ld[1] + 1):
                        for vv in range(lc[2] + ld[2] + 1):
                            e2 = (
                                _hermite_e(lc[0], ld[0], tt, C[0] - D[0], c, d)
                                * _hermite_e(lc[1], ld[1], uu, C[1] - D[1], c, d)
                                * _hermite_e(lc[2], ld[2], vv, C[2] - D[2], c, d)
                            )
                            if e2 == 0.0:
                                continue
                            val += (
                                e1 * e2 * (-1) ** (tt + uu + vv)
                                * _hermite_coulomb(t + tt, u + uu, v + vv, 0, alpha, PQ)
                            )
    return val * 2 * np.pi ** 2.5 / (p * q * np.sqrt(p + q))


def _contracted(func, sh1, sh2, *extra):
    out = 0.0
    for a, ca in zip(sh1.exps, sh1.coefs):
        for b, cb in zip(sh2.exps, sh2.coefs):
            out += ca * cb * func(a, sh1.center, sh1.lmn, b, sh2.center, sh2.lmn, *extra)
    return out


def _contracted_eri(s1, s2, s3, s4):
    out = 0.0
    for a, ca in zip(s1.exps, s1.coefs):
        for b, cb in zip(s2.exps, s2.coefs):
            for c, cc in zip(s3.exps, s3.coefs):
                for d, cd in zip(s4.exps, s4.coefs):
                    out += ca * cb * cc * cd * _primitive_eri(
                        a, s1.center, s1.lmn, b, s2.center, s2.lmn,
                        c, s3.center, s3.lmn, d, s4.center, s4.lmn,
                    )
    return out


def integrals(shells, charges, centers):
    """AO overlap, core Hamiltonian, ERI tensor (chemists' notation)."""
    nbf = len(shells)
    S = np.zeros((nbf, nbf))
    T = np.zeros((nbf, nbf))
    V = np.zeros((nbf, nbf))
    for i in range(nbf):
        for j in range(nbf):
            S[i, j] = _contracted(_primitive_overlap, shells[i], shells[j])
            T[i, j] = _contracted(_primitive_kinetic, shells[i], shells[j])
            for Z, C in zip(charges, centers):
                V[i, j] -= Z * _contracted(_primitive_nuclear, shells[i], shells[j], np.asarray(C))
    eri = np.zeros((nbf, nbf, nbf, nbf))
    for i, j, k, l in itertools.product(range(nbf), repeat=4):
        if i < j or k < l or (i, j) < (k, l):
            continue
        val = _contracted_eri(shells[i], shells[j], shells[k], shells[l])
        for a, b in ((i, j), (j, i)):
            for c, d in ((k, l), (l, k)):
                eri[a, b, c, d] = val
                eri[c, d, a, b] = val
    return S, T + V, eri


def rhf(S, hcore, eri, n_electrons, max_cycles=200, tol=1e-11):
    """Closed-shell SCF; returns (energy_electronic, mo_coeffs, mo_energies)."""
    nocc = n_electrons // 2
    w, U = np.linalg.eigh(S)
    X = U @ np.diag(w ** -0.5) @ U.T
    D = np.zeros_like(S)
    energy = 0.0
    for cycle in range(max_cycles):
        J = np.einsum("pqrs,rs->pq", eri, D)
        K = np.einsum("prqs,rs->pq", eri, D)
        F = hcore + J - 0.5 * K
        new_energy = 0.5 * np.sum(D * (hcore + F))
        Fp = X.T @ F @ X
        mo_e, Cp = np.linalg.eigh(Fp)
        C = X @ Cp
        D_new = 2.0 * C[:, :nocc] @ C[:, :nocc].T
        if np.max(np.abs(D_new - D)) < tol and cycle > 1:
            return new_energy, C, mo_e
        D = D_new
        energy = new_energy
    raise RuntimeError(f"SCF not converged (last E = {energy})")


def mo_transform(hcore, eri, C, orbitals):
    """Core Hamiltonian and ERIs over a subset of MOs."""
    Csub = C[:, orbitals]
    h = Csub.T @ hcore @ Csub
    g = np.einsum("pqrs,pi,qj,rk,sl->ijkl", eri, Csub, Csub, Csub, Csub, optimize=True)
    return h, g


def freeze_core(h, g, core, active):
    """Fold doubly occupied core orbitals into an effective active Hamiltonian."""
    e_core = 0.0
    for c in core:
        e_core += 2 * h[c, c]
        for c2 in core:
            e_core += 2 * g[c, c, c2, c2] - g[c, c2, c2, c]
    na = len(active)
    h_eff = np.zeros((na, na))
    for i, p in enumerate(active):
        for j, q in enumerate(active):
            h_eff[i, j] = h[p, q]
            for c in core:
                h_eff[i, j] += 2 * g[p, q, c, c] - g[p, c, c, q]
    g_act = g[np.ix_(active, active, active, active)]
    return e_core, h_eff, g_act


# --- exact CI over a two-orbital active space -------------------------------

def _fermion_ops(n_modes):
    """Dense annihilation operators with Jordan-Wigner sign bookkeeping."""
    sigma_minus = np.array([[0, 1], [0, 0]], dtype=float)
    sign_z = np.array([[1, 0], [0, -1]], dtype=float)
    eye = np.eye(2)
    ops = []
    for j in range(n_modes):
        factors = [sign_z] * j + [sigma_minus] + [eye] * (n_modes - j - 1)
        mat = np.array([[1.0]])
        for f in factors:
            mat = np.kron(mat, f)
        ops.append(mat)
    return ops


def ci_matrix_two_orbitals(h_eff, g_act, offset):
    """4x4 Hamiltonian over the Sz = 0 determinants of two spatial orbitals.

    Basis order: |aa>, |a b-bar>, |b a-bar>, |bb> where the first slot is the
    alpha electron's orbital and the second the beta electron's.
    """
    ann = _fermion_ops(4)  # spin orbitals: a-up, a-down, b-up, b-down
    cre = [m.T for m in ann]

    def so(p, spin):
        return 2 * p + spin

    H = np.zeros((16, 16))
    for p in range(2):
        for q in range(2):
            for s in range(2):
                H += h_eff[p, q] * cre[so(p, s)] @ ann[so(q, s)]
    for p in range(2):
        for q in range(2):
            for r in range(2):
                for s_ in range(2):
                    for s1 in range(2):
                        for s2 in range(2):
                            H += 0.5 * g_act[p, q, r, s_] * (
                                cre[so(p, s1)] @ cre[so(r, s2)]
                                @ ann[so(s_, s2)] @ ann[so(q, s1)]
                            )
    # Occupation bitstrings n(a-up) n(a-down) n(b-up) n(b-down), MSB first.
    det_index = {"aa": 0b1100, "ab": 0b1001, "ba": 0b0110, "bb": 0b0011}
    order = [det_index[k] for k in ("aa", "ab", "ba", "bb")]
    m4 = H[np.ix_(order, order)] + offset * np.eye(4)
    assert np.max(np.abs(m4 - m4.T)) < 1e-12
    return m4


# --- molecule drivers --------------------------------------------------------

def h2_shells(r_angstrom):
    r = r_angstrom * ANGSTROM_TO_BOHR
    c0, c1 = np.zeros(3), np.array([0.0, 0.0, r])
    return (
        [Shell(c0, (0, 0, 0), H_1S), Shell(c1, (0, 0, 0), H_1S)],
        [1.0, 1.0],
        [c0, c1],
    )


def lih_shells(r_angstrom):
    r = r_angstrom * ANGSTROM_TO_BOHR
    li, h = np.zeros(3), np.array([0.0, 0.0, r])
    sp = list(zip(LI_2SP_EXP, LI_2S_COEF))
    shells = [
        Shell(li, (0, 0, 0), LI_1S),
        Shell(li, (0, 0, 0), sp),
        Shell(li, (1, 0, 0), list(zip(LI_2SP_EXP, LI_2P_COEF))),
        Shell(li, (0, 1, 0), list(zip(LI_2SP_EXP, LI_2P_COEF))),
        Shell(li, (0, 0, 1), list(zip(LI_2SP_EXP, LI_2P_COEF))),
        Shell(h, (0, 0, 0), H_1S),
    ]
    return shells, [3.0, 1.0], [li, h]


def nuclear_repulsion(charges, centers):
    out = 0.0
    for i in range(len(charges)):
        for j in range(i + 1, len(charges)):
            out += charges[i] * charges[j] / np.linalg.norm(np.asarray(centers[i]) - np.asarray(centers[j]))
    return out


def h2_ci(r_angstrom):
    shells, charges, centers = h2_shells(r_angstrom)
    S, hcore, eri = integrals(shells, charges, centers)
    e_nuc = nuclear_repulsion(charges, centers)
    e_scf, C, _ = rhf(S, hcore, eri, n_electrons=2)
    h, g = mo_transform(hcore, eri, C, [0, 1])
    m4 = ci_matrix_two_orbitals(h, g, offset=e_nuc)
    return m4, e_scf + e_nuc


def lih_ci(r_angstrom, penalty=100.0):
    shells, charges, centers = lih_shells(r_angstrom)
    S, hcore, eri = integrals(shells, charges, centers)
    e_nuc = nuclear_repulsion(charges, centers)
    e_scf, C, mo_e = rhf(S, hcore, eri, n_electrons=4)

    # Active space: the sigma HOMO plus the lowest sigma-type virtual.  Pi MOs
    # live entirely on the Li 2p_x/2p_y AOs (indices 2 and 3).
    virtuals = list(range(2, 6))
    def pi_weight(mo):
        c = C[:, mo]
        return (c[2] ** 2 + c[3] ** 2) / np.sum(c ** 2)
    sigma_virtuals = [v for v in virtuals if pi_weight(v) < 0.5]
    active = [1, sigma_virtuals[0]]

    h, g = mo_transform(hcore, eri, C, list(range(6)))
    e_core, h_eff, g_act = freeze_core(h, g, core=[0], active=active)
    m4 = ci_matrix_two_orbitals(h_eff, g_act, offset=e_core + e_nuc)

    # Rotate |a b-bar>, |b a-bar> into spin eigenstates.  With this Fock
    # ordering the symmetric combination is the Sz=0 triplet and the
    # antisymmetric one the open-shell singlet; the triplet row must decouple
    # from the three singlet configurations.
    q = np.eye(4)
    q[1:3, 1:3] = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    rotated = q @ m4 @ q.T
    coupling = np.max(np.abs(rotated[1, [0, 2, 3]]))
    assert coupling < 1e-8, f"singlet-triplet coupling {coupling}"
    m3 = rotated[np.ix_([0, 2, 3], [0, 2, 3])]
    return m3, e_scf + e_nuc, penalty


def one_hot_encode(m3, penalty):
    """Embed a 3x3 Hermitian block on the weight-1 sector of 3 qubits."""
    eye = np.eye(2)
    number = np.array([[0, 0], [0, 1.0]])
    x = np.array([[0, 1.0], [1, 0]])
    y = np.array([[0, -1j], [1j, 0]])

    def chain(ops):
        out = np.array([[1.0 + 0j]])
        for o in ops:
            out = np.kron(out, o)
        return out

    def on(op, q):
        return chain([op if i == q else eye for i in range(3)])

    H = np.zeros((8, 8), dtype=complex)
    for p in range(3):
        H += m3[p, p] * on(number, p)
    for p in range(3):
        for q in range(p + 1, 3):
            hop = 0.5 * (on(x, p) @ on(x, q) + on(y, p) @ on(y, q))
            H += m3[p, q] * hop
    total = sum(on(number, p) for p in range(3))
    H += penalty * (total - np.eye(8)) @ (total - np.eye(8))
    assert np.max(np.abs(H.imag)) < 1e-12
    return H.real


def write_series(path, molecule, rows, comment_lines):
    lines = [f"# {c}" for c in comment_lines]
    lines.append(f"molecule {molecule}")
    for r, pauli_sum in rows:
        lines.append(f"geometry {r:.4f}")
        for coeff, label in sorted(pauli_sum.terms, key=lambda t: t[1]):
            lines.append(f"{label} {coeff:.16e}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {path} ({len(rows)} geometries)")


def main():
    data_dir = REPO / "data"
    data_dir.mkdir(exist_ok=True)

    # --- H2 ---
    h2_grid = [0.35, 0.45, 0.55, 0.65, 0.735, 0.80, 0.95, 1.10, 1.30, 1.50, 1.75, 2.00, 2.25]
    rows = []
    for r in h2_grid:
        m4, e_rhf = h2_ci(r)
        ci_energies = np.linalg.eigvalsh(m4)
        if abs(r - 0.735) < 1e-9:
            print(f"H2  R={r}: RHF={e_rhf:.6f}  CI ground={ci_energies[0]:.6f}")
            assert abs(e_rhf - (-1.1167)) < 2e-3, e_rhf
            assert abs(ci_energies[0] - (-1.1373)) < 2e-3, ci_energies[0]
        pauli_sum = decompose_dense(m4.astype(complex))
        recon = np.max(np.abs(pauli_sum.dense.real - m4))
        assert recon < 1e-10, recon
        rows.append((r, pauli_sum))
    write_series(
        data_dir / "h2_sto3g.txt",
        "H2",
        rows,
        [
            "H2 minimal-basis (STO-3G) full CI over the Sz=0 determinant basis,",
            "2-qubit encoding (alpha-electron orbital, beta-electron orbital).",
            "Generated by scripts/generate_hamiltonians.py; energies in Hartree,",
            "bond lengths in Angstrom.",
        ],
    )

    # --- LiH ---
    lih_grid = [1.00, 1.20, 1.40, 1.60, 1.80, 2.00, 2.25, 2.50, 2.75, 3.00]
    rows = []
    for r in lih_grid:
        m3, e_rhf, penalty = lih_ci(r)
        if abs(r - 1.60) < 1e-9:
            print(f"LiH R={r}: RHF={e_rhf:.6f}  CAS ground={np.linalg.eigvalsh(m3)[0]:.6f}")
            assert abs(e_rhf - (-7.862)) < 2e-2, e_rhf
        dense = one_hot_encode(m3, penalty)
        pauli_sum = decompose_dense(dense.astype(complex))
        low3 = np.linalg.eigvalsh(dense)[:3]
        assert np.max(np.abs(low3 - np.linalg.eigvalsh(m3))) < 1e-10
        rows.append((r, pauli_sum))
    write_series(
        data_dir / "lih_sto3g.txt",
        "LiH",
        rows,
        [
            "LiH minimal-basis (STO-3G) CI over {sigma^2, open-shell singlet,",
            "sigma*^2} with the Li 1s core frozen; 3x3 block one-hot encoded on",
            "the Hamming-weight-1 sector of 3 qubits (100 Ha penalty on other",
            "particle-number sectors).",
            "Generated by scripts/generate_hamiltonians.py; energies in Hartree,",
            "bond lengths in Angstrom.",
        ],
    )

    # Round-trip sanity on both files.
    for name in ("h2_sto3g.txt", "lih_sto3g.txt"):
        series = load_geometry_series(data_dir / name)
        for r, h in series.points:
            spec = eigensolve(h)
            assert np.all(np.diff(spec.eigenvalues) > -1e-12)
        print(f"verified {name}: {len(series)} geometries, n={series.n}")


if __name__ == "__main__":
    main()

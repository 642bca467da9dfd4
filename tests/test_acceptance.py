"""Acceptance gate: benchmark accuracy, convergence shape, property suites.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Benchmarks assert chemical accuracy (1.6e-3 Ha) against the
dense-diagonalization oracle applied to the same shipped coefficient files.
"""

import dataclasses
import hashlib
import itertools
import time

import numpy as np
import pytest

from conftest import CONFIGS, DATA, random_hermitian
from ssqite.bench_cli import (
    CHEMICAL_ACCURACY,
    _initial_theta,
    blas_kernel,
    cmd_scan,
    cmd_trace,
    parse_config,
)
from ssqite.errors import MaxItersExceeded, MaxStepsExceeded
from ssqite.pauli_algebra import PauliSum, decompose_dense, load_geometry_series
from ssqite.qite_engine import QiteConfig, _Frame, assemble, run_qite
from ssqite.simulator import (
    Statevector,
    apply,
    apply_pauli_string,
    build_excitation_preserving,
    build_twolocal,
    derivative_stack,
    expectation,
    hadamard_test,
    sample_expectation,
)
from ssqite.subspace import SsqiteConfig, init_schedule, run

H2_STRETCH = 5.5e-5
LIH_STRETCH = 3.3e-4
# Iterations of the whole shipped scans at their seed 11, summed over the
# geometries.  A kernel change that moves a trajectory by rounding shows here.
H2_ITERS = 8143
LIH_ITERS = 1723
# md5 of the shipped runs' output files at seed 11 (NumPy 2.4, OpenBLAS
# 0.3.31 on its SkylakeX kernel; see ``blas_kernel``).  A change that moves
# any output bit must update these and say why.
PINNED_MD5 = {
    "h2 scan.csv": "64e988e27179f0272f5861f6ecb89b18",
    "lih scan.csv": "a5d47401b9db263e4cc45c28658ba858",
    "h2 trace.csv at 2.25": "d86b02ae589169da7534b1ca50d19e65",
}


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def scan_config(name, tmp_dir):
    cfg = parse_config(CONFIGS / name)
    return dataclasses.replace(cfg, output_dir=tmp_dir)


@pytest.fixture(scope="module")
def h2_scan(tmp_path_factory):
    out = tmp_path_factory.mktemp("h2_scan")
    cfg = scan_config("h2_scan.cfg", out)
    start = time.perf_counter()
    code = cmd_scan(cfg, tolerance=CHEMICAL_ACCURACY)
    elapsed = time.perf_counter() - start
    return cfg, code, elapsed


def scan_iterations(lines) -> int:
    """Iterations summed over the geometries of scan.csv rows."""
    return sum({l.split(",")[0]: int(l.split(",")[5]) for l in lines}.values())


def test_criterion_1_h2_benchmark(h2_scan):
    cfg, code, elapsed = h2_scan
    lines = (cfg.output_dir / "scan.csv").read_text().splitlines()[1:]
    errors = np.array([float(l.split(",")[4]) for l in lines])
    geometries = len({l.split(",")[0] for l in lines})
    per_geometry = elapsed / geometries
    iters = scan_iterations(lines)
    detail = (
        f"max|E-E_exact|={errors.max():.3e} Ha over {geometries} geometries x 3 levels "
        f"(chemical accuracy {CHEMICAL_ACCURACY:g}; stretch {H2_STRETCH:g} "
        f"{'met' if errors.max() < H2_STRETCH else 'missed'}), "
        f"{per_geometry:.1f} s/geometry, {iters} iterations at seed {cfg.seed} "
        f"(expected {H2_ITERS} at seed 11)"
    )
    report("1 (H2 benchmark)", code == 0 and errors.max() < CHEMICAL_ACCURACY
           and per_geometry < 60.0 and cfg.seed == 11 and iters == H2_ITERS, detail)


@pytest.fixture(scope="module")
def lih_scan(tmp_path_factory):
    cfg = scan_config("lih_scan.cfg", tmp_path_factory.mktemp("lih_scan"))
    start = time.perf_counter()
    code = cmd_scan(cfg, tolerance=CHEMICAL_ACCURACY)
    elapsed = time.perf_counter() - start
    return cfg, code, elapsed


def test_criterion_2_lih_benchmark(lih_scan):
    cfg, code, elapsed = lih_scan
    lines = (cfg.output_dir / "scan.csv").read_text().splitlines()[1:]
    errors = np.array([float(l.split(",")[4]) for l in lines])
    geometries = len({l.split(",")[0] for l in lines})
    per_geometry = elapsed / geometries
    iters = scan_iterations(lines)
    detail = (
        f"max|E-E_exact|={errors.max():.3e} Ha over {geometries} geometries x 3 levels "
        f"(stretch {LIH_STRETCH:g} {'met' if errors.max() < LIH_STRETCH else 'missed'}), "
        f"{per_geometry:.1f} s/geometry, {iters} iterations at seed {cfg.seed} "
        f"(expected {LIH_ITERS} at seed 11)"
    )
    report("2 (LiH benchmark)", code == 0 and errors.max() < CHEMICAL_ACCURACY
           and per_geometry < 300.0 and cfg.seed == 11 and iters == LIH_ITERS, detail)


@pytest.fixture(scope="module")
def fig1_run():
    series = load_geometry_series(DATA / "h2_sto3g.txt")
    _, h = series.nearest(0.95)
    cfg = parse_config(CONFIGS / "h2_scan.cfg")
    circuit = build_twolocal()
    states = [Statevector.from_label(l) for l in cfg.state_labels()]
    result = run(
        h, circuit, states, cfg.subspace_config(),
        theta0=_initial_theta(cfg, circuit.num_params),
    )
    return h, result


def test_criterion_3_convergence_shape(fig1_run):
    _, result = fig1_run
    traces = result.history.energies.T
    final = result.energies[:, None]
    within = np.all(np.abs(traces - final) < CHEMICAL_ACCURACY, axis=0)
    settled = next(
        (t for t in range(traces.shape[1]) if within[t:].all()), traces.shape[1]
    )
    ascending = bool(np.all(np.diff(result.energies) >= -1e-6))
    ok = settled <= 200 and ascending and bool(np.all(result.converged))
    report(
        "3 (convergence shape)",
        ok,
        f"trace reaches all three converged energies by iteration {settled} "
        f"(<= 200), ascending={ascending}, all levels converged in "
        f"{result.iterations} iterations",
    )


def test_criterion_4a_decomposition_round_trip():
    rng = np.random.default_rng(7)
    worst = 0.0
    for n in (1, 2, 3, 4):
        m = random_hermitian(rng, 2 ** n)
        h = decompose_dense(m)
        worst = max(worst, float(np.max(np.abs(h.dense - m))))
        labels = ["".join(t) for t in itertools.product("IXYZ", repeat=n)]
        coeffs = rng.normal(size=len(labels))
        h0 = PauliSum.from_terms(list(zip(coeffs, labels)))
        h1 = decompose_dense(h0.dense, drop_tol=0.0)
        for coeff, string in h0.terms:
            worst = max(worst, abs(h1.coefficient(str(string)) - coeff))
    report("4a (decomposition round trip)", worst < 1e-12, f"max deviation {worst:.2e}")


def test_criterion_4b_mclachlan_system_properties():
    rng = np.random.default_rng(8)
    c = build_twolocal()
    s0 = Statevector.zero(2)
    worst_sym, worst_eig, worst_grad = 0.0, 0.0, 0.0
    for _ in range(20):
        h = decompose_dense(random_hermitian(rng, 4))
        theta = rng.uniform(-np.pi, np.pi, 16)
        sys = assemble(_Frame.of(h, c, s0.amps[:, None]), theta)
        a = sys.a[0]
        worst_sym = max(worst_sym, float(np.max(np.abs(a - a.T))))
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(a).min()))
        eps = 1e-6
        for i in rng.choice(16, size=3, replace=False):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += eps
            tm[i] -= eps
            grad = (
                expectation(h, apply(c, tp, s0)) - expectation(h, apply(c, tm, s0))
            ) / (2 * eps)
            worst_grad = max(worst_grad, abs(sys.c[0, i] + 0.5 * grad))
    ok = worst_sym < 1e-10 and worst_eig > -1e-9 and worst_grad < 1e-8
    report(
        "4b (A sym/PSD, C=-grad E/2)",
        ok,
        f"asym {worst_sym:.1e}, min eig {worst_eig:.1e}, |C+grad/2| {worst_grad:.1e} "
        f"over 20 random configurations",
    )


def test_criterion_4c_hadamard_equivalence():
    rng = np.random.default_rng(9)
    c = build_twolocal()
    theta = rng.uniform(-np.pi, np.pi, 16)
    s0 = Statevector.zero(2)
    h = decompose_dense(random_hermitian(rng, 4))
    phi, stack = derivative_stack(c, theta, s0)
    from ssqite.simulator import apply_pauli_sum

    h_phi = apply_pauli_sum(h, phi.amps)
    worst = 0.0
    for i in range(0, 16, 2):
        for j in range(0, 16, 4):
            direct = float(np.real(np.vdot(stack[i], stack[j])))
            worst = max(worst, abs(hadamard_test(c, theta, "A-real", i, j=j) - direct))
        direct_c = -float(np.real(np.vdot(stack[i], h_phi)))
        worst = max(worst, abs(hadamard_test(c, theta, "C-real", i, h=h) - direct_c))
    report("4c (Hadamard-test equivalence)", worst < 1e-10, f"max entry deviation {worst:.2e}")


def test_criterion_4d_shared_mode_orthogonality(fig1_run):
    _, result = fig1_run
    worst = float(result.history.max_offdiag.max())
    report(
        "4d (shared-mode orthogonality)",
        worst < 1e-10,
        f"max pairwise overlap over {result.iterations} iterations: {worst:.2e}",
    )


def test_criterion_4e_schedule_identities():
    ok = True
    for k in range(1, 11):
        dtau = init_schedule(k, 1.0)
        if not np.allclose(dtau, [1.0 / 2 ** i for i in range(k)]):
            ok = False
        for i in range(k):
            if dtau[i] < dtau[i + 1:].sum():
                ok = False
    report("4e (step-size schedule identities)", ok, "dtau_i = b/2^i and head >= tail sum for k <= 10")


def test_criterion_4f_k1_reduction():
    series = load_geometry_series(DATA / "h2_sto3g.txt")
    _, h = series.nearest(0.95)
    c = build_twolocal()
    theta0 = np.random.default_rng(11).normal(0, 0.1, 16)
    s0 = Statevector.from_label("00")
    steps = 40
    with pytest.raises(MaxStepsExceeded) as qite_exc:
        run_qite(
            c, theta0, h, s0,
            QiteConfig(dtau=0.55, grad_tol=0.0, max_steps=steps),
        )
    with pytest.raises(MaxItersExceeded) as ss_exc:
        run(
            h, c, [s0],
            SsqiteConfig(b=0.55, grad_tol=0.0, max_iters=steps),
            theta0=theta0,
        )
    deviation = float(
        np.max(
            np.abs(
                qite_exc.value.energies[:steps]
                - ss_exc.value.result.history.energies[:, 0]
            )
        )
    )
    report("4f (k=1 reduction to QITE)", deviation <= 1e-12,
           f"max trace deviation over {steps} steps: {deviation:.2e}")


def test_criterion_4g_excitation_conservation():
    rng = np.random.default_rng(10)
    c = build_excitation_preserving()
    weight_one = {0b100, 0b010, 0b001}
    worst = 0.0
    for _ in range(25):
        theta = rng.uniform(-np.pi, np.pi, 16)
        out = apply(c, theta, Statevector.from_label("010"))
        worst = max(
            worst,
            sum(abs(out.amps[i]) ** 2 for i in range(8) if i not in weight_one),
        )
    report("4g (excitation-number conservation)", worst < 1e-10,
           f"max sector leakage over 25 random parameter vectors: {worst:.2e}")


def test_criterion_4h_degenerate_spectrum():
    h = PauliSum.from_terms([(1.0, "ZZ")])
    theta0 = np.random.default_rng(11).normal(0, 0.1, 16)
    states = [Statevector.from_label(l) for l in ("00", "01")]
    result = run(h, build_twolocal(), states, SsqiteConfig(), theta0=theta0)
    split = abs(result.energies[0] - result.energies[1])
    ok = split < 1e-6 and np.allclose(result.energies, [-1.0, -1.0], atol=1e-5)
    report("4h (degenerate pair)", ok,
           f"ZZ run returned energies {result.energies} with split {split:.2e}")


def test_criterion_5_determinism(h2_scan, tmp_path):
    cfg, _, _ = h2_scan
    first = (cfg.output_dir / "scan.csv").read_bytes()
    rerun = dataclasses.replace(cfg, output_dir=tmp_path)
    cmd_scan(rerun, tolerance=CHEMICAL_ACCURACY)
    identical = (tmp_path / "scan.csv").read_bytes() == first
    report("5 (scan determinism)", identical,
           "repeated scan with fixed seed is byte-identical")


def test_criterion_5b_pinned_output_bytes(h2_scan, lih_scan, tmp_path):
    # The scans of criteria 1 and 2 and the benchmark's trace, byte for byte.
    trace_cfg = scan_config("h2_scan.cfg", tmp_path)
    assert cmd_trace(trace_cfg, bond_length=2.25) == 0
    files = {
        "h2 scan.csv": h2_scan[0].output_dir / "scan.csv",
        "lih scan.csv": lih_scan[0].output_dir / "scan.csv",
        "h2 trace.csv at 2.25": tmp_path / "trace.csv",
    }
    digests = {name: hashlib.md5(path.read_bytes()).hexdigest() for name, path in files.items()}
    moved = sorted(name for name in files if digests[name] != PINNED_MD5[name])
    report("5b (pinned output bytes)", not moved,
           f"md5 of {', '.join(files)}; changed: {moved or 'none'}; "
           f"BLAS kernel {blas_kernel()}")


def test_shot_noise_variance_substitute():
    # Stand-in for hardware-noise emulation: the seeded shot-noise
    # estimator's spread must sit within 3x of the analytic prediction.
    rng = np.random.default_rng(12)
    h = decompose_dense(random_hermitian(rng, 4))
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    s = Statevector(amps=amps / np.linalg.norm(amps), n=2)
    shots = 2000
    variance = 0.0
    for coeff, string in h.terms:
        if all(l == "I" for l in string):
            continue
        mean = float(np.vdot(s.amps, apply_pauli_string(string, s.amps)).real)
        variance += coeff ** 2 * (1.0 - mean ** 2) / shots
    analytic = float(np.sqrt(variance))
    estimates = [sample_expectation(h, s, shots, seed=5000 + r) for r in range(100)]
    empirical = float(np.std(estimates, ddof=1))
    ok = empirical < 3 * analytic and empirical > analytic / 3
    report(
        "6 (shot-noise variance)",
        ok,
        f"empirical stderr {empirical:.2e} vs analytic {analytic:.2e} "
        f"(ratio {empirical / analytic:.2f}, required within 3x)",
    )

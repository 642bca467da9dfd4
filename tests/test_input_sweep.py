"""Seeded sweep of the CLI's input surface.

Every config key and every field of a one-geometry coefficient file is set,
one at a time, to a value of each edge class, and the result runs through
``scan``, ``trace`` and ``exact`` via ``main``.  A command must exit 0, 1 or
2 and never raise; it must exit 2 whenever ``parse_config`` or
``load_geometry_series`` refuses the case; every nonzero exit explains itself
on stderr with ``error: ``; and no CSV it writes holds ``nan``.  A small ``max_iters``
keeps each run short, so most runs that get past the input checks exit 1.
"""

import random

import pytest

from ssqite.bench_cli import _FIELD_PARSERS, main, parse_config
from ssqite.errors import InputError
from ssqite.pauli_algebra import load_geometry_series

# Each value class, with the spellings the seeded generator picks from.
VALUE_CLASSES = {
    "nan": ("nan", "NaN", "-nan"),
    "+inf": ("inf", "Infinity", "+INF"),
    "-inf": ("-inf", "-Infinity"),
    "+1e308": ("1e308", "1.7976931348623157e308"),
    "-1e308": ("-1e308", "-1.7976931348623157e308"),
    "subnormal": ("5e-324", "4.9e-324"),
    "negative": ("-1",),
    "non-integer": ("2.5",),
    "empty": ("",),
    "non-ASCII": ("é", "ψ", "１"),
}
SEED = 25

# A valid config that sets every key, so each mutation replaces one line.
CONFIG = {
    "b": "0.55",
    "grad_tol": "3e-4",
    "patience": "3",
    "max_iters": "5",
    "hamiltonian_path": "h.txt",
    "ansatz": "twolocal",
    "k": "3",
    "seed": "11",
    "shots": "0",
    "output_dir": "out",
    "initial_states": "00,01,10",
    "theta0_scale": "0.1",
}
BOND = 0.35
# The first geometry of the shipped H2 file.
COEFFICIENTS = [
    ["molecule", "H2"],
    ["geometry", "0.3500"],
    ["II", "7.0127324386405199e-01"],
    ["IZ", "-7.4741585285389267e-01"],
    ["YY", "-1.6257322383123482e-01"],
    ["ZI", "-7.4741585285389278e-01"],
    ["ZZ", "1.3103635598193886e-02"],
]


def mutations(targets):
    """(target, value class, spelling) for every target crossed with every class."""
    rng = random.Random(SEED)
    return [(target, name, rng.choice(spellings))
            for target in targets for name, spellings in VALUE_CLASSES.items()]


def config_cases():
    for key, name, value in mutations(CONFIG):
        yield f"{key} = {value!r} ({name})", {**CONFIG, key: value}, COEFFICIENTS


def coefficient_cases():
    fields = [(i, j) for i, line in enumerate(COEFFICIENTS) for j in range(len(line))]
    for (i, j), name, value in mutations(fields):
        lines = [list(line) for line in COEFFICIENTS]
        lines[i][j] = value
        yield f"line {i + 1} field {j + 1} = {value!r} ({name})", CONFIG, lines


def refused(config_path):
    """Whether the config, or the coefficient file it names, is an input error."""
    try:
        load_geometry_series(parse_config(config_path).hamiltonian_path)
    except (InputError, OSError):
        return True
    return False


def problems_of(case_dir, command, capsys):
    argv = [command, "--config", str(case_dir / "run.cfg")]
    if command == "trace":
        argv += ["--bond-length", str(BOND)]
    try:
        code = main(argv)
    except Exception as exc:  # any escape from main is a finding; name the case
        return [f"raised {type(exc).__name__}: {exc}"]
    err = capsys.readouterr().err
    problems = [] if code in (0, 1, 2) else [f"exit {code}"]
    if code != 2 and refused(case_dir / "run.cfg"):
        problems.append(f"exit {code} on a refused input")
    if code and not err.startswith("error: "):
        problems.append(f"exit {code} with stderr {err[:80]!r}")
    if "Traceback" in err:
        problems.append("traceback on stderr")
    problems += [f"nan in {path.name}" for path in case_dir.rglob("*.csv")
                 if "nan" in path.read_text(encoding="utf-8")]
    return problems


@pytest.mark.parametrize("command", ["scan", "trace", "exact"])
@pytest.mark.parametrize("cases", [config_cases, coefficient_cases])
def test_every_edge_value_exits_cleanly(tmp_path, capsys, cases, command):
    assert set(CONFIG) == set(_FIELD_PARSERS)  # a new key joins the sweep
    failures = []
    for index, (label, config, lines) in enumerate(cases()):
        case_dir = tmp_path / str(index)
        case_dir.mkdir()
        (case_dir / "run.cfg").write_text(
            "".join(f"{key} = {value}\n" for key, value in config.items()), encoding="utf-8")
        (case_dir / "h.txt").write_text(
            "".join(" ".join(line) + "\n" for line in lines), encoding="utf-8")
        failures += [f"{command} {label}: {p}" for p in problems_of(case_dir, command, capsys)]
    assert failures == []

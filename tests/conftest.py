from pathlib import Path

import numpy as np
import pytest

from ssqite.pauli_algebra import load_geometry_series

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "data"
CONFIGS = REPO / "configs"


@pytest.fixture(scope="session")
def h2_series():
    return load_geometry_series(DATA / "h2_sto3g.txt")


@pytest.fixture(scope="session")
def lih_series():
    return load_geometry_series(DATA / "lih_sto3g.txt")


@pytest.fixture()
def rng():
    return np.random.default_rng(2024)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a + a.conj().T


def complete_basis(c, amps):
    """A basis of the whole 2^n space that starts with the basis-state inputs ``amps``.

    Stands in for ``invariant_basis`` to run a frame on every amplitude: the
    inputs come first, then the coordinate vectors that are not inputs.
    """
    return np.hstack((amps, np.eye(2 ** c.n)[:, ~amps.any(axis=1)]))

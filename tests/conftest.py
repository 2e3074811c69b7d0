"""Shared fixtures: one step potential with its scattering data."""
import pytest

from gp2d.potentials import step
from gp2d.scattering import scattering_length, neumann_ground_state


@pytest.fixture(scope="session")
def step_pot():
    return step(2.0, 1.0)


@pytest.fixture(scope="session")
def step_zero(step_pot):
    return scattering_length(step_pot)


@pytest.fixture(scope="session")
def step_a(step_zero):
    return step_zero.a


@pytest.fixture(scope="session")
def neumann_r50(step_zero):
    return neumann_ground_state(step_zero, 50.0)

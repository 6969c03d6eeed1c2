"""Shared test configuration.

Every hypothesis property test runs one fixed, derandomized set of examples,
so tier-1 is deterministic; tests set only their own max_examples.

transforms keeps the last random precoder's factors for the rest of the
process. Every test starts without them, so a test that counts QRs sees the
same count whichever tests ran before it.
"""

import pytest
from hypothesis import settings

from ddlf import transforms

settings.register_profile("ddlf", derandomize=True, deadline=None)
settings.load_profile("ddlf")


@pytest.fixture(autouse=True)
def no_random_factors():
    transforms._random_factors.clear()


@pytest.fixture
def qrs(monkeypatch):
    """The (size, seed) of every random precoder QR the test runs."""
    built, random_unitary = [], transforms._random_unitary
    monkeypatch.setattr(transforms, "_random_unitary",
                        lambda *a: built.append(a) or random_unitary(*a))
    return built

"""Shared test configuration.

Every hypothesis property test runs one fixed, derandomized set of examples,
so tier-1 is deterministic; tests set only their own max_examples.
"""

from hypothesis import settings

settings.register_profile("ddlf", derandomize=True, deadline=None)
settings.load_profile("ddlf")

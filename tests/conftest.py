"""Hypothesis runs derandomized, without deadlines and without an example
database, so the property tests are deterministic, do not depend on the
machine's speed and leave no files behind."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")

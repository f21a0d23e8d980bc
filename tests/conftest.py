"""Settings shared by the whole test suite.

Every hypothesis test runs derandomized: its examples come from a fixed
seed, so a property test draws the same cases on every run and cannot make
the suite pass on one run and fail on the next.  A test's own settings,
such as max_examples and deadline, still apply on top of this profile.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

"""Test-session settings: Hypothesis draws the same examples on every run."""

from hypothesis import settings

# derandomize fixes each @given test's examples to a function of the test
# itself; database=None keeps runs from reading or writing .hypothesis/
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

"""Hypothesis settings shared by every property test.

derandomize draws the same examples on every run, whatever PYTHONHASHSEED is,
and without a database no example is replayed from an earlier run.
"""

from hypothesis import settings

settings.register_profile("cycfred", derandomize=True, database=None, deadline=None,
                          max_examples=50)
settings.load_profile("cycfred")

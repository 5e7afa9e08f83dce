"""Shared test settings.

Property tests run under one registered `hypothesis` profile: examples are
derived from each test's name (``derandomize``), so every run of the suite
checks the same cases, and there is no per-example deadline, so a slow
host cannot fail a test on timing alone.
"""

from hypothesis import settings

settings.register_profile("mmsediv", deadline=None, derandomize=True,
                          max_examples=40)
settings.load_profile("mmsediv")

"""Shared test configuration.

Property tests run under one hypothesis profile: derandomized, so every run of
the suite draws the same examples; no deadline, because orbit timings vary
with the machine; a bounded example count; and no example database on disk.
"""

from hypothesis import settings

settings.register_profile("betalab", derandomize=True, deadline=None, max_examples=40, database=None)
settings.load_profile("betalab")

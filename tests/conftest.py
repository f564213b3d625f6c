"""Shared test settings: every property test is derandomized and has no deadline.

A fixed example sequence keeps tier-1 reproducible, and without a deadline a
slow example on a loaded machine is not a failure. Each @settings names only
its max_examples.
"""

from hypothesis import settings

settings.register_profile("dualgp", derandomize=True, deadline=None)
settings.load_profile("dualgp")

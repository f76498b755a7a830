"""Hypothesis profiles: `pytest --hypothesis-profile=ci` runs the same examples on every run.

A run without the option keeps hypothesis's default profile, which draws new examples each time.
"""

from datetime import timedelta

from hypothesis import settings

# derandomized, so a failure in CI recurs on the next run; a test that sets its own deadline keeps it
settings.register_profile("ci", derandomize=True, deadline=timedelta(seconds=1))

"""Hypothesis profiles. `HYPOTHESIS_PROFILE=ci` runs every property test on a
fixed, derandomized example set without deadlines, so a shared CI runner can
neither draw a new failing example nor time a slow one out."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

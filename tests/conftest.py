"""Hypothesis settings: ``HYPOTHESIS_PROFILE=ci`` loads the ``ci`` profile,
which derandomizes every property test, so a failure in CI fails the same
way locally, and prints the blob that replays it."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

"""Hypothesis profiles for the test suite.

The default profile keeps tier-1 fast.  ``REPRO_HYPOTHESIS_PROFILE=ci``
selects a larger example budget for the dedicated CI steps:

* the C front-end step (the C front end in ``tests/cparse`` and the comment
  trimmer's differential test in ``tests/dataset``);
* the dynamic Inspector step (``tests/dynamic``), where the profile also
  widens the interpreter differential from a sample to every corpus source
  and re-checks the Inspector golden digest against the reference
  interpreter.
"""

import os

from hypothesis import settings

settings.register_profile("ci", max_examples=3000, deadline=None)

_profile = os.environ.get("REPRO_HYPOTHESIS_PROFILE")
if _profile:
    settings.load_profile(_profile)

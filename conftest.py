"""Give the CLI processes that tests start the package in ``src`` on their path,
and choose the Hypothesis profile.

The default profile, ``derandomized``, draws the same examples on every run
and keeps no example database, so a verdict and the set of lines a run
executes are reproducible.  The trade is that no run sees new examples:
``HYPOTHESIS_PROFILE=explore`` selects Hypothesis's own random search (with
its database) for runs that look for them.
"""

import os
from pathlib import Path

from hypothesis import settings

_SRC = str(Path(__file__).resolve().parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

settings.register_profile("derandomized", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "derandomized"))

import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# `pytest --hypothesis-profile=ci` makes every property and fuzz test draw
# the same examples on each run, so a failure in CI reproduces.
settings.register_profile("ci", derandomize=True, deadline=None)

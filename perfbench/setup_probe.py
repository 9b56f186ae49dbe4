"""Set-up time of a fresh interpreter: `import slwave.cli` plus loading
the run's config, i.e. everything before the first layer call.  Imports
nothing else first, so numpy's import cost lands here as it does for a
user.  Then runs the host-speed probe (speed.py) in the same process and
prints two numbers: the seconds as measured, and the seconds rescaled to
the reference host speed.  Started by run.py."""

import sys
import time

t0 = time.perf_counter()
from slwave import cli  # noqa: E402

cli.load_config(sys.argv[1])
took = time.perf_counter() - t0

import speed  # noqa: E402

print(repr(took), repr(took * speed.speed_factor(speed.sample(100))))

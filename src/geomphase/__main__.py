"""python -m geomphase: the command line driver of geomphase.cli."""

import sys

from .cli import main

sys.exit(main())

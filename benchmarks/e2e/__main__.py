"""``python -m benchmarks.e2e``: the same command as ``run.py``."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import main  # noqa: E402  (needs the path above)

sys.exit(main())

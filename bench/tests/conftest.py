"""``python -m pytest bench/tests -q`` — outside the tier-1 ``testpaths``.

The benchmark's modules import each other by bare name (``run.py`` is run
as a script), so its directory goes on ``sys.path``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

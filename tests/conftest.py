"""Make the in-tree package importable for plain `python -m pytest`.

`src` goes on sys.path for this process and in front of PYTHONPATH for
the CLI subprocesses that the tests start.
"""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

if SRC not in sys.path:
    sys.path.insert(0, SRC)
_paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC] + [p for p in _paths if p])

"""Put the package source on the path of child processes the tests start.

``pythonpath`` in pyproject.toml covers the test process itself; the CLI
entry-point and demo tests run ``python`` in a subprocess, which reads
``PYTHONPATH`` instead.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

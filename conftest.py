"""Give the CLI processes that tests start the package in ``src`` on their path."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

"""Make the benchmark's modules and the checkout's ``repro`` importable."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402

run.load_program()

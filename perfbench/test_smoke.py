"""The benchmark's own test: its smoke mode must pass.

Run from the root of a source checkout:

    python3 -m pytest perfbench/test_smoke.py
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def test_smoke_mode_passes(capsys):
    assert run.main(["--smoke"]) == 0, capsys.readouterr().out

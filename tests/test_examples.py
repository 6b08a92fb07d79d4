"""Every example script runs to completion with exit status 0.

The examples read the system the way a user would (``system.db``,
``snapshot_metrics()``, the name node's database), so a refactor that
moves something they touch must fail here rather than in a user's
terminal.  Each runs in its own interpreter with ``src`` on the path,
exactly as ``PYTHONPATH=src python examples/<name>.py`` does.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_there_are_examples_to_run():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_exits_cleanly(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part)
    result = subprocess.run([sys.executable, str(script)], cwd=ROOT,
                            env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, (
        f"{script.name} exited {result.returncode}:\n{result.stderr[-2000:]}")

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def src_env():
    """The environment of a child interpreter that imports this
    checkout's polarpoly."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.fixture
def run_cli(tmp_path, src_env):
    """Invoke the CLI in a subprocess, working inside a temp directory."""

    def _run(*args, cwd=None):
        return subprocess.run(
            [sys.executable, "-m", "polarpoly", *args],
            capture_output=True,
            text=True,
            env=src_env,
            cwd=cwd or tmp_path,
        )

    return _run

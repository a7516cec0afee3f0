import os
import stat
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


def make_stub_solver(directory: Path, name: str, script: str) -> Path:
    """Write an executable stub solver script and return its path."""
    path = directory / name
    path.write_text("#!/bin/sh\n" + script)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return path


@pytest.fixture
def stub_dir(tmp_path):
    return tmp_path


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running exhaustive checks")


def pytest_collection_modifyitems(config, items):
    if os.environ.get("HYPERSAT_RUN_SLOW"):
        return
    skip = pytest.mark.skip(reason="slow; set HYPERSAT_RUN_SLOW=1 to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)

import hashlib
from pathlib import Path

import numpy as np
import pytest

import mrgark as mg

CACHE_DIR = Path(__file__).parent / ".cache"

#: criterion outcomes registered by tests/test_acceptance.py
ACCEPTANCE_RESULTS: dict[str, str] = {}


def record_criterion(key: str, line: str) -> None:
    ACCEPTANCE_RESULTS[key] = line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for key in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(ACCEPTANCE_RESULTS[key])


@pytest.fixture(scope="session")
def all_methods():
    return [mg.registry_lookup(name) for name in mg.METHOD_NAMES]


def cached_reference(key: str, compute):
    """Disk-cached reference state (expensive fine-step runs)."""
    CACHE_DIR.mkdir(exist_ok=True)
    digest = hashlib.sha256(key.encode()).hexdigest()[:24]
    path = CACHE_DIR / f"{digest}.npy"
    if path.exists():
        return np.load(path)
    value = compute()
    np.save(path, value)
    return value

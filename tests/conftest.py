import numpy as np
import pytest

from transportlab import _kernels


class _CountingNumpy:
    """numpy, counting calls of ``np.subtract``: the assignment kernel makes
    one per step of its search loops and none elsewhere."""

    def __init__(self):
        self.scans = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def subtract(self, *args, **kwargs):
        self.scans += 1
        return np.subtract(*args, **kwargs)


@pytest.fixture
def scans(monkeypatch):
    """Counter of the assignment kernel's scans, read as ``scans.scans``."""
    counting = _CountingNumpy()
    monkeypatch.setattr(_kernels, "np", counting)
    return counting

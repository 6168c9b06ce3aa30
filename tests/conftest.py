"""Shared test fixtures.

The telemetry context (current tracer, metrics, progress and task log)
is process state; resetting it around every test keeps cases that
install instruments from leaking spans or counts into their
neighbours.
"""

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def _reset_observability():
    obs.reset()
    yield
    obs.reset()

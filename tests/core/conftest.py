"""Shared fixtures for the core tests."""

import pytest

from repro import obs
from repro.obs import ledger as ledger_mod


@pytest.fixture
def traced():
    """Turn the obs gate on for the test (CI also runs some core tests
    under ``REPRO_OBS=0``) and hand out ``traced(call)``.

    ``traced(call)`` runs ``call`` under a root span and returns
    ``(result, ledger entry, trace)``: the query's one cost account and
    its finished span tree.
    """
    previous = obs.set_enabled(True)

    def run(call):
        with obs.span("test.query") as root:
            result = call()
        trace_id = root.trace_id
        return result, ledger_mod.ledger().get(trace_id), obs.tracer().find_trace(trace_id)

    yield run
    obs.set_enabled(previous)

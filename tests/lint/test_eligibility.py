"""Hybrid fast-path eligibility, proven on the running drivers.

Every registered driver runs once through ``ExperimentRunner(None)`` and
its ``RunOutcome.net`` transfer totals are the ground truth: no observer
is installed on a plain run, so the network-simulating drivers must
complete fast transfers and every analytic driver must send none.
``tests/test_import_side_effects.py`` proves that importing any module
installs no observer that would disarm the fast path.
"""

import importlib

import pytest

from repro.core.registry import all_experiments, get_experiment
from repro.network import simnet
from repro.runner import ExperimentRunner
from repro.simrace.certify import _clear_module_memoization

#: Verdict per driver: these simulate a network and must take the fast
#: path; every other registered driver is analytic and sends nothing.
NETWORK_DRIVERS = {"ext_resilience", "fig12_13"}


@pytest.fixture(scope="module")
def outcomes():
    runs = {}
    for exp_id in all_experiments():
        # A memoized sweep would skip the simulation and count nothing.
        _clear_module_memoization(
            importlib.import_module(get_experiment(exp_id).__module__)
        )
        simnet.reset_transfer_totals()
        [runs[exp_id]] = ExperimentRunner(None).run([exp_id])
    return runs


def test_certificate_covers_every_registered_driver(outcomes):
    assert list(outcomes) == all_experiments()
    assert len(outcomes) == 26
    for exp_id, outcome in outcomes.items():
        assert not outcome.failed, (exp_id, outcome.error)
        assert outcome.net is not None, exp_id


def test_expected_fast_drivers(outcomes):
    fast = sorted(e for e, o in outcomes.items() if o.net[0] > 0)
    assert fast == sorted(NETWORK_DRIVERS)
    for exp_id in NETWORK_DRIVERS:
        fast_transfers, total = outcomes[exp_id].net
        assert total >= fast_transfers > 0, exp_id


def test_static_verdict_matches_runtime_fast_transfers(outcomes):
    # verdict "fast" iff fast transfers > 0, and an analytic driver
    # completes no transfer at all, fast or slow
    for exp_id, outcome in outcomes.items():
        if exp_id not in NETWORK_DRIVERS:
            assert outcome.net == (0, 0), exp_id

"""Every entry of the property registry (REGISTRY in twistdet/selftest.py), one test
per check and ring, with the trials conftest.TRIALS asks of it."""

import pytest

from twistdet.selftest import REGISTRY, m2_swap, qc4_inv, run_check, series

from conftest import ORDER, SEED, tier1_trials


@pytest.mark.parametrize("check", REGISTRY, ids=lambda c: c.name)
def test_property(check):
    report = run_check(check, SEED, ORDER, tier1_trials(check))
    assert report["passed"], report


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: the plain-trace cyc_log does not kill "
                          "the C generators of a twisted ring")
@pytest.mark.parametrize("build", [series(m2_swap, twist={"x": "swap"}),
                                   series(qc4_inv, twist={"x": "inv"})],
                         ids=["M2(Q):swap", "Q[C4]:inv"])
def test_annihilation_on_twisted_rings(build):
    flavors = {c.shapes: c for c in REGISTRY if c.prop == "annihilation"}
    for check in flavors.values():
        report = run_check(check.over(build), SEED, ORDER, tier1_trials(check))
        assert report["passed"], report

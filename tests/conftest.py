import pytest

from quasicone import certify


@pytest.fixture(autouse=True)
def no_kept_scan():
    """Every test starts and ends with no kept lattice scan, so a test that
    counts kernel or LAPACK calls sees its own scans, and no scan made
    under a patched kernel outlives its test."""
    certify._kept_scan.cache_clear()
    yield
    certify._kept_scan.cache_clear()

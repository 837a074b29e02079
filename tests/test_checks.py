"""The tolerance policy of the check suites: every suite pins its gates,
and ``run_suite`` alone scales them, by ``tol_scale`` or else by the
DUNKL_FRFT_TOL environment variable."""

import math

import pytest

from dunkl_frft import checks
from dunkl_frft.errors import UsageError


@pytest.fixture(scope="module")
def pinned():
    return checks.SUITES["basis"]()


@pytest.mark.parametrize("scale", [2.0, 1e-30])
def test_run_suite_scales_pinned_gates(pinned, scale, monkeypatch):
    monkeypatch.delenv("DUNKL_FRFT_TOL", raising=False)
    rows = checks.run_suite("basis", tol_scale=scale)
    assert [r.name for r in rows] == [p.name for p in pinned]
    for row, pin in zip(rows, pinned):
        assert row.residual == pin.residual
        assert row.tolerance == pin.tolerance * scale
        assert row.passed == (pin.residual <= pin.tolerance * scale)
    # 2.0 loosens every gate, 1e-30 puts every nonzero residual outside it
    assert all(p.residual > 0.0 for p in pinned)
    assert [r.passed for r in rows] == [scale > 1.0] * len(rows)


def test_env_scale_applies_only_without_tol_scale(pinned, monkeypatch):
    assert [p.tolerance for p in pinned] == [1e-9, 1e-12, 1e-12] * 3
    monkeypatch.setenv("DUNKL_FRFT_TOL", "1e-30")
    # a suite states its pinned gates whatever the environment says
    assert [r.tolerance for r in checks.SUITES["basis"]()] == [p.tolerance for p in pinned]
    assert [r.tolerance for r in checks.run_suite("basis")] == [
        p.tolerance * 1e-30 for p in pinned
    ]
    monkeypatch.setenv("DUNKL_FRFT_TOL", "nan")
    rows = checks.run_suite("basis", tol_scale=1.0)
    assert [r.tolerance for r in rows] == [p.tolerance for p in pinned]
    with pytest.raises(UsageError, match="DUNKL_FRFT_TOL"):
        checks.run_suite("basis")


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0, -1, "abc"])
def test_malformed_tol_scale_refused(bad):
    with pytest.raises(UsageError, match="'tol_scale'"):
        checks.run_suite("basis", tol_scale=bad)

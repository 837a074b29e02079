"""Acceptance gate: every criterion at its pinned tolerance, one printed
pass/fail line per check.

Each criterion runs its suite through ``checks.run_suite``, so
DUNKL_FRFT_TOL scales the gates here as it does in the CLI.  Run with
``pytest tests/test_acceptance.py -v -s`` for the full table.
"""

import time

import pytest

from dunkl_frft import checks

CRITERIA = [
    ("criterion-01 basis integrity", "basis", 10.0),
    ("criterion-02 Dunkl eigenrelation", "eigenrelation", None),
    ("criterion-03 unitarity/group/periodicity/parity", "unitary_group", None),
    ("criterion-04 route agreement", "route_agreement", None),
    ("criterion-05 Mehler limit and bound", "mehler", None),
    ("criterion-06 Master formula + Hecke identity", "master_formula", None),
    ("criterion-07 eigenbasis psi_{m,n,j}", "eigenbasis", None),
    ("criterion-08 Funk-Hecke radial + c_k/d_k", "funk_hecke", 3.0),
    ("criterion-09 generator consistency", "generator", None),
    ("criterion-10 spectral theory", "spectral_theory", None),
    ("criterion-11 classical reductions", "classical", None),
]


@pytest.mark.parametrize("label,suite,budget", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_acceptance(label, suite, budget):
    start = time.time()
    results = checks.run_suite(suite)
    elapsed = time.time() - start
    print()
    for res in results:
        print(f"{label} :: {res.row()}")
    print(f"{label} :: elapsed {elapsed:.1f}s")
    failed = [res for res in results if not res.passed]
    assert not failed, "; ".join(f"{r.name}: {r.residual:.3e} > {r.tolerance:.1e}" for r in failed)
    if budget is not None:
        assert elapsed < budget, f"{label} exceeded its {budget:.0f}s runtime budget"

"""The narrative demos run to completion against the public API.

The demos import only from top-level ``gramquad``, so they also guard
the names it exports.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gramquad

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo",
    [
        "01_stable_weights.py",
        "02_instability_contrast.py",
        "03_integration_accuracy.py",
        "04_streaming_scale.py",
    ],
)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_public_names():
    assert sorted(gramquad.__all__) == [
        "QuadratureRule",
        "basis_rows",
        "build_recurrence",
        "compute_moments",
        "compute_rule",
        "dense_weights",
        "gauss_legendre_rule",
        "integrate",
        "integrate_on_interval",
        "newton_cotes_weights",
    ]
    for name in gramquad.__all__:
        assert hasattr(gramquad, name)

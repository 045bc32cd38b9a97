"""Freshness gate for the committed ``BENCH_*.json`` baselines.

Every committed baseline must parse, name the harness invocation and
profile that produced it, record the environment it was measured in, and
carry the bit-identity verdict of its run.  A hand-edited or truncated
baseline, or one written by a harness that dropped its environment header,
fails here before anyone quotes its numbers.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))

#: header keys every baseline carries (``benchmarks/perf_regress.py``)
HEADER = ("schema", "generated_by", "profile", "python", "numpy", "machine")


def test_baselines_are_committed():
    assert BENCH_FILES, "no BENCH_*.json at the repository root"


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_baseline_header_and_identity(path):
    doc = json.loads(path.read_text())
    assert isinstance(doc, dict)
    missing = [k for k in HEADER if k not in doc]
    assert not missing, f"{path.name} lacks {missing}"
    assert doc["generated_by"].startswith("benchmarks/perf_regress.py")
    assert doc["all_identical"] is True

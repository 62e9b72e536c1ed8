"""The benchmark's output gate, run read-only with the tier-1 tests.

Before it times anything, ``perfbench/run.py`` runs each workload once at
``workloads.DEFAULT_SEED`` and fails if the output's digest differs from the one
recorded in ``perfbench/digests.json``: the BLER CSV of each sweep and the decoded
transcript of the block session.  The benchmark's own tests sit outside the tier-1
test paths, so this test runs the same gate, and a changed output bit fails here
too.  Outputs go to pytest's ``tmp_path``, no bytecode is written into
``perfbench/``, and nothing there changes.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
RECORDED = json.loads((PERFBENCH / "digests.json").read_text())
MODULES = ("workloads", "spans", "yardstick")  # the names by which they import each other


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("workloads")
    for name in MODULES:
        sys.modules.pop(name, None)


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_each_workload_gives_its_recorded_output(workloads, tmp_path, name):
    assert sorted(RECORDED) == sorted(workloads.WORKLOADS)  # a workload without a digest
    outcome = workloads.make(name, workloads.DEFAULT_SEED, tmp_path).run()
    assert outcome.failures == []
    assert workloads.digest(outcome.output) == workloads.recorded_digest(name)

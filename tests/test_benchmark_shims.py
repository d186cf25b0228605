"""The benchmark's tracer (perfbench/tracer.py) still fits the package.

Its shims wrap package names from the outside (``adapter.json``,
``RemoteBackend.call``, ``Featurizer.sparse_counts``, ...).  Renaming
one breaks traced benchmark runs; this test makes it break tier-1 too.
"""

import json
import sys
from pathlib import Path

import pairshot.backend.adapter as adapter
from pairshot.backend.adapter import connect_subprocess

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_client_shims_find_every_name_they_wrap(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    recorder = tracer.Tracer()
    shims = tracer.Shims(recorder)
    try:
        tracer.install_client_shims(shims)
        # The byte counters see the transport's JSON.
        connect_subprocess([sys.executable, "-m", "pairshot.backend.serve"]).close()
    finally:
        shims.uninstall()
    assert adapter.json is json
    summary = recorder.summary()
    assert summary["calls"][tracer.RPC] == 1
    hello = json.dumps({"id": 1, "verb": "hello", "params": {}})
    assert summary["counters"]["rpc.bytes_out"] == len(hello) + 1
    assert summary["counters"]["rpc.bytes_in"] > 0

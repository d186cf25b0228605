"""The benchmark's tracer (perfbench/tracer.py) still fits the package.

Its shims wrap package names from the outside (``adapter.json``,
``RemoteBackend.call``, ``Featurizer.sparse_counts``, ...).  Renaming
one breaks traced benchmark runs; these tests make it break tier-1 too.
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


def test_backend_shims_trace_the_toy_backend_and_come_off(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    from pairshot.backend.features import Featurizer
    from pairshot.backend.toy import ToyBackend, ToyEncoder

    methods = [(Featurizer, "sparse_counts"), (Featurizer, "bucket_ids"),
               (ToyEncoder, "encode"), (ToyEncoder, "fit")]
    originals = [cls.__dict__[name] for cls, name in methods]
    recorder = tracer.Tracer()
    shims = tracer.Shims(recorder)
    try:
        tracer.install_backend_shims(shims)
        assert all(cls.__dict__[name] is not original
                   for (cls, name), original in zip(methods, originals))
        Featurizer(1024, 2).sparse_counts("one traced featurization")
        ToyBackend().create_encoder(seed=0).encode(["one traced encoding"])
    finally:
        shims.uninstall()
    assert [cls.__dict__[name] for cls, name in methods] == originals
    summary = recorder.summary()
    assert summary["calls"][tracer.FEATURES] == 1
    assert summary["calls"]["backend.toy.encode"] == 1
    assert summary["distinct_texts"] == 1

"""Fuzz the client's line transport against a misbehaving peer.

A peer thread reads each request line and answers it according to a
drawn script: a proper answer, one larger than a pipe buffer, a wrong
id, a stale line before the real answer, a JSON array, bytes that are
not JSON or not UTF-8, silence, or a hang-up, always written in
arbitrary byte splits.  The client is a RemoteBackend over a
LineTransport, across a socketpair and across a pair of pipes.  Every
call must return the answer to its own request or raise AdapterError
within its deadline.  After a transport failure, or an answer to
another request (the stream is then out of step), every later call
raises AdapterError at once instead of reading a late answer.
"""

import json
import os
import socket
import threading
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pairshot.backend.adapter import PROTOCOL_VERSION, AdapterError, LineTransport, RemoteBackend

TIMEOUT_S = 0.5
SLACK_S = 0.5  # scheduling latency allowed past a deadline
BIG = 150_000  # larger than a pipe buffer and than one 64 KiB read
HELLO = {
    "mask_token": "<mask>",
    "separator_token": "||",
    "default_lr": 0.1,
    "embedding_dim": 32,
    "length_model": "whitespace",
    "protocol": PROTOCOL_VERSION,
}
# Answers after which the client can no longer trust the stream.
CLOSING = ("wrong_id", "stale", "garbage", "bad_utf8", "silent", "hangup")
KINDS = ("ok", "big", "array") + CLOSING


def answer_bytes(kind, request):
    """The line the peer sends for request; None for silence."""
    rid = request["id"]
    if kind == "hello":
        return json.dumps({"id": rid, "ok": True, "result": HELLO}).encode() + b"\n"
    if kind in ("ok", "big"):
        result = {"echo": request["params"], "pad": "x" * (BIG if kind == "big" else 3)}
        return json.dumps({"id": rid, "ok": True, "result": result}).encode() + b"\n"
    if kind == "wrong_id":
        return json.dumps({"id": rid + 1000, "ok": True, "result": {}}).encode() + b"\n"
    if kind == "stale":
        late = json.dumps({"id": rid - 1, "ok": True, "result": {}}).encode() + b"\n"
        return late + answer_bytes("ok", request)
    if kind == "array":
        return json.dumps([rid]).encode() + b"\n"
    if kind == "garbage":
        return b'{"id": ' + b"x" * BIG + b"\n"
    if kind == "bad_utf8":
        return b'{"id": "\xff\xfe"}\n'
    return None


class Peer(threading.Thread):
    """Answers each request line per script, in the given byte splits, then
    closes its end of the channel; a hang-up is that close.  requests
    counts the request lines it received."""

    def __init__(self, read_fd, write_fd, close, script, cuts, pause):
        super().__init__(daemon=True)
        self.read_fd, self.write_fd, self.close = read_fd, write_fd, close
        self.script, self.cuts, self.pause = script, cuts, pause
        self.requests = 0

    def read(self):
        chunk = os.read(self.read_fd, 1 << 16)
        self.requests += chunk.count(b"\n")
        return chunk

    def run(self):
        pending = b""
        try:
            for kind in self.script:
                while b"\n" not in pending:
                    chunk = self.read()
                    if not chunk:
                        return
                    pending += chunk
                line, _, pending = pending.partition(b"\n")
                if kind == "hangup":
                    return
                data = answer_bytes(kind, json.loads(line))
                if data is None:
                    while self.read():  # silent until the client leaves
                        pass
                    return
                bounds = sorted({0, len(data), *(cut % len(data) for cut in self.cuts)})
                for lo, hi in zip(bounds, bounds[1:]):
                    os.write(self.write_fd, data[lo:hi])
                    if self.pause:
                        time.sleep(0.001)
        except OSError:  # the client closed its end first
            pass
        finally:
            self.close()


def socket_channel():
    """(client transport, peer read fd, peer write fd, close the peer's end)."""
    client, peer = socket.socketpair()
    transport = LineTransport(client.fileno(), client.fileno(), client.close, TIMEOUT_S)
    return transport, peer.fileno(), peer.fileno(), peer.close


def pipe_channel():
    """The same over two pipes, one each way."""
    to_client_r, to_client_w = os.pipe()
    to_peer_r, to_peer_w = os.pipe()

    def release():
        os.close(to_client_r)
        os.close(to_peer_w)

    def close_peer():
        os.close(to_peer_r)
        os.close(to_client_w)

    transport = LineTransport(to_client_r, to_peer_w, release, TIMEOUT_S)
    return transport, to_peer_r, to_client_w, close_peer


FUZZ = settings(
    max_examples=25, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow]
)


@pytest.mark.parametrize("channel", [socket_channel, pipe_channel], ids=["socketpair", "pipe"])
@FUZZ
@given(
    script=st.lists(st.sampled_from(KINDS), min_size=1, max_size=6),
    cuts=st.lists(st.integers(0, 2 * BIG), max_size=6),
    pause=st.booleans(),
)
@example(script=["stale", "ok", "ok"], cuts=[], pause=False)
def test_each_call_gets_its_own_answer_or_adapter_error_in_time(channel, script, cuts, pause):
    transport, peer_read, peer_write, close_peer = channel()
    peer = Peer(peer_read, peer_write, close_peer, ["hello", *script], cuts, pause)
    peer.start()
    try:
        backend = RemoteBackend(transport)
        failed = False
        for i, kind in enumerate(script):
            started = time.monotonic()
            try:
                result = backend.call("echo", {"i": i})
            except AdapterError:
                result = None
            elapsed = time.monotonic() - started
            if failed:
                assert result is None and elapsed < SLACK_S, "a closed transport must fail at once"
                continue
            assert elapsed < TIMEOUT_S + SLACK_S, (kind, elapsed)
            if kind in ("ok", "big"):
                assert result == {"echo": {"i": i}, "pad": "x" * (BIG if kind == "big" else 3)}
            else:
                assert result is None, kind
            failed = kind in CLOSING
    finally:
        transport.close()
        peer.join(timeout=5)
    assert not peer.is_alive()
    sent = next((i + 1 for i, kind in enumerate(script) if kind in CLOSING), len(script))
    assert peer.requests == 1 + sent, "no request may follow a failure"

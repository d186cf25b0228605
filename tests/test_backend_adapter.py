"""Backend protocol: server verbs, client adapter, and transports."""

import contextlib
import json
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from pairshot.backend.adapter import (
    AdapterError,
    LineTransport,
    RemoteBackend,
    _stop_child,
    connect_subprocess,
    connect_tcp,
)
from pairshot.backend.serve import BackendServer, serve_tcp
from pairshot import errors
from pairshot.backend.toy import ToyBackend
from pairshot.data import Dataset
from pairshot.pet import PetConfig, run_pet
from pairshot.errors import NoDataError, PairshotError, ShapeError, VocabularyError
from pairshot.prompting import ClozeInput


def cloze(text):
    """Cloze whose mask is the final whitespace token."""
    return ClozeInput(text, len(text.split()) - 1, None)


SCORER_ROWS = [
    (cloze("fast reply quick answer <mask>"), "Yes"),
    (cloze("slow reply late answer <mask>"), "No"),
    (cloze("quick answer fast reply <mask>"), "Yes"),
    (cloze("late answer slow reply <mask>"), "No"),
]
CLF_ROWS = [
    ("fine good steady", [1.0, 0.0]),
    ("broken wrong failing", [0.0, 1.0]),
    ("good steady fine", [1.0, 0.0]),
    ("wrong failing broken", [0.0, 1.0]),
]
TRIPLETS = [
    ("fast reply", "quick answer", 1.0),
    ("fast reply", "broken dial", -1.0),
]


class DirectTransport:
    """In-process transport that still round-trips JSON like the wire would."""

    def __init__(self, server):
        self.server = server

    def request(self, payload):
        request = json.loads(json.dumps(payload))
        return json.loads(json.dumps(self.server.handle(request)))

    def close(self):
        pass


@pytest.fixture
def server():
    return BackendServer()


@pytest.fixture
def remote(server):
    return RemoteBackend(DirectTransport(server))


class TestServerVerbs:
    def test_hello_reports_backend_traits(self, server):
        """The handshake advertises tokens, learning rate, dimension, and length model."""
        response = server.handle({"id": 1, "verb": "hello", "params": {}})
        assert response["id"] == 1
        assert response["ok"] is True
        result = response["result"]
        assert result["mask_token"] == "<mask>"
        assert result["separator_token"] == "||"
        assert result["default_lr"] == 0.1
        assert result["embedding_dim"] == 32
        assert result["length_model"] == "whitespace"
        assert result["protocol"] == 2

    def test_score_round_trip(self, server):
        """A score request returns one row per cloze, one float per candidate token."""
        response = server.handle(
            {
                "id": 2,
                "verb": "score",
                "params": {
                    "model": "scorer-a",
                    "init_seed": 0,
                    "clozes": [
                        {"text": "alpha beta <mask>", "mask_position": 2},
                        {"text": "gamma <mask>", "mask_position": 1},
                    ],
                    "candidates": ["Yes", "No"],
                },
            }
        )
        assert response["ok"] is True
        scores = response["result"]["scores"]
        assert [len(row) for row in scores] == [2, 2]
        assert all(isinstance(v, float) for row in scores for v in row)

    def test_models_persist_across_requests(self, server):
        """Training updates the named model that later requests address."""
        params = {
            "model": "clf-a",
            "init_seed": 0,
            "labels": ["Neutral", "Duplicate"],
        }
        train = dict(params)
        train.update(
            rows=[[text, dist] for text, dist in CLF_ROWS],
            steps=40,
            batch=2,
            lr=0.5,
            seed=3,
        )
        trained = server.handle({"id": 3, "verb": "train_clf", "params": train})
        assert trained["result"] == {"trained": 4}
        predict = dict(params)
        predict["texts"] = ["fine good steady"]
        response = server.handle({"id": 4, "verb": "predict", "params": predict})
        (scores,) = response["result"]["scores"]
        assert len(scores) == 2
        assert scores[0] > scores[1]

    def test_unknown_verb_is_protocol_error(self, server):
        response = server.handle({"id": 5, "verb": "launch", "params": {}})
        assert response["ok"] is False
        assert response["kind"] == "AdapterError"
        assert "launch" in response["error"]

    def test_non_dict_params_is_protocol_error(self, server):
        response = server.handle({"id": 6, "verb": "hello", "params": []})
        assert response["ok"] is False
        assert response["kind"] == "AdapterError"

    def test_missing_field_is_protocol_error(self, server):
        response = server.handle(
            {"id": 7, "verb": "score", "params": {"model": "s", "candidates": ["Yes"]}}
        )
        assert response["ok"] is False
        assert response["kind"] == "AdapterError"

    def test_domain_errors_carry_their_type_name(self, server):
        """A vocabulary violation crosses the wire as its own error kind."""
        response = server.handle(
            {
                "id": 8,
                "verb": "score",
                "params": {
                    "model": "scorer-b",
                    "init_seed": 0,
                    "clozes": [{"text": "alpha <mask>", "mask_position": 1}],
                    "candidates": ["NotAToken"],
                },
            }
        )
        assert response["ok"] is False
        assert response["kind"] == "VocabularyError"
        assert response["id"] == 8

    @pytest.mark.parametrize("request_line", [[1, 2], "hello", 7, None])
    def test_non_object_request_is_protocol_error(self, server, request_line):
        assert server.handle(request_line) == {
            "id": None,
            "ok": False,
            "error": "request must be a JSON object",
            "kind": "AdapterError",
        }

    @pytest.mark.parametrize(
        "verb, params",
        [
            ("encode", {"model": "e", "texts": "abc"}),
            ("predict", {"model": "c", "labels": ["A", "B"], "texts": "abc"}),
            ("score", {"model": "s", "clozes": {"text": "a <mask>"}, "candidates": ["Yes"]}),
            ("score", {"model": "s", "clozes": [], "candidates": "Yes"}),
        ],
    )
    def test_batch_fields_must_be_lists(self, server, verb, params):
        """A string is not silently read as a batch of one-character texts."""
        response = server.handle({"id": 9, "verb": verb, "params": params})
        assert response["ok"] is False
        assert response["kind"] == "AdapterError"
        assert "must be a list" in response["error"]

    def test_stdio_server_survives_malformed_lines(self):
        """Non-object and non-list inputs get an error answer; the server keeps serving."""
        lines = [
            b"[1,2]",
            b"\xff\xfe",
            b'{"id": 2, "verb": "encode", "params": {"model": "e", "texts": "abc"}}',
            b'{"id": 9, "verb": "hello"}',
        ]
        done = subprocess.run(
            [sys.executable, "-m", "pairshot.backend.serve"],
            input=b"\n".join(lines) + b"\n",
            capture_output=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == b""
        responses = [json.loads(line) for line in done.stdout.splitlines()]
        assert [(r["id"], r["ok"], r.get("kind")) for r in responses] == [
            (None, False, "AdapterError"),
            (None, False, "AdapterError"),
            (2, False, "AdapterError"),
            (9, True, None),
        ]


class TestRemoteMatchesLocal:
    """The adapter over the protocol reproduces the in-process backend exactly."""

    def test_handshake_properties(self, remote):
        assert remote.mask_token == "<mask>"
        assert remote.separator_token == "||"
        assert remote.default_lr == 0.1
        assert remote.length_fn("a b  c") == 3

    def test_scorer_parity(self, remote):
        """Remote and local scorers trained identically emit identical scores."""
        local = ToyBackend().create_scorer(seed=0)
        local.train(SCORER_ROWS, steps=12, batch=2, lr=0.1, seed=9, candidates=["Yes", "No"])
        remote_scorer = remote.create_scorer(seed=0)
        remote_scorer.train(SCORER_ROWS, steps=12, batch=2, lr=0.1, seed=9, candidates=["Yes", "No"])
        probe = cloze("fast reply sharp answer <mask>")
        np.testing.assert_array_equal(
            remote_scorer.score([probe], ["Yes", "No"]), local.score([probe], ["Yes", "No"])
        )

    def test_classifier_parity(self, remote):
        local = ToyBackend().create_classifier(("Neutral", "Duplicate"), seed=0)
        local.train(CLF_ROWS, steps=10, batch=2, lr=0.1, seed=3)
        remote_clf = remote.create_classifier(("Neutral", "Duplicate"), seed=0)
        assert remote_clf.labels == ("Neutral", "Duplicate")
        remote_clf.train(CLF_ROWS, steps=10, batch=2, lr=0.1, seed=3)
        probe = "good steady signal"
        np.testing.assert_array_equal(remote_clf.predict([probe]), local.predict([probe]))

    def test_encoder_parity(self, remote):
        local = ToyBackend().create_encoder(seed=0)
        remote_enc = remote.create_encoder(seed=0)
        assert remote_enc.dim == local.dim
        np.testing.assert_array_equal(
            remote_enc.encode(["hello world"]), local.encode(["hello world"])
        )
        local.fit(TRIPLETS, epochs=2, batch=2, lr=0.05, seed=4)
        remote_enc.fit(TRIPLETS, epochs=2, batch=2, lr=0.05, seed=4)
        np.testing.assert_array_equal(remote_enc.encode(["fast reply"]), local.encode(["fast reply"]))

    def test_remote_errors_surface_as_typed_exceptions(self, remote):
        """Error kinds map back onto the same exception classes engines catch."""
        scorer = remote.create_scorer(seed=0)
        with pytest.raises(VocabularyError):
            scorer.score([cloze("alpha <mask>")], ["NotAToken"])
        classifier = remote.create_classifier(("A", "B"), seed=0)
        with pytest.raises(ShapeError):
            classifier.train([("text", [0.5, 0.2])], steps=1, batch=1, lr=0.1, seed=0)
        encoder = remote.create_encoder(seed=0)
        with pytest.raises(NoDataError):
            encoder.fit([], epochs=1, batch=1, lr=0.1, seed=0)

    def test_model_names_isolate_state(self, remote):
        """Training one remote scorer leaves a sibling scorer untouched."""
        first = remote.create_scorer(seed=0)
        second = remote.create_scorer(seed=0)
        first.train(SCORER_ROWS, steps=12, batch=2, lr=0.1, seed=9, candidates=["Yes", "No"])
        probe = cloze("fast reply sharp answer <mask>")
        np.testing.assert_array_equal(second.score([probe], ["Yes", "No"]), [[0.0, 0.0]])


class CountingTransport(DirectTransport):
    def __init__(self, server):
        super().__init__(server)
        self.verbs = []

    def request(self, payload):
        self.verbs.append(payload["verb"])
        return super().request(payload)


class TestRemotePetRun:
    """run_pet through the adapter: same outputs, one request per model per dataset."""

    CONFIG = PetConfig.for_task("so_duplicate", mlm_steps=20, distill_steps=40, batch=8)

    def run(self, backend, train, unlabeled, test, out):
        return run_pet(
            self.CONFIG, train, unlabeled, test, backend, seed=7,
            evaluate_ensemble=True, artifacts_dir=out,
        )

    def test_remote_run_equals_local_run(self, dup_train, dup_unlabeled, dup_test, tmp_path):
        local = self.run(ToyBackend(), dup_train, dup_unlabeled, dup_test, tmp_path / "local")
        remote = self.run(
            RemoteBackend(DirectTransport(BackendServer())),
            dup_train, dup_unlabeled, dup_test, tmp_path / "remote",
        )
        assert remote.report.to_json() == local.report.to_json()
        assert remote.ensemble_report.to_json() == local.ensemble_report.to_json()
        assert remote.member_weights == local.member_weights
        assert remote.metadata == local.metadata
        for name in ("soft_labeled.jsonl", "member_weights.json", "metadata.json"):
            assert (tmp_path / "remote" / name).read_bytes() == (
                tmp_path / "local" / name
            ).read_bytes()

    def test_request_count_does_not_grow_with_the_data(
        self, dup_train, dup_unlabeled, dup_test, tmp_path
    ):
        """hello, 9 x (weigh + train), 9 soft-label scores, distill, predict, 9 ensemble scores."""
        counts = []
        for keep in (len(dup_unlabeled), 7):
            unlabeled = Dataset(dup_unlabeled.examples[:keep], dup_unlabeled.label_set, "unlabeled")
            test = Dataset(dup_test.examples[: keep + 3], dup_test.label_set, "test")
            transport = CountingTransport(BackendServer())
            self.run(RemoteBackend(transport), dup_train, unlabeled, test, tmp_path / str(keep))
            counts.append(len(transport.verbs))
            assert transport.verbs.count("score") == 27
            assert transport.verbs.count("train_mlm") == 9
        assert counts == [39, 39]


class TestTransportSafety:
    class EchoTransport:
        """Configurable fake transport for protocol-violation tests."""

        def __init__(self, make_response):
            self.make_response = make_response

        def request(self, payload):
            return self.make_response(payload)

        def close(self):
            pass

    def hello_result(self):
        return {
            "mask_token": "<mask>",
            "separator_token": "||",
            "default_lr": 0.1,
            "embedding_dim": 32,
            "length_model": "whitespace",
            "protocol": 2,
        }

    def test_mismatched_response_id_rejected(self):
        transport = self.EchoTransport(
            lambda payload: {"id": 999, "ok": True, "result": self.hello_result()}
        )
        with pytest.raises(AdapterError, match="does not match"):
            RemoteBackend(transport)

    def test_missing_result_rejected(self):
        transport = self.EchoTransport(lambda payload: {"id": payload["id"], "ok": True})
        with pytest.raises(AdapterError, match="no result"):
            RemoteBackend(transport)

    def test_unknown_error_kind_falls_back_to_adapter_error(self):
        transport = self.EchoTransport(
            lambda payload: {
                "id": payload["id"],
                "ok": False,
                "error": "boom",
                "kind": "TotallyMadeUpError",
            }
        )
        with pytest.raises(AdapterError, match="boom"):
            RemoteBackend(transport)

    @pytest.mark.parametrize(
        "kind",
        sorted(
            name
            for name, obj in vars(errors).items()
            if isinstance(obj, type) and issubclass(obj, PairshotError)
        ),
    )
    def test_every_domain_kind_keeps_its_type_and_message(self, kind):
        """Kinds whose constructors take extra arguments still surface as themselves."""
        transport = self.EchoTransport(
            lambda payload: {
                "id": payload["id"],
                "ok": False,
                "error": "remote said no",
                "kind": kind,
            }
        )
        with pytest.raises(PairshotError) as info:
            RemoteBackend(transport)
        assert type(info.value) is getattr(errors, kind)
        assert str(info.value) == "remote said no"

    def test_non_domain_kind_never_instantiated(self):
        """Only the package's own error types may be raised from wire kinds."""
        transport = self.EchoTransport(
            lambda payload: {
                "id": payload["id"],
                "ok": False,
                "error": "boom",
                "kind": "ValueError",
            }
        )
        with pytest.raises(AdapterError, match="boom"):
            RemoteBackend(transport)

    def test_unsupported_length_model_rejected(self):
        result = self.hello_result()
        result["length_model"] = "bpe"
        transport = self.EchoTransport(
            lambda payload: {"id": payload["id"], "ok": True, "result": result}
        )
        with pytest.raises(AdapterError, match="length model"):
            RemoteBackend(transport)

    @pytest.mark.parametrize("reported", [None, 1, 3, "2"])
    def test_protocol_mismatch_rejected_naming_both_versions(self, reported):
        """A backend that omits the protocol or speaks another one fails the handshake."""

        class OtherProtocolServer(BackendServer):
            def _verb_hello(self, params):
                result = super()._verb_hello(params)
                if reported is None:
                    del result["protocol"]
                else:
                    result["protocol"] = reported
                return result

        with pytest.raises(AdapterError) as info:
            RemoteBackend(DirectTransport(OtherProtocolServer()))
        message = str(info.value)
        assert "\n" not in message
        assert f"protocol {reported!r}" in message and "speaks 2" in message

    def test_malformed_score_table_rejected(self):
        """A result of the wrong shape is an AdapterError, not a bad array."""

        def respond(payload):
            if payload["verb"] == "hello":
                return {"id": payload["id"], "ok": True, "result": self.hello_result()}
            return {"id": payload["id"], "ok": True, "result": {"scores": [[0.5]]}}

        scorer = RemoteBackend(self.EchoTransport(respond)).create_scorer(seed=0)
        with pytest.raises(AdapterError, match="expected"):
            scorer.score([cloze("a <mask>"), cloze("b <mask>")], ["Yes", "No"])

    def test_socket_read_timeout_is_typed_and_closes_transport(self):
        """A silent TCP backend ends in AdapterError, and the stream is not reused."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        try:
            transport = tcp_transport(listener.getsockname()[1], timeout=0.3)
            conn, _ = listener.accept()
            try:
                with pytest.raises(AdapterError, match="timed out"):
                    transport.request({"id": 1, "verb": "hello", "params": {}})
                # The late answer to request 1 must never be read as the
                # answer to a later request.
                conn.sendall(b'{"id": 1, "ok": true, "result": {}}\n')
                started = time.perf_counter()
                with pytest.raises(AdapterError, match="closed"):
                    transport.request({"id": 2, "verb": "hello", "params": {}})
                assert time.perf_counter() - started < 0.3
                transport.close()
            finally:
                conn.close()
        finally:
            listener.close()

    def test_tcp_deadline_covers_the_whole_request(self):
        """A backend that drips its answer byte by byte cannot hold a request past the deadline."""

        def drip(conn):
            for byte in b'{"id": 1}'.ljust(19) + b"\n":
                conn.sendall(bytes([byte]))
                time.sleep(0.1)

        transport = tcp_transport(one_shot_backend(drip), timeout=0.3)
        try:
            started = time.perf_counter()
            with pytest.raises(AdapterError, match="timed out"):
                transport.request({"id": 1, "verb": "hello", "params": {}})
            assert time.perf_counter() - started < 1.0
            started = time.perf_counter()
            with pytest.raises(AdapterError):
                transport.request({"id": 2, "verb": "hello", "params": {}})
            assert time.perf_counter() - started < 0.3
        finally:
            transport.close()

    def test_tcp_reply_that_is_not_utf8_is_typed(self):
        transport = tcp_transport(one_shot_backend(lambda conn: conn.sendall(b"\xff\xfe\n")), 5)
        try:
            with pytest.raises(AdapterError):
                transport.request({"id": 1, "verb": "hello", "params": {}})
        finally:
            transport.close()


def tcp_transport(port: int, timeout: float) -> LineTransport:
    """A transport to a local TCP backend, as connect_tcp builds it, with its own timeout."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    return LineTransport(sock.fileno(), sock.fileno(), sock.close, timeout)


def subprocess_transport(command, timeout: float) -> tuple[subprocess.Popen, LineTransport]:
    """A child and a transport over its pipes, as connect_subprocess builds them."""
    proc = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    transport = LineTransport(
        proc.stdout.fileno(), proc.stdin.fileno(), lambda: _stop_child(proc), timeout
    )
    return proc, transport


def one_shot_backend(answer) -> int:
    """Listen on a free local port; answer(conn) serves the first request; return the port."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        with listener:
            conn, _ = listener.accept()
            # The client may hang up first; the test judges the client side.
            with conn, contextlib.suppress(OSError):
                conn.recv(1 << 16)
                answer(conn)

    threading.Thread(target=serve, daemon=True).start()
    return listener.getsockname()[1]


# Answers the handshake, then reads requests and never answers them.
SILENT_BACKEND = """
import json, sys, time
request = json.loads(sys.stdin.readline())
result = {"mask_token": "<mask>", "separator_token": "||", "default_lr": 0.1,
          "embedding_dim": 32, "length_model": "whitespace", "protocol": 2}
print(json.dumps({"id": request["id"], "ok": True, "result": result}), flush=True)
for line in sys.stdin:
    time.sleep(30)
"""


class TestSubprocessDeadline:
    def test_hung_backend_times_out_kills_child_and_fails_fast(self):
        proc, transport = subprocess_transport([sys.executable, "-c", SILENT_BACKEND], timeout=0.5)
        try:
            classifier = RemoteBackend(transport).create_classifier(("A", "B"), seed=0)
            started = time.perf_counter()
            with pytest.raises(AdapterError, match="timed out"):
                classifier.predict(["no answer comes"])
            assert time.perf_counter() - started < 10
            assert proc.poll() is not None
            started = time.perf_counter()
            with pytest.raises(AdapterError):
                classifier.predict(["later request"])
            assert time.perf_counter() - started < 0.5
        finally:
            transport.close()

    def test_backend_that_stops_reading_times_out_on_a_large_request(self):
        """A request larger than the pipe buffer cannot block the write forever."""
        proc, transport = subprocess_transport([sys.executable, "-c", SILENT_BACKEND], timeout=0.5)
        try:
            classifier = RemoteBackend(transport).create_classifier(("A", "B"), seed=0)
            started = time.perf_counter()
            with pytest.raises(AdapterError, match="timed out"):
                classifier.predict(["x" * 100] * 20_000)
            assert time.perf_counter() - started < 10
            assert proc.poll() is not None
        finally:
            transport.close()


# Writes its pid to argv[1], answers the handshake with an old protocol, then sleeps.
OLD_PROTOCOL_BACKEND = """
import json, os, sys, time
with open(sys.argv[1], "w") as fh:
    fh.write(str(os.getpid()))
request = json.loads(sys.stdin.readline())
result = {"mask_token": "<mask>", "separator_token": "||", "default_lr": 0.1,
          "embedding_dim": 32, "length_model": "whitespace", "protocol": 1}
print(json.dumps({"id": request["id"], "ok": True, "result": result}), flush=True)
time.sleep(60)
"""


class TestRefusedHandshake:
    def test_subprocess_child_is_stopped_and_reaped(self, tmp_path):
        pid_file = tmp_path / "pid"
        with pytest.raises(AdapterError, match="protocol 1"):
            connect_subprocess([sys.executable, "-c", OLD_PROTOCOL_BACKEND, str(pid_file)])
        pid = int(pid_file.read_text())
        try:
            # A reaped child's pid is gone; a running or zombie one still answers signal 0.
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        finally:
            with contextlib.suppress(OSError):
                os.kill(pid, signal.SIGKILL)

    def test_tcp_socket_is_closed(self):
        after_reply: list[bytes] = []

        def refuse(conn):
            result = dict(TestTransportSafety().hello_result(), protocol=1)
            conn.sendall(json.dumps({"id": 1, "ok": True, "result": result}).encode() + b"\n")
            conn.settimeout(5)
            after_reply.append(conn.recv(1))

        port = one_shot_backend(refuse)
        # info keeps the failed call's frames, and so any socket they hold, alive.
        with pytest.raises(AdapterError, match="protocol 1") as info:
            connect_tcp("127.0.0.1", port)
        for _ in range(100):
            if after_reply:
                break
            time.sleep(0.05)
        assert after_reply == [b""]

    def test_missing_hello_field_closes_the_transport(self):
        result = TestTransportSafety().hello_result()
        del result["embedding_dim"]
        closed = []
        transport = TestTransportSafety.EchoTransport(
            lambda payload: {"id": payload["id"], "ok": True, "result": result}
        )
        transport.close = lambda: closed.append(True)
        with pytest.raises(KeyError, match="embedding_dim"):
            RemoteBackend(transport)
        assert closed == [True]


class TestSubprocessEndToEnd:
    def test_subprocess_backend_round_trip(self):
        """A spawned stdio server behaves exactly like the in-process backend."""
        backend = connect_subprocess([sys.executable, "-m", "pairshot.backend.serve"])
        try:
            assert backend.mask_token == "<mask>"
            assert backend.separator_token == "||"
            local = ToyBackend().create_classifier(("Neutral", "Duplicate"), seed=0)
            local.train(CLF_ROWS, steps=25, batch=2, lr=0.1, seed=3)
            classifier = backend.create_classifier(("Neutral", "Duplicate"), seed=0)
            classifier.train(CLF_ROWS, steps=25, batch=2, lr=0.1, seed=3)
            probe = "fine good steady"
            np.testing.assert_array_equal(classifier.predict([probe]), local.predict([probe]))
        finally:
            backend.close()

    def test_partial_config_file_applies_over_defaults(self, tmp_path):
        """``serve --config`` takes overrides, not a complete config."""
        config = tmp_path / "backend.json"
        config.write_text(json.dumps({"buckets": 1024, "embedding_dim": 8}))
        backend = connect_subprocess(
            [sys.executable, "-m", "pairshot.backend.serve", "--config", str(config)]
        )
        try:
            assert backend.mask_token == "<mask>"
            assert backend.create_encoder(seed=0).dim == 8
        finally:
            backend.close()

    def test_tcp_backend_round_trip(self):
        """The same protocol works over a TCP socket."""
        backend = connect_tcp("127.0.0.1", start_tcp_server())
        try:
            local = ToyBackend().create_encoder(seed=2)
            encoder = backend.create_encoder(seed=2)
            np.testing.assert_array_equal(
                encoder.encode(["hello world"]), local.encode(["hello world"])
            )
        finally:
            backend.close()

    def test_tcp_clients_never_share_models(self):
        """A second client's fresh model is untouched by the first client's training."""
        port = start_tcp_server()
        first = connect_tcp("127.0.0.1", port)
        try:
            trained = first.create_classifier(("Neutral", "Duplicate"), seed=5)
            trained.train(CLF_ROWS, steps=25, batch=2, lr=0.1, seed=3)
            assert trained.predict(["fine good steady"]).any()
        finally:
            first.close()
        second = connect_tcp("127.0.0.1", port)
        try:
            fresh = second.create_classifier(("Neutral", "Duplicate"), seed=5)
            local = ToyBackend().create_classifier(("Neutral", "Duplicate"), seed=5)
            probe = ["fine good steady"]
            np.testing.assert_array_equal(fresh.predict(probe), local.predict(probe))
        finally:
            second.close()

    def test_tcp_server_outlives_clients_that_fail(self):
        """Bad bytes get an error answer, a reset ends one connection; the next client is served."""
        port = start_tcp_server()
        with socket.create_connection(("127.0.0.1", port), timeout=5) as bad:
            bad.sendall(b"\xff\xfe\n")
            answer = bad.makefile("rb").readline()
        with socket.create_connection(("127.0.0.1", port), timeout=5) as resetting:
            # Linger 0: close sends a reset instead of an orderly shutdown.
            resetting.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        backend = connect_tcp("127.0.0.1", port)
        try:
            assert backend.mask_token == "<mask>"
        finally:
            backend.close()
        answer = json.loads(answer)
        assert (answer["id"], answer["ok"], answer["kind"]) == (None, False, "AdapterError")

def start_tcp_server() -> int:
    """Start serve_tcp on a free local port in a daemon thread; return the port."""
    probe_sock = socket.socket()
    probe_sock.bind(("127.0.0.1", 0))
    port = probe_sock.getsockname()[1]
    probe_sock.close()
    thread = threading.Thread(
        target=serve_tcp, args=(BackendServer(), "127.0.0.1", port), daemon=True
    )
    thread.start()
    for _ in range(50):
        try:
            socket.create_connection(("127.0.0.1", port), timeout=1).close()
            return port
        except OSError:
            time.sleep(0.05)
    raise AssertionError("TCP backend never came up")

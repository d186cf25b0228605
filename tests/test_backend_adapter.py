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
from hypothesis import given, settings
from hypothesis import strategies as st

from pairshot.backend.adapter import (
    PROTOCOL_VERSION,
    AdapterError,
    LineTransport,
    RemoteBackend,
    _stop_child,
    connect_subprocess,
    connect_tcp,
)
from pairshot.backend.contracts import Backend
from pairshot.backend.serve import BackendServer, serve_tcp
from pairshot import errors
from pairshot.backend.toy import ToyBackend, backend_config_with
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


# Lines that are valid JSON syntax but that json.loads refuses: nesting
# deeper than its recursion limit (RecursionError), and an integer longer
# than its digit limit (ValueError).
UNPARSABLE_LINES = (b"[" * 100_000, b"1" * 5_000)


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
        assert result["protocol"] == PROTOCOL_VERSION

    def test_score_round_trip(self, server):
        """A score request returns, per model, one row per cloze and one float
        per candidate token."""
        response = server.handle(
            {
                "id": 2,
                "verb": "score",
                "params": {
                    "models": [{"model": "scorer-a", "init_seed": 0}, {"model": "scorer-b"}],
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
        assert [[len(row) for row in table] for table in scores] == [[2, 2], [2, 2]]
        assert all(isinstance(v, float) for table in scores for row in table for v in row)

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
            {"id": 7, "verb": "score", "params": {"models": [{"model": "s"}], "candidates": ["Yes"]}}
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
                    "models": [{"model": "scorer-b", "init_seed": 0}],
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
            ("score", {"models": [{"model": "s"}], "clozes": {"text": "a"}, "candidates": ["Yes"]}),
            ("score", {"models": [{"model": "s"}], "clozes": [], "candidates": "Yes"}),
            ("score", {"models": {"model": "s"}, "clozes": [], "candidates": ["Yes"]}),
        ],
    )
    def test_batch_fields_must_be_lists(self, server, verb, params):
        """A string is not silently read as a batch of one-character texts."""
        response = server.handle({"id": 9, "verb": verb, "params": params})
        assert response["ok"] is False
        assert response["kind"] == "AdapterError"
        assert "must be a list" in response["error"]

    @pytest.mark.parametrize(
        "verb, params, field",
        [
            ("predict", {"model": "c", "labels": "AB", "texts": ["a"]}, "labels"),
            ("predict", {"model": "c", "labels": ["A", 2], "texts": ["a"]}, "labels"),
            ("train_clf", {"model": "c", "labels": ["A", "B"], "rows": "ab", "steps": 1,
                           "batch": 1, "lr": 0.1, "seed": 0}, "rows"),
            ("fit_encoder", {"model": "e", "triplets": "abc", "epochs": 1, "batch": 1,
                             "lr": 0.1, "seed": 0}, "triplets"),
        ],
    )
    def test_model_list_fields_are_typed_and_create_nothing(self, server, verb, params, field):
        """"AB" is not the labels ("A", "B"), and a string is no rows or
        triplets: the answer names the field, no model is created, and the
        server keeps serving."""
        response = server.handle({"id": 16, "verb": verb, "params": params})
        assert (response["ok"], response["kind"]) == (False, "AdapterError")
        assert field in response["error"]
        assert server._models == {}
        assert server.handle({"id": 17, "verb": "hello", "params": {}})["ok"] is True

    def test_labels_must_be_the_classifiers_own(self, server):
        """A classifier answers in the label order it was created with, so a
        request naming other labels is refused and changes nothing."""

        def request(verb, labels, **params):
            params = {"model": "c", "labels": labels, **params}
            return server.handle({"id": 18, "verb": verb, "params": params})

        train = {"rows": [["a b", [1.0, 0.0]]], "steps": 1, "batch": 1, "lr": 0.1, "seed": 0}
        assert request("train_clf", ["A", "B"], **train)["ok"] is True
        scores = request("predict", ["A", "B"], texts=["a b"])["result"]["scores"]
        assert scores[0][0] > scores[0][1]
        for verb, params in (("predict", {"texts": ["a b"]}), ("train_clf", train)):
            for labels in (["B", "A"], ["A", "B", "C"]):
                response = request(verb, labels, **params)
                assert (response["ok"], response["kind"]) == (False, "AdapterError")
                assert "labels" in response["error"]
        assert request("predict", ["A", "B"], texts=["a b"])["result"]["scores"] == scores

    @pytest.mark.parametrize(
        "verb, params, kind",
        [
            ("score", {"models": [{"model": "m"}], "clozes": [{"text": "a <mask>"}],
                       "candidates": ["Yes"]}, "ToyMaskedScorer"),
            ("train_mlm", {"jobs": [{"model": "m", "rows": [[{"text": "a <mask>"}, "Yes"]],
                                     "seed": 0}], "steps": 1, "batch": 1, "lr": 0.1},
             "ToyMaskedScorer"),
            ("encode", {"model": "m", "texts": ["a b"]}, "ToyEncoder"),
            ("fit_encoder", {"model": "m", "triplets": [["a", "b", 0.5]], "epochs": 1,
                             "batch": 1, "lr": 0.1, "seed": 0}, "ToyEncoder"),
        ],
    )
    def test_a_model_of_another_kind_is_refused_by_name(self, server, verb, params, kind):
        """A name that holds a classifier is no scorer or encoder: the answer
        names the model and the kind it holds, and nothing changes."""
        predict = {"model": "m", "labels": ["A", "B"], "texts": ["a b"]}
        scores = server.handle({"id": 19, "verb": "predict", "params": predict})["result"]
        response = server.handle({"id": 20, "verb": verb, "params": params})
        assert (response["ok"], response["kind"]) == (False, "AdapterError")
        assert "'m'" in response["error"] and "ToyTextClassifier" in response["error"]
        assert kind in response["error"]
        assert list(server._models) == ["m"]
        assert server.handle({"id": 21, "verb": "predict", "params": predict})["result"] == scores

    @pytest.mark.parametrize("row", [["t"], ["t", [1.0, 0.0], "x"], "t", {"text": "t"}])
    @pytest.mark.parametrize("verb", ["train_clf", "train_mlm"])
    def test_rows_must_be_pairs(self, server, verb, row):
        """A row that is no [input, target] pair is refused by name, before
        any model is created."""
        if verb == "train_clf":
            params = {"model": "c", "labels": ["A", "B"], "rows": [["a", [1.0, 0.0]], row],
                      "seed": 0}
        else:
            params = {"jobs": [{"model": "s", "rows": [[{"text": "a <mask>"}, "Yes"], row],
                                "seed": 0}]}
        params = {**params, "steps": 1, "batch": 1, "lr": 0.1}
        response = server.handle({"id": 22, "verb": verb, "params": params})
        assert (response["ok"], response["kind"]) == (False, "AdapterError")
        assert "rows" in response["error"]
        assert server._models == {}
        assert server.handle({"id": 23, "verb": "hello", "params": {}})["ok"] is True

    @pytest.mark.parametrize(
        "verb, params, field",
        [
            ("train_clf", {"model": "c", "labels": ["A", "B"], "rows": [[5, [1.0, 0.0]]],
                           "steps": 1, "batch": 1, "lr": 0.1, "seed": 0}, "rows"),
            ("train_mlm", {"jobs": [{"model": "s1", "rows": [[{"text": "a <mask>"}, "Yes"]],
                                     "seed": 0},
                                    {"model": "s2", "rows": [["a <mask>", "Yes"]], "seed": 0}],
                           "steps": 1, "batch": 1, "lr": 0.1}, "rows"),
            ("train_mlm", {"jobs": [{"model": "s1", "rows": [[{"text": "a <mask>"}, "Yes"]],
                                     "seed": 0},
                                    {"model": "s2", "rows": [[{"text": 5}, "Yes"]], "seed": 0}],
                           "steps": 1, "batch": 1, "lr": 0.1}, "text"),
            ("train_mlm", {"jobs": [{"model": "s1", "rows": [[{"text": "a <mask>"}, "Yes"]],
                                     "seed": 0},
                                    {"model": "s2", "init_seed": "x",
                                     "rows": [[{"text": "a <mask>"}, "Yes"]], "seed": 0}],
                           "steps": 1, "batch": 1, "lr": 0.1}, "init_seed"),
            ("score", {"models": [{"model": "s1"}, {"model": "s2", "init_seed": 2.5}],
                       "clozes": [{"text": "a <mask>"}], "candidates": ["Yes"]}, "init_seed"),
            ("score", {"models": [{"model": "s1"}], "clozes": [{"text": ["a"]}],
                       "candidates": ["Yes"]}, "text"),
            ("fit_encoder", {"model": "e", "triplets": [[1, 2]], "epochs": 1, "batch": 1,
                             "lr": 0.1, "seed": 0}, "triplets"),
            ("fit_encoder", {"model": "e", "triplets": [[5, "b", 0.5]], "epochs": 1, "batch": 1,
                             "lr": 0.1, "seed": 0}, "triplets"),
            ("encode", {"model": "e", "texts": [5]}, "texts"),
            ("predict", {"model": "c", "labels": ["A", "B"], "texts": [5]}, "texts"),
        ],
    )
    def test_malformed_items_are_refused_by_name_before_any_model(
        self, server, verb, params, field
    ):
        """A text that is no string, a triplet that is no [text, text,
        similarity] list, or a second job or model that is malformed: one
        AdapterError names the field, no model is created, not even the
        first job's, and the server keeps serving."""
        response = server.handle({"id": 24, "verb": verb, "params": params})
        assert (response["ok"], response["kind"]) == (False, "AdapterError")
        assert field in response["error"]
        assert server._models == {}
        assert server.handle({"id": 25, "verb": "hello", "params": {}})["ok"] is True

    @pytest.mark.parametrize(
        "verb, params",
        [
            ("train_clf", {"model": "c", "labels": ["A", "B"], "rows": [["t", "10"]]}),
            ("train_clf", {"model": "c", "labels": ["A", "B"], "rows": [["t", ["1", "0"]]]}),
            ("fit_encoder", {"model": "e", "triplets": [["a b", "c d", "0.5"]]}),
        ],
    )
    def test_string_targets_are_shape_errors(self, server, verb, params):
        """"10" is not the distribution [1.0, 0.0], nor "0.5" a similarity."""
        counts = {"steps": 1} if verb == "train_clf" else {"epochs": 1}
        params = {**params, **counts, "batch": 1, "lr": 0.1, "seed": 0}
        response = server.handle({"id": 19, "verb": verb, "params": params})
        assert (response["ok"], response["kind"]) == (False, "ShapeError")

    TRAIN_MLM = {
        "jobs": [
            {
                "model": "scorer-t",
                "init_seed": 0,
                "rows": [[{"text": "fast reply <mask>", "mask_position": 2}, "Yes"]],
                "seed": 1,
                "candidates": ["Yes", "No"],
            }
        ],
        "steps": 3,
        "batch": 2,
        "lr": 0.1,
    }

    @pytest.mark.parametrize(
        "field, value",
        [
            ("steps", 2.5), ("steps", True), ("batch", "2"), ("batch", None), ("lr", "0.1"),
            ("lr", True), ("jobs", "abc"), ("jobs", {"model": "scorer-t"}), ("seed", 1.0),
            ("seed", True), ("rows", "abc"), ("candidates", "Yes"),
        ],
    )
    def test_train_mlm_refuses_a_mistyped_field_and_keeps_serving(self, server, field, value):
        """2.5 steps are not truncated to 2, true is not 1 and a string is not a
        list of characters: the answer names the field and nothing trains."""
        params = json.loads(json.dumps(self.TRAIN_MLM))
        (params["jobs"][0] if field in ("seed", "rows", "candidates") else params)[field] = value
        response = server.handle({"id": 10, "verb": "train_mlm", "params": params})
        assert (response["ok"], response["kind"]) == (False, "AdapterError")
        assert field in response["error"]
        score = {
            "models": [{"model": "scorer-t"}],
            "clozes": [{"text": "fast reply <mask>"}],
            "candidates": ["Yes"],
        }
        assert server.handle({"id": 11, "verb": "score", "params": score})["result"] == {
            "scores": [[[0.0]]]
        }
        trained = server.handle({"id": 12, "verb": "train_mlm", "params": self.TRAIN_MLM})
        assert trained == {"id": 12, "ok": True, "result": {"trained": [1]}}

    CLF = {"model": "c", "labels": ["A", "B"], "rows": [["a b", [1.0, 0.0]]], "batch": 1}
    ENC = {"model": "e", "triplets": [["a b", "c d", 1.0]], "batch": 1}

    @pytest.mark.parametrize(
        "verb, params, field",
        [
            ("train_clf", {**CLF, "steps": 2.5, "lr": 0.1, "seed": 0}, "steps"),
            ("train_clf", {**CLF, "steps": 2, "lr": 0.1, "seed": True}, "seed"),
            ("fit_encoder", {**ENC, "epochs": True, "lr": 0.1, "seed": 0}, "epochs"),
            ("fit_encoder", {**ENC, "epochs": 1, "lr": "0.1", "seed": 0}, "lr"),
            ("fit_encoder", {**ENC, "epochs": 1, "batch": 0, "lr": 0.1, "seed": 0}, "batch"),
        ],
    )
    def test_other_training_verbs_refuse_mistyped_counts(self, server, verb, params, field):
        response = server.handle({"id": 13, "verb": verb, "params": params})
        assert (response["ok"], response["kind"]) == (False, "AdapterError")
        assert field in response["error"]

    @pytest.mark.parametrize("verb", ["encode", "score"])
    @pytest.mark.parametrize("init_seed", ["12", 2.5, True, "x"])
    def test_init_seed_must_be_an_integer(self, server, verb, init_seed):
        """"12", 2.5 and true are not turned into seeds: the answer names the
        field, no model is created, and the server keeps serving."""

        def params(seed):
            model = {"model": "m", "init_seed": seed}
            if verb == "encode":
                return {**model, "texts": ["a b"]}
            return {"models": [model], "clozes": [{"text": "a <mask>"}], "candidates": ["Yes"]}

        response = server.handle({"id": 14, "verb": verb, "params": params(init_seed)})
        assert (response["ok"], response["kind"]) == (False, "AdapterError")
        assert "init_seed" in response["error"]
        assert server._models == {}
        assert server.handle({"id": 15, "verb": verb, "params": params(12)})["ok"] is True
        assert list(server._models) == ["m"] and server._models["m"].seed == 12

    CLF_TRAIN = {**CLF, "steps": 1, "lr": 0.1, "seed": 0}
    ENC_FIT = {**ENC, "epochs": 1, "lr": 0.1, "seed": 0}

    @pytest.mark.parametrize(
        "verb, params, kind",
        [
            # A field that is no list, on every model verb.
            ("score", {"models": {"model": "s"}, "clozes": [], "candidates": ["Yes"]},
             "AdapterError"),
            ("train_mlm", {"jobs": "abc", "steps": 1, "batch": 1, "lr": 0.1}, "AdapterError"),
            ("train_clf", {**CLF_TRAIN, "rows": "ab"}, "AdapterError"),
            ("predict", {"model": "c", "labels": "AB", "texts": ["a"]}, "AdapterError"),
            ("encode", {"model": "e", "texts": "abc"}, "AdapterError"),
            ("fit_encoder", {**ENC_FIT, "triplets": "abc"}, "AdapterError"),
            # Refusals that come after the request has made its models.
            ("score", {"models": [{"model": "s1"}, {"model": "s2"}],
                       "clozes": [{"text": "a <mask>"}], "candidates": ["NotAToken"]},
             "VocabularyError"),
            ("train_clf", {**CLF_TRAIN, "rows": []}, "NoDataError"),
            ("train_clf", {**CLF_TRAIN, "rows": [["a b", [1.0]]]}, "ShapeError"),
            ("train_clf", {**CLF_TRAIN, "model": "c2", "batch": 0}, "AdapterError"),
            ("predict", {"model": "c", "labels": ["A"], "texts": ["a"]}, "ShapeError"),
            ("fit_encoder", {**ENC_FIT, "triplets": [["a b", "c d", float("nan")]]},
             "ShapeError"),
            ("fit_encoder", {**ENC_FIT, "triplets": []}, "NoDataError"),
            ("fit_encoder", {**ENC_FIT, "model": "e2", "batch": 0}, "AdapterError"),
            ("train_mlm", {"jobs": [{"model": "m", "rows": [[{"text": "a <mask>"}, "Nope"]],
                                     "seed": 0}], "steps": 1, "batch": 1, "lr": 0.1},
             "VocabularyError"),
        ],
    )
    def test_a_refused_request_leaves_the_registry_as_it_was(self, server, verb, params, kind):
        """Whatever refuses a request, and however far it got, the models it
        made are dropped: the registry holds what it held before, and the
        server keeps serving."""
        assert server.handle({"id": 26, "verb": "encode",
                              "params": {"model": "kept", "texts": ["a"]}})["ok"] is True
        before = dict(server._models)
        response = server.handle({"id": 27, "verb": verb, "params": params})
        assert (response["id"], response["ok"], response["kind"]) == (27, False, kind)
        assert server._models == before
        assert all(server._models[name] is model for name, model in before.items())
        assert server.handle({"id": 28, "verb": "hello", "params": {}})["ok"] is True

    def test_a_numeric_error_keeps_the_steps_completed_before_it(self, server):
        """The trainer writes back the steps it completed before a non-finite
        one, in process and on the server alike, so the server keeps the
        classifier it made and it equals one trained in process.  A rate of
        -1e308 climbs the loss until a step's scores overflow."""
        train = {"model": "c", "init_seed": 0, "labels": ["A", "B"],
                 "rows": [[text, dist] for text, dist in CLF_ROWS],
                 "steps": 40, "batch": 2, "lr": -1e308, "seed": 3}
        local = ToyBackend().create_classifier(("A", "B"), seed=0)
        with np.errstate(over="ignore"):
            response = server.handle({"id": 29, "verb": "train_clf", "params": train})
            with pytest.raises(errors.NumericError):
                local.train(CLF_ROWS, steps=40, batch=2, lr=-1e308, seed=3)
        assert (response["ok"], response["kind"]) == (False, "NumericError")
        assert local._sched["step"] > 0
        kept = server._models["c"]
        np.testing.assert_array_equal(kept.W, local.W)
        assert kept._sched == local._sched

    def test_stdio_server_survives_malformed_lines(self):
        """Non-object and non-list inputs, and lines the JSON parser refuses,
        get an error answer; the server keeps serving."""
        lines = [
            b"[1,2]",
            b"\xff\xfe",
            *UNPARSABLE_LINES,
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

    def test_both_backends_meet_the_contract_close_included(self, remote):
        """close() is part of Backend: the toy backend releases nothing, the
        remote one its transport."""
        assert "close" in vars(Backend)
        for backend in (ToyBackend(), remote):
            assert isinstance(backend, Backend)
            assert backend.close() is None

    def test_scorer_parity(self, remote):
        """Remote and local scorers trained identically emit identical scores."""
        probe = cloze("fast reply sharp answer <mask>")
        tables = []
        for backend in (ToyBackend(), remote):
            scorer = backend.create_scorer(seed=0)
            backend.train_scorers([(scorer, SCORER_ROWS, 9, ["Yes", "No"])], 12, 2, 0.1)
            tables.append(backend.score_scorers([scorer], [probe], ["Yes", "No"])[0])
        np.testing.assert_array_equal(*tables)

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
            remote.score_scorers([scorer], [cloze("alpha <mask>")], ["NotAToken"])
        classifier = remote.create_classifier(("A", "B"), seed=0)
        with pytest.raises(ShapeError):
            classifier.train([("text", [0.5, 0.2])], steps=1, batch=1, lr=0.1, seed=0)
        encoder = remote.create_encoder(seed=0)
        with pytest.raises(NoDataError):
            encoder.fit([], epochs=1, batch=1, lr=0.1, seed=0)

    def test_string_targets_are_refused_before_any_request(self):
        """The client reads "10" as no distribution and "0.5" as no similarity."""
        transport = CountingTransport(BackendServer())
        remote = RemoteBackend(transport)
        with pytest.raises(ShapeError):
            remote.create_classifier(("A", "B")).train([("t", "10")], 1, 1, 0.1, 0)
        with pytest.raises(ShapeError):
            remote.create_encoder().fit([("a b", "c d", "0.5")], 1, 1, 0.1, 0)
        assert transport.verbs == ["hello"]

    def test_train_scorers_parity(self, remote):
        """One train_scorers call over the wire trains each scorer as the
        in-process backend does."""
        local_backend = ToyBackend()
        local = [local_backend.create_scorer(seed) for seed in (0, 1)]
        remote_scorers = [remote.create_scorer(seed) for seed in (0, 1)]
        for backend, scorers in ((local_backend, local), (remote, remote_scorers)):
            jobs = [(s, SCORER_ROWS[: 3 + i], 9 + i, ["Yes", "No"]) for i, s in enumerate(scorers)]
            backend.train_scorers(jobs, 12, 2, 0.1)
        probe = cloze("fast reply sharp answer <mask>")
        np.testing.assert_array_equal(
            remote.score_scorers(remote_scorers, [probe], ["Yes", "No"]),
            local_backend.score_scorers(local, [probe], ["Yes", "No"]),
        )

    def test_train_scorers_refuses_one_model_twice(self, remote):
        scorer = remote.create_scorer(seed=0)
        job = (scorer, SCORER_ROWS, 9, ["Yes", "No"])
        with pytest.raises(AdapterError, match="one model"):
            remote.train_scorers([job, job], 12, 2, 0.1)

    def test_train_scorers_refuses_a_scorer_of_another_backend(self, remote):
        """Its name would address, and silently create, a model of this backend."""
        other = RemoteBackend(DirectTransport(BackendServer())).create_scorer(seed=0)
        with pytest.raises(ValueError, match="another backend"):
            remote.train_scorers([(other, SCORER_ROWS, 9, ["Yes", "No"])], 12, 2, 0.1)

    def test_model_names_isolate_state(self, remote):
        """Training one remote scorer leaves a sibling scorer untouched."""
        first = remote.create_scorer(seed=0)
        second = remote.create_scorer(seed=0)
        remote.train_scorers([(first, SCORER_ROWS, 9, ["Yes", "No"])], 12, 2, 0.1)
        probe = cloze("fast reply sharp answer <mask>")
        scores = remote.score_scorers([second], [probe], ["Yes", "No"])[0]
        np.testing.assert_array_equal(scores, [[0.0, 0.0]])


# A small bucket count keeps the property's models cheap to create.
SMALL = backend_config_with({"buckets": 256})
PROBES = [cloze(text) for text in (
    "fast reply sharp answer <mask>", "slow reply <mask>", "<mask>", "late late answer <mask>",
)]


class TestScoreScorers:
    """Backend.score_scorers is each scorer's score stacked, in-process and over the wire."""

    @settings(max_examples=25, deadline=None, database=None)
    @given(
        seeds=st.lists(st.integers(0, 3), max_size=9),
        trained=st.lists(st.booleans(), min_size=9, max_size=9),
        probes=st.lists(st.sampled_from(PROBES), max_size=5),
        candidates=st.sampled_from([["Yes", "No"], ["No"], ["No", "Yes", "Maybe"]]),
    )
    def test_equals_each_scorers_score_stacked(self, seeds, trained, probes, candidates):
        local = ToyBackend(SMALL)
        remote = RemoteBackend(DirectTransport(BackendServer(ToyBackend(SMALL))))
        tables = []
        for backend in (local, remote):
            scorers = [backend.create_scorer(seed) for seed in seeds]
            for i, scorer in enumerate(scorers):
                if trained[i]:
                    backend.train_scorers(
                        [(scorer, SCORER_ROWS[: 2 + i % 3], i, ["Yes", "No"])], 3, 2, 0.1
                    )
            stacked = backend.score_scorers(scorers, probes, candidates)
            alone = [backend.score_scorers([scorer], probes, candidates)[0] for scorer in scorers]
            assert stacked.shape == (len(seeds), len(probes), len(candidates))
            assert stacked.dtype == np.float64
            assert stacked.tobytes() == np.array(alone, dtype=np.float64).tobytes()
            tables.append(stacked)
        assert tables[0].tobytes() == tables[1].tobytes()

    def test_one_request_names_every_scorer(self):
        transport = CountingTransport(BackendServer())
        remote = RemoteBackend(transport)
        scorers = [remote.create_scorer(seed) for seed in range(3)]
        assert remote.score_scorers(scorers, PROBES, ["Yes", "No"]).shape == (3, len(PROBES), 2)
        assert transport.verbs == ["hello", "score"]

    def test_refuses_a_scorer_of_another_backend(self, remote):
        other = RemoteBackend(DirectTransport(BackendServer())).create_scorer(seed=0)
        with pytest.raises(ValueError, match="another backend"):
            remote.score_scorers([remote.create_scorer(seed=0), other], PROBES, ["Yes", "No"])


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
        """hello, 3 weighing scores (one per pattern, for all its seeds), one
        train_mlm for all 9 members, 3 soft-label scores, distill, predict, 3
        ensemble scores."""
        counts = []
        for keep in (len(dup_unlabeled), 7):
            unlabeled = Dataset(dup_unlabeled.examples[:keep], dup_unlabeled.label_set, "unlabeled")
            test = Dataset(dup_test.examples[: keep + 3], dup_test.label_set, "test")
            transport = CountingTransport(BackendServer())
            self.run(RemoteBackend(transport), dup_train, unlabeled, test, tmp_path / str(keep))
            counts.append(len(transport.verbs))
            assert transport.verbs.count("score") == 9
            assert transport.verbs.count("train_mlm") == 1
        assert counts == [13, 13]


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
            "protocol": PROTOCOL_VERSION,
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

    @pytest.mark.parametrize(
        "answer, kind", [([1, 2], "array"), (42, "number"), ("x", "string"), (None, "null")]
    )
    def test_answer_that_is_not_an_object_is_typed(self, answer, kind):
        """An answer that is JSON but not an object names its JSON type."""
        closed = []
        transport = self.EchoTransport(lambda payload: answer)
        transport.close = lambda: closed.append(True)
        with pytest.raises(AdapterError, match=f"JSON {kind}"):
            RemoteBackend(transport)
        assert closed == [True]

    def test_unsupported_length_model_rejected(self):
        result = self.hello_result()
        result["length_model"] = "bpe"
        transport = self.EchoTransport(
            lambda payload: {"id": payload["id"], "ok": True, "result": result}
        )
        with pytest.raises(AdapterError, match="length model"):
            RemoteBackend(transport)

    @pytest.mark.parametrize("reported", [None, 1, 2, "3"])
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
        assert f"protocol {reported!r}" in message and f"speaks {PROTOCOL_VERSION}" in message

    def test_malformed_score_table_rejected(self):
        """A result of the wrong shape is an AdapterError, not a bad array."""

        def respond(payload):
            if payload["verb"] == "hello":
                return {"id": payload["id"], "ok": True, "result": self.hello_result()}
            return {"id": payload["id"], "ok": True, "result": {"scores": [[0.5]]}}

        remote = RemoteBackend(self.EchoTransport(respond))
        clozes = [cloze("a <mask>"), cloze("b <mask>")]
        with pytest.raises(AdapterError, match="expected"):
            remote.score_scorers([remote.create_scorer(seed=0)], clozes, ["Yes", "No"])

    @pytest.mark.parametrize(
        "answer",
        [
            [[[0.5, 0.5]]],
            [[0.5, 0.5], [0.5, 0.5]],
            [[[0.5, 0.5]], [[0.5]]],
            [[[0.5, 0.5, 0.5]], [[0.5, 0.5, 0.5]]],
            None,
        ],
    )
    def test_answer_of_the_wrong_shape_is_typed(self, answer):
        """Two scorers of one cloze and two candidates need a (2, 1, 2) table."""

        def respond(payload):
            if payload["verb"] == "hello":
                return {"id": payload["id"], "ok": True, "result": self.hello_result()}
            return {"id": payload["id"], "ok": True, "result": {"scores": answer}}

        remote = RemoteBackend(self.EchoTransport(respond))
        scorers = [remote.create_scorer(seed) for seed in (0, 1)]
        with pytest.raises(AdapterError, match="malformed|expected"):
            remote.score_scorers(scorers, PROBES[:1], ["Yes", "No"])

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
          "embedding_dim": 32, "length_model": "whitespace", "protocol": %d}
print(json.dumps({"id": request["id"], "ok": True, "result": result}), flush=True)
for line in sys.stdin:
    time.sleep(30)
""" % PROTOCOL_VERSION


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


# Answers its first request with the line in argv[1], then waits.
FIXED_ANSWER_BACKEND = """
import sys, time
sys.stdin.readline()
sys.stdout.write(sys.argv[1] + "\\n")
sys.stdout.flush()
time.sleep(60)
"""


class TestUnparsableAnswer:
    @pytest.mark.parametrize("line", UNPARSABLE_LINES, ids=["deep-nesting", "long-integer"])
    def test_answer_json_cannot_parse_is_typed_and_reaps_the_child(self, line):
        command = [sys.executable, "-c", FIXED_ANSWER_BACKEND, line.decode()]
        proc, transport = subprocess_transport(command, timeout=10)
        try:
            with pytest.raises(AdapterError):
                transport.request({"id": 1, "verb": "hello", "params": {}})
            assert proc.poll() is not None
            with pytest.raises(AdapterError):
                transport.request({"id": 2, "verb": "hello", "params": {}})
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


ARRAY_ANSWER_BACKEND = """
import json, os, sys, time
with open(sys.argv[1], "w") as fh:
    fh.write(str(os.getpid()))
sys.stdin.readline()
print(json.dumps([1, 2]), flush=True)
time.sleep(60)
"""


# Marks a hello field the backend leaves out.
MISSING = object()


def assert_refused_child_is_reaped(tmp_path, script, message):
    pid_file = tmp_path / "pid"
    with pytest.raises(AdapterError, match=message):
        connect_subprocess([sys.executable, "-c", script, str(pid_file)])
    pid = int(pid_file.read_text())
    try:
        # A reaped child's pid is gone; a running or zombie one still answers signal 0.
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    finally:
        with contextlib.suppress(OSError):
            os.kill(pid, signal.SIGKILL)


class TestRefusedHandshake:
    def test_subprocess_child_is_stopped_and_reaped(self, tmp_path):
        assert_refused_child_is_reaped(tmp_path, OLD_PROTOCOL_BACKEND, "protocol 1")

    def test_child_answering_an_array_is_stopped_and_reaped(self, tmp_path):
        assert_refused_child_is_reaped(tmp_path, ARRAY_ANSWER_BACKEND, "JSON array")

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
        with pytest.raises(AdapterError, match="embedding_dim"):
            RemoteBackend(transport)
        assert closed == [True]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("mask_token", MISSING),
            ("separator_token", MISSING),
            ("default_lr", MISSING),
            ("default_lr", "fast"),
            ("default_lr", True),
            ("default_lr", 0),
            ("default_lr", -0.1),
            ("default_lr", float("nan")),
            ("default_lr", float("inf")),
            ("embedding_dim", 2.5),
            ("embedding_dim", "32"),
            ("mask_token", 7),
            ("separator_token", ["||"]),
            pytest.param("default_lr", 10**400, id="default_lr-int-past-float"),
        ],
        ids=lambda value: "missing" if value is MISSING else None,
    )
    def test_bad_hello_field_is_named_and_closes_the_transport(self, field, value):
        result = dict(TestTransportSafety().hello_result(), **{field: value})
        if value is MISSING:
            del result[field]
        closed = []
        transport = TestTransportSafety.EchoTransport(
            lambda payload: {"id": payload["id"], "ok": True, "result": result}
        )
        transport.close = lambda: closed.append(True)
        with pytest.raises(AdapterError, match=field):
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

    @pytest.mark.parametrize(
        "content",
        [
            None, "[1]", "not json {", '"buckets"', "7", '{"buckets": -1}',
            '{"buckets": "x"}', '{"embedding_dim": 2.5}', '{"word_order": true}',
            '{"seed": null}', '{"separator_token": 1}', '{"vocabulary": ["<mask>", "||", 3]}',
        ],
    )
    def test_bad_config_file_is_one_error_line(self, tmp_path, capsys, content):
        """A missing, unparsable or non-object --config, or one with a field of
        the wrong type, ends in one error: line and exit status 1."""
        from pairshot.backend import serve

        config = tmp_path / "backend.json"
        if content is not None:
            config.write_text(content, encoding="utf-8")
        assert serve.main(["--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        if content == "not json {":
            assert str(config) in err, err

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
        """Bad bytes and lines the JSON parser refuses get an error answer, a reset
        ends one connection; the next client is served."""
        port = start_tcp_server()
        answers = []
        for line in (b"\xff\xfe", *UNPARSABLE_LINES):
            with socket.create_connection(("127.0.0.1", port), timeout=5) as bad:
                bad.sendall(line + b"\n")
                answers.append(json.loads(bad.makefile("rb").readline()))
        with socket.create_connection(("127.0.0.1", port), timeout=5) as resetting:
            # Linger 0: close sends a reset instead of an orderly shutdown.
            resetting.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        backend = connect_tcp("127.0.0.1", port)
        try:
            assert backend.mask_token == "<mask>"
        finally:
            backend.close()
        for answer in answers:
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

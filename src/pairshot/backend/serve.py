"""Server side of the backend protocol, hosting the toy models.

Run as a module to expose a toy backend over stdio (as a child of
``connect_subprocess``) or a TCP port:

    python -m pairshot.backend.serve
    python -m pairshot.backend.serve --tcp 9321 --config backend.json

where backend.json holds overrides of the default toy config, such as
``{"buckets": 1024}``.

The verbs are listed in ``pairshot.backend.adapter``; VERBS below holds
the shape of each verb's params, which a request must fit before its
handler runs.  score answers a whole batch for every scorer it names in
one response, predict and encode a whole batch for one model, and
train_mlm trains all the scorers of its jobs in lockstep.  Over TCP,
clients are served one after another and each connection gets its own
model registry, dropped when the client disconnects.  A line that is not
UTF-8 JSON, or that the parser refuses for its nesting depth or a
number's length, gets an AdapterError answer, and a client whose
connection fails, by a reset or a broken pipe, ends only its own one.

Any process speaking the same protocol can stand in for this server,
which is how transformer-scale backends plug into the engines.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import socket
import sys
from typing import BinaryIO, Iterable

from ..data import read_json
from ..errors import NumericError, PairshotError, brief, check, port
from ..prompting import ClozeInput
from .contracts import PROTOCOL_VERSION
from .toy import ToyBackend, ToyEncoder, ToyMaskedScorer, ToyTextClassifier, backend_config_with


# A model verb's model name and the seed it is created with on first use.
_MODEL = {"model": str, "init_seed?": int}
_CLOZE = {"text": str, "mask_position?": int, "segment_boundary?": int | None}
# The params of every verb, as errors.check shapes: handle refuses a request
# whose params do not fit before its handler runs.  Targets and candidates
# are the models' to check: a bad distribution is a ShapeError, a token
# outside the vocabulary a VocabularyError.
VERBS = {
    "hello": {},
    "score": {"models": [_MODEL], "clozes": [_CLOZE], "candidates": list},
    "predict": {**_MODEL, "labels": [str], "texts": [str]},
    "encode": {**_MODEL, "texts": [str]},
    "train_mlm": {
        "jobs": [{**_MODEL, "rows": [(_CLOZE, str)], "seed": int, "candidates?": list | None}],
        "steps": int, "batch": int, "lr": float,
    },
    "train_clf": {
        **_MODEL, "labels": [str], "rows": [(str, object)],
        "steps": int, "batch": int, "lr": float, "seed": int,
    },
    "fit_encoder": {
        **_MODEL, "triplets": [(str, str, object)],
        "epochs": int, "batch": int, "lr": float, "seed": int,
    },
}


class BackendServer:
    """Dispatches protocol verbs onto a toy backend instance."""

    def __init__(self, backend: ToyBackend | None = None) -> None:
        self.backend = backend or ToyBackend()
        self._models: dict[str, object] = {}
        self._created: list[str] = []  # the names the request being handled made

    # -- model registry ----------------------------------------------------

    def _model(self, params: dict, kind: type, create):
        """The model named in params, which must be a kind, made with
        create(init_seed) on first use and then noted as made by the request
        being handled."""
        name = params["model"]
        model = self._models.get(name)
        if model is None:
            model = self._models[name] = create(params.get("init_seed", 0))
            self._created.append(name)
        elif not isinstance(model, kind):
            held = type(model).__name__
            raise ValueError(f"model {brief(name)} holds a {held}, not a {kind.__name__}")
        return model

    def _scorers(self, entries: list[dict]) -> list:
        return [self._model(entry, ToyMaskedScorer, self.backend.create_scorer) for entry in entries]

    def _classifier(self, params: dict):
        """The classifier params name, which must have params' labels in the
        order it was created with."""
        labels = tuple(params["labels"])
        classifier = self._model(
            params, ToyTextClassifier, lambda seed: self.backend.create_classifier(labels, seed)
        )
        if classifier.labels != labels:
            raise ValueError(
                f"labels {brief(list(labels))} differ from those {brief(params['model'])} has"
            )
        return classifier

    def _encoder(self, params: dict):
        return self._model(params, ToyEncoder, self.backend.create_encoder)

    # -- verbs ---------------------------------------------------------------

    def handle(self, request: object) -> dict:
        """The answer to one request.  A refused request leaves the registry
        as it found it: the models it made are dropped, except after a
        NumericError, whose models keep the steps completed before it, as
        they do in process."""
        request_id = request.get("id") if isinstance(request, dict) else None
        self._created = []
        try:
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
            verb = request.get("verb")
            if not isinstance(verb, str) or verb not in VERBS:
                raise ValueError(f"unknown verb {brief(verb)}")
            params = request.get("params", {})
            check(params, VERBS[verb], ValueError, "params")
            return {"id": request_id, "ok": True, "result": getattr(self, f"_verb_{verb}")(params)}
        except Exception as exc:  # the one refusal path; non-package errors are protocol errors
            if not isinstance(exc, NumericError):
                for name in self._created:
                    del self._models[name]
            kind = type(exc).__name__ if isinstance(exc, PairshotError) else "AdapterError"
            return {"id": request_id, "ok": False, "error": str(exc), "kind": kind}

    def _verb_hello(self, params: dict) -> dict:
        return {
            "mask_token": self.backend.mask_token,
            "separator_token": self.backend.separator_token,
            "default_lr": self.backend.default_lr,
            "embedding_dim": self.backend.config.embedding_dim,
            "length_model": "whitespace",
            "protocol": PROTOCOL_VERSION,
        }

    @staticmethod
    def _cloze(payload: dict) -> ClozeInput:
        return ClozeInput(
            payload["text"], payload.get("mask_position", -1), payload.get("segment_boundary")
        )

    def _verb_score(self, params: dict) -> dict:
        clozes = [self._cloze(cloze) for cloze in params["clozes"]]
        scorers = self._scorers(params["models"])
        scores = self.backend.score_scorers(scorers, clozes, params["candidates"])
        return {"scores": scores.tolist()}

    def _verb_train_mlm(self, params: dict) -> dict:
        jobs = params["jobs"]
        specs = [
            ([(self._cloze(cloze), target) for cloze, target in job["rows"]], job["seed"],
             job.get("candidates"))
            for job in jobs
        ]
        self.backend.train_scorers(
            [(scorer, *spec) for scorer, spec in zip(self._scorers(jobs), specs)],
            params["steps"], params["batch"], params["lr"],
        )
        return {"trained": [len(rendered) for rendered, _, _ in specs]}

    def _verb_train_clf(self, params: dict) -> dict:
        rows = params["rows"]
        self._classifier(params).train(
            rows, params["steps"], params["batch"], params["lr"], params["seed"]
        )
        return {"trained": len(rows)}

    def _verb_predict(self, params: dict) -> dict:
        return {"scores": self._classifier(params).predict(params["texts"]).tolist()}

    def _verb_encode(self, params: dict) -> dict:
        return {"vectors": self._encoder(params).encode(params["texts"]).tolist()}

    def _verb_fit_encoder(self, params: dict) -> dict:
        triplets = params["triplets"]
        self._encoder(params).fit(
            triplets, params["epochs"], params["batch"], params["lr"], params["seed"]
        )
        return {"fitted": len(triplets)}


def _serve_lines(server: BackendServer, lines: Iterable[bytes], out: BinaryIO) -> None:
    """One request per input line, one response per output line."""
    for line in lines:
        line = line.strip()
        if not line:
            continue
        # ValueError covers bad UTF-8, bad JSON and integers past the digit
        # limit; RecursionError, nesting past the parser's depth.
        try:
            request = json.loads(line.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            response = {"id": None, "ok": False, "error": f"invalid JSON: {exc}", "kind": "AdapterError"}
        else:
            response = server.handle(request)
        out.write((json.dumps(response) + "\n").encode("utf-8"))
        out.flush()


def serve_stdio(server: BackendServer) -> None:
    """Serve requests from stdin, answering on stdout."""
    _serve_lines(server, sys.stdin.buffer, sys.stdout.buffer)


def serve_tcp(server: BackendServer, host: str, port: int) -> None:
    """Serve clients sequentially over TCP (one in flight at a time).

    Each connection gets a fresh registry over server's backend, so no
    client ever sees another client's models.  A connection that fails
    ends alone; the server goes on to the next client.
    """
    with socket.create_server((host, port)) as listener:
        sys.stderr.write(f"listening on {listener.getsockname()[0]}:{listener.getsockname()[1]}\n")
        sys.stderr.flush()
        while True:
            conn, _ = listener.accept()
            with conn, contextlib.suppress(OSError), conn.makefile("rwb") as stream:
                _serve_lines(BackendServer(server.backend), stream, stream)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Serve a toy backend over the JSON-lines protocol")
    parser.add_argument("--config", help="JSON file with backend config overrides")
    parser.add_argument("--tcp", type=port, metavar="PORT", help="serve on a TCP port instead of stdio")
    parser.add_argument("--host", default="127.0.0.1")
    args = parser.parse_args(argv)
    try:
        overrides = read_json(args.config) if args.config else {}
        server = BackendServer(ToyBackend(backend_config_with(overrides)))
    except (PairshotError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.tcp is None:
        serve_stdio(server)
        return 0
    try:
        serve_tcp(server, args.host, args.tcp)  # returns only by raising
    except OSError as exc:  # the address is taken or not this machine's
        print(f"error: cannot listen on {args.host}:{args.tcp}: {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Server side of the backend protocol, hosting the toy models.

Run as a module to expose a toy backend over stdio (as a child of
``connect_subprocess``) or a TCP port:

    python -m pairshot.backend.serve
    python -m pairshot.backend.serve --tcp 9321 --config backend.json

where backend.json holds overrides of the default toy config, such as
``{"buckets": 1024}``.

The verbs and their shapes are listed in ``pairshot.backend.adapter``:
score answers a whole batch for every scorer it names in one response,
predict and encode a whole batch for one model, and train_mlm trains
all the scorers of its jobs in lockstep.  Over TCP, clients are served
one after another and each connection gets its own model registry,
dropped when the client disconnects.  A line that is
not UTF-8 JSON, or that the parser refuses for its nesting depth or a
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

from ..errors import PairshotError
from ..prompting import ClozeInput
from .adapter import PROTOCOL_VERSION
from .toy import ToyBackend, ToyEncoder, ToyMaskedScorer, ToyTextClassifier, backend_config_with


_JSON_TYPES = {list: "a list", int: "an integer", float: "a number"}


class BackendServer:
    """Dispatches protocol verbs onto a toy backend instance."""

    def __init__(self, backend: ToyBackend | None = None) -> None:
        self.backend = backend or ToyBackend()
        self._models: dict[str, object] = {}

    # -- model registry ----------------------------------------------------

    def _model(self, params: dict, kind: type, create):
        """The model named in params, which must be a kind, made with
        create(init_seed) on first use (init_seed must be a JSON integer)."""
        name = params["model"]
        seed = self._get(params, "init_seed", int) if "init_seed" in params else 0
        if name not in self._models:
            self._models[name] = create(seed)
        model = self._models[name]
        if not isinstance(model, kind):
            raise ValueError(f"model {name!r} holds a {type(model).__name__}, not a {kind.__name__}")
        return model

    def _scorer(self, params: dict):
        return self._model(params, ToyMaskedScorer, self.backend.create_scorer)

    def _classifier(self, params: dict):
        """The classifier params name, which must have params' labels, a list
        of strings, in the order it was created with."""
        labels = tuple(self._get(params, "labels", list))
        if not all(isinstance(label, str) for label in labels):
            raise ValueError(f"labels must hold strings, got {list(labels)!r}")
        classifier = self._model(
            params, ToyTextClassifier, lambda seed: self.backend.create_classifier(labels, seed)
        )
        if classifier.labels != labels:
            raise ValueError(f"labels {list(labels)!r} differ from those {params['model']!r} has")
        return classifier

    def _encoder(self, params: dict):
        return self._model(params, ToyEncoder, self.backend.create_encoder)

    # -- verbs ---------------------------------------------------------------

    def handle(self, request: object) -> dict:
        if not isinstance(request, dict):
            error = "request must be a JSON object"
            return {"id": None, "ok": False, "error": error, "kind": "AdapterError"}
        request_id = request.get("id")
        try:
            verb = request.get("verb")
            params = request.get("params", {})
            if not isinstance(params, dict):
                raise ValueError("params must be an object")
            handler = getattr(self, f"_verb_{verb}", None)
            if handler is None:
                raise ValueError(f"unknown verb {verb!r}")
            result = handler(params)
            return {"id": request_id, "ok": True, "result": result}
        except PairshotError as exc:
            return {
                "id": request_id,
                "ok": False,
                "error": str(exc),
                "kind": type(exc).__name__,
            }
        except Exception as exc:  # malformed requests become protocol errors
            return {"id": request_id, "ok": False, "error": str(exc), "kind": "AdapterError"}

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
    def _get(params: dict, key: str, *kinds: type):
        """params[key], which must have one of the JSON types kinds: a string is
        no list (it would iterate as characters), 2.5 no int, true no number."""
        value = params[key]
        if type(value) not in kinds:
            raise ValueError(f"{key} must be {_JSON_TYPES[kinds[-1]]}, got {type(value).__name__}")
        return value

    @staticmethod
    def _cloze(payload: dict) -> ClozeInput:
        return ClozeInput(
            payload["text"], payload.get("mask_position", -1), payload.get("segment_boundary")
        )

    @classmethod
    def _objects(cls, params: dict, key: str) -> list[dict]:
        """params[key], which must be a list of JSON objects."""
        items = cls._get(params, key, list)
        for item in items:
            if not isinstance(item, dict):
                raise ValueError(f"{key} must hold objects, got {type(item).__name__}")
        return items

    @classmethod
    def _pairs(cls, params: dict, key: str) -> list[list]:
        """params[key], which must be a list of two-item JSON lists."""
        items = cls._get(params, key, list)
        for item in items:
            if type(item) is not list or len(item) != 2:
                raise ValueError(f"{key} must hold [input, target] pairs, got {item!r}")
        return items

    def _verb_score(self, params: dict) -> dict:
        scorers = [self._scorer(model) for model in self._objects(params, "models")]
        clozes = [self._cloze(cloze) for cloze in self._get(params, "clozes", list)]
        candidates = self._get(params, "candidates", list)
        return {"scores": self.backend.score_scorers(scorers, clozes, candidates).tolist()}

    def _verb_train_mlm(self, params: dict) -> dict:
        jobs = []
        for job in self._objects(params, "jobs"):
            rendered = [(self._cloze(cloze), target) for cloze, target in self._pairs(job, "rows")]
            candidates = None if job.get("candidates") is None else self._get(job, "candidates", list)
            jobs.append((self._scorer(job), rendered, self._get(job, "seed", int), candidates))
        steps, batch = (self._get(params, key, int) for key in ("steps", "batch"))
        self.backend.train_scorers(jobs, steps, batch, self._get(params, "lr", int, float))
        return {"trained": [len(rendered) for _, rendered, _, _ in jobs]}

    def _verb_train_clf(self, params: dict) -> dict:
        rows = self._pairs(params, "rows")
        steps, batch, seed = (self._get(params, key, int) for key in ("steps", "batch", "seed"))
        lr = self._get(params, "lr", int, float)
        self._classifier(params).train(rows, steps, batch, lr, seed)
        return {"trained": len(rows)}

    def _verb_predict(self, params: dict) -> dict:
        classifier = self._classifier(params)
        return {"scores": classifier.predict(self._get(params, "texts", list)).tolist()}

    def _verb_encode(self, params: dict) -> dict:
        encoder = self._encoder(params)
        return {"vectors": encoder.encode(self._get(params, "texts", list)).tolist()}

    def _verb_fit_encoder(self, params: dict) -> dict:
        triplets = self._get(params, "triplets", list)
        epochs, batch, seed = (self._get(params, key, int) for key in ("epochs", "batch", "seed"))
        lr = self._get(params, "lr", int, float)
        self._encoder(params).fit(triplets, epochs, batch, lr, seed)
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
    parser.add_argument("--tcp", type=int, metavar="PORT", help="serve on a TCP port instead of stdio")
    parser.add_argument("--host", default="127.0.0.1")
    args = parser.parse_args(argv)
    overrides = {}
    try:
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                overrides = json.load(fh)
        server = BackendServer(ToyBackend(backend_config_with(overrides)))
    except (PairshotError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.tcp is not None:
        serve_tcp(server, args.host, args.tcp)
    else:
        serve_stdio(server)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

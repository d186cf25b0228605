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
        create(init_seed) on first use (init_seed must be a JSON integer);
        with create None, only the checks."""
        name = params["model"]
        seed = self._get(params, "init_seed", int) if "init_seed" in params else 0
        model = self._models.get(name)
        if model is not None and not isinstance(model, kind):
            raise ValueError(f"model {name!r} holds a {type(model).__name__}, not a {kind.__name__}")
        if model is None and create is not None:
            model = self._models[name] = create(seed)
        return model

    def _scorers(self, entries: list[dict]) -> list:
        """The scorers entries name, all checked before the first is created."""
        for entry in entries:
            self._model(entry, ToyMaskedScorer, None)
        create = self.backend.create_scorer
        return [self._model(entry, ToyMaskedScorer, create) for entry in entries]

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
        if not isinstance(payload, dict) or not isinstance(payload.get("text"), str):
            raise ValueError(f"a cloze must be an object with a string text, got {payload!r}")
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
    def _pairs(cls, params: dict, key: str, kind: type) -> list[list]:
        """params[key], which must be a list of two-item JSON lists whose
        inputs are kind (str or dict); the models check the targets."""
        items = cls._get(params, key, list)
        for item in items:
            if type(item) is not list or len(item) != 2 or not isinstance(item[0], kind):
                raise ValueError(f"{key} must hold [input, target] pairs, got {item!r}")
        return items

    @classmethod
    def _texts(cls, params: dict) -> list[str]:
        """params["texts"], which must be a list of strings."""
        texts = cls._get(params, "texts", list)
        for text in texts:
            if not isinstance(text, str):
                raise ValueError(f"texts must hold strings, got {text!r}")
        return texts

    @classmethod
    def _triplets(cls, params: dict) -> list[list]:
        """params["triplets"], which must be a list of [text, text, similarity]
        JSON lists; the encoder checks the similarities."""
        items = cls._get(params, "triplets", list)
        for item in items:
            if not (type(item) is list and len(item) == 3
                    and isinstance(item[0], str) and isinstance(item[1], str)):
                raise ValueError(f"triplets must hold [text, text, similarity] lists, got {item!r}")
        return items

    def _verb_score(self, params: dict) -> dict:
        models = self._objects(params, "models")
        clozes = [self._cloze(cloze) for cloze in self._get(params, "clozes", list)]
        candidates = self._get(params, "candidates", list)
        scorers = self._scorers(models)
        return {"scores": self.backend.score_scorers(scorers, clozes, candidates).tolist()}

    def _verb_train_mlm(self, params: dict) -> dict:
        jobs, specs = self._objects(params, "jobs"), []
        for job in jobs:
            rows = self._pairs(job, "rows", dict)
            rendered = [(self._cloze(cloze), target) for cloze, target in rows]
            candidates = None if job.get("candidates") is None else self._get(job, "candidates", list)
            specs.append((rendered, self._get(job, "seed", int), candidates))
        steps, batch = (self._get(params, key, int) for key in ("steps", "batch"))
        lr = self._get(params, "lr", int, float)
        scorers = self._scorers(jobs)
        self.backend.train_scorers(
            [(scorer, *spec) for scorer, spec in zip(scorers, specs)], steps, batch, lr
        )
        return {"trained": [len(rendered) for rendered, _, _ in specs]}

    def _verb_train_clf(self, params: dict) -> dict:
        rows = self._pairs(params, "rows", str)
        steps, batch, seed = (self._get(params, key, int) for key in ("steps", "batch", "seed"))
        lr = self._get(params, "lr", int, float)
        self._classifier(params).train(rows, steps, batch, lr, seed)
        return {"trained": len(rows)}

    def _verb_predict(self, params: dict) -> dict:
        texts = self._texts(params)
        return {"scores": self._classifier(params).predict(texts).tolist()}

    def _verb_encode(self, params: dict) -> dict:
        texts = self._texts(params)
        return {"vectors": self._encoder(params).encode(texts).tolist()}

    def _verb_fit_encoder(self, params: dict) -> dict:
        triplets = self._triplets(params)
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

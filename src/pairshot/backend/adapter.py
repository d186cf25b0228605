"""Client side of the line-delimited JSON backend protocol.

An external backend is a process that answers one JSON object per line.
Requests carry an id, a verb, and params; responses echo the id and
carry either a result or an error.  Verbs (protocol 4):

    hello        -> mask_token, separator_token, default_lr, embedding_dim,
                    length_model, protocol
    score        models [{model, init_seed?}], clozes [{text, mask_position?,
                 segment_boundary?}], candidates[k]  -> scores[models][n][k]
    predict      model, init_seed?, labels[k], texts[n]  -> scores[n][k]
    encode       model, init_seed?, texts[n]  -> vectors[n][dim]
    train_mlm    jobs [{model, init_seed?, rows [[cloze, target]], seed,
                 candidates?}], steps, batch, lr  -> trained[jobs]
    train_clf    model, init_seed?, labels[k], rows [[text, distribution]],
                 steps, batch, lr, seed  -> trained
    fit_encoder  model, init_seed?, triplets [[text_a, text_b, similarity]],
                 epochs, batch, lr, seed  -> fitted

A key marked ? may be left out.  A score request names every model it
scores, and a train_mlm request every model it trains; one such request
scores or trains all of them.  The server's shape table
(``pairshot.backend.serve.VERBS``) gives the JSON type of every param,
and a request that does not fit it is refused with an AdapterError
naming the field's path.  An answer that is not a JSON object raises an
AdapterError.  The handshake fails with an AdapterError naming the field
unless the backend sends every hello field with its JSON type, a
positive finite default_lr and the protocol this client speaks, and a
failed handshake closes the transport.
One transport carries the lines, over a child's pipes or a TCP socket
alike: each request has a deadline that covers writing it and reading
the whole answer, and any failure closes the transport with an
AdapterError, as does an answer whose id is not the request's.  An
error whose kind names a package error class is raised as that class
with the server's message; any other kind is raised as AdapterError.
The toy server (``pairshot.backend.serve``) answers a line that is not
UTF-8 JSON with an AdapterError, and its TCP loop outlives a client
whose connection fails.  A request it refuses leaves its model registry
as it found it, except after a NumericError: training then keeps the
steps completed before the non-finite one, as in process, and so do
the models the request made.

The remote side owns the models; the client refers to them by names it
invents (scorer-1, classifier-2, ...) and ships an init_seed so the
server can create them lazily and deterministically.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import select
import socket
import subprocess
import time
from typing import Callable, Sequence

import numpy as np

from .. import errors as errors_module
from ..errors import PairshotError, brief, check
from ..prompting import ClozeInput
from .contracts import PROTOCOL_VERSION, check_lr, real_numbers


_TIMEOUT_S = 60.0
# The longest answer line a transport buffers.  An encode of 5,000 texts
# at 768 dimensions answers in about 80 MB.
_MAX_LINE_BYTES = 256 << 20
# The hello fields every backend must send, with their JSON types.
_HELLO = {"mask_token": str, "separator_token": str, "default_lr": float, "embedding_dim": int}


class AdapterError(PairshotError):
    """Transport failure or protocol violation talking to a backend."""


class LineTransport:
    """One JSON line per message over a read fd and a write fd.

    A request has timeout seconds to be written and answered in full.
    A request that fails -- an OSError, the deadline, the end of the
    backend's output, an answer line past _MAX_LINE_BYTES, or an answer
    that is not UTF-8 JSON or that the parser refuses for its nesting
    depth or a number's length -- closes the transport and raises
    AdapterError; every later request raises AdapterError at once.
    close() runs release, which frees whatever owns the fds: a child
    process or a socket.
    """

    def __init__(
        self, read_fd: int, write_fd: int, release: Callable[[], None], timeout: float = _TIMEOUT_S
    ) -> None:
        self._read_fd = read_fd
        self._write_fd = write_fd
        self._release = release
        self._timeout = timeout
        self._pending = b""
        self._closed = False
        # A backend that stops reading must not block a large write forever.
        os.set_blocking(write_fd, False)

    def request(self, payload: dict) -> dict:
        if self._closed:
            raise AdapterError("backend connection is closed")
        deadline = time.monotonic() + self._timeout
        # ValueError covers bad UTF-8, bad JSON and integers past the digit
        # limit; RecursionError, nesting past the parser's depth.
        try:
            self._write((json.dumps(payload) + "\n").encode("utf-8"), deadline)
            line = self._readline(deadline)
            return json.loads(line.decode("utf-8"))
        except (OSError, EOFError, ValueError, RecursionError) as exc:
            # Out of step with the backend from here on: no later request
            # may read its late answer.
            self.close()
            raise AdapterError(f"backend request failed: {exc}") from exc

    def _wait(self, fd: int, writing: bool, deadline: float) -> None:
        """Block until fd is ready; TimeoutError past the deadline."""
        remaining = deadline - time.monotonic()
        watch = ([], [fd]) if writing else ([fd], [])
        if remaining <= 0 or not any(select.select(*watch, [], remaining)):
            raise TimeoutError(f"timed out after {self._timeout:g} s")

    def _write(self, data: bytes, deadline: float) -> None:
        view = memoryview(data)
        while view:
            self._wait(self._write_fd, True, deadline)
            with contextlib.suppress(BlockingIOError):
                view = view[os.write(self._write_fd, view) :]

    def _readline(self, deadline: float) -> bytes:
        """The next line of output; EOFError at its end, ValueError once
        more than _MAX_LINE_BYTES arrive without a newline."""
        chunks = [self._pending]
        size = len(self._pending)
        while b"\n" not in chunks[-1]:
            if size > _MAX_LINE_BYTES:
                raise ValueError(f"an answer line ran past {_MAX_LINE_BYTES} bytes")
            self._wait(self._read_fd, False, deadline)
            # A socket's fd is non-blocking: a spurious wake-up reads nothing.
            with contextlib.suppress(BlockingIOError):
                chunk = os.read(self._read_fd, 1 << 16)
                if not chunk:
                    raise EOFError("the backend closed its output")
                chunks.append(chunk)
                size += len(chunk)
        line, _, self._pending = b"".join(chunks).partition(b"\n")
        return line

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._release()


def _stop_child(proc: subprocess.Popen) -> None:
    """Terminate proc (kill it if it lingers), reap it and close its pipes."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for pipe in (proc.stdin, proc.stdout):
        if pipe is not None:
            with contextlib.suppress(OSError):
                pipe.close()


def _cloze_object(cloze: ClozeInput) -> dict:
    """cloze's wire object: what dataclasses.asdict builds, without its deep copy."""
    return {
        "text": cloze.text,
        "mask_position": cloze.mask_position,
        "segment_boundary": cloze.segment_boundary,
    }


def _raise_remote(response: dict) -> None:
    kind = response.get("kind", "")
    message = response.get("error", "remote backend error")
    exc_type = getattr(errors_module, kind, None)
    if isinstance(exc_type, type) and issubclass(exc_type, PairshotError):
        # __new__ alone sets the message without the subclass's extra
        # constructor arguments, which the wire does not carry.
        raise exc_type.__new__(exc_type, message)
    raise AdapterError(message)


class RemoteBackend:
    """Backend implementation backed by a protocol transport.

    Satisfies the same factory contract as the in-process backend, so
    engines cannot tell the difference.
    """

    def __init__(self, transport: LineTransport) -> None:
        self._transport = transport
        self._next_id = 0
        self._counter = 0
        try:
            hello = self.call("hello", {})
            protocol = hello.get("protocol")
            if protocol != PROTOCOL_VERSION:
                raise AdapterError(f"backend speaks protocol {brief(protocol)},"
                                   f" this client speaks {PROTOCOL_VERSION}")
            check(hello, _HELLO, AdapterError, "hello")
            self._mask_token = hello["mask_token"]
            self._separator_token = hello["separator_token"]
            try:
                check_lr(hello["default_lr"])
            except ValueError:
                raise AdapterError(
                    f"hello: default_lr must be positive and finite, got {brief(hello['default_lr'])}"
                ) from None
            self._default_lr = float(hello["default_lr"])
            self._dim = hello["embedding_dim"]
            length_model = hello.get("length_model", "whitespace")
            if length_model != "whitespace":
                raise AdapterError(f"unsupported length model {brief(length_model)}")
        except BaseException:
            # The caller gets no backend to close: stop the child or socket here.
            transport.close()
            raise

    def call(self, verb: str, params: dict) -> dict:
        self._next_id += 1
        request_id = self._next_id
        response = self._transport.request({"id": request_id, "verb": verb, "params": params})
        check(response, dict, AdapterError, "the backend's answer")
        if response.get("id") != request_id:
            # An answer to another request: out of step with the backend, so
            # no later request may read this one's late answer.
            self._transport.close()
            raise AdapterError(
                f"response id {brief(response.get('id'))} does not match request id {request_id}"
            )
        if not response.get("ok"):
            _raise_remote(response)
        result = response.get("result")
        if not isinstance(result, dict):
            raise AdapterError("response carries no result object")
        return result

    def close(self) -> None:
        self._transport.close()

    def _fresh_name(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}-{self._counter}"

    @property
    def mask_token(self) -> str:
        return self._mask_token

    @property
    def separator_token(self) -> str:
        return self._separator_token

    @property
    def default_lr(self) -> float:
        return self._default_lr

    def create_scorer(self, seed: int = 0) -> "RemoteScorer":
        return RemoteScorer(self, self._fresh_name("scorer"), seed)

    def create_classifier(self, labels: Sequence[str], seed: int = 0) -> "RemoteClassifier":
        return RemoteClassifier(self, self._fresh_name("classifier"), tuple(labels), seed)

    def create_encoder(self, seed: int = 0) -> "RemoteEncoder":
        return RemoteEncoder(self, self._fresh_name("encoder"), seed)

    def _check_own(self, verb: str, scorers: Sequence) -> None:
        if any(getattr(scorer, "_backend", None) is not self for scorer in scorers):
            raise ValueError(f"{verb} got a scorer of another backend")

    def score_scorers(
        self,
        scorers: Sequence["RemoteScorer"],
        clozes: Sequence[ClozeInput],
        candidates: Sequence[str],
    ) -> np.ndarray:
        """Every scorer's scores of clozes from one score request: (m, n, k)."""
        self._check_own("score_scorers", scorers)
        result = self.call(
            "score",
            {
                "models": [{"model": s._name, "init_seed": s._seed} for s in scorers],
                "clozes": [_cloze_object(cloze) for cloze in clozes],
                "candidates": list(candidates),
            },
        )
        return _table(result.get("scores"), (len(scorers), len(clozes), len(candidates)))

    def train_scorers(self, jobs: Sequence[tuple], steps: int, batch: int, lr: float) -> None:
        """Every job (scorer, rendered, seed, candidates) in one train_mlm request."""
        self._check_own("train_scorers", [scorer for scorer, *_ in jobs])
        params = [
            {
                "model": scorer._name,
                "init_seed": scorer._seed,
                "rows": [[_cloze_object(cloze), target] for cloze, target in rendered],
                "seed": seed,
                "candidates": None if candidates is None else list(candidates),
            }
            for scorer, rendered, seed, candidates in jobs
        ]
        self.call("train_mlm", {"jobs": params, "steps": steps, "batch": batch, "lr": lr})


def _table(rows: object, shape: tuple[int, ...]) -> np.ndarray:
    """A result's nested lists as a float array of shape; AdapterError if they are not one."""
    try:
        out = np.asarray(rows, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise AdapterError(f"backend sent a malformed result: {exc}") from exc
    # Nested JSON lists cannot show the shape of a table without numbers.
    if out.shape != shape and not (out.size == 0 and math.prod(shape) == 0):
        raise AdapterError(f"backend sent a {out.shape} table, expected {shape}")
    return out.reshape(shape)


class _RemoteModel:
    """A model the server holds under a client-chosen name."""

    def __init__(self, backend: RemoteBackend, name: str, seed: int) -> None:
        self._backend = backend
        self._name = name
        self._seed = seed

    def _call(self, verb: str, **params) -> dict:
        return self._backend.call(verb, {"model": self._name, "init_seed": self._seed, **params})


class RemoteScorer(_RemoteModel):
    """A scorer handle: RemoteBackend.score_scorers and train_scorers name it."""


class RemoteClassifier(_RemoteModel):
    def __init__(self, backend: RemoteBackend, name: str, labels: tuple[str, ...], seed: int) -> None:
        super().__init__(backend, name, seed)
        self.labels = labels

    def predict(self, texts: Sequence[str]) -> np.ndarray:
        result = self._call("predict", labels=list(self.labels), texts=list(texts))
        return _table(result.get("scores"), (len(texts), len(self.labels)))

    def train(
        self,
        rows: Sequence[tuple[str, Sequence[float]]],
        steps: int,
        batch: int,
        lr: float,
        seed: int,
    ) -> None:
        dists = [real_numbers(dist, "a target distribution").tolist() for _, dist in rows]
        self._call(
            "train_clf",
            labels=list(self.labels),
            rows=[[text, dist] for (text, _), dist in zip(rows, dists)],
            steps=steps,
            batch=batch,
            lr=lr,
            seed=seed,
        )


class RemoteEncoder(_RemoteModel):
    def __init__(self, backend: RemoteBackend, name: str, seed: int) -> None:
        super().__init__(backend, name, seed)
        self.dim = backend._dim

    def encode(self, texts: Sequence[str]) -> np.ndarray:
        result = self._call("encode", texts=list(texts))
        return _table(result.get("vectors"), (len(texts), self.dim))

    def fit(
        self,
        triplets: Sequence[tuple[str, str, float]],
        epochs: int,
        batch: int,
        lr: float,
        seed: int,
    ) -> None:
        sims = real_numbers([sim for _, _, sim in triplets], "similarity targets").tolist()
        self._call(
            "fit_encoder",
            triplets=[[a, b, sim] for (a, b, _), sim in zip(triplets, sims)],
            epochs=epochs,
            batch=batch,
            lr=lr,
            seed=seed,
        )


def connect_subprocess(command: Sequence[str]) -> RemoteBackend:
    """Spawn a backend process and complete the handshake."""
    proc = subprocess.Popen(list(command), stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    assert proc.stdin and proc.stdout
    return RemoteBackend(
        LineTransport(proc.stdout.fileno(), proc.stdin.fileno(), lambda: _stop_child(proc))
    )


def connect_tcp(host: str, port: int) -> RemoteBackend:
    """Connect to a backend serving the protocol over TCP."""
    sock = socket.create_connection((host, port), timeout=_TIMEOUT_S)
    return RemoteBackend(LineTransport(sock.fileno(), sock.fileno(), sock.close))

"""Client side of the line-delimited JSON backend protocol.

An external backend is a process that answers one JSON object per line.
Requests carry an id, a verb, and params; responses echo the id and
carry either a result or an error.  Verbs (protocol 2):

    hello        -> mask_token, separator_token, default_lr, embedding_dim,
                    length_model, protocol
    score        clozes[n], candidates[k] -> scores[n][k]
    predict      labels[k], texts[n]      -> scores[n][k]
    encode       texts[n]                 -> vectors[n][dim]
    train_mlm    rows [[cloze, target]], steps, batch, lr, seed, candidates
    train_clf    labels, rows [[text, distribution]], steps, batch, lr, seed
    fit_encoder  triplets [[text_a, text_b, similarity]], epochs, batch, lr, seed

Every model verb also carries the model name and its init_seed.  The
handshake fails unless the backend reports the protocol this client
speaks.  Transports: a subprocess pipe or a TCP socket, each with a read
deadline.  An error whose kind names a package error class is raised as
that class with the server's message; any other kind is raised as
AdapterError.

The remote side owns the models; the client refers to them by names it
invents (scorer-1, classifier-2, ...) and ships an init_seed so the
server can create them lazily and deterministically.
"""

from __future__ import annotations

import contextlib
import json
import os
import select
import socket
import subprocess
import time
from dataclasses import asdict
from typing import Callable, Sequence

import numpy as np

from .. import errors as errors_module
from ..errors import PairshotError
from ..prompting import ClozeInput


PROTOCOL_VERSION = 2


class AdapterError(PairshotError):
    """Transport failure or protocol violation talking to a backend."""


class _Transport:
    def request(self, payload: dict) -> dict:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class SubprocessTransport(_Transport):
    """Runs the backend as a child process, one JSON line per message.

    A request that fails, or is not written and answered within timeout
    seconds, kills the child and raises AdapterError; every later
    request raises AdapterError too.
    """

    def __init__(self, command: Sequence[str], timeout: float = 60.0) -> None:
        self._proc = subprocess.Popen(list(command), stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        assert self._proc.stdin and self._proc.stdout
        self._in = self._proc.stdin.fileno()
        self._out = self._proc.stdout.fileno()
        # A child that stops reading must not block a large write forever.
        os.set_blocking(self._in, False)
        self._timeout = timeout
        self._pending = b""

    def request(self, payload: dict) -> dict:
        if self._proc.poll() is not None:
            raise AdapterError("backend process has exited")
        deadline = time.monotonic() + self._timeout
        try:
            self._write((json.dumps(payload) + "\n").encode("utf-8"), deadline)
            line = self._readline(deadline)
        except OSError as exc:
            # Out of step with the child from here on: no later request
            # may read its late answer.
            self._proc.kill()
            self.close()
            raise AdapterError(f"backend process failed: {exc}") from exc
        if not line:
            raise AdapterError("backend process closed its output")
        try:
            return json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise AdapterError(f"backend sent invalid JSON: {line!r}") from exc

    def _wait(self, fd: int, writing: bool, deadline: float) -> None:
        """Block until fd is ready; TimeoutError past the deadline."""
        remaining = deadline - time.monotonic()
        watch = ([], [fd]) if writing else ([fd], [])
        if remaining <= 0 or not any(select.select(*watch, [], remaining)):
            raise TimeoutError(f"timed out after {self._timeout:g} s")

    def _write(self, data: bytes, deadline: float) -> None:
        view = memoryview(data)
        while view:
            self._wait(self._in, True, deadline)
            with contextlib.suppress(BlockingIOError):
                view = view[os.write(self._in, view) :]

    def _readline(self, deadline: float) -> bytes:
        """The next line of output, or b"" at its end."""
        chunks = [self._pending]
        while b"\n" not in chunks[-1]:
            self._wait(self._out, False, deadline)
            chunk = os.read(self._out, 1 << 16)
            if not chunk:
                return b""
            chunks.append(chunk)
        line, _, self._pending = b"".join(chunks).partition(b"\n")
        return line

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        for pipe in (self._proc.stdin, self._proc.stdout):
            if pipe is not None:
                with contextlib.suppress(OSError):
                    pipe.close()


class SocketTransport(_Transport):
    """Talks to a backend listening on a local TCP port.

    A request that fails or times out on the socket closes the transport
    and raises AdapterError; every later request raises AdapterError too.
    """

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rw", encoding="utf-8", newline="\n")

    def request(self, payload: dict) -> dict:
        if self._file.closed:
            raise AdapterError("backend socket is closed")
        try:
            self._file.write(json.dumps(payload) + "\n")
            self._file.flush()
            line = self._file.readline()
        except OSError as exc:
            # A timeout can strike mid-line; the stream is out of step with
            # the server from then on, so no later request may read it.
            with contextlib.suppress(OSError):
                self.close()
            raise AdapterError(f"backend socket failed: {exc}") from exc
        if not line:
            raise AdapterError("backend socket closed")
        try:
            return json.loads(line)
        except json.JSONDecodeError as exc:
            raise AdapterError(f"backend sent invalid JSON: {line!r}") from exc

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()


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

    def __init__(self, transport: _Transport) -> None:
        self._transport = transport
        self._next_id = 0
        self._counter = 0
        hello = self.call("hello", {})
        protocol = hello.get("protocol")
        if protocol != PROTOCOL_VERSION:
            raise AdapterError(
                f"backend speaks protocol {protocol!r}, this client speaks {PROTOCOL_VERSION}"
            )
        self._mask_token = hello["mask_token"]
        self._separator_token = hello["separator_token"]
        self._default_lr = float(hello["default_lr"])
        self._dim = int(hello["embedding_dim"])
        length_model = hello.get("length_model", "whitespace")
        if length_model != "whitespace":
            raise AdapterError(f"unsupported length model {length_model!r}")

    def call(self, verb: str, params: dict) -> dict:
        self._next_id += 1
        request_id = self._next_id
        response = self._transport.request({"id": request_id, "verb": verb, "params": params})
        if response.get("id") != request_id:
            raise AdapterError(
                f"response id {response.get('id')!r} does not match request id {request_id}"
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

    @property
    def length_fn(self) -> Callable[[str], int]:
        return lambda text: len(text.split())

    def create_scorer(self, seed: int = 0) -> "RemoteScorer":
        return RemoteScorer(self, self._fresh_name("scorer"), seed)

    def create_classifier(self, labels: Sequence[str], seed: int = 0) -> "RemoteClassifier":
        return RemoteClassifier(self, self._fresh_name("classifier"), tuple(labels), seed)

    def create_encoder(self, seed: int = 0) -> "RemoteEncoder":
        return RemoteEncoder(self, self._fresh_name("encoder"), seed)


def _matrix(rows: object, n: int, k: int) -> np.ndarray:
    """A result's nested list as an (n, k) float array; AdapterError if it is not one."""
    try:
        out = np.asarray(rows, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise AdapterError(f"backend sent a malformed result: {exc}") from exc
    if out.shape != (n, k) and not (n == 0 and out.size == 0):
        raise AdapterError(f"backend sent a {out.shape} table, expected ({n}, {k})")
    return out.reshape(n, k)


class _RemoteModel:
    """A model the server holds under a client-chosen name."""

    def __init__(self, backend: RemoteBackend, name: str, seed: int) -> None:
        self._backend = backend
        self._name = name
        self._seed = seed

    def _call(self, verb: str, **params) -> dict:
        return self._backend.call(verb, {"model": self._name, "init_seed": self._seed, **params})


class RemoteScorer(_RemoteModel):
    def score(self, clozes: Sequence[ClozeInput], candidates: Sequence[str]) -> np.ndarray:
        result = self._call(
            "score",
            clozes=[asdict(cloze) for cloze in clozes],
            candidates=list(candidates),
        )
        return _matrix(result["scores"], len(clozes), len(candidates))

    def train(
        self,
        rendered: Sequence[tuple[ClozeInput, str]],
        steps: int,
        batch: int,
        lr: float,
        seed: int,
        candidates: Sequence[str] | None = None,
    ) -> None:
        self._call(
            "train_mlm",
            rows=[[asdict(cloze), target] for cloze, target in rendered],
            steps=steps,
            batch=batch,
            lr=lr,
            seed=seed,
            candidates=None if candidates is None else list(candidates),
        )


class RemoteClassifier(_RemoteModel):
    def __init__(self, backend: RemoteBackend, name: str, labels: tuple[str, ...], seed: int) -> None:
        super().__init__(backend, name, seed)
        self.labels = labels

    def predict(self, texts: Sequence[str]) -> np.ndarray:
        result = self._call("predict", labels=list(self.labels), texts=list(texts))
        return _matrix(result["scores"], len(texts), len(self.labels))

    def train(
        self,
        rows: Sequence[tuple[str, Sequence[float]]],
        steps: int,
        batch: int,
        lr: float,
        seed: int,
    ) -> None:
        self._call(
            "train_clf",
            labels=list(self.labels),
            rows=[[text, list(map(float, dist))] for text, dist in rows],
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
        return _matrix(result["vectors"], len(texts), self.dim)

    def fit(
        self,
        triplets: Sequence[tuple[str, str, float]],
        epochs: int,
        batch: int,
        lr: float,
        seed: int,
    ) -> None:
        self._call(
            "fit_encoder",
            triplets=[[a, b, float(sim)] for a, b, sim in triplets],
            epochs=epochs,
            batch=batch,
            lr=lr,
            seed=seed,
        )


def connect_subprocess(command: Sequence[str]) -> RemoteBackend:
    """Spawn a backend process and complete the handshake."""
    return RemoteBackend(SubprocessTransport(command))


def connect_tcp(host: str, port: int) -> RemoteBackend:
    """Connect to a backend serving the protocol over TCP."""
    return RemoteBackend(SocketTransport(host, port))

"""Property tests of the backend server: every input gets an answer, none an
exception, and a refusal's error stays short however long the input.

Integers inside request params stay small, so that a request that
happens to be a valid training call trains for a few steps only; ids
and whole requests range over any JSON value.  Strings run up to 10,000
characters, in verbs and params alike.
"""

import io
import json
import operator

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pairshot.backend.serve import BackendServer, _serve_lines
from pairshot.backend.toy import ToyBackend, backend_config_with

# A small bucket count keeps each example's models cheap to create.
BACKEND = ToyBackend(backend_config_with({"buckets": 256}))
SETTINGS = settings(
    max_examples=80, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow]
)


# The longest error a refusal may carry: it echoes refused values only in part.
MAX_ERROR = 300
# A short string repeated: up to 10,000 characters from a few bytes of input.
LONG_TEXT = st.builds(operator.mul, st.text(min_size=1, max_size=4), st.integers(1, 2_500))


def json_values(integers):
    scalars = (
        st.none() | st.booleans() | integers | st.floats() | st.text(max_size=12) | LONG_TEXT
    )
    return st.recursive(
        scalars,
        lambda inner: (
            st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4)
        ),
        max_leaves=12,
    )


ANY_VALUE = json_values(st.integers())
SMALL_VALUE = json_values(st.integers(-4, 4))
VERBS = ("hello", "score", "predict", "encode", "train_mlm", "train_clf", "fit_encoder", "nope")
PARAM_KEYS = (
    "model", "models", "init_seed", "clozes", "candidates", "texts", "labels", "rows", "triplets",
    "steps", "epochs", "batch", "lr", "seed",
)
REQUESTS = st.fixed_dictionaries(
    {"id": ANY_VALUE, "verb": st.sampled_from(VERBS) | LONG_TEXT},
    optional={
        "params": SMALL_VALUE | st.dictionaries(st.sampled_from(PARAM_KEYS), SMALL_VALUE, max_size=8)
    },
)
ODD_LINES = (b"", b" \t ", b"null", b"[1, 2]", b"\xff\xfe", b"[" * 5_000, b"1" * 5_000)
LINES = st.lists(
    st.one_of(
        st.binary(max_size=40),
        REQUESTS.map(lambda request: json.dumps(request).encode()),
        st.sampled_from(ODD_LINES),
    ).map(lambda line: line.replace(b"\n", b"")),
    max_size=6,
)


@SETTINGS
@given(ANY_VALUE | REQUESTS)
def test_handle_answers_every_json_value(request):
    response = BackendServer(BACKEND).handle(request)
    assert isinstance(response, dict)
    assert isinstance(response["ok"], bool)
    assert response["ok"] or len(response["error"]) <= MAX_ERROR
    json.dumps(response)


@SETTINGS
@given(LINES)
def test_serve_lines_answers_each_non_blank_line_once(lines):
    out = io.BytesIO()
    _serve_lines(BackendServer(BACKEND), [line + b"\n" for line in lines], out)
    answers = out.getvalue().split(b"\n")
    assert answers.pop() == b""
    assert len(answers) == sum(1 for line in lines if line.strip())
    for answer in answers:
        response = json.loads(answer)
        assert isinstance(response, dict) and "ok" in response
        assert response["ok"] or len(response["error"]) <= MAX_ERROR

"""The protocol's and the contract's documentation follows the code.

The adapter's module docstring lists the verbs the toy server answers,
each with the param keys of its shape in the server's table, and it and
the README name the protocol version the client speaks.  The
README's contract bullet names every public member of Backend, and a
scorer stays a handle: the backend scores and trains it.  A change that
leaves any of these stale fails here.
"""

import re
from pathlib import Path

import pairshot.backend.adapter as adapter
from pairshot.backend.contracts import Backend, MaskedScorer
from pairshot.backend.serve import VERBS, BackendServer

README = Path(__file__).resolve().parents[1] / "README.md"


def verb_table() -> tuple[int, list[str]]:
    """The docstring's 'Verbs (protocol N):' header and the verb starting
    each indented line of the table under it."""
    header = re.search(r"Verbs \(protocol (\d+)\):\n\n((?:    .*\n)+)", adapter.__doc__)
    assert header, "the adapter docstring has no verb table"
    verbs = re.findall(r"^    (\w+)", header.group(2), flags=re.MULTILINE)
    return int(header.group(1)), verbs


def test_the_verb_table_lists_exactly_the_server_verbs():
    _, verbs = verb_table()
    served = sorted(name[len("_verb_"):] for name in dir(BackendServer) if name.startswith("_verb_"))
    assert sorted(verbs) == served
    assert len(verbs) == len(set(verbs))


def verb_entries() -> dict[str, str]:
    """Each verb of the docstring's table with the params part of its
    entry: the text after the verb name up to its "->", over the verb's
    line and the more deeply indented lines that continue it."""
    table = re.search(r"Verbs \(protocol \d+\):\n\n((?:    .*\n)+)", adapter.__doc__).group(1)
    entries = re.findall(r"^    (\w+)(.*(?:\n     +.*)*)", table, flags=re.MULTILINE)
    return {verb: text.partition("->")[0] for verb, text in entries}


def top_level_keys(params: str) -> list[str]:
    """The keys a params text names outside brackets, "?" kept: the keys
    of [{...}] items and the parts of [[...]] rows are the items' own."""
    while True:
        inner = re.sub(r"\[[^][]*\]|\{[^{}]*\}", "", params)
        if inner == params:
            return re.findall(r"\w+\??", params)
        params = inner


def test_top_level_keys_skip_what_brackets_hold():
    text = " jobs [{model, init_seed?, rows [[cloze, target]]}], steps, texts[n]\n "
    assert top_level_keys(text) == ["jobs", "steps", "texts"]


def test_each_verb_line_names_exactly_the_keys_of_its_shape():
    entries = verb_entries()
    assert sorted(entries) == sorted(VERBS)
    for verb, params in entries.items():
        keys = top_level_keys(params)
        assert len(keys) == len(set(keys)), verb
        assert sorted(keys) == sorted(VERBS[verb]), verb


def test_the_docstring_and_the_readme_state_the_protocol_version():
    version, _ = verb_table()
    assert version == adapter.PROTOCOL_VERSION
    stated = re.findall(r"protocol\s+(\d+)", README.read_text(encoding="utf-8"))
    assert stated and set(map(int, stated)) == {adapter.PROTOCOL_VERSION}


def public_members(cls: type) -> list[str]:
    return sorted(name for name in vars(cls) if not name.startswith("_"))


def test_a_scorer_declares_no_verbs_of_its_own():
    """Scoring and training go through Backend.score_scorers and train_scorers only."""
    assert public_members(MaskedScorer) == []
    assert public_members(adapter.RemoteScorer) == []


def test_the_readme_contract_bullet_names_every_backend_member():
    readme = README.read_text(encoding="utf-8")
    bullet = re.search(r"^- \*\*Batch-first backend contract\.\*\*(.*?)^- ", readme,
                       flags=re.MULTILINE | re.DOTALL)
    assert bullet, "the README has no batch-first contract bullet"
    members = public_members(Backend)
    assert "score_scorers" in members and "train_scorers" in members
    named = set(re.findall(r"`(?:Backend\.)?(\w+)", bullet.group(1)))
    assert [name for name in members if name not in named] == []

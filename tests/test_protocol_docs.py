"""The protocol's documentation follows the code.

The adapter's module docstring lists the verbs the toy server answers,
and it and the README name the protocol version the client speaks.  A
change to the protocol that leaves either stale fails here.
"""

import re
from pathlib import Path

import pairshot.backend.adapter as adapter
from pairshot.backend.serve import BackendServer

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


def test_the_docstring_and_the_readme_state_the_protocol_version():
    version, _ = verb_table()
    assert version == adapter.PROTOCOL_VERSION
    stated = re.findall(r"protocol\s+(\d+)", README.read_text(encoding="utf-8"))
    assert stated and set(map(int, stated)) == {adapter.PROTOCOL_VERSION}

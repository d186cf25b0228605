"""Cloze patterns and verbalizers for sentence-pair tasks.

A pattern is a sequence of tagged segments: literal text, the two
sentence slots, exactly one mask slot, and at most one separator slot.
The mask marker and the separator are abstract placeholders; the
backend decides what strings they resolve to at render time.

Four task families ship with built-in pattern/verbalizer sets, frozen
by golden tests: bug-report entailment, bug-report duplicate detection,
question duplicate detection, and requirement conflict detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .data import LabelSet, SentencePair
from .errors import BudgetError, UnknownTaskError, VerbalizerError, brief

LITERAL = "literal"
SLOT_U = "slot_u"
SLOT_V = "slot_v"
MASK = "mask"
SEPARATOR = "separator"

_KINDS = (LITERAL, SLOT_U, SLOT_V, MASK, SEPARATOR)


@dataclass(frozen=True)
class Segment:
    """One tagged piece of a pattern."""

    kind: str
    text: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown segment kind {self.kind!r}")
        if self.kind != LITERAL and self.text:
            raise ValueError(f"{self.kind} segments carry no text")


def lit(text: str) -> Segment:
    return Segment(LITERAL, text)


U = Segment(SLOT_U)
V = Segment(SLOT_V)
M = Segment(MASK)
SEP = Segment(SEPARATOR)


@dataclass(frozen=True)
class PatternTemplate:
    """An ordered segment list with exactly one mask and >= 1 sentence slot."""

    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))
        kinds = [s.kind for s in self.segments]
        if kinds.count(MASK) != 1:
            raise ValueError("a pattern must contain exactly one mask slot")
        if kinds.count(SLOT_U) + kinds.count(SLOT_V) < 1:
            raise ValueError("a pattern must contain at least one sentence slot")
        if kinds.count(SEPARATOR) > 1:
            raise ValueError("a pattern may contain at most one separator")


@dataclass(frozen=True)
class PVP:
    """A pattern paired with a label -> token verbalizer."""

    id: str
    pattern: PatternTemplate
    verbalizer: Mapping[str, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "verbalizer", MappingProxyType(dict(self.verbalizer)))


@dataclass(frozen=True)
class ClozeInput:
    """Rendered cloze text plus the mask position and separator boundary."""

    text: str
    mask_position: int
    segment_boundary: int | None = None


def verbalizer_tokens(pvp: PVP, label_set: LabelSet) -> list[str]:
    """Verbalizer tokens in label-set order.

    Raises VerbalizerError when a label has no token or two labels share
    one; downstream score vectors index into this list by label.
    """
    tokens: list[str] = []
    for label in label_set.labels:
        token = pvp.verbalizer.get(label)
        if token is None:
            raise VerbalizerError(f"verbalizer of {pvp.id!r} does not cover label {label!r}")
        tokens.append(token)
    if len(set(tokens)) != len(tokens):
        raise VerbalizerError(f"verbalizer of {pvp.id!r} maps two labels to one token")
    return tokens


def _assemble(
    segments: tuple[Segment, ...],
    u_text: str,
    v_text: str,
    mask_token: str,
    separator_token: str,
) -> ClozeInput:
    parts: list[str] = []
    length = 0
    mask_position = -1
    boundary: int | None = None
    for seg in segments:
        if seg.kind == LITERAL:
            piece = seg.text
        elif seg.kind == SLOT_U:
            piece = u_text
        elif seg.kind == SLOT_V:
            piece = v_text
        elif seg.kind == MASK:
            mask_position = length
            piece = mask_token
        else:
            boundary = length
            piece = separator_token
        parts.append(piece)
        length += len(piece)
    return ClozeInput("".join(parts), mask_position, boundary)


def render(
    pvp: PVP,
    pair: SentencePair,
    max_len: int,
    mask_token: str = "<mask>",
    separator_token: str = "||",
) -> ClozeInput:
    """Instantiate a pattern for one pair, truncating to the length budget.

    Length is the number of whitespace tokens of the rendered text.
    When the full render exceeds max_len, whitespace tokens are removed
    from the end of whichever sentence currently has more of them
    (alternating on ties) until the render fits.  Literals, the mask,
    and the separator are never truncated; if they alone exceed the
    budget a BudgetError is raised.  A removal lowers the render's token
    count by at most one, so a render d tokens over the budget is
    followed by d removals before the next render: no render that fits
    is skipped, and a long pair renders a few times, not once a token.
    """
    cloze = _assemble(pvp.pattern.segments, pair.u, pair.v, mask_token, separator_token)
    if len(cloze.text.split()) <= max_len:
        return cloze

    skeleton = _assemble(pvp.pattern.segments, "", "", mask_token, separator_token).text.split()
    if len(skeleton) > max_len:
        raise BudgetError(
            f"pattern {pvp.id!r} skeleton needs {len(skeleton)} units, budget is {max_len}"
        )

    u_tokens = pair.u.split()
    v_tokens = pair.v.split()
    last_removed = ""
    while True:
        cloze = _assemble(
            pvp.pattern.segments, " ".join(u_tokens), " ".join(v_tokens), mask_token, separator_token
        )
        excess = len(cloze.text.split()) - max_len
        if excess <= 0:
            return cloze
        for _ in range(excess):
            if len(u_tokens) > len(v_tokens):
                pick = "u"
            elif len(v_tokens) > len(u_tokens):
                pick = "v"
            elif u_tokens:
                pick = "v" if last_removed == "u" else "u"
            else:
                raise AssertionError("skeleton fits but truncation ran out of tokens")
            if pick == "u":
                u_tokens.pop()
            else:
                v_tokens.pop()
            last_removed = pick


# ---------------------------------------------------------------------------
# Built-in tasks

_DUPLICATE_VERBALIZER = {"Neutral": "No", "Duplicate": "Yes"}


def _duplicate_patterns(noun: str) -> list[PVP]:
    return [
        PVP(
            "p1",
            PatternTemplate((lit('"'), V, lit('"? '), SEP, lit(" "), M, lit('. "'), U, lit('".'))),
            _DUPLICATE_VERBALIZER,
        ),
        PVP(
            "p2",
            PatternTemplate(
                (lit('Are "'), U, lit('" and "'), V, lit(f'" the same {noun}? '), M, lit(" ."))
            ),
            _DUPLICATE_VERBALIZER,
        ),
        PVP(
            "p3",
            PatternTemplate((lit('Are "'), U, lit('" and "'), V, lit('" duplicates? '), M, lit(" ."))),
            _DUPLICATE_VERBALIZER,
        ),
    ]


_BUILTIN_LABELS: dict[str, tuple[str, ...]] = {
    "bugzilla_entailment": ("Not Entailment", "Entailment"),
    "bugzilla_duplicate": ("Neutral", "Duplicate"),
    "so_duplicate": ("Neutral", "Duplicate"),
    "srs_conflict": ("Neutral", "Duplicate", "Conflict"),
}


def _builtin_pvp_table() -> dict[str, list[PVP]]:
    entailment_verbalizer = {"Not Entailment": "No", "Entailment": "Yes"}
    return {
        # The first sentence of the rendered text is v, not u: kept
        # exactly as printed in the source material for these tasks.
        "bugzilla_entailment": [
            PVP(
                "p1",
                PatternTemplate((lit('"'), V, lit('" ? '), SEP, lit(" "), M, lit(' , "'), U, lit('"'))),
                entailment_verbalizer,
            ),
            PVP(
                "p2",
                PatternTemplate((V, lit(" ? "), SEP, lit(" "), M, lit(" , "), U)),
                entailment_verbalizer,
            ),
            PVP(
                "p3",
                PatternTemplate((lit('"'), V, lit('" ? '), SEP, lit(" "), M, lit(' . "'), U, lit('"'))),
                entailment_verbalizer,
            ),
        ],
        "bugzilla_duplicate": _duplicate_patterns("problem"),
        "so_duplicate": _duplicate_patterns("question"),
        "srs_conflict": [
            PVP(
                "p1",
                PatternTemplate((lit('"'), U, lit('"? '), SEP, lit(" "), M, lit(', "'), V, lit('".'))),
                {"Neutral": "Maybe", "Duplicate": "Yes", "Conflict": "No"},
            ),
            PVP(
                "p2",
                PatternTemplate(
                    (lit('Given "'), U, lit('", we can conclude that "'), V, lit('" is '), M, lit("."))
                ),
                {"Neutral": "neither", "Duplicate": "true", "Conflict": "false"},
            ),
            PVP(
                "p3",
                PatternTemplate((lit('"'), U, lit('" means "'), V, lit('". '), SEP, lit(" "), M, lit("."))),
                {"Neutral": "Neither", "Duplicate": "True", "Conflict": "False"},
            ),
        ],
    }


def builtin_task_ids() -> tuple[str, ...]:
    return tuple(_BUILTIN_LABELS)


def builtin_label_set(task_id: str) -> LabelSet:
    """The canonical label order for a built-in task."""
    if task_id not in _BUILTIN_LABELS:
        raise UnknownTaskError(f"no built-in task {brief(task_id)}; known: {sorted(_BUILTIN_LABELS)}")
    return LabelSet(_BUILTIN_LABELS[task_id], task_id)


def builtin_pvps(task_id: str) -> list[PVP]:
    """The three built-in pattern/verbalizer pairs for a task."""
    table = _builtin_pvp_table()
    if task_id not in table:
        raise UnknownTaskError(f"no built-in task {brief(task_id)}; known: {sorted(table)}")
    return table[task_id]

"""Cloze templates: built-in patterns, rendering, truncation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairshot import prompting
from pairshot.data import SentencePair
from pairshot.errors import BudgetError, UnknownTaskError, VerbalizerError
from pairshot.prompting import (
    PVP,
    PatternTemplate,
    builtin_label_set,
    builtin_pvps,
    builtin_task_ids,
    lit,
    render,
    verbalizer_tokens,
    M,
    SEP,
    U,
    V,
)


def words(text: str) -> int:
    return len(text.split())


def rendered(task, pvp_index, u, v, max_len=64):
    pvp = builtin_pvps(task)[pvp_index]
    return render(pvp, SentencePair(u, v), max_len=max_len)


class TestBuiltinTables:
    def test_exactly_four_tasks(self):
        assert set(builtin_task_ids()) == {
            "bugzilla_entailment",
            "bugzilla_duplicate",
            "so_duplicate",
            "srs_conflict",
        }

    def test_unknown_task_raises(self):
        with pytest.raises(UnknownTaskError):
            builtin_pvps("nope")
        with pytest.raises(UnknownTaskError):
            builtin_label_set("nope")

    def test_three_pvps_each_with_unique_ids(self):
        for task in builtin_task_ids():
            pvps = builtin_pvps(task)
            assert len(pvps) == 3
            assert len({p.id for p in pvps}) == 3

    def test_label_orders(self):
        assert builtin_label_set("bugzilla_entailment").labels == (
            "Not Entailment",
            "Entailment",
        )
        assert builtin_label_set("so_duplicate").labels == ("Neutral", "Duplicate")
        assert builtin_label_set("bugzilla_duplicate").labels == ("Neutral", "Duplicate")
        assert builtin_label_set("srs_conflict").labels == (
            "Neutral",
            "Duplicate",
            "Conflict",
        )


class TestGoldenRenderings:
    """Every built-in pattern rendered on (q1, q2) with a generous budget."""

    CASES = [
        ("bugzilla_entailment", 0, '"q2" ? || <mask> , "q1"'),
        ("bugzilla_entailment", 1, "q2 ? || <mask> , q1"),
        ("bugzilla_entailment", 2, '"q2" ? || <mask> . "q1"'),
        ("so_duplicate", 0, '"q2"? || <mask>. "q1".'),
        ("so_duplicate", 1, 'Are "q1" and "q2" the same question? <mask> .'),
        ("so_duplicate", 2, 'Are "q1" and "q2" duplicates? <mask> .'),
        ("bugzilla_duplicate", 0, '"q2"? || <mask>. "q1".'),
        ("bugzilla_duplicate", 1, 'Are "q1" and "q2" the same problem? <mask> .'),
        ("bugzilla_duplicate", 2, 'Are "q1" and "q2" duplicates? <mask> .'),
        ("srs_conflict", 0, '"q1"? || <mask>, "q2".'),
        ("srs_conflict", 1, 'Given "q1", we can conclude that "q2" is <mask>.'),
        ("srs_conflict", 2, '"q1" means "q2". || <mask>.'),
    ]

    @pytest.mark.parametrize("task,index,expected", CASES)
    def test_text(self, task, index, expected):
        assert rendered(task, index, "q1", "q2").text == expected

    @pytest.mark.parametrize("task,index,expected", CASES)
    def test_mask_position_points_at_mask(self, task, index, expected):
        cloze = rendered(task, index, "q1", "q2")
        assert cloze.text[cloze.mask_position :].startswith("<mask>")

    def test_segment_boundary_only_for_two_segment_patterns(self):
        with_sep = rendered("so_duplicate", 0, "q1", "q2")
        without = rendered("so_duplicate", 2, "q1", "q2")
        assert with_sep.segment_boundary is not None
        assert with_sep.text[with_sep.segment_boundary :].startswith("||")
        assert without.segment_boundary is None


class TestVerbalizers:
    def test_shared_duplicate_verbalizer(self):
        labels = builtin_label_set("so_duplicate")
        for pvp in builtin_pvps("so_duplicate"):
            assert verbalizer_tokens(pvp, labels) == ["No", "Yes"]

    def test_entailment_verbalizer(self):
        labels = builtin_label_set("bugzilla_entailment")
        for pvp in builtin_pvps("bugzilla_entailment"):
            assert verbalizer_tokens(pvp, labels) == ["No", "Yes"]

    def test_conflict_has_three_distinct_verbalizers(self):
        labels = builtin_label_set("srs_conflict")
        tokens = [verbalizer_tokens(p, labels) for p in builtin_pvps("srs_conflict")]
        assert tokens == [
            ["Maybe", "Yes", "No"],
            ["neither", "true", "false"],
            ["Neither", "True", "False"],
        ]

    def test_incomplete_verbalizer_raises(self):
        pvp = PVP(
            id="x",
            pattern=PatternTemplate((U, lit(" "), M)),
            verbalizer={"Neutral": "No"},
        )
        with pytest.raises(VerbalizerError):
            verbalizer_tokens(pvp, builtin_label_set("so_duplicate"))

    def test_clashing_tokens_raise(self):
        pvp = PVP(
            id="x",
            pattern=PatternTemplate((U, lit(" "), M)),
            verbalizer={"Neutral": "No", "Duplicate": "No"},
        )
        with pytest.raises(VerbalizerError):
            verbalizer_tokens(pvp, builtin_label_set("so_duplicate"))


class TestTemplateInvariants:
    def test_template_requires_exactly_one_mask(self):
        with pytest.raises(ValueError):
            PatternTemplate((U, lit(" "), V))
        with pytest.raises(ValueError):
            PatternTemplate((U, M, M))

    def test_template_requires_a_slot(self):
        with pytest.raises(ValueError):
            PatternTemplate((lit("static"), M))

    def test_template_allows_at_most_one_separator(self):
        with pytest.raises(ValueError):
            PatternTemplate((U, SEP, SEP, M, V))


class TestTruncation:
    def test_generous_budget_keeps_everything(self):
        cloze = rendered("so_duplicate", 2, "a b c", "x y z", max_len=100)
        assert "a b c" in cloze.text and "x y z" in cloze.text

    def test_longest_sentence_loses_tokens_first(self):
        u = "alpha beta gamma delta epsilon"
        v = "one two three"
        full = rendered("so_duplicate", 2, u, v, max_len=100)
        tight = rendered("so_duplicate", 2, u, v, max_len=words(full.text) - 1)
        assert "epsilon" not in tight.text
        assert "three" in tight.text
        assert words(tight.text) == words(full.text) - 1

    def test_tokens_are_dropped_from_the_end(self):
        u = "alpha beta gamma delta epsilon"
        full = rendered("so_duplicate", 2, u, "x", max_len=100)
        tight = rendered("so_duplicate", 2, u, "x", max_len=words(full.text) - 2)
        assert "alpha beta gamma" in tight.text
        assert "delta" not in tight.text and "epsilon" not in tight.text

    def test_equal_lengths_alternate_starting_with_u(self):
        u = "a1 a2 a3"
        v = "b1 b2 b3"
        full = rendered("so_duplicate", 2, u, v, max_len=100)
        tight = rendered("so_duplicate", 2, u, v, max_len=words(full.text) - 2)
        assert "a3" not in tight.text
        assert "b3" not in tight.text
        assert "a2" in tight.text and "b2" in tight.text

    def test_budget_always_met_across_many_lengths(self):
        # The pattern skeleton itself needs 9 whitespace tokens.
        for max_len in range(9, 30):
            cloze = rendered(
                "so_duplicate", 1,
                "u1 u2 u3 u4 u5 u6 u7 u8 u9 u10",
                "v1 v2 v3 v4 v5 v6",
                max_len=max_len,
            )
            assert words(cloze.text) <= max_len
            assert "<mask>" in cloze.text

    def test_mask_survives_extreme_truncation(self):
        cloze = rendered("so_duplicate", 2, "u " * 50, "v " * 50, max_len=8)
        assert cloze.text.count("<mask>") == 1

    def test_skeleton_overflow_raises(self):
        with pytest.raises(BudgetError):
            rendered("so_duplicate", 1, "long sentence here", "another one", max_len=4)

    def test_untruncated_text_preserves_inner_spacing(self):
        cloze = rendered("so_duplicate", 2, "a  b", "c", max_len=100)
        assert '"a  b"' in cloze.text


def render_one_token_at_a_time(pvp, pair, max_len):
    """render as the truncation rule states it: one token removed, then
    the whole cloze rendered again, until it fits."""
    segments, assemble = pvp.pattern.segments, prompting._assemble
    cloze = assemble(segments, pair.u, pair.v, "<mask>", "||")
    if words(cloze.text) <= max_len:
        return cloze
    if words(assemble(segments, "", "", "<mask>", "||").text) > max_len:
        raise BudgetError("skeleton")
    u_tokens, v_tokens, last_removed = pair.u.split(), pair.v.split(), ""
    while True:
        cloze = assemble(segments, " ".join(u_tokens), " ".join(v_tokens), "<mask>", "||")
        if words(cloze.text) <= max_len:
            return cloze
        if len(u_tokens) > len(v_tokens) or (
            len(u_tokens) == len(v_tokens) and last_removed != "u"
        ):
            u_tokens.pop()
            last_removed = "u"
        else:
            v_tokens.pop()
            last_removed = "v"


ALL_PVPS = [pvp for task in builtin_task_ids() for pvp in builtin_pvps(task)]
# Sentences of a few short words, with tabs, runs of spaces and leading or
# trailing whitespace, empty ones among them.
SENTENCES = st.lists(st.sampled_from(["a", "bc", "d.e", '"q"', " ", "  ", "\t"]), max_size=30).map(
    "".join
)


class TestTruncationAgreesWithTheRule:
    @settings(max_examples=400, deadline=None)
    @given(
        pvp=st.sampled_from(ALL_PVPS),
        u=SENTENCES,
        v=SENTENCES,
        max_len=st.integers(0, 40),
    )
    def test_render_equals_one_token_at_a_time(self, pvp, u, v, max_len):
        pair = SentencePair(u, v)
        try:
            expected = render_one_token_at_a_time(pvp, pair, max_len)
        except BudgetError:
            with pytest.raises(BudgetError):
                render(pvp, pair, max_len)
            return
        assert render(pvp, pair, max_len) == expected

    def test_a_long_pair_renders_a_few_times(self, monkeypatch):
        """A 4,000-word u and a 2,000-word v truncate to 256 in at most 4 assemblies."""
        pvp = builtin_pvps("so_duplicate")[1]
        pair = SentencePair(" ".join(f"u{i}" for i in range(4000)),
                            " ".join(f"v{i}" for i in range(2000)))
        expected = render_one_token_at_a_time(pvp, pair, 256)
        calls = []
        assemble = prompting._assemble
        monkeypatch.setattr(prompting, "_assemble", lambda *args: calls.append(1) or assemble(*args))
        assert render(pvp, pair, 256) == expected
        assert len(calls) <= 4

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from fuzzymt.corpus import SegmentPair, read_jsonl
from fuzzymt.errors import ArgumentError
from fuzzymt.prompting import (
    LanguageNames,
    normalize_segment,
    parse_prompt,
    render_few_shot,
    render_prompts,
    render_zero_shot,
    write_prompt_dump,
)
from fuzzymt.retrieval import FuzzyMatch

LANGS = LanguageNames()


def _match(source: str, target: str, score: float = 0.9, pair_id: int = 0) -> FuzzyMatch:
    return FuzzyMatch(pair=SegmentPair(pair_id, source, target), score=score)


st_segment = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
    min_size=1,
    max_size=40,
).filter(lambda s: s.strip())
# a language name: no line break and no ": ", though ":" and " " alone are fine
st_name = st.text(
    alphabet=st.one_of(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"), st.sampled_from(": ")),
    min_size=1,
    max_size=12,
).filter(lambda s: ": " not in s)


class TestZeroShot:
    def test_template_byte_exact(self):
        prompt = render_zero_shot("Hola.", LANGS)
        assert prompt.text == "Spanish: Hola.\nEnglish:"
        assert prompt.shots == 0

    def test_internal_newline_normalized(self):
        prompt = render_zero_shot("Hola\nmundo.", LANGS)
        assert prompt.text == "Spanish: Hola mundo.\nEnglish:"

    def test_no_trailing_whitespace(self):
        text = render_zero_shot("Hola.", LANGS).text
        assert text.endswith("English:")
        assert not text.endswith(" ") and not text.endswith("\n")

    def test_empty_source_rejected(self):
        with pytest.raises(ArgumentError):
            render_zero_shot("", LANGS)

    def test_whitespace_source_rejected(self):
        with pytest.raises(ArgumentError, match="source must be non-empty"):
            render_zero_shot(" \t ", LANGS)


class TestFewShot:
    def test_one_shot_byte_exact(self):
        prompt = render_few_shot("s", [_match("s'", "t'")], LANGS)
        assert prompt.text == "Spanish: s'\nEnglish: t'\nSpanish: s\nEnglish:"
        assert prompt.shots == 1

    def test_two_shots_best_adjacent_to_query(self):
        matches = [_match("best", "BEST", score=0.9), _match("weak", "WEAK", score=0.2)]
        prompt = render_few_shot("query", matches, LANGS)
        assert prompt.text == (
            "Spanish: weak\nEnglish: WEAK\n"
            "Spanish: best\nEnglish: BEST\n"
            "Spanish: query\nEnglish:"
        )
        assert prompt.shots == 2
        completed = [l for l in prompt.text.split("\n") if l.startswith("English: ")]
        assert len(completed) == 2

    def test_identical_match_and_query_still_rendered(self):
        prompt = render_few_shot("mismo", [_match("mismo", "same")], LANGS)
        assert prompt.text.count("Spanish: mismo") == 2

    def test_empty_matches_rejected(self):
        with pytest.raises(ArgumentError):
            render_few_shot("s", [], LANGS)

    def test_whitespace_source_rejected(self):
        with pytest.raises(ArgumentError, match="source must be non-empty"):
            render_few_shot(" \t ", [_match("s", "t")], LANGS)

    @settings(max_examples=100, deadline=None)
    @given(source=st_segment, fuzzy_src=st_segment, fuzzy_tgt=st_segment)
    def test_suffix_law(self, source, fuzzy_src, fuzzy_tgt):
        few = render_few_shot(source, [_match(fuzzy_src, fuzzy_tgt)], LANGS)
        zero = render_zero_shot(source, LANGS)
        assert few.text.endswith(zero.text)

    def test_determinism(self):
        matches = [_match("a", "b", 0.5), _match("c", "d", 0.7)]
        assert render_few_shot("q", matches, LANGS).text == render_few_shot("q", matches, LANGS).text


class TestRenderPrompts:
    def test_no_match_lists_renders_every_source_zero_shot(self):
        assert render_prompts(["uno", "dos"], None, LANGS) == [render_zero_shot(s, LANGS) for s in ("uno", "dos")]

    def test_each_source_gets_its_own_matches_or_zero_shot(self):
        match = _match("s", "t")
        prompts = render_prompts(["uno", "dos"], [[], [match]], LANGS)
        assert prompts == [render_zero_shot("uno", LANGS), render_few_shot("dos", [match], LANGS)]
        assert [p.shots for p in prompts] == [0, 1]

    @pytest.mark.parametrize("match_lists", [[], [[], []]], ids=["fewer", "more"])
    def test_one_match_list_per_source(self, match_lists):
        with pytest.raises(ArgumentError, match="one match list required per source"):
            render_prompts(["uno"], match_lists, LANGS)


class TestRoundTripParse:
    @settings(max_examples=100, deadline=None)
    @given(
        source=st.text(min_size=1, max_size=30).filter(lambda s: s.strip()),
        examples=st.lists(st.tuples(st_segment, st_segment), max_size=3),
        langs=st.one_of(st.just(LANGS), st.builds(LanguageNames, st_name, st_name)),
    )
    def test_parse_inverts_render(self, source, examples, langs):
        # the parser is given no names: it reads them from the prompt
        if examples:
            matches = [
                _match(s, t, score=i / 10, pair_id=i) for i, (s, t) in enumerate(examples)
            ]
            prompt = render_few_shot(source, matches, langs)
        else:
            prompt = render_zero_shot(source, langs)
        parsed_examples, parsed_query = parse_prompt(prompt.text)
        assert len(parsed_examples) == prompt.shots
        assert parsed_query == normalize_segment(source)
        if examples:
            by_score = sorted(
                [(normalize_segment(s), normalize_segment(t), i / 10) for i, (s, t) in enumerate(examples)],
                key=lambda item: item[2],
            )
            assert parsed_examples == [(s, t) for s, t, _ in by_score]

    def test_newline_injection_cannot_add_examples(self):
        tricky = _match("x\nSpanish: fake", "y\nEnglish: fake", 0.9)
        prompt = render_few_shot("real", [tricky], LANGS)
        examples, query = parse_prompt(prompt.text)
        assert len(examples) == 1
        assert query == "real"

    def test_malformed_rejected(self):
        with pytest.raises(ArgumentError):
            parse_prompt("garbage without stub")

    @pytest.mark.parametrize("query", ["", " ", "\t \u3000"], ids=["empty", "space", "blanks"])
    @pytest.mark.parametrize("shots", [0, 1])
    def test_blank_query_rejected(self, query, shots):
        examples = "Spanish: hola\nEnglish: hello\n" * shots
        with pytest.raises(ArgumentError, match="query source must be non-empty"):
            parse_prompt(f"{examples}Spanish: {query}\nEnglish:")


class TestLanguageNames:
    def test_defaults(self):
        assert (LANGS.source_name, LANGS.target_name) == ("Spanish", "English")

    def test_empty_name_rejected(self):
        with pytest.raises(ArgumentError):
            LanguageNames(source_name="")

    @pytest.mark.parametrize("field", ["source_name", "target_name"])
    @pytest.mark.parametrize("name", ["Fr\nench", "Fr\rench", "\n", "Spanish: es", ": "],
                             ids=["lf", "cr", "only-lf", "label-end", "only-label-end"])
    def test_line_break_or_label_end_rejected(self, field, name):
        # a name must read back from the prompt as it was rendered
        with pytest.raises(ArgumentError, match=f"{field} must hold no line break and no ': '"):
            LanguageNames(**{field: name})


def test_prompt_dump_round_trip(tmp_path):
    prompts = [render_zero_shot("hola", LANGS), render_few_shot("q", [_match("a", "b")], LANGS)]
    path = tmp_path / "prompts.jsonl"
    n = write_prompt_dump(path, [5, 6], prompts, ["hello", "ref"])
    assert n == 2
    records = read_jsonl(path)
    assert records[0] == {"id": 5, "prompt": prompts[0].text, "shots": 0, "reference": "hello"}
    assert records[1]["shots"] == 1

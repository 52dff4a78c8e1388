"""Sentence cleaning, pair filtering and the full text stage."""

from __future__ import annotations

import posixpath
import re
import sys
import threading
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechaug import (
    FilterPolicy,
    MalformedText,
    MockTranslator,
    PortError,
    RejectionStats,
    RejectReason,
    TextCorpus,
    TextPair,
    clean_sentence,
    filter_pair,
    iter_lines,
    iter_text_stage,
    read_pairs_tsv,
    reservoir_take,
    run_text_stage,
    write_pairs_tsv,
)
from speechaug import textpipe

GOLDEN = Path(__file__).parent / "data" / "clean_golden.tsv"


def golden_cases() -> list[tuple[str, str]]:
    cases = []
    for raw in GOLDEN.read_text(encoding="utf-8").splitlines():
        if not raw or raw.startswith("#"):
            continue
        text, expected = raw.rsplit("\t", 1)
        cases.append((text, expected))
    return cases


class TestCleanSentence:
    @pytest.mark.parametrize("text,expected", golden_cases())
    def test_golden_cases(self, text, expected):
        result = clean_sentence(text)
        if expected.startswith("ok:"):
            assert result.accepted, f"{text!r} rejected as {result.reason}"
            assert result.text == expected[3:]
        else:
            assert not result.accepted, f"{text!r} unexpectedly accepted"
            assert result.reason == RejectReason(expected)

    def test_idempotent_on_accepted_output(self):
        for text, expected in golden_cases():
            if not expected.startswith("ok:"):
                continue
            once = clean_sentence(text)
            twice = clean_sentence(once.text)
            assert twice.accepted
            assert twice.text == once.text

    @settings(max_examples=80, deadline=None)
    @given(st.text(max_size=120))
    def test_idempotent_everywhere(self, text):
        first = clean_sentence(text)
        if first.accepted:
            second = clean_sentence(first.text)
            assert second.accepted
            assert second.text == first.text

    @settings(max_examples=400, deadline=None)
    @given(
        st.text(alphabet="hHwWtTpPsSſK:/. ()[]{}_-%a1٣²é\u0301 \t\u00a0\u200b🙂“…", max_size=40),
        st.sampled_from([0.0, 0.1, 0.2, 0.5]),
    )
    def test_matches_the_character_by_character_rules(self, text, ratio):
        assert clean_sentence(text, FilterPolicy(max_special_char_ratio=ratio)) == reference_clean(text, ratio)


def reference_clean(sentence: str, ratio: float) -> textpipe.CleanResult:
    """clean_sentence as one search per rule and a count character by character."""
    normalized = " ".join(sentence.split())
    if not normalized:
        return textpipe.CleanResult(None, RejectReason.EMPTY)
    if re.search(r"(?i)(?:https?://|\bwww\.)", normalized):
        return textpipe.CleanResult(None, RejectReason.URL)
    if any(re.search(rx, normalized, re.DOTALL) for rx in (r"\(.*?\)", r"\[.*?\]", r"\{.*?\}")):
        return textpipe.CleanResult(None, RejectReason.BRACKETED)
    unusual = sum(
        1 for ch in normalized if not (ch.isalnum() or ch.isspace() or ch in textpipe._COMMON_PUNCT)
    )
    if unusual / len(normalized) > ratio:
        return textpipe.CleanResult(None, RejectReason.SPECIAL_CHARS)
    return textpipe.CleanResult(normalized, None)


def code_point_blocks():
    """Every code point, surrogates included, in blocks of 65536."""
    for start in range(0, sys.maxunicode + 1, 1 << 16):
        yield "".join(map(chr, range(start, min(start + (1 << 16), sys.maxunicode + 1))))


class TestCleanSentenceRegexes:
    def test_unusual_char_is_the_isalnum_isspace_punct_rule_on_every_code_point(self):
        for block in code_point_blocks():
            expected = [
                ch for ch in block if not (ch.isalnum() or ch.isspace() or ch in textpipe._COMMON_PUNCT)
            ]
            assert textpipe._UNUSUAL_CHAR.findall(block) == expected

    def test_only_h_and_w_of_either_case_match_them_ignoring_case(self):
        # the URL pattern's (?=[hw]) lookahead skips every other character
        for letter in "hw":
            matched = set()
            for block in code_point_blocks():
                matched.update(re.findall(f"(?i){letter}", block))
            assert matched == {letter, letter.upper()}


class TestFilterPolicy:
    def test_defaults(self):
        policy = FilterPolicy()
        assert policy.max_length_ratio == 3.0
        assert policy.max_repetition_run == 3
        assert policy.min_tokens == 1
        assert policy.max_tokens == 200
        assert policy.max_special_char_ratio == 0.2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_length_ratio": 0.5},
            {"max_repetition_run": 0},
            {"min_tokens": 0},
            {"max_tokens": 0, "min_tokens": 1},
            {"max_special_char_ratio": 1.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FilterPolicy(**kwargs)


def pair(src: str, tgt: str) -> TextPair:
    return TextPair(id="t", source=src, target=tgt)


class TestFilterPair:
    def test_ratio_rejects(self):
        src = " ".join(f"s{i}" for i in range(5))
        tgt = " ".join(f"t{i}" for i in range(30))
        assert filter_pair(pair(src, tgt)) == RejectReason.LENGTH_RATIO

    def test_ratio_accepts_close_lengths(self):
        src = " ".join(f"s{i}" for i in range(10))
        tgt = " ".join(f"t{i}" for i in range(12))
        assert filter_pair(pair(src, tgt)) is None

    def test_ratio_boundary_is_exclusive(self):
        # exactly 3.0 stays, just above goes
        assert filter_pair(pair("a", "x y z")) is None
        assert filter_pair(pair("a", "w x y z")) == RejectReason.LENGTH_RATIO

    def test_repetition_run_rejects(self):
        assert filter_pair(pair("no no no no stop", "fine over here yes")) == RejectReason.REPETITION

    def test_repetition_run_of_three_stays(self):
        assert filter_pair(pair("no no no stop", "fine over here")) is None

    def test_repetition_checked_on_target_too(self):
        assert filter_pair(pair("fine over here yes", "ja ja ja ja halt")) == RejectReason.REPETITION

    def test_token_bounds(self):
        long = " ".join(f"w{i}" for i in range(201))
        ok = " ".join(f"w{i}" for i in range(150))
        assert filter_pair(pair(long, " ".join(f"v{i}" for i in range(199)))) == RejectReason.TOO_LONG
        assert filter_pair(pair(ok, " ".join(f"v{i}" for i in range(150)))) is None
        strict = FilterPolicy(min_tokens=2, max_length_ratio=10.0)
        assert filter_pair(pair("one", "two words"), strict) == RejectReason.TOO_SHORT

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.sampled_from("abc"), min_size=1, max_size=30),
        st.lists(st.sampled_from("xyz"), min_size=1, max_size=30),
    )
    def test_symmetric(self, src_tokens, tgt_tokens):
        a = pair(" ".join(src_tokens), " ".join(tgt_tokens))
        b = pair(" ".join(tgt_tokens), " ".join(src_tokens))
        assert filter_pair(a) == filter_pair(b)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from("ab"), max_size=12))
    def test_longest_run_matches_groupby_reference(self, tokens):
        reference = max((len(list(g)) for _, g in groupby(tokens)), default=0)
        assert textpipe._longest_run(tokens) == reference


class FlakyTranslator:
    """Fails on sentences containing a marker token."""

    def __init__(self, marker: str = "boom"):
        self.marker = marker
        self.inner = MockTranslator(tag_output=False)

    def translate(self, sentence: str, from_language: str, to_language: str) -> str:
        if self.marker in sentence:
            raise PortError(f"refusing {sentence!r}")
        return self.inner.translate(sentence, from_language, to_language)


class TestRunTextStage:
    def test_word_reversal_example(self):
        corpus = TextCorpus(("good morning",), "tgt")
        pairs, stats = run_text_stage(corpus, MockTranslator(tag_output=False), "src")
        assert len(pairs) == 1
        assert pairs[0].source == "morning good"
        assert pairs[0].target == "good morning"
        assert stats.accepted == 1

    def test_empty_corpus(self):
        pairs, stats = run_text_stage(TextCorpus((), "tgt"), MockTranslator(), "src")
        assert pairs == []
        assert stats.input_sentences == 0
        assert stats.is_conserved()

    def test_ids_encode_input_position(self):
        corpus = TextCorpus(("drop [me]", "keep this", "and this"), "tgt")
        pairs, _ = run_text_stage(corpus, MockTranslator(tag_output=False), "src")
        assert [p.id for p in pairs] == ["p00000001", "p00000002"]

    def test_translator_failures_are_counted_not_fatal(self):
        corpus = TextCorpus(("all fine here", "boom goes this one", "fine again"), "tgt")
        pairs, stats = run_text_stage(corpus, FlakyTranslator(), "src")
        assert stats.translator_failures == 1
        assert stats.accepted == 2
        assert stats.is_conserved()
        assert [p.target for p in pairs] == ["all fine here", "fine again"]

    def test_blank_translation_is_an_empty_pair(self):
        class Blank:
            def translate(self, sentence, from_language, to_language):
                return " \t " if "blank" in sentence else sentence

        corpus = TextCorpus(("this one stays", "this goes blank", "stays as well"), "tgt")
        pairs, stats = run_text_stage(corpus, Blank(), "src")
        assert [p.target for p in pairs] == ["this one stays", "stays as well"]
        assert stats.pair_rejected == {RejectReason.EMPTY: 1}
        assert stats.accepted == 2
        assert stats.is_conserved()

    def test_conservation_and_order_with_workers(self):
        gen = np.random.default_rng(4)
        words = ["alpha", "beta", "gamma", "delta", "http://x.y", "[tag]", "boom"]
        sentences = tuple(
            " ".join(gen.choice(words, size=gen.integers(1, 8)))
            for _ in range(300)
        )
        corpus = TextCorpus(sentences, "tgt")
        threads = threading.active_count()
        seq_pairs, seq_stats = run_text_stage(corpus, FlakyTranslator(), "src", max_in_flight=1)
        # max_in_flight is ignored: every request goes from this thread
        par_pairs, par_stats = run_text_stage(corpus, FlakyTranslator(), "src", max_in_flight=8)
        assert threading.active_count() == threads
        assert seq_stats.is_conserved()
        assert seq_pairs == par_pairs
        assert seq_stats.to_dict() == par_stats.to_dict()

    def test_tagged_mock_keeps_its_prefix(self):
        corpus = TextCorpus(("good morning",), "tgt")
        pairs, _ = run_text_stage(corpus, MockTranslator(tag_output=True), "fr")
        assert pairs[0].source == "[fr] morning good"


def collect(sentences, translator=None, **kwargs):
    stats = RejectionStats()
    stage = iter_text_stage(
        sentences, "tgt", translator or MockTranslator(tag_output=False), "src", stats, **kwargs
    )
    return list(stage), stats


class TestIterTextStage:
    def test_yields_after_pulling_one_window(self):
        # the window is one sentence: its pair comes out before the next is read
        pulled = 0

        def lines():
            nonlocal pulled
            for i in range(3000):
                pulled += 1
                yield f"sentence number {i}"

        stage = iter_text_stage(lines(), "tgt", MockTranslator(), "src", RejectionStats())
        first = next(stage)
        stage.close()
        assert first.id == "p00000000"
        assert pulled == 1

    def test_the_window_does_not_change_the_result(self):
        # run_text_stage takes a window, max_in_flight, and ignores it
        sentences = ["keep this", "drop [me]", "", "boom here", "and this one", "x y"] * 7
        streamed, streamed_stats = collect(iter(sentences), FlakyTranslator())
        corpus = TextCorpus(sentences, "tgt")
        windowed, windowed_stats = run_text_stage(corpus, FlakyTranslator(), "src", max_in_flight=3)
        assert windowed == streamed
        assert windowed_stats.to_dict() == streamed_stats.to_dict()
        assert windowed_stats.is_conserved()


# every break str.splitlines() knows, a lone "\r", "\r\n" and blank lines
EVERY_BREAK = (
    "eins\nzwei\r\ndrei\rvier\vfünf\fsechs\x1csieben\x1dacht\x1eneun"
    "\x85zehn\u2028elf\u2029zwölf\n\n\r\n\r\rdreizehn Straße\r\n"
)


class TestIterLines:
    @pytest.mark.parametrize("block", [1, 2, 3, 5, 8, 64, 1 << 16])
    @pytest.mark.parametrize("text", [EVERY_BREAK, EVERY_BREAK + "no final break", "", "\n"])
    def test_matches_splitlines(self, tmp_path, monkeypatch, block, text):
        path = tmp_path / "corpus.txt"
        path.write_bytes(text.encode("utf-8"))
        monkeypatch.setattr(textpipe, "_READ_BLOCK", block)
        assert list(iter_lines(path)) == path.read_text(encoding="utf-8").splitlines()

    def test_crlf_straddling_a_block_boundary(self, tmp_path, monkeypatch):
        path = tmp_path / "corpus.txt"
        path.write_bytes(b"ab\r\ncd\r\n")
        monkeypatch.setattr(textpipe, "_READ_BLOCK", 3)  # b"ab\r" | b"\ncd" | ...
        assert list(iter_lines(path)) == ["ab", "cd"]

    @settings(max_examples=150, deadline=None)
    @given(
        st.text(alphabet=st.sampled_from(list("ab é€\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"))),
        st.integers(min_value=1, max_value=9),
    )
    def test_matches_splitlines_everywhere(self, tmp_path_factory, text, block):
        path = tmp_path_factory.mktemp("lines") / "corpus.txt"
        path.write_bytes(text.encode("utf-8"))
        saved = textpipe._READ_BLOCK
        textpipe._READ_BLOCK = block
        try:
            assert list(iter_lines(path)) == text.splitlines()
        finally:
            textpipe._READ_BLOCK = saved

    @pytest.mark.parametrize("block", [1, 4, 1 << 16])
    def test_bad_utf8_names_its_line_after_the_lines_before_it(self, tmp_path, monkeypatch, block):
        path = tmp_path / "corpus.txt"
        path.write_bytes(b"ok\nfine\r\nbad \xff here\nlater\n")
        monkeypatch.setattr(textpipe, "_READ_BLOCK", block)
        lines = iter_lines(path)
        assert [next(lines), next(lines)] == ["ok", "fine"]
        with pytest.raises(MalformedText, match=r"corpus\.txt:3: not valid UTF-8") as exc:
            next(lines)
        assert exc.value.line_number == 3

    @pytest.mark.parametrize("data,line", [(b"\xc3", 1), (b"a\rb\r\xe2\x82", 3), (b"\n\xff\n", 2)])
    def test_bad_utf8_at_the_edges(self, tmp_path, data, line):
        path = tmp_path / "corpus.txt"
        path.write_bytes(data)
        with pytest.raises(MalformedText) as exc:
            list(iter_lines(path))
        assert exc.value.line_number == line


class TestPairsTsv:
    def test_roundtrip(self, tmp_path):
        pairs = [
            TextPair(id="p1", source="a b", target="b a"),
            TextPair(id="p2", source="x", target="y"),
        ]
        path = tmp_path / "pairs.tsv"
        write_pairs_tsv(pairs, path)
        assert read_pairs_tsv(path) == pairs

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("p1\tonly-two-fields\n")
        with pytest.raises(ValueError):
            read_pairs_tsv(path)

    def test_duplicate_id_names_both_lines(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("p1\ta b\tc d\n\np2\te f\tg h\np1\ti j\tk l\n")
        with pytest.raises(ValueError, match=r"dup\.tsv:4: pair id 'p1' already used on line 1"):
            read_pairs_tsv(path)

    @pytest.mark.parametrize("pair_id", ["", ".", "..", "../escaped", "a/b", "a\\b", "a\x00b"])
    def test_id_must_be_a_plain_file_name(self, tmp_path, pair_id):
        path = tmp_path / "pairs.tsv"
        path.write_text(f"p1\ta b\tc d\n{pair_id}\te f\tg h\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"pairs\.tsv:2: pair id .* is not a plain file name"):
            read_pairs_tsv(path)


    @pytest.mark.parametrize("field", ["id", "source", "target"])
    @pytest.mark.parametrize("char", list("\t" + textpipe._LINE_BREAKS))
    def test_pair_refuses_a_tab_or_line_break(self, field, char):
        fields = {"id": "p1", "source": "a b", "target": "c d"}
        fields[field] = f"x{char}y"
        with pytest.raises(ValueError, match="holds a tab or a line break"):
            TextPair(**fields)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), st.text(st.sampled_from("./\\\x00a"))))
    def test_every_pair_id_names_a_file_directly_inside_audio(self, pair_id):
        try:
            pair = TextPair(id=pair_id, source="a", target="b")
        except ValueError:
            return
        name = f"{pair.id}.wav"
        assert posixpath.split(posixpath.normpath(posixpath.join("audio", name))) == ("audio", name)
        assert "\\" not in name and "\x00" not in name

    @settings(max_examples=200, deadline=None)
    @given(st.text(min_size=1), st.text(min_size=1))
    def test_every_pair_that_exists_reads_back(self, tmp_path_factory, source, target):
        try:
            pair = TextPair(id="p1", source=source, target=target)
        except ValueError:
            return
        path = tmp_path_factory.mktemp("tsv") / "pairs.tsv"
        write_pairs_tsv([pair], path)
        assert read_pairs_tsv(path) == [pair]


class TestReservoirTake:
    def test_returns_everything_when_small(self):
        rng = np.random.default_rng(0)
        assert reservoir_take(["a", "b"], 5, rng) == ["a", "b"]

    def test_sample_size_and_order(self):
        rng = np.random.default_rng(1)
        lines = [f"l{i}" for i in range(100)]
        taken = reservoir_take(lines, 10, rng)
        assert len(taken) == 10
        indices = [int(t[1:]) for t in taken]
        assert indices == sorted(indices)

    def test_deterministic(self):
        lines = [f"l{i}" for i in range(50)]
        a = reservoir_take(lines, 7, np.random.default_rng(9))
        b = reservoir_take(lines, 7, np.random.default_rng(9))
        assert a == b

    def test_uniformity_rough(self):
        # every line should appear at a plausible rate over many draws
        lines = [str(i) for i in range(20)]
        counts = {line: 0 for line in lines}
        trials = 2000
        for seed in range(trials):
            for line in reservoir_take(lines, 5, np.random.default_rng(seed)):
                counts[line] += 1
        expected = trials * 5 / 20
        for line, count in counts.items():
            assert 0.7 * expected <= count <= 1.3 * expected, (line, count)

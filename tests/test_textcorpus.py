import json
import math
from collections import Counter

import numpy as np
import pytest

from opinesum.textcorpus import (
    RESERVED,
    Cluster,
    CorpusFormatError,
    TfidfStats,
    build_vocab,
    content_norms,
    cosine_weight_maps,
    default_stopwords,
    detokenize,
    load_clusters,
    load_embeddings,
    load_lexicon,
    load_stopwords,
    restore_entity,
    substitute_entity,
    text_unit,
    tokenize,
)


def make_cluster(texts, summary, cid="c0", entity=None):
    return Cluster(
        id=cid,
        units=tuple(text_unit(t) for t in texts),
        summary=text_unit(summary),
        entity=entity,
    )


class TestTokenize:
    def test_punctuation_detached(self):
        assert [t.norm for t in tokenize("Smart, thrilling!")] == ["smart", ",", "thrilling", "!"]

    def test_empty(self):
        assert tokenize("") == []

    def test_internal_apostrophe_kept(self):
        assert [t.norm for t in tokenize("The Martian's best.")] == ["the", "martian's", "best", "."]

    def test_surfaces_keep_case(self):
        assert [t.surface for t in tokenize("The Martian")] == ["The", "Martian"]

    def test_leading_punctuation(self):
        assert [t.norm for t in tokenize('"(quoted)"')] == ['"', "(", "quoted", ")", '"']

    def test_idempotent_on_norms(self):
        rng = np.random.default_rng(0)
        words = ["smart!", "(very)", "Fun,", "it's", "a-b", "--", "x"]
        for _ in range(50):
            text = " ".join(rng.choice(words, size=rng.integers(1, 10)))
            norms = [t.norm for t in tokenize(text)]
            again = [t.norm for t in tokenize(" ".join(norms))]
            assert norms == again


class TestDetokenize:
    def test_attach_left(self):
        assert detokenize(["smart", ",", "thrilling", "!"]) == "smart, thrilling!"

    def test_plain(self):
        assert detokenize(["a", "b"]) == "a b"


class TestVocabulary:
    def test_threshold(self):
        vocab = build_vocab([make_cluster(["a a b"], "a")], min_count=2)
        assert "a" in vocab
        assert "b" not in vocab
        assert vocab.index_of("b") == vocab.unk

    def test_min_count_one_keeps_all(self):
        vocab = build_vocab([make_cluster(["x y", "z z"], "w")], min_count=1)
        for w in ("x", "y", "z", "w"):
            assert w in vocab

    def test_size_matches_frequency_oracle(self):
        rng = np.random.default_rng(8)
        words = [f"t{i}" for i in range(30)]
        texts = [" ".join(rng.choice(words, size=20)) for _ in range(5)]
        cluster = make_cluster(texts, "t0 t1")
        counts = Counter()
        for t in texts + ["t0 t1"]:
            counts.update(t.split())
        for mc in (1, 2, 3):
            vocab = build_vocab([cluster], min_count=mc)
            expected = {w for w, n in counts.items() if n >= mc}
            assert len(vocab) == len(RESERVED) + len(expected)

    def test_reserved_present_once(self):
        vocab = build_vocab([make_cluster(["a"], "b")])
        words = list(vocab.words)
        for r in RESERVED:
            assert words.count(r) == 1

    def test_round_trip(self):
        vocab = build_vocab([make_cluster(["alpha beta gamma"], "delta")])
        for i in range(len(vocab)):
            assert vocab.index_of(vocab.word_of(i)) == i

    def test_min_count_validation(self):
        with pytest.raises(ValueError):
            build_vocab([make_cluster(["a"], "b")], min_count=0)


class TestCorpusFile:
    def test_load_valid(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        rows = [
            {
                "id": "m1",
                "entity": "The Martian",
                "summary": "Smart and funny.",
                "units": [
                    {"text": "The Martian is smart.", "pos": ["DT", "NN", "VBZ", "JJ", "."], "ner": ["O", "TITLE", "O", "O", "O"]},
                    {"text": "very funny"},
                ],
            }
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows))
        clusters = load_clusters(path)
        assert len(clusters) == 1
        c = clusters[0]
        assert c.entity == "The Martian"
        assert c.units[0].tokens[1].pos == "NN"
        assert c.units[0].tokens[1].ner == "TITLE"
        assert c.units[0].tokens[0].ner is None  # "O" means absent

    def test_tag_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"id": "x", "summary": "s", "units": [{"text": "a b", "pos": ["DT"]}]}))
        with pytest.raises(CorpusFormatError) as excinfo:
            load_clusters(path)
        assert excinfo.value.line_no == 1

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(CorpusFormatError):
            load_clusters(path)

    def test_empty_units_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"id": "x", "summary": "s", "units": []}))
        with pytest.raises(CorpusFormatError):
            load_clusters(path)

    def test_duplicate_id_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        rows = [
            {"id": "x", "summary": "s", "units": [{"text": "a b"}]},
            {"id": "y", "summary": "s", "units": [{"text": "c"}]},
            {"id": "x", "summary": "t", "units": [{"text": "d"}]},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows))
        with pytest.raises(CorpusFormatError, match="duplicate cluster id 'x'.*line 1") as excinfo:
            load_clusters(path)
        assert excinfo.value.line_no == 3


class TestEmbeddings:
    def test_full_coverage(self, tmp_path):
        vocab = build_vocab([make_cluster(["aa bb"], "aa")])
        path = tmp_path / "vec.txt"
        path.write_text("aa 1 2\nbb 3 4\n")
        table, coverage = load_embeddings(path, vocab)
        assert coverage == 1.0
        np.testing.assert_array_equal(table.matrix[vocab.index_of("aa")], [1.0, 2.0])

    def test_empty_file(self, tmp_path):
        vocab = build_vocab([make_cluster(["aa bb"], "aa")])
        path = tmp_path / "vec.txt"
        path.write_text("")
        table, coverage = load_embeddings(path, vocab, dim=4)
        assert coverage == 0.0
        assert not table.covered.any()

    def test_partial_rows_bitwise_equal(self, tmp_path):
        vocab = build_vocab([make_cluster(["aa bb"], "aa")])
        path = tmp_path / "vec.txt"
        path.write_text("aa 0.125 -7.5\nzz 1 1\nbb 0.0625 3.25\n")
        table, coverage = load_embeddings(path, vocab)
        assert coverage == 1.0  # both non-reserved words covered
        assert table.matrix[vocab.index_of("aa")].tolist() == [0.125, -7.5]
        assert table.matrix[vocab.index_of("bb")].tolist() == [0.0625, 3.25]

    def test_header_line(self, tmp_path):
        vocab = build_vocab([make_cluster(["aa"], "aa")])
        path = tmp_path / "vec.txt"
        path.write_text("2 3\naa 1 2 3\nbb 4 5 6\n")
        table, _ = load_embeddings(path, vocab)
        assert table.matrix.shape[1] == 3

    def test_malformed_line_reports_number(self, tmp_path):
        vocab = build_vocab([make_cluster(["aa"], "aa")])
        path = tmp_path / "vec.txt"
        path.write_text("aa 1 2\nbb nope 4\n")
        with pytest.raises(CorpusFormatError) as excinfo:
            load_embeddings(path, vocab)
        assert excinfo.value.line_no == 2

    def test_last_line_without_newline_rejected(self, tmp_path):
        # "aa 0.125 0.37525" cut by one digit still parses as two floats
        vocab = build_vocab([make_cluster(["aa bb"], "aa")])
        path = tmp_path / "vec.txt"
        path.write_text("bb 1 2\naa 0.125 0.3752")
        with pytest.raises(CorpusFormatError, match="truncated") as excinfo:
            load_embeddings(path, vocab)
        assert excinfo.value.line_no == 2

    def test_dim_mismatch(self, tmp_path):
        vocab = build_vocab([make_cluster(["aa bb"], "aa")])
        path = tmp_path / "vec.txt"
        path.write_text("aa 1 2\nbb 1 2 3\n")
        with pytest.raises(ValueError, match="dim mismatch"):
            load_embeddings(path, vocab)


class TestEntitySubstitution:
    def test_direct_replacement(self):
        cluster = make_cluster(["the martian is smart"], "great", entity="the martian")
        sub = substitute_entity(cluster)
        assert sub.units[0].norms() == ["ENTITY", "is", "smart"]

    def test_restore(self):
        cluster = make_cluster(["x"], "y", entity="the martian")
        assert restore_entity(["ENTITY", "is", "smart"], cluster) == ["the", "martian", "is", "smart"]

    def test_summary_substituted_too(self):
        cluster = make_cluster(["x"], "The Martian rocks", entity="the martian")
        assert substitute_entity(cluster).summary.norms() == ["ENTITY", "rocks"]

    def test_case_insensitive(self):
        cluster = make_cluster(["The MARTIAN wins"], "s", entity="the martian")
        assert substitute_entity(cluster).units[0].norms() == ["ENTITY", "wins"]

    def test_no_entity_is_noop(self):
        cluster = make_cluster(["a b"], "c")
        assert substitute_entity(cluster) is cluster
        assert restore_entity(["a"], cluster) == ["a"]

    def test_round_trip_random_insertions(self):
        rng = np.random.default_rng(4)
        filler = ["good", "bad", "film", "fun", "dull"]
        for _ in range(50):
            k = int(rng.integers(0, 5))
            words = list(rng.choice(filler, size=k))
            pos = int(rng.integers(0, len(words) + 1))
            tokens = words[:pos] + ["the", "martian"] + words[pos:]
            cluster = make_cluster([" ".join(tokens)], "s", entity="The Martian")
            sub = substitute_entity(cluster)
            assert restore_entity(sub.units[0].norms(), cluster) == tokens

    def test_token_count_changes_only_at_matches(self):
        cluster = make_cluster(["a the martian b the martian"], "s", entity="the martian")
        sub = substitute_entity(cluster)
        assert sub.units[0].norms() == ["a", "ENTITY", "b", "ENTITY"]


class TestTfidf:
    def test_ubiquitous_term_zero(self):
        clusters = [make_cluster(["cat dog", "cat bird"], "s")]
        weights = TfidfStats(clusters).unit_weights(clusters[0].units[0])
        assert weights["cat"] == 0.0

    def test_hand_computed(self):
        clusters = [make_cluster(["cat dog", "bird"], "s")]
        weights = TfidfStats(clusters).unit_weights(clusters[0].units[0])
        assert weights["cat"] == pytest.approx(math.log(2))

    def test_non_negative(self):
        rng = np.random.default_rng(9)
        words = ["a", "b", "c", "d"]
        texts = [" ".join(rng.choice(words, size=5)) for _ in range(4)]
        clusters = [make_cluster(texts[:2], "s"), make_cluster(texts[2:], "s")]
        stats = TfidfStats(clusters)
        for unit in (u for c in clusters for u in c.units):
            assert all(w >= 0 for w in stats.unit_weights(unit).values())

    def test_tf_scales(self):
        clusters = [make_cluster(["cat cat dog", "dog"], "s")]
        stats = TfidfStats(clusters)
        weights = stats.unit_weights(clusters[0].units[0])
        assert weights["cat"] == pytest.approx(2 * math.log(2))

    def test_cosine_zero_vector(self):
        assert cosine_weight_maps({}, {"a": 1.0}) == 0.0
        assert cosine_weight_maps({"a": 1.0}, {"a": 2.0}) == pytest.approx(1.0)


class TestLexiconsAndStopwords:
    def test_default_stopwords(self):
        sw = default_stopwords()
        assert "the" in sw and "and" in sw
        assert "thrilling" not in sw

    def test_load_stopwords(self, tmp_path):
        path = tmp_path / "sw.txt"
        path.write_text("The\n\nof\n# comment\n")
        assert load_stopwords(path) == frozenset({"the", "of"})

    def test_content_norms(self):
        unit = text_unit("The film, truly great!")
        assert content_norms(unit, default_stopwords()) == ["film", "truly", "great"]

    def test_load_lexicon(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("good\tPositiv\ngood\tStrong\nbad\tNegativ\n")
        lex = load_lexicon(path)
        assert lex["good"] == ("Positiv", "Strong")
        assert lex["bad"] == ("Negativ",)

    def test_lexicon_malformed(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("no-tab-here\n")
        with pytest.raises(CorpusFormatError):
            load_lexicon(path)

import json
import math
import string
from collections import Counter

import numpy as np
import pytest

from conftest import traced_call
from opinesum.textcorpus import (
    ENTITY_LABEL,
    ENTITY_TOKEN,
    RESERVED,
    Cluster,
    CorpusFormatError,
    TfidfStats,
    Token,
    atomic_write,
    build_vocab,
    content_norms,
    content_words,
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


def loop_tokenize(text):
    """The per-character tokenizer tokenize replaced, as an oracle."""
    punct = frozenset(string.punctuation)
    tokens = []
    for chunk in text.split():
        lead = []
        while chunk and chunk[0] in punct:
            lead.append(chunk[0])
            chunk = chunk[1:]
        trail = []
        while chunk and chunk[-1] in punct:
            trail.append(chunk[-1])
            chunk = chunk[:-1]
        for ch in lead:
            tokens.append(Token(ch, ch))
        if chunk:
            tokens.append(Token(chunk, chunk.lower()))
        for ch in reversed(trail):
            tokens.append(Token(ch, ch))
    return tokens


class TestTokenFastPath:
    EDGE_TEXTS = [
        "",
        "   ",
        "plain words Only",
        "Hello, world!",
        "...",
        "(quoted)",
        '"Wow!!!" she said...',
        "--dash-- it's ok?!",
        "a.b.c .leading trailing. ?mid?dle?",
        "!!! ??? ,,, .",
        "x (y) [z]{w} <v> 'u' \"t\"",
        "émigré café, naïve!  Tabs\tand\nnewlines",
        "«guillemets» are not ASCII punctuation…",
        "$5.00 100% #tag @user ~tilde^ a_b`c|d",
    ]

    def test_matches_loop_tokenizer(self):
        rng = np.random.default_rng(7)
        pool = list(string.punctuation) + list("abcXYZ é") + ["  "]
        texts = self.EDGE_TEXTS + [
            "".join(rng.choice(pool, size=rng.integers(0, 30))) for _ in range(300)
        ]
        for text in texts:
            assert tokenize(text) == loop_tokenize(text), text

    def test_token_is_immutable_and_hashable(self):
        t = Token("Great", "great", pos="JJ")
        with pytest.raises(AttributeError):
            t.norm = "good"
        assert hash(t) == hash(Token("Great", "great", "JJ", None))
        assert t == Token("Great", "great", pos="JJ") and t != Token("Great", "great")
        assert len({t, Token("Great", "great", pos="JJ"), Token("great", "great")}) == 2

    def test_content_words_drop_punctuation_only_norms(self):
        norms = ["good", "!", "...", "", "a", "e.g.", "--x", "the", "?!"]
        assert content_words(norms, frozenset({"the"})) == ["good", "a", "e.g.", "--x"]


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

    @pytest.mark.parametrize("text", ["", "\n  \n\n"], ids=["no_lines", "blank_lines"])
    def test_file_without_clusters_rejected(self, tmp_path, text):
        path = tmp_path / "empty.jsonl"
        path.write_text(text)
        with pytest.raises(CorpusFormatError, match="holds no cluster") as excinfo:
            load_clusters(path)
        assert excinfo.value.path == str(path)

    def test_entity_without_tokens_is_no_entity(self, tmp_path):
        # a blank entity would leave ENTITY expandable and unrestorable
        path = tmp_path / "corpus.jsonl"
        entities = ["", "  ", " \t ", None, " Mars "]
        path.write_text("".join(
            json.dumps({"id": str(k), "entity": e, "summary": "s", "units": [{"text": "a"}]}) + "\n"
            for k, e in enumerate(entities)
        ))
        assert [c.entity for c in load_clusters(path)] == [None, None, None, None, " Mars "]


    @pytest.mark.parametrize(
        "record, message",
        [
            ({"id": "x", "summary": None, "units": [{"text": "a"}]}, "summary must be a string"),
            ({"id": "x", "summary": "s", "units": [{"text": 7}]}, "unit text must be a string"),
            ({"id": "x", "entity": 5, "summary": "s", "units": [{"text": "a"}]}, "entity must be a string"),
            ({"id": "x", "summary": "s", "units": [{"text": "a b", "pos": "DT NN"}]}, "unit pos must be a list"),
            ({"id": "x", "summary": "s", "units": [{"text": "a b", "pos": ["DT", 3]}]}, "unit pos must be a list"),
            ({"id": "x", "summary": "s", "units": [{"text": "a", "ner": {"O": 1}}]}, "unit ner must be a list"),
            ({"id": "x", "summary": "s", "units": [{"text": "a", "ner": [None]}]}, "unit ner must be a list"),
            ({"id": None, "summary": "s", "units": [{"text": "a"}]}, "id must be a string"),
            ({"id": 7, "summary": "s", "units": [{"text": "a"}]}, "id must be a string"),
            ({"id": [1], "summary": "s", "units": [{"text": "a"}]}, "id must be a string"),
        ],
        ids=["summary_null", "text_int", "entity_int", "pos_string", "pos_int_tag", "ner_dict",
             "ner_null_tag", "id_null", "id_int", "id_list"],
    )
    def test_non_string_field_rejected_with_line_number(self, tmp_path, record, message):
        path = tmp_path / "bad.jsonl"
        good = {"id": "ok", "summary": "s", "units": [{"text": "a", "pos": None, "ner": None}]}
        path.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(CorpusFormatError, match=message) as excinfo:
            load_clusters(path)
        assert excinfo.value.line_no == 2


class TestSharedTokens:
    ROWS = [
        {"id": "a", "entity": "The Martian", "summary": "Smart, funny film!",
         "units": [
             {"text": "The Martian is smart, smart!", "pos": ["DT", "NNP", "VBZ", "JJ", ",", "", "."],
              "ner": ["O", "TITLE", "O", "O", "O", "O", "O"]},
             {"text": "smart film, (funny) film", "pos": None, "ner": None},
         ]},
        {"id": "b", "entity": "the martian", "summary": "the martian: a smart film.",
         "units": [
             {"text": "Smart?! The Martian is smart.", "pos": ["JJ", ".", ".", "DT", "NNP", "VBZ", "JJ", "."],
              "ner": ["O", "O", "O", "O", "TITLE", "O", "O", "O"]},
             {"text": "funny , film", "ner": ["O", "O", "MISC"]},
         ]},
    ]

    @pytest.fixture
    def corpus(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in self.ROWS))
        return path

    @staticmethod
    def tokens_of(clusters):
        return [t for c in clusters for u in c.units + (c.summary,) for t in u.tokens]

    def test_equal_tokens_of_one_load_are_one_object(self, corpus):
        clusters = load_clusters(corpus)
        tokens = self.tokens_of(clusters)
        assert len({id(t) for t in tokens}) == len(set(tokens))
        (a0, a1), (b0, b1) = (c.units for c in clusters)
        summary_a, summary_b = (c.summary for c in clusters)
        smart = a1.tokens[0]
        assert smart == Token("smart", "smart")
        # plain words, across units, summaries and clusters
        assert summary_b.tokens[4] is smart
        assert b1.tokens[0] is a1.tokens[4] is summary_a.tokens[2] == Token("funny", "funny")
        # tags that both map to None (pos "", ner "O") give the untagged token
        assert a0.tokens[5] is smart
        # punctuation pieces, split off a chunk or standing alone
        assert a1.tokens[2] is b1.tokens[1] is summary_a.tokens[1] == Token(",", ",")
        # tagged tokens, keyed by (surface, pos, ner) after the "O" mapping
        assert a0.tokens[3] is b0.tokens[6] == Token("smart", "smart", "JJ", None)
        assert a0.tokens[1] is b0.tokens[4] == Token("Martian", "martian", "NNP", "TITLE")
        assert a0.tokens[6] is b0.tokens[2] == Token("!", "!", ".", None)
        assert b1.tokens[2] == Token("film", "film", None, "MISC") != a1.tokens[1]

    def test_entity_label_is_one_object_after_substitution(self, corpus):
        clusters = [substitute_entity(c) for c in load_clusters(corpus)]
        labels = [t for t in self.tokens_of(clusters) if t.norm == ENTITY_LABEL]
        assert len(labels) == 3 and all(t is labels[0] for t in labels)

    def test_two_loads_share_no_token(self, corpus):
        first, second = load_clusters(corpus), load_clusters(corpus)
        assert self.tokens_of(first) == self.tokens_of(second)
        assert not {id(t) for t in self.tokens_of(first)} & {id(t) for t in self.tokens_of(second)}

    def test_substituted_tokens_unchanged(self, corpus):
        clusters = load_clusters(corpus)
        (a, b) = substituted = [substitute_entity(c) for c in clusters]
        # a unit or summary with no mention is kept as it is
        assert a.units[1] is clusters[0].units[1]
        assert a.summary is clusters[0].summary
        assert b.units[1] is clusters[1].units[1]
        # every mention, tagged or not, becomes the one untagged label; the
        # other tokens keep their tags
        assert a.units[0].tokens == (
            ENTITY_TOKEN, Token("is", "is", "VBZ"), Token("smart", "smart", "JJ"),
            Token(",", ",", ","), Token("smart", "smart"), Token("!", "!", "."),
        )
        assert b.units[0].tokens == (
            Token("Smart", "smart", "JJ"), Token("?", "?", "."), Token("!", "!", "."),
            ENTITY_TOKEN, Token("is", "is", "VBZ"), Token("smart", "smart", "JJ"),
            Token(".", ".", "."),
        )
        assert b.summary.tokens == tuple(
            [ENTITY_TOKEN] + [Token(w, w) for w in (":", "a", "smart", "film", ".")]
        )
        labels = [t for t in self.tokens_of(substituted) if t.norm == ENTITY_LABEL]
        assert len(labels) == 3 and all(t is ENTITY_TOKEN for t in labels)

    def test_bytes_per_loaded_token_bounded(self, tmp_path):
        # a Zipf(1) draw over 4000 types, with some capitalized words and
        # attached punctuation, as review text has
        rng = np.random.default_rng(5)
        n_types = 4000
        p = 1.0 / np.arange(1, n_types + 1)
        words = np.array([f"w{r}" for r in range(n_types)])
        path = tmp_path / "corpus.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for c in range(60):
                units = []
                for _ in range(50):
                    toks = list(rng.choice(words, size=20, p=p / p.sum()))
                    toks[0] = toks[0].capitalize()
                    toks[-1] += "."
                    units.append({"text": " ".join(toks)})
                fh.write(json.dumps({"id": f"c{c}", "summary": "a summary.", "units": units}) + "\n")
        clusters, held, _ = traced_call(load_clusters, path)
        tokens = self.tokens_of(clusters)
        ratio = len(set(tokens)) / len(tokens)
        assert len(tokens) >= 50_000
        assert held / len(tokens) <= 28, (
            f"{held / len(tokens):.1f} B per token over {len(tokens)} tokens, "
            f"types/tokens {ratio:.4f}"
        )


class TestAtomicWrite:
    def test_complete_write_replaces_the_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with atomic_write(path) as fh:
            fh.write("new\n")
        assert path.read_text() == "new\n"
        with atomic_write(path, binary=True) as fh:
            fh.write(b"\x00\xff")
        assert path.read_bytes() == b"\x00\xff"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_raising_writer_keeps_the_old_file_and_leaves_no_temporary(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"old contents\n")
        with pytest.raises(RuntimeError, match="mid-way"):
            with atomic_write(path) as fh:
                fh.write("new contents that never land\n" * 1000)
                fh.flush()
                raise RuntimeError("mid-way")
        assert path.read_bytes() == b"old contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_raising_writer_creates_no_file(self, tmp_path):
        path = tmp_path / "fresh.txt"
        with pytest.raises(RuntimeError):
            with atomic_write(path) as fh:
                fh.write("partial")
                raise RuntimeError("mid-way")
        assert list(tmp_path.iterdir()) == []


class TestEmbeddings:
    def test_full_coverage(self, tmp_path):
        vocab = build_vocab([make_cluster(["aa bb"], "aa")])
        path = tmp_path / "vec.txt"
        path.write_text("aa 1 2\nbb 3 4\n")
        vectors, coverage = load_embeddings(path, vocab, dim=2)
        assert coverage == 1.0
        assert list(vectors) == ["aa", "bb"]
        np.testing.assert_array_equal(vectors["aa"], [1.0, 2.0])

    def test_empty_file(self, tmp_path):
        vocab = build_vocab([make_cluster(["aa bb"], "aa")])
        path = tmp_path / "vec.txt"
        path.write_text("")
        vectors, coverage = load_embeddings(path, vocab, dim=4)
        assert coverage == 0.0
        assert vectors == {}

    def test_partial_rows_bitwise_equal(self, tmp_path):
        vocab = build_vocab([make_cluster(["aa bb"], "aa")])
        path = tmp_path / "vec.txt"
        path.write_text("aa 0.125 -7.5\nzz 1 1\nbb 0.0625 3.25\n")
        vectors, coverage = load_embeddings(path, vocab, dim=2)
        assert coverage == 1.0  # both non-reserved words covered
        assert "zz" not in vectors  # not a vocabulary word
        assert vectors["aa"].tolist() == [0.125, -7.5]
        assert vectors["bb"].tolist() == [0.0625, 3.25]

    def test_negative_zero_loads_as_positive_zero(self, tmp_path):
        # a zero-gradient Adagrad step keeps a parameter's bits unless it
        # is -0.0, so no loaded row may hold one
        vocab = build_vocab([make_cluster(["aa bb"], "aa")])
        path = tmp_path / "vec.txt"
        path.write_text("aa -0.0 -0\nbb 0.5 -0.25\n")
        vectors, _ = load_embeddings(path, vocab, dim=2)
        row = vectors["aa"]
        assert row.tolist() == [0.0, 0.0] and not np.signbit(row).any()
        assert vectors["bb"].tolist() == [0.5, -0.25]

    def test_repeated_vocabulary_word_rejected(self, tmp_path):
        # which of the two vectors was meant is unknowable; a repeated word
        # outside the vocabulary is never read
        vocab = build_vocab([make_cluster(["aa bb"], "aa")])
        path = tmp_path / "vec.txt"
        path.write_text("aa 0.1 0.2\nzz 1 1\nbb 0.3 0.4\nzz 2 2\naa 0.5 0.6\n")
        message = r"duplicate word 'aa' \(first on line 1\)"
        with pytest.raises(CorpusFormatError, match=message) as excinfo:
            load_embeddings(path, vocab, dim=2)
        assert excinfo.value.line_no == 5

    def test_header_line(self, tmp_path):
        vocab = build_vocab([make_cluster(["aa"], "aa")])
        path = tmp_path / "vec.txt"
        path.write_text("2 3\naa 1 2 3\nbb 4 5 6\n")
        vectors, _ = load_embeddings(path, vocab, dim=3)
        assert list(vectors) == ["aa"]
        assert vectors["aa"].tolist() == [1.0, 2.0, 3.0]

    def test_header_must_match_dim(self, tmp_path):
        vocab = build_vocab([make_cluster(["aa"], "aa")])
        path = tmp_path / "vec.txt"
        path.write_text("2 3\naa 1 2 3\nbb 4 5 6\n")
        with pytest.raises(ValueError, match="file declares 3, expected 2"):
            load_embeddings(path, vocab, dim=2)

    def test_malformed_line_reports_number(self, tmp_path):
        vocab = build_vocab([make_cluster(["aa"], "aa")])
        path = tmp_path / "vec.txt"
        path.write_text("aa 1 2\nbb nope 4\n")
        with pytest.raises(CorpusFormatError) as excinfo:
            load_embeddings(path, vocab, dim=2)
        assert excinfo.value.line_no == 2

    def test_last_line_without_newline_rejected(self, tmp_path):
        # "aa 0.125 0.37525" cut by one digit still parses as two floats
        vocab = build_vocab([make_cluster(["aa bb"], "aa")])
        path = tmp_path / "vec.txt"
        path.write_text("bb 1 2\naa 0.125 0.3752")
        with pytest.raises(CorpusFormatError, match="truncated") as excinfo:
            load_embeddings(path, vocab, dim=2)
        assert excinfo.value.line_no == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999", "NaN"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        # a NaN row would otherwise surface only as a training divergence
        vocab = build_vocab([make_cluster(["aa bb"], "aa")])
        path = tmp_path / "vec.txt"
        path.write_text(f"aa 1 2\nbb 0.5 {value}\n")
        with pytest.raises(CorpusFormatError, match="non-finite") as excinfo:
            load_embeddings(path, vocab, dim=2)
        assert excinfo.value.line_no == 2

    def test_dim_mismatch(self, tmp_path):
        vocab = build_vocab([make_cluster(["aa bb"], "aa")])
        path = tmp_path / "vec.txt"
        path.write_text("aa 1 2\nbb 1 2 3\n")
        with pytest.raises(ValueError, match="dim mismatch"):
            load_embeddings(path, vocab, dim=2)

    @pytest.mark.parametrize(
        "text, line_no, message",
        [
            ("2 4\naa 1 2 3\n", 1, "embedding dim mismatch: file declares 4, expected 3"),
            ("aa 1 2 3\nbb 1 2\n", 2, "embedding dim mismatch: got 2, expected 3"),
        ],
        ids=["header", "row"],
    )
    def test_dim_mismatch_names_file_and_line(self, tmp_path, text, line_no, message):
        vocab = build_vocab([make_cluster(["aa bb"], "aa")])
        path = tmp_path / "vec.txt"
        path.write_text(text)
        with pytest.raises(CorpusFormatError) as excinfo:
            load_embeddings(path, vocab, dim=3)
        assert str(excinfo.value) == f"{path}:{line_no}: {message}"


class TestBlankEntity:
    """A Cluster built in code with an entity of no tokens has no entity,
    as load_clusters reads one from a file."""

    BLANKS = ["", "  ", "\t\n"]

    @pytest.mark.parametrize("blank", BLANKS)
    def test_blank_entity_is_none(self, blank):
        assert make_cluster(["a b"], "c", entity=blank).entity is None
        assert make_cluster(["a b"], "c", entity=" Mars ").entity == " Mars "

    @pytest.mark.parametrize("blank", BLANKS)
    def test_banned_indices_ban_the_label(self, blank):
        from opinesum.beamdecode import banned_indices

        cluster = make_cluster(["the ENTITY rocks"], "c", entity=blank)
        vocab = build_vocab([cluster])
        assert vocab.entity in banned_indices(vocab, cluster)

    @pytest.mark.parametrize("blank", BLANKS)
    def test_restore_entity_as_without_entity(self, blank):
        norms = ["the", "ENTITY", "rocks"]
        blank_cluster = make_cluster(["x"], "y", entity=blank)
        assert restore_entity(norms, blank_cluster) == restore_entity(norms, make_cluster(["x"], "y"))

    @pytest.mark.parametrize("blank", BLANKS)
    def test_substitute_entity_as_without_entity(self, blank):
        cluster = make_cluster(["the  martian"], "y", entity=blank)
        assert substitute_entity(cluster) is cluster


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

    def test_unit_without_mention_kept(self):
        cluster = make_cluster(["Great film , truly", "The Martian wins"], "s", entity="the martian")
        sub = substitute_entity(cluster)
        assert sub.units[0] is cluster.units[0]
        assert sub.units[1].tokens == (ENTITY_TOKEN, Token("wins", "wins"))

    def test_literal_label_reads_as_a_word(self, tmp_path):
        # only substitute_entity makes the label; corpus text never does
        token = tokenize("ENTITY")[0]
        assert token.norm == "entity"
        assert token != ENTITY_TOKEN
        word = Token("ENTITY", "entity")
        assert text_unit("so ENTITY").tokens[1] == word
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps({"id": "c", "summary": "ENTITY", "units": [{"text": "ENTITY"}]}))
        (cluster,) = load_clusters(path)
        assert cluster.units[0].tokens == cluster.summary.tokens == (word,)

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

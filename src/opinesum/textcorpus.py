"""Corpus data model: tokens, text units, clusters, vocabulary, embeddings,
lexicons, TF-IDF statistics, and generic-label substitution for entities;
plus the strict line reader and block writer of the package's text
artifacts.

The corpus file format is UTF-8 JSON-lines, one object per cluster:
    {"id": str, "entity": str|null, "summary": str,
     "units": [{"text": str, "pos": [str]|null, "ner": [str]|null}]}
pos/ner arrays, when present, must match the tokenizer's token count.
"""

import itertools
import json
import math
import string
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import resources

import numpy as np

# Reserved vocabulary items. Uppercase on purpose: tokenizer norms are
# always lowercased, so these can never collide with corpus words.
UNK = "UNK"
SEG = "SEG"
BOS = "BOS"
EOS = "EOS"
ENTITY_LABEL = "ENTITY"
RESERVED = (UNK, SEG, BOS, EOS, ENTITY_LABEL)

_PUNCT = frozenset(string.punctuation)


class CorpusFormatError(ValueError):
    """Malformed corpus, embedding, or lexicon file; carries a line number."""

    def __init__(self, path, line_no, message):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


@dataclass(frozen=True)
class Token:
    surface: str
    norm: str
    pos: str | None = None
    ner: str | None = None


@dataclass(frozen=True)
class TextUnit:
    tokens: tuple
    raw: str

    def norms(self):
        return [t.norm for t in self.tokens]


@dataclass(frozen=True)
class Cluster:
    """One summarization instance: M input text units plus a gold abstract."""

    id: str
    units: tuple
    summary: TextUnit
    entity: str | None = None


def tokenize(text):
    """Whitespace split, detaching leading/trailing ASCII punctuation."""
    tokens = []
    for chunk in text.split():
        lead = []
        while chunk and chunk[0] in _PUNCT:
            lead.append(chunk[0])
            chunk = chunk[1:]
        trail = []
        while chunk and chunk[-1] in _PUNCT:
            trail.append(chunk[-1])
            chunk = chunk[:-1]
        for ch in lead:
            tokens.append(Token(ch, ch))
        if chunk:
            tokens.append(Token(chunk, chunk.lower()))
        for ch in reversed(trail):
            tokens.append(Token(ch, ch))
    return tokens


def detokenize(norms):
    """Space-join norms, attaching punctuation-only tokens to the left."""
    parts = []
    for norm in norms:
        if parts and norm and all(c in _PUNCT for c in norm):
            parts[-1] = parts[-1] + norm
        else:
            parts.append(norm)
    return " ".join(parts)


def text_unit(text, pos=None, ner=None):
    """Tokenize `text` into a TextUnit, attaching optional tag arrays."""
    tokens = tokenize(text)
    if pos is not None:
        if len(pos) != len(tokens):
            raise ValueError(f"pos tags ({len(pos)}) do not match {len(tokens)} tokens")
        tokens = [
            Token(t.surface, t.norm, pos=p if p else None, ner=t.ner)
            for t, p in zip(tokens, pos)
        ]
    if ner is not None:
        if len(ner) != len(tokens):
            raise ValueError(f"ner tags ({len(ner)}) do not match {len(tokens)} tokens")
        # "O" is the CoreNLP-style non-entity tag
        tokens = [
            Token(t.surface, t.norm, pos=t.pos, ner=n if n and n != "O" else None)
            for t, n in zip(tokens, ner)
        ]
    return TextUnit(tokens=tuple(tokens), raw=text)


def load_clusters(path):
    """Read a JSON-lines corpus file into Cluster objects; cluster ids
    must be unique within the file."""
    clusters = []
    first_line = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(path, line_no, f"invalid JSON: {exc}") from exc
            try:
                units = []
                for u in obj["units"]:
                    units.append(text_unit(u["text"], u.get("pos"), u.get("ner")))
                summary = text_unit(obj["summary"])
                cluster = Cluster(
                    id=str(obj["id"]),
                    units=tuple(units),
                    summary=summary,
                    entity=obj.get("entity") or None,
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise CorpusFormatError(path, line_no, str(exc)) from exc
            if not cluster.units:
                raise CorpusFormatError(path, line_no, "cluster has no units")
            if not cluster.summary.tokens:
                raise CorpusFormatError(path, line_no, "cluster summary is empty")
            for u in cluster.units:
                if not u.tokens:
                    raise CorpusFormatError(path, line_no, "cluster has an empty unit")
            first = first_line.setdefault(cluster.id, line_no)
            if first != line_no:
                raise CorpusFormatError(
                    path, line_no, f"duplicate cluster id {cluster.id!r} (first on line {first})"
                )
            clusters.append(cluster)
    return clusters


def save_clusters(clusters, path):
    """Write clusters back out in the JSON-lines corpus format."""
    with open(path, "w", encoding="utf-8") as fh:
        for c in clusters:
            obj = {
                "id": c.id,
                "entity": c.entity,
                "summary": c.summary.raw,
                "units": [
                    {
                        "text": u.raw,
                        "pos": [t.pos or "" for t in u.tokens] if any(t.pos for t in u.tokens) else None,
                        "ner": [t.ner or "O" for t in u.tokens] if any(t.ner for t in u.tokens) else None,
                    }
                    for u in c.units
                ],
            }
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


class Vocabulary:
    """word<->index bijection with the five reserved tokens at the front."""

    def __init__(self, words=()):
        self._words = list(RESERVED)
        seen = set(RESERVED)
        for w in words:
            if w not in seen:
                seen.add(w)
                self._words.append(w)
        self._index = {w: i for i, w in enumerate(self._words)}

    def __len__(self):
        return len(self._words)

    def __contains__(self, word):
        return word in self._index

    @property
    def words(self):
        return tuple(self._words)

    def index_of(self, word):
        """Index of `word`, or the UNK index for out-of-vocabulary words."""
        return self._index.get(word, self._index[UNK])

    def word_of(self, index):
        return self._words[index]

    @property
    def unk(self):
        return self._index[UNK]

    @property
    def seg(self):
        return self._index[SEG]

    @property
    def bos(self):
        return self._index[BOS]

    @property
    def eos(self):
        return self._index[EOS]

    @property
    def entity(self):
        return self._index[ENTITY_LABEL]

    def encode(self, norms):
        """Map norms to indices (OOV -> UNK) as an int array."""
        return np.array([self.index_of(n) for n in norms], dtype=np.int64)


def build_vocab(clusters, min_count=1):
    """Vocabulary of every norm with corpus frequency >= min_count.

    Counts cover unit and summary tokens; order is descending frequency,
    ties lexicographic, after the reserved block.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts = Counter()
    for c in clusters:
        for u in c.units:
            counts.update(u.norms())
        counts.update(c.summary.norms())
    kept = sorted(
        (w for w, n in counts.items() if n >= min_count and w not in RESERVED),
        key=lambda w: (-counts[w], w),
    )
    return Vocabulary(kept)


@dataclass
class EmbeddingTable:
    """|V| x d_emb embedding matrix with per-row trainable/covered flags."""

    matrix: np.ndarray
    trainable: np.ndarray
    covered: np.ndarray

    @staticmethod
    def zeros(vocab_size, dim):
        return EmbeddingTable(
            matrix=np.zeros((vocab_size, dim)),
            trainable=np.ones(vocab_size, dtype=bool),
            covered=np.zeros(vocab_size, dtype=bool),
        )


def load_embeddings(path, vocab, dim=None):
    """Load a text word-vector file into an EmbeddingTable.

    Format: optional "count dim" header, then "word v1 ... v_d" lines.
    Rows for covered words are copied; uncovered rows are left for the
    model initializer. Returns (table, coverage over non-reserved words).
    """
    vectors = {}
    file_dim = dim
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.endswith("\n"):
                # a file cut mid-number would otherwise load a wrong value
                raise CorpusFormatError(path, line_no, "truncated: line has no newline")
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split()
            if line_no == 1 and len(parts) == 2:
                try:
                    int(parts[0])
                    header_dim = int(parts[1])
                except ValueError:
                    pass
                else:
                    if file_dim is not None and header_dim != file_dim:
                        raise ValueError(
                            f"embedding dim mismatch: file declares {header_dim}, expected {file_dim}"
                        )
                    file_dim = header_dim
                    continue
            if len(parts) < 2:
                raise CorpusFormatError(path, line_no, "expected 'word v1 ... v_d'")
            word = parts[0]
            try:
                values = np.array([float(x) for x in parts[1:]], dtype=np.float64)
            except ValueError as exc:
                raise CorpusFormatError(path, line_no, f"bad float: {exc}") from exc
            if file_dim is None:
                file_dim = values.shape[0]
            elif values.shape[0] != file_dim:
                raise ValueError(
                    f"embedding dim mismatch at line {line_no}: got {values.shape[0]}, expected {file_dim}"
                )
            if word in vocab:
                vectors[word] = values
    if file_dim is None:
        if dim is None:
            raise ValueError("empty embedding file and no dim given")
        file_dim = dim
    table = EmbeddingTable.zeros(len(vocab), file_dim)
    for word, vec in vectors.items():
        idx = vocab.index_of(word)
        table.matrix[idx] = vec
        table.covered[idx] = True
    non_reserved = len(vocab) - len(RESERVED)
    coverage = (len(vectors) / non_reserved) if non_reserved > 0 else 1.0
    return table, coverage


def load_stopwords(path):
    """Plain-text stopword list, one lowercase word per line."""
    words = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            w = line.strip().lower()
            if w and not w.startswith("#"):
                words.add(w)
    return frozenset(words)


def default_stopwords():
    """The bundled stopword list (defines "content words")."""
    text = resources.files("opinesum").joinpath("data/stopwords.txt").read_text("utf-8")
    return frozenset(
        w.strip().lower() for w in text.splitlines() if w.strip() and not w.startswith("#")
    )


def load_lexicon(path):
    """Tab-separated "word<TAB>category" lexicon; multi-category words allowed.

    Returns norm -> sorted tuple of categories.
    """
    cats = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
                raise CorpusFormatError(path, line_no, "expected 'word<TAB>category'")
            word = parts[0].strip().lower()
            cats.setdefault(word, set()).add(parts[1].strip())
    return {w: tuple(sorted(c)) for w, c in cats.items()}


def content_words(norms, stopwords):
    """Filter plain norm strings down to content words (no stopwords or
    punctuation-only tokens)."""
    return [
        n for n in norms if n not in stopwords and not all(ch in _PUNCT for ch in n)
    ]


def content_norms(unit, stopwords):
    """Norms of a unit that are not stopwords (and not punctuation)."""
    return content_words([t.norm for t in unit.tokens], stopwords)


def substitute_entity(cluster):
    """Replace every occurrence of the cluster entity with the generic label.

    Case-insensitive, longest-match over the entity's token sequence; applies
    to all units and the summary. No-op when the cluster has no entity.
    """
    if not cluster.entity:
        return cluster
    pattern = [t.norm for t in tokenize(cluster.entity)]
    if not pattern:
        return cluster

    def sub_unit(unit):
        out = []
        i = 0
        norms = unit.norms()
        n = len(pattern)
        while i < len(unit.tokens):
            if norms[i : i + n] == pattern:
                out.append(Token(ENTITY_LABEL, ENTITY_LABEL))
                i += n
            else:
                out.append(unit.tokens[i])
                i += 1
        return TextUnit(tokens=tuple(out), raw=detokenize([t.norm for t in out]))

    return Cluster(
        id=cluster.id,
        units=tuple(sub_unit(u) for u in cluster.units),
        summary=sub_unit(cluster.summary),
        entity=cluster.entity,
    )


def restore_entity(norms, cluster):
    """Replace every generic label in `norms` with the entity's tokens."""
    if not cluster.entity:
        return list(norms)
    pattern = [t.norm for t in tokenize(cluster.entity)]
    out = []
    for norm in norms:
        if norm == ENTITY_LABEL and pattern:
            out.extend(pattern)
        else:
            out.append(norm)
    return out


class TfidfStats:
    """Document-frequency statistics over a collection of clusters.

    A "document" is a text unit. tf = term count in the unit,
    idf = ln(N_units / df). Terms never seen get df treated as 1.
    """

    def __init__(self, clusters):
        self.n_units = sum(len(c.units) for c in clusters)
        self.df = Counter()
        for c in clusters:
            for u in c.units:
                self.df.update(set(u.norms()))

    def idf(self, term):
        if self.n_units == 0:
            return 0.0
        return math.log(self.n_units / max(self.df.get(term, 0), 1))

    def unit_weights(self, unit):
        """term -> tf*idf map for one unit."""
        counts = Counter(unit.norms())
        return {term: tf * self.idf(term) for term, tf in counts.items()}


def cosine_weight_maps(a, b, norm_b=None):
    """Cosine similarity of two sparse term->weight maps; 0 if either is zero.

    `norm_b` is b's Euclidean norm, for a caller that compares many maps
    with one b."""
    dot = sum(w * b.get(t, 0.0) for t, w in a.items())
    na = math.sqrt(sum(w * w for w in a.values()))
    nb = math.sqrt(sum(w * w for w in b.values())) if norm_b is None else norm_b
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


class ArtifactReader:
    """Strict line reader for the text artifacts (seq2seq checkpoint,
    salience model and registry). Every line must end in a newline, so a
    file cut mid-line never parses, and every error is a ValueError naming
    the path. Lines are read one at a time, so a large file streams."""

    def __init__(self, fh, path):
        self.path, self._fh = path, fh
        self.line_no = 0  # of the line last asked for

    def error(self, message):
        return ValueError(f"{self.path}: {message}")

    def next(self):
        """The next line without its newline, or None at the end of the file."""
        self.line_no += 1
        try:
            line = self._fh.readline()
        except UnicodeDecodeError:
            raise self.error("not UTF-8 text") from None
        if line and not line.endswith("\n"):
            raise self.error(f"truncated: line {self.line_no} has no newline")
        return line[:-1] if line else None

    def __iter__(self):
        while (line := self.next()) is not None:
            yield line

    def lines(self, n, what):
        """The next n lines, which must all be there."""
        block = list(itertools.islice(self, n))
        if len(block) < n:
            raise self.error(f"expected {n} {what}, found {len(block)}")
        return block

    def value(self, key):
        """The value of the next line, which must read '<key> <value>'."""
        name, _, val = (self.next() or "").partition(" ")
        if name != key or not val:
            raise self.error(f"line {self.line_no}: expected '{key} <value>'")
        return val

    def count(self, key):
        """The count of the next line, which must read '<key> <count>'."""
        val = self.value(key)
        if not val.isdecimal():
            raise self.error(f"line {self.line_no}: '{key}' needs a count, not {val!r}")
        return int(val)

    def block(self, key):
        """The lines of a '<key> <count>' block (see write_block)."""
        n = self.count(key)
        block = list(itertools.islice(self, n))
        if len(block) < n:
            raise self.error(f"{key} declares {n} lines, found {len(block)}")
        return block


@contextmanager
def read_artifact(path, magic):
    """Yield an ArtifactReader over a text artifact whose first line must be
    `magic`; when the body is done, no line may be left."""
    with open(path, encoding="utf-8") as fh:
        reader = ArtifactReader(fh, path)
        if reader.next() != magic:
            raise reader.error(f"line 1: expected {magic!r}")
        yield reader
        extra = sum(1 for _ in reader)
        if extra:
            raise reader.error(f"{extra} unexpected lines after the end")


def write_block(fh, key, lines):
    """Write a '<key> <count>' line, then the lines."""
    fh.write(f"{key} {len(lines)}\n")
    for line in lines:
        fh.write(line + "\n")

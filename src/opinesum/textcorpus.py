"""Corpus data model: tokens, text units, clusters, vocabulary, embeddings,
lexicons, TF-IDF statistics, and generic-label substitution for entities;
plus the strict line reader and block writer of the package's text
artifacts.

The corpus file format is UTF-8 JSON-lines, one object per cluster:
    {"id": str, "entity": str|null, "summary": str,
     "units": [{"text": str, "pos": [str]|null, "ner": [str]|null}]}
pos/ner arrays, when present, must match the tokenizer's token count.
"""

import hashlib
import itertools
import json
import math
import os
import string
from collections import Counter
from contextlib import closing, contextmanager
from dataclasses import dataclass
from importlib import resources
from typing import NamedTuple

import numpy as np

# Reserved vocabulary items. Uppercase on purpose: tokenizer norms are
# lowercased, so these never collide with corpus words. The one exception
# is a literal ENTITY chunk, which reads as the label (ENTITY_TOKEN), so a
# substituted corpus that was saved loads back to the same tokens.
UNK = "UNK"
SEG = "SEG"
BOS = "BOS"
EOS = "EOS"
ENTITY_LABEL = "ENTITY"
RESERVED = (UNK, SEG, BOS, EOS, ENTITY_LABEL)

_PUNCT = string.punctuation  # the ASCII punctuation characters


class CorpusFormatError(ValueError):
    """A malformed line of a text input file; carries the path and the
    line number."""

    def __init__(self, path, line_no, message):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


class Token(NamedTuple):
    """One token: an immutable, hashable record (a tuple underneath)."""

    surface: str
    norm: str
    pos: str | None = None
    ner: str | None = None


# The one token substitute_entity puts in place of every entity mention.
ENTITY_TOKEN = Token(ENTITY_LABEL, ENTITY_LABEL)


@dataclass(frozen=True)
class TextUnit:
    tokens: tuple
    raw: str

    def norms(self):
        return [t.norm for t in self.tokens]


@dataclass(frozen=True)
class Cluster:
    """One summarization instance: M input text units plus a gold abstract.

    An entity with no tokens (empty or whitespace only) is no entity: it
    becomes None, so the generic label stays banned and never reaches a
    summary unrestored."""

    id: str
    units: tuple
    summary: TextUnit
    entity: str | None = None

    def __post_init__(self):
        if isinstance(self.entity, str) and not self.entity.split():
            object.__setattr__(self, "entity", None)


def tokenize(text):
    """Whitespace split, detaching leading/trailing ASCII punctuation."""
    return _tokenize(text, {ENTITY_LABEL: ENTITY_TOKEN})


def _tokenize(text, shared):
    """tokenize(text), taking every untagged token from `shared`, a dict
    from surface to Token that this call extends: equal tokens of every
    text tokenized with one table are one object. A surface fixes its
    norm, so the surface alone is the key. Every table starts as
    {ENTITY_LABEL: ENTITY_TOKEN}."""
    tokens = []
    append = tokens.append
    get = shared.get
    new = tuple.__new__  # Token(...) without the NamedTuple argument handling
    for chunk in text.split():
        if chunk[0] not in _PUNCT and chunk[-1] not in _PUNCT:
            token = get(chunk)
            if token is None:
                token = shared[chunk] = new(Token, (chunk, chunk.lower(), None, None))
            append(token)
            continue
        core = chunk.lstrip(_PUNCT)
        word = core.rstrip(_PUNCT)
        pieces = list(chunk[: len(chunk) - len(core)])
        if word:
            pieces.append(word)
        pieces.extend(core[len(word) :])
        for piece in pieces:
            token = get(piece)
            if token is None:
                token = shared[piece] = new(Token, (piece, piece.lower(), None, None))
            append(token)
    return tokens


def detokenize(words):
    """Space-join words (norms or surfaces), attaching punctuation-only
    ones to the left."""
    parts = []
    for word in words:
        if parts and word and not word.strip(_PUNCT):
            parts[-1] = parts[-1] + word
        else:
            parts.append(word)
    return " ".join(parts)


def text_unit(text, pos=None, ner=None):
    """Tokenize `text` into a TextUnit, attaching optional tag arrays."""
    return _text_unit(text, pos, ner, {ENTITY_LABEL: ENTITY_TOKEN})


def _text_unit(text, pos, ner, shared):
    """text_unit(text, pos, ner), taking every token from `shared` (see
    _tokenize). A tagged token is keyed by (surface, pos, ner) after the
    tags are mapped; one whose tags both map to None is the untagged
    token."""
    tokens = _tokenize(text, shared)
    for name, tags in (("pos", pos), ("ner", ner)):
        if tags is not None and len(tags) != len(tokens):
            raise ValueError(f"{name} tags ({len(tags)}) do not match {len(tokens)} tokens")
    if pos is not None or ner is not None:
        none = itertools.repeat(None)
        tagged = []
        for t, p, n in zip(tokens, none if pos is None else pos, none if ner is None else ner):
            p = p or None
            n = n if n and n != "O" else None  # "O" is the CoreNLP-style non-entity tag
            if p is not None or n is not None:
                key = (t.surface, p, n)
                t = shared.get(key) or shared.setdefault(key, Token(t.surface, t.norm, p, n))
            tagged.append(t)
        tokens = tagged
    return TextUnit(tokens=tuple(tokens), raw=text)


def read_lines(path):
    """Yield (line number, line) for each line of the UTF-8 text file
    `path`, newline kept; lines end at "\n" only. Each line is decoded on
    its own, so a line that is not UTF-8 raises CorpusFormatError naming
    the path and that line."""
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                yield line_no, raw.decode("utf-8")
            except UnicodeDecodeError:
                raise CorpusFormatError(path, line_no, "not UTF-8 text") from None


def _string(value, what):
    """`value`, which a corpus record must hold as a string."""
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, not {type(value).__name__}")
    return value


def _tags(value, what):
    """`value`, which a corpus record must hold as a list of strings or null."""
    if value is not None and not (
        isinstance(value, list) and all(isinstance(tag, str) for tag in value)
    ):
        raise ValueError(f"{what} must be a list of strings or null")
    return value


def load_clusters(path):
    """Read a JSON-lines corpus file into Cluster objects; the file must
    hold at least one cluster, and cluster ids must be unique within it.
    An entity with no tokens is no entity (None). Equal tokens of one file
    are one Token object (see _text_unit); the table that shares them
    lives only for this call."""
    clusters = []
    line_no = 0
    shared = {ENTITY_LABEL: ENTITY_TOKEN}
    first_line = {}
    for line_no, line in read_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusFormatError(path, line_no, f"invalid JSON: {exc}") from exc
        try:
            units = tuple(
                _text_unit(
                    _string(u["text"], "unit text"),
                    _tags(u.get("pos"), "unit pos"),
                    _tags(u.get("ner"), "unit ner"),
                    shared,
                )
                for u in obj["units"]
            )
            entity = obj.get("entity")
            cluster = Cluster(
                id=_string(obj["id"], "id"),
                units=units,
                summary=_text_unit(_string(obj["summary"], "summary"), None, None, shared),
                entity=None if entity is None else _string(entity, "entity"),
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
    if not clusters:
        raise CorpusFormatError(path, line_no, "the file holds no cluster")
    return clusters


def save_clusters(clusters, path):
    """Write clusters back out in the JSON-lines corpus format."""
    with atomic_write(path) as fh:
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


def load_embeddings(path, vocab, dim):
    """Load the vectors of `vocab`'s words from a text word-vector file of
    `dim`-value vectors.

    Format: optional "count dim" header, then "word v1 ... v_d" lines; the
    header and every row must match `dim`. Returns ({word: vector} for the
    words of `vocab` the file covers, coverage over non-reserved words).
    """
    vectors = {}
    for line_no, line in read_lines(path):
        if not line.endswith("\n"):
            # a file cut mid-number would otherwise load a wrong value
            raise CorpusFormatError(path, line_no, "truncated: line has no newline")
        parts = line.split()
        if not parts:
            continue
        if line_no == 1 and len(parts) == 2:
            try:
                int(parts[0])
                header_dim = int(parts[1])
            except ValueError:
                pass
            else:
                if header_dim != dim:
                    raise CorpusFormatError(
                        path, line_no,
                        f"embedding dim mismatch: file declares {header_dim}, expected {dim}",
                    )
                continue
        if len(parts) < 2:
            raise CorpusFormatError(path, line_no, "expected 'word v1 ... v_d'")
        word = parts[0]
        try:
            values = np.array([float(x) for x in parts[1:]], dtype=np.float64)
        except ValueError as exc:
            raise CorpusFormatError(path, line_no, f"bad float: {exc}") from exc
        if not np.isfinite(values).all():
            raise CorpusFormatError(path, line_no, f"non-finite value in the vector of {word!r}")
        if values.shape[0] != dim:
            raise CorpusFormatError(
                path, line_no, f"embedding dim mismatch: got {values.shape[0]}, expected {dim}"
            )
        if word in vocab:
            # -0.0 becomes +0.0: no parameter may hold -0.0 (see trainer._adagrad_step)
            values += 0.0
            vectors[word] = values
    non_reserved = len(vocab) - len(RESERVED)
    coverage = (len(vectors) / non_reserved) if non_reserved > 0 else 1.0
    return vectors, coverage


def load_stopwords(path):
    """Plain-text stopword list, one lowercase word per line."""
    words = set()
    for _, line in read_lines(path):
        w = line.strip().lower()
        if w and not w.startswith("#"):
            words.add(w)
    return frozenset(words)


def default_stopwords():
    """The bundled stopword list (defines "content words")."""
    with resources.as_file(resources.files("opinesum").joinpath("data/stopwords.txt")) as path:
        return load_stopwords(path)


def load_lexicon(path):
    """Tab-separated "word<TAB>category" lexicon; multi-category words allowed.

    Returns norm -> sorted tuple of categories.
    """
    cats = {}
    for line_no, line in read_lines(path):
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
    return [n for n in norms if n not in stopwords and n.strip(_PUNCT)]


def content_norms(unit, stopwords):
    """Norms of a unit that are not stopwords (and not punctuation)."""
    return content_words([t.norm for t in unit.tokens], stopwords)


def substitute_entity(cluster):
    """Replace every occurrence of the cluster entity with the generic label.

    Case-insensitive, longest-match over the entity's token sequence; applies
    to all units and the summary. No-op when the cluster has no entity, and
    a unit with no mention is kept as it is. A substituted unit's raw text
    is its tokens' surfaces (see detokenize), which tokenize back to them.
    """
    if not cluster.entity:
        return cluster
    pattern = [t.norm for t in tokenize(cluster.entity)]
    if not pattern:
        return cluster

    def sub_unit(unit):
        norms = unit.norms()
        if pattern[0] not in norms:
            return unit
        out = []
        i = 0
        n = len(pattern)
        while i < len(unit.tokens):
            if norms[i : i + n] == pattern:
                out.append(ENTITY_TOKEN)
                i += n
            else:
                out.append(unit.tokens[i])
                i += 1
        out = tuple(out)
        if out == unit.tokens:
            return unit
        return TextUnit(tokens=out, raw=detokenize([t.surface for t in out]))

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
    idf = ln(N_units / df). Terms never seen get df treated as 1. Every
    seen term's idf is computed once, when the statistics are built.
    """

    def __init__(self, clusters):
        n = sum(len(c.units) for c in clusters)
        df = Counter()
        for c in clusters:
            for u in c.units:
                df.update(set(u.norms()))
        self._idf = {term: math.log(n / max(count, 1)) for term, count in df.items()}
        # with no units there are no terms, and every idf is 0
        self._unseen = math.log(n) if n else 0.0

    def idf(self, term):
        return self._idf.get(term, self._unseen)

    def unit_weights(self, unit):
        """term -> tf*idf map for one unit, in first-occurrence order."""
        counts = {}
        for t in unit.tokens:
            counts[t.norm] = counts.get(t.norm, 0) + 1
        idf, unseen = self._idf, self._unseen
        return {term: tf * idf.get(term, unseen) for term, tf in counts.items()}


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
    salience model and registry) over the lines of read_lines. Every line
    must end in a newline, so a file cut mid-line never parses, and every
    error is a ValueError naming the path. Lines are read one at a time,
    so a large file streams, and each is hashed as it is read (see
    digest_before_last)."""

    def __init__(self, lines, path):
        self.path, self._lines = path, lines
        self.line_no = 0  # of the line last asked for
        self._sha256 = hashlib.sha256()
        self._last = b""  # the line last read, not yet hashed

    def error(self, message):
        return ValueError(f"{self.path}: {message}")

    def next(self):
        """The next line without its newline, or None at the end of the file."""
        self.line_no += 1
        _, line = next(self._lines, (None, ""))
        if line and not line.endswith("\n"):
            raise self.error(f"truncated: line {self.line_no} has no newline")
        self._sha256.update(self._last)
        self._last = line.encode("utf-8")
        return line[:-1] if line else None

    def digest_before_last(self):
        """The sha256 hex digest of every line before the one last read."""
        return self._sha256.hexdigest()

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
    `magic`; when the body is done, no line may be left. A line that ends
    in "\r\n" keeps its "\r", so a file whose newlines were rewritten
    fails its checks."""
    with closing(read_lines(path)) as lines:
        reader = ArtifactReader(lines, path)
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


@contextmanager
def atomic_write(path, binary=False, newline=None):
    """Yield a file to write `path`'s new contents to. It is a temporary
    file in the same directory, moved onto `path` by os.replace when the
    block ends; if the block raises, it is removed and `path` keeps its old
    contents. Text files are UTF-8."""
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise

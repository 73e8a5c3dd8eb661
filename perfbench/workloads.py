"""Workload definitions and the seeded synthetic corpus generator.

The generator depends only on the standard library, so the parent process
never imports numpy or the package under test. The same (workload, seed)
pair always yields byte-identical corpus files.

Corpus shape, chosen so that the work per run does not depend on the seed:
every unit has exactly `unit_len` tokens after entity substitution and
every summary exactly SUMMARY_LEN, so the encoder input of K units has a
fixed length. Content words come from a Zipfian distribution over a fixed
synthetic vocabulary (CVCVCV strings that no English stopword matches),
mixed with a bundled list of common stopwords. Each summary fills a fixed
stopword skeleton with "key" content words; `pos_units` units per cluster
contain some key words (gold label > 0) and the rest never do (label 0).
About a third of the clusters carry a two-word entity, mentioned in the
summary and in the positive units.
"""

import bisect
import itertools
import json
import os
import random
from dataclasses import dataclass, replace

# All of these are in the package's bundled stopword list, so they never
# count as content words for gold labels or relevance.
STOPWORDS = (
    "the", "a", "and", "of", "to", "is", "it", "this", "that", "was", "for",
    "with", "but", "very", "on", "as", "at", "by", "an", "be", "are", "from",
    "or", "so", "too", "more", "most", "all", "its", "in",
)

SUMMARY_LEN = 13

# Summary skeletons of SUMMARY_LEN tokens; K marks a key-word slot (six each).
SKELETONS = (
    "the K K is very K and the K of K is K",
    "this K was K but the K is very K and K K",
    "a K K with K and K that is too K and K",
    "the K is K and the K K are more K and K",
)

KEY_POOL = 60

# Adagrad rate for every workload, below the CLI default of 0.1: after the
# few updates a run can afford, a model trained at 0.1 is chaotic, so the
# length of its greedy and beam outputs (hence decode work) and its NLL
# change from seed to seed. At 0.01 the decoders run to max_len with the
# beam at full width on every seed. Per-example arithmetic is the same.
ETA = 0.01

_CONSONANTS = "bdgkmptvz"
_VOWELS = "aeiou"
_SYLLABLES = tuple(c + v for c in _CONSONANTS for v in _VOWELS)


def content_word(rank):
    """The content word at a Zipf rank: three fixed syllables, lowercase."""
    n = len(_SYLLABLES)
    return _SYLLABLES[rank // (n * n) % n] + _SYLLABLES[rank // n % n] + _SYLLABLES[rank % n]


@dataclass(frozen=True)
class Workload:
    """Corpus sizes and CLI settings of one benchmark workload."""

    name: str
    why: str
    train: int
    dev: int
    test: int
    units: int              # M, units per cluster
    pos_units: int          # units per cluster that share key words
    unit_len: int
    key_tokens: int         # key-word tokens in each positive unit
    vocab: int              # size of the Zipfian content vocabulary
    zipf: float             # Zipf exponent
    stop_share: float       # share of unit tokens that are stopwords
    d_emb: int = 300
    d_h: int = 150
    d_a: int = 100
    epochs: int = 1
    beam_width: int = 1
    max_len: int = 20
    K: int = 5


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="decode-beam",
            why="paper-size model trained for one epoch, then decoded by a width-20 beam over "
            "15 steps: beam_search and decode_step take the most time; training measures the "
            "recurrent core",
            train=5, dev=2, test=5, units=10, pos_units=4, unit_len=24, key_tokens=8,
            vocab=5000, zipf=0.6, stop_share=0.3,
            epochs=1, beam_width=20, max_len=15,
        ),
        Workload(
            name="salience-wide",
            why="M=100 units per cluster and a tiny model: time and peak RSS go to "
            "cluster_features and the preference design of the salience fit",
            train=6, dev=4, test=5, units=100, pos_units=25, unit_len=12, key_tokens=6,
            vocab=5000, zipf=1.0, stop_share=0.4,
            d_emb=32, d_h=32, d_a=16, epochs=1, beam_width=1, max_len=5,
        ),
    )
}


def smoke(workload):
    """A tiny variant of a workload that runs in about a second."""
    return replace(
        workload, train=3, dev=2, test=2, units=min(workload.units, 6), pos_units=2,
        unit_len=8, key_tokens=3, vocab=200, d_emb=8, d_h=6, d_a=5, epochs=1,
        beam_width=min(workload.beam_width, 3), max_len=6, K=2,
    )


class _Zipf:
    """Seeded draws from a Zipf(s) distribution over content ranks."""

    def __init__(self, size, s):
        self.cum = list(itertools.accumulate(1.0 / (r + 1) ** s for r in range(size)))

    def draw(self, rng):
        return bisect.bisect_left(self.cum, rng.random() * self.cum[-1])


def _entity(rng, vocab):
    # Ranks past the content vocabulary, so entity words never collide.
    first, second = (content_word(vocab + rng.randrange(vocab)) for _ in range(2))
    return f"{first.capitalize()} {second.capitalize()}"


def _key_pool(vocab):
    # Summary key words come from a small pool spread over the rarer nine
    # tenths of the vocabulary. The pool is shared by all clusters, as
    # opinion words are, so a unigram feature learnt on training clusters
    # carries over to test clusters; background words never use it.
    step = vocab * 9 // 10 // KEY_POOL
    return list(range(vocab // 10, vocab, step))[:KEY_POOL]


def _cluster(rng, zipf, wl, index, cid):
    entity = _entity(rng, wl.vocab) if rng.random() < 1 / 3 else None
    pool = _key_pool(wl.vocab)
    keys = [content_word(r) for r in rng.sample(pool, 6)]
    pool_words = {content_word(r) for r in pool}

    def background():
        while True:
            w = content_word(zipf.draw(rng))
            if w not in pool_words:
                return w

    slots = iter(keys)
    skeleton = SKELETONS[index % len(SKELETONS)]
    summary = [next(slots) if t == "K" else t for t in skeleton.split()]
    if entity:
        summary[summary.index(keys[0])] = entity
    positive = set(rng.sample(range(wl.units), wl.pos_units))
    units = []
    for k in range(wl.units):
        words = [
            rng.choice(STOPWORDS) if rng.random() < wl.stop_share else background()
            for _ in range(wl.unit_len)
        ]
        if k in positive:
            spots = rng.sample(range(wl.unit_len), wl.key_tokens)
            for spot, key in zip(spots, itertools.cycle(rng.sample(keys, 4))):
                words[spot] = key
            if entity:
                words[spots[0]] = entity
        units.append({"text": " ".join(words)})
    return {"id": cid, "entity": entity, "summary": " ".join(summary), "units": units}


def generate(wl, seed, out_dir):
    """Write train/dev/test JSONL files for a workload; returns their paths."""
    rng = random.Random(f"{wl.name}|{seed}")
    zipf = _Zipf(wl.vocab, wl.zipf)
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for split in ("train", "dev", "test"):
        path = os.path.join(out_dir, f"{split}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(getattr(wl, split)):
                record = _cluster(rng, zipf, wl, i, f"{split}{i:03d}")
                fh.write(json.dumps(record) + "\n")
        paths[split] = path
    return paths

"""Train the full attention encoder-decoder on a desk-sized corpus.

Five synthetic clusters, four reviews each. The model samples two units
per visit, trains with per-example Adagrad on exact BPTT gradients, and
early-stops on greedy dev BLEU, saving each epoch that improves it to a
temporary model.txt. Decoding then runs the whole pipeline:
top-K selection, beam search, cosine re-ranking, entity restoration.
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from opinesum import beamdecode
from opinesum.attnseq2seq import load_model
from opinesum.textcorpus import (
    Cluster,
    TfidfStats,
    build_vocab,
    default_stopwords,
    detokenize,
    text_unit,
)
from opinesum.trainer import TrainConfig, train

FILLERS = ["film", "great", "fun", "drama", "story", "cast", "plot", "tone", "pace", "style"]
TOPICS = [
    ["mars", "astronaut", "rescue", "potato", "space", "crew"],
    ["ring", "quest", "wizard", "volcano", "hobbit", "sword"],
    ["shark", "beach", "panic", "summer", "water", "boat"],
    ["robot", "future", "machine", "steel", "circuit", "spark"],
    ["dance", "music", "stage", "rhythm", "glitter", "crowd"],
]

clusters = []
for i, words in enumerate(TOPICS):
    units = []
    for k in range(4):
        rotated = words[k:] + words[:k]
        units.append(text_unit(" ".join(rotated + [FILLERS[(2 * k + i) % 10], FILLERS[(2 * k + i + 1) % 10]])))
    clusters.append(Cluster(id=f"c{i}", units=tuple(units), summary=text_unit(" ".join(words))))

vocab = build_vocab(clusters)
print(f"corpus: {len(clusters)} clusters, vocabulary of {len(vocab)} entries")

config = TrainConfig(
    d_emb=32, d_h=32, d_a=16, K=2, mode="importance",
    eta=0.25, max_epochs=500, patience=60, seed=0, max_len=12,
)
scores = [np.ones(len(c.units)) for c in clusters]
# no cluster names an entity, so the corpus is its own substituted form
tfidf = TfidfStats(clusters)

start = time.perf_counter()
model_path = Path(tempfile.mkdtemp(prefix="opinesum_demo_")) / "model.txt"
history = train(clusters, scores, clusters, scores, config, tfidf, None, None, model_path)
model = load_model(model_path)
print(f"trained {len(history)} epochs in {time.perf_counter()-start:.1f}s")
for epoch, nll, dev_bleu in history[:3] + history[-3:]:
    print(f"   epoch {epoch:>3}  nll/example {nll:7.3f}  dev BLEU {dev_bleu:.3f}")
print(f"best dev BLEU: {max(h[2] for h in history):.3f}")

print("\ndecoding (beam width 5 + cosine re-rank):")
stopwords = default_stopwords()
records = list(beamdecode.decode_split(
    model, clusters, scores, 2, 5, config.max_len, tfidf, stopwords
))
for c, record in zip(clusters, records):
    text = record["summary"]
    gold = detokenize(c.summary.norms())
    mark = "=" if text == gold else "!"
    print(f"   {c.id} [{mark}] {text!r}")

print("\nn-best detail for the first cluster:")
for item in records[0]["nbest"][:5]:
    print(f"   logp {item['logp']:8.3f}  cosine {item['cosine']:.3f}  {item['text']!r}")

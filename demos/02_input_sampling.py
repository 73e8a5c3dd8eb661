"""How the encoder input is assembled from a cluster.

At training time, K units are drawn from a multinomial built by
normalizing the importance scores (sequentially, without replacement);
at test time the top-K units are taken deterministically. Either way the
chosen units are joined with the SEG delimiter in descending-score order.
"""

import itertools

import numpy as np

from opinesum.numkit import SeededRng
from opinesum.sampler import (
    sample_training_input,
    select_test_input,
    uniform_training_input,
)
from opinesum.textcorpus import Cluster, TfidfStats, build_vocab, detokenize, text_unit

cluster = Cluster(
    id="demo",
    units=tuple(
        text_unit(t)
        for t in (
            "a smart thrilling epic",
            "dull in the middle",
            "gorgeous to look at",
            "forgettable side plot",
        )
    ),
    summary=text_unit("smart and gorgeous"),
)
vocab = build_vocab([cluster])
tfidf = TfidfStats([cluster])
scores = np.array([4.0, 2.0, 1.0, 1.0])

print("cluster units and importance scores:")
for k, unit in enumerate(cluster.units):
    text = detokenize([t.surface for t in unit.tokens])
    print(f"   [{k}] score {scores[k]:.0f}  {text!r}")

z = select_test_input(cluster, scores, K=2, vocab=vocab, tfidf=tfidf)
print("\ntest-time top-2 input (descending score, SEG-joined):")
print("   " + " ".join(vocab.word_of(i) for i in z.indices))

print("\nthree training draws (importance-based, without replacement):")
for seed in range(3):
    z = sample_training_input(cluster, scores, 2, SeededRng(seed), vocab, tfidf)
    print(f"   seed {seed}: units {z.source_units}")

# empirical inclusion frequencies against the exact enumeration
n = 20000
counts = np.zeros(4)
for seed in range(n):
    z = sample_training_input(cluster, scores, 2, SeededRng(seed), vocab, tfidf)
    for k in z.source_units:
        counts[k] += 1
probs = scores / scores.sum()
exact = np.zeros(4)
for a, b in itertools.permutations(range(4), 2):
    p = probs[a] * probs[b] / (1 - probs[a])
    exact[a] += p
    exact[b] += p
print(f"\ninclusion frequency over {n} seeded draws (K=2) vs exact enumeration:")
for k in range(4):
    print(f"   unit {k}: empirical {counts[k]/n:.3f}   exact {exact[k]:.3f}")

hits = sum(
    uniform_training_input(cluster, 1, SeededRng(s), vocab, tfidf).source_units == (0,)
    for s in range(10000)
)
print(f"\nuniform ablation sanity: unit 0 drawn {hits/10000:.3f} of the time (expect 0.25)")

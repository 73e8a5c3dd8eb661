"""Rank review snippets by summary-worthiness.

Builds a small synthetic corpus of movie-review clusters, derives gold
importance labels from content-word overlap with each gold one-liner,
fits the pairwise-preference-regularized ridge regression in closed form,
and compares the learned ranking against length and centroid baselines.
"""

import numpy as np

from opinesum.evalmetrics import mean_ndcg_at, mrr
from opinesum.salience import (
    LexiconSet,
    baseline_rank,
    build_design,
    build_registry,
    cluster_features,
    fit_closed_form,
    gold_scores,
    rank_descending,
    relevant_units,
    score_units,
)
from opinesum.textcorpus import Cluster, TfidfStats, default_stopwords, text_unit

rng = np.random.default_rng(7)

PRAISE = ["gripping", "moving", "sharp", "hilarious", "stunning", "tender"]
PADDING = [f"aside{i}" for i in range(24)]


def make_cluster(cid):
    keywords = [f"key_{cid}_{j}" for j in range(3)]
    texts = []
    # two short, opinion-dense reviews that echo the consensus
    for r in range(2):
        words = [keywords[r]] + list(rng.choice(PRAISE, size=2, replace=False))
        words += list(rng.choice(PADDING, size=1))
        rng.shuffle(words)
        texts.append(" ".join(words))
    # three rambling reviews that never touch the consensus
    for _ in range(3):
        texts.append(" ".join(rng.choice(PADDING, size=int(rng.integers(8, 12)))))
    order = rng.permutation(len(texts))
    summary = " ".join(keywords) + " overall"
    return Cluster(
        id=cid,
        units=tuple(text_unit(texts[i]) for i in order),
        summary=text_unit(summary),
    )


train_clusters = [make_cluster(f"train{i}") for i in range(10)]
eval_clusters = [make_cluster(f"eval{i}") for i in range(6)]

stopwords = default_stopwords()
lexicons = LexiconSet(sentiment={w: "positive" for w in PRAISE}, stopwords=stopwords)
registry = build_registry(train_clusters, lexicons, top_u=40)
print(f"feature registry: d = {registry.d} "
      f"({len(registry.top_unigrams)} unigram features)")

train_tfidf = TfidfStats(train_clusters)
features = [cluster_features(c, registry, train_tfidf) for c in train_clusters]
labels = [gold_scores(c, stopwords) for c in train_clusters]
n_pairs = sum(
    int((l > 0).sum() * (l == 0).sum()) for l in labels
)
print(f"training design: {sum(len(f) for f in features)} units, "
      f"{n_pairs} preference pairs")

model = fit_closed_form(
    build_design(features, labels).normal_equations, lam=0.5, beta=0.1, registry=registry
)
names = registry.names
top = np.argsort(-np.abs(model.w))[:5]
print("largest learned weights:")
for i in top:
    print(f"   {names[i]:<18} {model.w[i]:+.3f}")

print("\nheld-out ranking quality:")
eval_tfidf = TfidfStats(eval_clusters)
for system in ("salience", "length", "centroid"):
    rels = []
    for c in eval_clusters:
        if system == "salience":
            feats = cluster_features(c, registry, eval_tfidf)
            order = rank_descending(score_units(model, feats))
        else:
            order = baseline_rank(system, c, eval_tfidf)
        rels.append(relevant_units(c, stopwords)[order].astype(int).tolist())
    print(f"   {system:<9} MRR {mrr(rels):.3f}   "
          f"NDCG@3 {mean_ndcg_at(3, rels):.3f}   NDCG@5 {mean_ndcg_at(5, rels):.3f}")

print("\nthe learned ranker puts consensus-bearing snippets first; the")
print("baselines chase length or lexical centrality instead.")

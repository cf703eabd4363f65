"""
Training on graded labels and evaluating retrieval
==================================================

End to end on a synthetic benchmark world: generate places with
pose-correlated features, relabel the training poses with graded
similarities, compose band-balanced batches, train one descriptor model
with the binary loss and one with the graded loss, then compare their
recall. PCA whitening of the descriptors is applied last.
"""

import math

from gvpr import (
    DescriptorSet,
    FovParams,
    SynthConfig,
    TrainConfig,
    apply_whitening,
    compute_descriptors,
    fit_pca_whitening,
    generate_world,
    index_labels,
    init_model,
    nn_search,
    pairwise_similarity,
    recall_at_k,
    train,
)
from gvpr.sampler import BatchSampler, BatchStrategy

# A small world: 8 places, half for training, half split into map and query.
world = generate_world(SynthConfig(places=8, images_per_place=12, channels=16,
                                   locations=6, seed=1))
print(f"world: {len(world.train_poses)} train, {len(world.map_poses)} map, "
      f"{len(world.query_poses)} query images")

# Graded labels for every training pair.
fov = FovParams(theta=math.radians(90.0), r=50.0)
labels = pairwise_similarity(world.train_poses, fov, arc_segments=128)
index = index_labels(labels)
print(f"labels: {len(labels)} pairs, per band:", {band.name: n for band, n in index.band_sizes().items()})

# One balanced batch: half positives, a quarter soft negatives, a quarter hard.
sampler = BatchSampler(index, BatchStrategy.A, batch_size=16, seed=0)
batch = sampler.next_batch()
print("one strategy-A batch:", {b.name: n for b, n in batch.band_counts().items()})

# Train the same architecture twice, binary labels vs graded labels.
features = {fm.id: fm for fm in world.train_features}
gt = {qid: set(mids) for qid, mids in world.gt_positives.items()}

def evaluate(model, tag):
    q_ids, q_mat = compute_descriptors(model, world.query_features)
    m_ids, m_mat = compute_descriptors(model, world.map_features)
    queries = DescriptorSet(tuple(q_ids), q_mat, normalized=True)
    refs = DescriptorSet(tuple(m_ids), m_mat, normalized=True)
    rankings = nn_search(queries, refs, k=5)
    recall = recall_at_k(rankings, gt, [1, 5])
    print(f"{tag:22s} recall@1={recall[1]:6.2f}  recall@5={recall[5]:6.2f}")
    return queries, refs, rankings

for kind in ("cl", "gcl"):
    model = init_model(d_out=16, channels=16, seed=0)
    cfg = TrainConfig(loss_kind=kind, epochs=2, batch_size=16, seed=0)
    trained, trace = train(model, labels, features, cfg)
    tag = "binary loss" if kind == "cl" else "graded loss"
    queries, refs, _ = evaluate(trained, f"{tag} ({len(trace)} steps)")

# Whitening decorrelates descriptor components; the transform is fit on the
# map side only and then applied to both sides.
transform = fit_pca_whitening(refs, d_pca=8)
white_q = apply_whitening(transform, queries)
white_m = apply_whitening(transform, refs)
rankings = nn_search(white_q, white_m, k=5)
recall = recall_at_k(rankings, gt, [1, 5])
print(f"{'graded + whitening':22s} recall@1={recall[1]:6.2f}  recall@5={recall[5]:6.2f}")

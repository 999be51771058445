"""The part of wsvad that the benchmark in ``perfbench/`` drives.

The benchmark wraps wsvad's module-level names from outside in a traced run
and builds every run from ``RunConfig``. A deletion or rename of any of
those names fails here rather than in a benchmark run.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from wsvad import data, evaluation, model, training
from wsvad.model import count_parameters

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads

        yield workloads
    finally:
        sys.path.remove(str(PERFBENCH))


def test_traced_run_wraps_and_restores_every_layer(workloads):
    sites = [(owner, attr) for _, owner, attr, _ in workloads._SPAN_SITES]
    sites += [(data, "load_features"), (training, "backward"), (model.AnomalyScorer, "score_bag")]
    originals = [getattr(owner, attr) for owner, attr in sites]
    tracer = workloads.Tracer()
    try:
        workloads.install_layer_spans(tracer)
        for (owner, attr), original in zip(sites, originals):
            assert getattr(owner, attr) is not original, f"{attr} was not wrapped"
    finally:
        tracer.uninstall()
    for (owner, attr), original in zip(sites, originals):
        assert getattr(owner, attr) is original, f"{attr} was not restored"


def test_run_config_surface(workloads):
    for w in workloads.WORKLOADS.values():
        cfg = workloads.RunConfig(feature_dim=w.feature_dim, epochs=w.epochs, eval_every=1, seed=1)
        scorer = cfg.build_model()
        assert scorer.params.count_entries() == count_parameters(cfg.mta_config(), cfg.hfc_config())
        assert cfg.train_config().epochs == w.epochs
        assert cfg.selection_config().adaptive and cfg.loss_config().use_antagonistic
    assert workloads.RunConfig(feature_dim=2048).build_model().params.count_entries() == 139_595
    assert workloads.RunConfig().batch_pairs >= 1


def test_graph_node_count_walks_a_training_step(workloads):
    cfg = workloads.RunConfig(feature_dim=8, seed=1)
    scorer = cfg.build_model()
    rng = np.random.default_rng(0)
    pos = [data.ClipFeatureBag(rng.standard_normal((6, 8)), 1, f"a{i}", 6) for i in range(2)]
    neg = [data.ClipFeatureBag(rng.standard_normal((6, 8)), 0, f"n{i}", 6) for i in range(2)]
    breakdown, _ = training.batch_step(pos, neg, scorer, cfg.selection_config(), cfg.loss_config(),
                                       np.random.default_rng(1))
    # the loss, the scores, the gate
    assert workloads.count_graph_nodes(breakdown.node) == 3


def test_traced_evaluation_records_the_layers_it_divides_by(workloads):
    # the benchmark's per-layer report divides by the calls of these spans:
    # one auc per evaluation and one score_bag per chunk; 20 bags of 32 clips
    # are ceil(20 / 8) = 3 chunks of at most EVAL_CHUNK_ROWS = 256 clips
    assert evaluation.EVAL_CHUNK_ROWS == 256
    scorer = workloads.RunConfig(feature_dim=8, seed=1).build_model()
    rng = np.random.default_rng(0)
    bags = [data.ClipFeatureBag(rng.standard_normal((32, 8)), i % 2, f"v{i}", 64,
                                frame_labels=np.full(64, i % 2)) for i in range(20)]
    tracer = workloads.Tracer()
    try:
        workloads.install_layer_spans(tracer)
        evaluation.evaluate_bags(bags, scorer)
    finally:
        tracer.uninstall()
    stats = tracer.layer_stats()
    assert stats["evaluation.evaluate_bags"].calls == 1
    assert stats["evaluation.auc"].calls == 1
    assert stats["model.score_bag.infer"].calls == 3


def test_traced_evaluation_sorts_one_score_per_clip(workloads):
    # evaluate_bags computes its area in auc's clip form: one score per clip,
    # weighted by the clip's frames, so the one sort is over clips, not frames
    scorer = workloads.RunConfig(feature_dim=8, seed=1).build_model()
    rng = np.random.default_rng(0)
    bags = [data.ClipFeatureBag(rng.standard_normal((32, 8)), i % 2, f"v{i}", 64 + i,
                                frame_labels=np.arange(64 + i) % 2 * (i % 2)) for i in range(20)]
    calls = []
    tracer = workloads.Tracer()
    try:
        workloads.install_layer_spans(tracer)
        tracer.wrap(evaluation, "auc", None, before=lambda args, kwargs: calls.append((args, kwargs)))
        result = evaluation.evaluate_bags(bags, scorer)
    finally:
        tracer.uninstall()
    assert tracer.layer_stats()["evaluation.auc"].calls == len(calls) == 1
    (scores, anomalous, frames), kwargs = calls[0]
    assert not kwargs
    assert len(scores) == len(anomalous) == len(frames) == 20 * 32
    assert frames.sum() == sum(b.num_frames for b in bags) == sum(len(r.frame_scores) for r in result.records)
    assert anomalous.sum() == sum(int(b.frame_labels.sum()) for b in bags)


def test_traced_request_goes_through_every_wrapped_layer(workloads, tmp_path):
    # a score request, load_bag + score_video as the benchmark times it, must
    # call the names the tracer wraps: a path that went round one of them
    # would drop that layer from the trace
    scorer = workloads.RunConfig(feature_dim=8, seed=1).build_model()
    assert scorer.use_mta
    path = data.save_features(tmp_path / "v.lwvf", np.random.default_rng(0).standard_normal((12, 8)))
    tracer = workloads.Tracer()
    try:
        workloads.install_layer_spans(tracer)
        evaluation.score_video(data.load_bag(path, num_frames=40), scorer)
    finally:
        tracer.uninstall()
    stats = tracer.layer_stats()
    for name in ("data.load_bag", "evaluation.score_video", "model.score_bag.infer",
                 "model.mta_forward", "model.hfc_forward"):
        assert stats[name].calls == 1, name
    loaded = sum(v for (counter, _), v in tracer.counts.items() if counter == "data.bytes_loaded")
    assert loaded == path.stat().st_size

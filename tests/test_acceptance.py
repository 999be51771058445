"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion. The expensive artifacts (the default synthetic corpus, two
50-epoch training runs, the 16-cell ablation lattice) are built once at
module scope and shared across criteria.
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

from wsvad import checks
from wsvad.config import RunConfig
from wsvad.data import SyntheticSpec, load_bags, make_synthetic
from wsvad.evaluation import auc, evaluate_bags
from wsvad.model import AnomalyScorer, HfcConfig, MtaConfig, count_parameters
from wsvad.training import TrainConfig, fit

EPOCHS = 50
SEED = 7


def _default_model() -> AnomalyScorer:
    return AnomalyScorer(HfcConfig.for_feature_dim(64), MtaConfig(), seed=SEED)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Default synthetic spec: 200 train / 60 test videos, T=32, D=64,
    separation 4, seed 7."""
    root = tmp_path_factory.mktemp("acceptance_corpus")
    train_manifest, test_manifest = make_synthetic(SyntheticSpec(), root)
    return {
        "train": load_bags(train_manifest),
        "test": load_bags(test_manifest),
        "summary": json.loads((root / "summary.json").read_text()),
    }


@pytest.fixture(scope="module")
def untrained_auc(corpus):
    return evaluate_bags(corpus["test"], _default_model()).overall_auc


def _train_run(corpus, out_dir):
    model = _default_model()
    start = time.monotonic()
    result = fit(corpus["train"], corpus["test"], model,
                 TrainConfig(epochs=EPOCHS, seed=SEED), out_dir)
    return {"result": result, "elapsed": time.monotonic() - start}


@pytest.fixture(scope="module")
def run_a(corpus, tmp_path_factory):
    return _train_run(corpus, tmp_path_factory.mktemp("run_a"))


@pytest.fixture(scope="module")
def run_b(corpus, tmp_path_factory):
    return _train_run(corpus, tmp_path_factory.mktemp("run_b"))


@pytest.fixture(scope="module")
def ablation_lattice(corpus, tmp_path_factory):
    """All 16 component toggles, 20 epochs each on the shared corpus."""
    cfg = RunConfig(feature_dim=64, epochs=20, seed=SEED)
    return checks.ablation_lattice(cfg, corpus["train"], corpus["test"], tmp_path_factory.mktemp("lattice"))


def test_criterion_1_parameter_count(capsys):
    from wsvad.cli import main

    compact = count_parameters(MtaConfig(), HfcConfig.for_feature_dim(2048))
    wide = count_parameters(MtaConfig(), HfcConfig.for_feature_dim(2048, head_shape="conventional"))
    assert compact == 139_595
    assert compact / wide == pytest.approx(0.516, abs=1e-3)

    assert main(["params"]) == 0
    out = capsys.readouterr().out
    assert "139,595" in out and "~0.14M" in out and "match" in out


def test_criterion_2_gradient_correctness():
    # CPU time of this process: time the host gives to other work is not
    # the check's cost
    start = time.process_time()
    for mode in ("residual", "pure"):
        report = checks.full_graph_grad_check(t=8, d=16, mode=mode)
        assert report.max_rel_error < 1e-4, f"{mode}: {report.max_rel_error:.3e}"
    assert time.process_time() - start < 10.0


def test_criterion_3_auc_oracle_equivalence():
    rng = np.random.default_rng(99)
    start = time.monotonic()
    for _ in range(500):
        n = int(rng.integers(2, 1001))
        levels = int(rng.integers(1, 40))
        scores = rng.integers(0, levels + 1, size=n) / levels  # coarse grid -> ties
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        cmp = pos[:, None] - neg[None, :]
        mann_whitney = ((cmp > 0).sum() + 0.5 * (cmp == 0).sum()) / (len(pos) * len(neg))
        assert auc(scores, labels) == pytest.approx(mann_whitney, abs=1e-12)
    assert time.monotonic() - start < 10.0


def test_criterion_4_end_to_end_learning(run_a, untrained_auc):
    best = run_a["result"].best_auc
    assert best >= 0.95, f"best AUC {best:.4f}"
    assert best - untrained_auc >= 0.30, f"gap {best - untrained_auc:.4f} over untrained {untrained_auc:.4f}"
    assert run_a["elapsed"] < 300.0, f"training took {run_a['elapsed']:.1f}s"


def test_criterion_5_adaptive_selection_behavior(run_a, corpus):
    rows = run_a["result"].rows
    omega_first_10 = [r["omega"] for r in rows[:10]]
    trend, _ = spearmanr(np.arange(1, 11), omega_first_10)
    assert trend >= 0.6, f"omega Spearman trend {trend:.3f}"

    final_k = rows[-1]["k"]
    planted = corpus["summary"]["mean_train_anomaly_clips"]
    assert abs(final_k - planted) <= 2.0, f"final mean K {final_k:.2f} vs planted {planted:.2f}"


def test_criterion_6_antagonistic_loss_drops(run_a):
    rows = run_a["result"].rows
    first, at_20 = rows[0]["antagonistic"], rows[19]["antagonistic"]
    assert at_20 < 0.5 * first, f"epoch-20 mean {at_20:.4f} vs epoch-1 {first:.4f}"


def test_criterion_7_ablation_lattice(ablation_lattice):
    for key, result in ablation_lattice.items():
        for row in result.rows:
            values = [v for v in row.values() if isinstance(v, float)]
            assert np.isfinite(values).all(), f"non-finite log value in config {key}"
    full = ablation_lattice[(True, True, True, True)].best_auc
    baseline = ablation_lattice[(False, False, False, False)].best_auc
    assert full >= baseline - 0.02, f"full {full:.4f} vs top-1 MIL baseline {baseline:.4f}"


def test_criterion_8_bitwise_determinism(run_a, run_b):
    a, b = run_a["result"], run_b["result"]
    assert a.log_path.read_bytes() == b.log_path.read_bytes()
    assert a.final_checkpoint.read_bytes() == b.final_checkpoint.read_bytes()
    assert a.best_checkpoint.read_bytes() == b.best_checkpoint.read_bytes()


def test_criterion_9_property_suites_present():
    """The per-module property suites are the real enforcement (they run in
    the same pytest invocation); this guards that each invariant family keeps
    its randomized-property coverage."""
    here = Path(__file__).parent
    required = {
        "test_selection.py": ["bounded_in_unit_interval", "monotone_in_omega", "lower_index"],
        "test_losses.py": ["zero_iff_constant", "range_is_zero_to_four"],
        "test_model.py": ["permutation_equivariance"],
        "test_data.py": ["round_trip", "partition_covers_every_frame_exactly_once"],
        "test_evaluation.py": ["matches_brute_force_pair_count"],
        "test_autodiff.py": ["matches_finite_differences"],
    }
    for filename, needles in required.items():
        text = (here / filename).read_text()
        assert "@given" in text, f"{filename} lost its property tests"
        for needle in needles:
            assert re.search(needle, text), f"{filename} lost coverage for {needle}"

"""Harnesses that the test suite and the CLI share: the finite-difference
check of the full scoring-plus-loss graph and the component ablation."""

from __future__ import annotations

import itertools
from dataclasses import replace
from pathlib import Path

import numpy as np

from .autodiff import GradCheckReport, grad_check, record_kink_margins
from .config import RunConfig, write_run_config
from .data import ClipFeatureBag
from .losses import LossConfig
from .model import AnomalyScorer, HfcConfig, MtaConfig
from .selection import SelectionConfig
from .training import FitResult, batch_step, fit


def full_graph_grad_check(t: int = 8, d: int = 16, mode: str = "residual", seed: int = 3,
                          k_max: int = 5, eps: float = 1e-5, tol: float = 1e-4,
                          margin_min: float = 2e-4, max_attempts: int = 20,
                          use_mta: bool = True) -> GradCheckReport:
    """Finite-difference check of d(batch loss)/d(every parameter).

    Drives the training step itself (``training.batch_step``) on a batch of
    two bag pairs with random features and dropout off, on a float64 model:
    differences at eps=1e-5 need float64 resolution. The instance
    selection is computed once and then frozen (selection is a constant
    during differentiation, exactly as in a training step); its confidence
    threshold is set from the scores so that one pair keeps K >= 2 clips
    while the other keeps fewer, so the check covers top-K masks whose K
    differs between pairs. Analytic gradients are then compared against
    central differences.

    Central differences are only valid where the graph is smooth, so inputs
    are redrawn (seed, seed+1, ...) until every leaky ReLU argument and every
    max-reduction runner-up gap clears ``margin_min``. A +/-eps parameter
    perturbation moves any pre-activation by at most ~10*eps here, so the
    default floor of 20*eps keeps the differences on one side of every kink
    and argmax. The attention kernels are drawn away from their zero init
    for the same reason.
    """
    # pure mode multiplies features by s ~ lambda1 * sum(lrelu(conv)); small
    # kernels would shrink every head pre-activation toward its kink, so the
    # draw range is widened there until s sits near 1
    kernel_range = 0.5 if mode == "residual" else 15.0
    loss_cfg = LossConfig()
    for attempt in range(max_attempts):
        rng = np.random.default_rng(seed + attempt)
        mta_cfg = MtaConfig(k_max=k_max, mode=mode) if use_mta else None
        hfc_cfg = HfcConfig.for_feature_dim(d, dropout=0.0)
        model = AnomalyScorer(hfc_cfg, mta_cfg, seed=seed + attempt, dtype=np.float64)
        # four bags give the hidden layers thousands of pre-activations; at
        # the init scale the smallest of them would sit closer than
        # margin_min to the kink in most draws, so spread them out
        for i in (0, 1):
            model.params[f"head.{i}.weight"] *= 3.0
        if use_mta:
            for k in mta_cfg.kernel_sizes:
                model.params[f"mta.conv{k}.weight"][...] = rng.uniform(-kernel_range, kernel_range, size=k)
                model.params[f"mta.conv{k}.bias"][...] = rng.uniform(-kernel_range, kernel_range, size=1)

        def bag(label, i, shift):
            return ClipFeatureBag(rng.standard_normal((t, d)) + shift, label, f"{label}_{i}", t)

        pos = [bag(1, i, 0.5) for i in range(2)]
        neg = [bag(0, i, 0.0) for i in range(2)]

        # the confidence threshold that lets pair 0 count its 4 highest
        # positive scores (all of them in a shorter bag) as confident
        clean = model.score_bag(np.stack([pos[0].features, pos[1].features])).clean
        threshold = float(np.sort(clean[0])[-min(4, t)])
        sel_cfg = SelectionConfig(threshold=threshold)
        _, sel = batch_step(pos, neg, model, sel_cfg, loss_cfg, None)
        if sel.k.max() < 2 or sel.k.min() == sel.k.max():
            continue

        def build():
            return batch_step(pos, neg, model, sel_cfg, loss_cfg, None, sel=sel)[0].node

        with record_kink_margins() as margins:
            build()
        if margins and min(margins) < margin_min:
            continue
        return grad_check(build, model.params, eps=eps, tol=tol)

    raise RuntimeError(
        f"no kink-safe input found in {max_attempts} draws (margin_min={margin_min})"
    )


def ablation_lattice(cfg: RunConfig, train_bags, test_bags, out_dir) -> dict[tuple[bool, ...], FitResult]:
    """Train ``cfg`` with each on/off combination of the attention block, the
    hourglass head (off: the conventional one), adaptive selection and the
    antagonistic term, each cell in its own directory under ``out_dir``
    (``mta1_hg0_ais1_ant1`` ...) beside the ``config.txt`` that reruns it.
    Returns each cell's ``FitResult`` keyed by (use_mta, hourglass, use_ais,
    use_antagonistic), the full model first."""
    cells = {}
    for key in itertools.product((True, False), repeat=4):
        use_mta, hourglass, use_ais, use_antagonistic = key
        cell_dir = Path(out_dir) / "mta{:d}_hg{:d}_ais{:d}_ant{:d}".format(*key)
        cell = replace(cfg, use_mta=use_mta, head_shape="hourglass" if hourglass else "conventional",
                       use_ais=use_ais, use_antagonistic=use_antagonistic, out_dir=str(cell_dir))
        cell_dir.mkdir(parents=True, exist_ok=True)
        write_run_config(cell_dir / "config.txt", cell)
        cells[key] = fit(train_bags, test_bags, cell.build_model(), cell.train_config(), cell_dir,
                         sel_cfg=cell.selection_config(), loss_cfg=cell.loss_config())
    return cells

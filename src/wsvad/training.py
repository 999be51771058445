"""Paired-bag MIL training.

Each batch pairs ``batch_pairs`` anomalous bags with the same number of
normal bags (i-th with i-th after a seeded shuffle) and runs as one step:

- the batch's 2B bags are stacked into one (2, B, T, D) array of the
  parameters' dtype, class-major: the B anomalous bags, then their B
  normal partners; float32 bags into the default float32 parameters are
  copied, not widened;
- one forward over the stack computes the per-clip attention gate from the
  bags' cached clip means, and the head's first layer as gate * (X W0) + b0,
  with one product with W0 for the whole batch; its activation feeds both
  the dropout-free scores that instance selection reads and the training
  scores with dropout, whose masks each bag draws in pair order (pair by
  pair, anomalous bag first), so a bag's masks do not depend on the layout;
- selection (omega, K and the (2, B, T) mask of the top-K clips of each
  bag, where clip magnitude is |gate| times the cached clip norm) and the
  three loss terms read the (2, B, T) scores of the stack without splitting
  it, for all pairs at once, with K free to differ between pairs;
- one backward, then one Adam step with coupled L2 weight decay on the mean
  pair loss. The step is a chain of three hand-differentiated ops: the
  gate (``model.mta_forward``), the head (``model.hfc_forward``) and the
  objective (``losses.total_loss``). Each op's backward returns its own
  parameters' gradients by name, the backward collects them, and the Adam
  step updates the parameter arrays in place from them. The objective
  reads a normal bag only at its selected and peak clips, so every layer
  of the head's backward runs over only the rows with a nonzero score
  gradient: every anomalous row, read in place from the front of the
  stack, plus the few live rows of the normal bags (at most two per bag
  at K = 1), gathered.

The stack, the head's activations, dropout masks and weight gradients, and
Adam's temporaries live in one ``model.Workspace`` that ``TrainState`` holds
for the whole run. After the first batch, a step allocates only small
arrays: one value per clip (scores, gate, selection), bias and kernel
gradients, and the gathered live normal rows. Every result is
bit-identical to a step on fresh arrays.

Every bag of the train split must therefore have the same clip count. Runs
are bit-reproducible: the same seed yields identical logs and checkpoints,
and a run resumed from a saved state continues it exactly, so n epochs
and then m resumed ones give the bytes of n + m epochs in one run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import ConfigurationError, backward
from .evaluation import UndefinedMetricError, evaluate_bags
from .losses import LossConfig, total_loss
from .model import (
    STATE_MAGIC,
    AnomalyScorer,
    CheckpointError,
    ModelParameters,
    Workspace,
    load_checked,
    load_checkpoint,
    read_container,
    replacing,
    save_checkpoint,
    write_container,
)
from .selection import SelectionConfig, select

LOG_COLUMNS = ("epoch", "ais", "smooth", "antagonistic", "sparsity", "total", "auc", "omega", "k")
_LOG_HEADER = ",".join(LOG_COLUMNS) + "\n"
# the columns train_epoch averages over the pairs: LossBreakdown and SelectionResult fields
_MEAN_COLUMNS = tuple(c for c in LOG_COLUMNS if c not in ("epoch", "auc"))


class TrainingError(RuntimeError):
    """Training hit a non-recoverable numeric state."""


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.001
    weight_decay: float = 0.0005
    batch_pairs: int = 32
    epochs: int = 200
    seed: int = 7
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    eval_every: int = 1

    def __post_init__(self):
        if self.lr < 0 or self.weight_decay < 0:
            raise ConfigurationError("lr and weight_decay must be non-negative")
        if self.batch_pairs < 1 or self.epochs < 0 or self.eval_every < 1:
            raise ConfigurationError("batch_pairs and eval_every must be >= 1, epochs >= 0")
        if not (0 <= self.adam_beta1 < 1 and 0 <= self.adam_beta2 < 1 and self.adam_eps > 0):
            raise ConfigurationError("invalid Adam moment settings")


class TrainState:
    """Adam accumulators, in each parameter's dtype, plus run bookkeeping
    (steps, epochs, best AUC), the run's two generators (batch shuffling
    and dropout, spawned from ``seed``) and the workspace whose buffers
    every batch of the run reuses: the batch stack, the head's
    activations, dropout masks and gradients (``batch_step``) and Adam's
    temporaries (``adam_step``). All but the workspace is saved."""

    def __init__(self, params: ModelParameters, seed: int = 0):
        self.step = 0
        self.epoch = 0
        self.best_auc = -1.0
        self.m = {name: np.zeros_like(p) for name, p in params.items()}
        self.v = {name: np.zeros_like(p) for name, p in params.items()}
        self.shuffle_rng, self.dropout_rng = (np.random.default_rng(s)
                                              for s in np.random.SeedSequence(seed).spawn(2))
        self.workspace = Workspace()


def adam_step(params: ModelParameters, grads: dict[str, np.ndarray], state: TrainState,
              cfg: TrainConfig) -> None:
    """One Adam update of the ``params`` arrays, in place, from ``grads``
    (name -> gradient, as ``backward`` returns them).

    Weight decay enters as a coupled L2 term (g + wd * theta) before the
    moment updates; moments are bias-corrected by the shared step counter.
    Every update runs in place through two scratch arrays per parameter
    from the state's workspace, with the operands and the order of
    operations of ``theta -= lr * (m / bc1) / (sqrt(v / bc2) + eps)``.
    """
    state.step += 1
    bc1 = 1.0 - cfg.adam_beta1 ** state.step
    bc2 = 1.0 - cfg.adam_beta2 ** state.step
    for name, p in params.items():
        g = grad = grads[name]
        if not np.isfinite(grad).all():
            raise TrainingError(f"non-finite gradient for parameter {name!r} at step {state.step}")
        s1, s2 = (state.workspace.take(f"adam.{name}.{i}", p.shape, p.dtype) for i in (0, 1))
        if cfg.weight_decay:
            g = np.multiply(p, cfg.weight_decay, out=s1)
            g += grad
        m = state.m[name]
        v = state.v[name]
        m *= cfg.adam_beta1
        m += np.multiply(g, 1.0 - cfg.adam_beta1, out=s2)
        v *= cfg.adam_beta2
        gg = np.multiply(g, g, out=s2)
        gg *= 1.0 - cfg.adam_beta2
        v += gg
        update = np.divide(m, bc1, out=s1)
        update *= cfg.lr
        denom = np.sqrt(np.divide(v, bc2, out=s2), out=s2)
        denom += cfg.adam_eps
        update /= denom
        p -= update


def check_train_bags(bags, model: AnomalyScorer) -> None:
    """Training stacks bags into one array, so every bag must be one the
    model can score (``AnomalyScorer.check_bag``), with one shared clip
    count of at least 2. Names the first video that breaks this."""
    for bag in bags:
        model.check_bag(bag, "train")
        if bag.num_clips < 2:
            raise ConfigurationError(
                f"train video {bag.video_id!r} has {bag.num_clips} clips, training needs at least 2"
            )
        if bag.num_clips != bags[0].num_clips:
            raise ConfigurationError(
                f"train video {bag.video_id!r} has {bag.num_clips} clips but {bags[0].video_id!r} "
                f"has {bags[0].num_clips}; training needs one clip count for all bags"
            )


def batch_step(pos_bags, neg_bags, model: AnomalyScorer, sel_cfg: SelectionConfig,
               loss_cfg: LossConfig, dropout_rng, workspace: Workspace | None = None, sel=None):
    """Loss and selection for one batch of B bag pairs (i-th with i-th).

    ``workspace`` holds the (2, B, T, D) stack the bags are copied into,
    class-major (the anomalous bags, then the normal ones, so the rows
    that carry gradient into every anomalous clip lead the stack), and the
    head's buffers (see ``model.hfc_forward``), reused across batches;
    without it, both are fresh arrays. ``sel`` replaces the computed
    selection, as a gradient check needs. Returns (LossBreakdown over the
    pairs, SelectionResult).
    """
    bags = list(pos_bags) + list(neg_bags)
    b, t = len(pos_bags), bags[0].num_clips
    shape = (2, b, t, model.feature_dim)
    x = np.empty(shape, model.dtype) if workspace is None else workspace.take("stack", shape, model.dtype)
    rows = x.reshape(2 * b, t, model.feature_dim)
    for i, bag in enumerate(bags):
        rows[i] = bag.features  # float32 bags into float32 parameters: a plain copy
    out = model.score_bag(x, training=True, rng=dropout_rng,
                          means=np.array([bag.clip_means for bag in bags]).reshape(2, b, t),
                          workspace=workspace)
    if sel is None:
        # |a_t x_t| = |a_t| |x_t|: the gated features are never built
        magnitudes = np.abs(out.gate) * np.array([bag.clip_norms for bag in bags]).reshape(2, b, t)
        sel = select(out.clean, magnitudes, sel_cfg)
    return total_loss(out.scores, sel, loss_cfg), sel


def train_epoch(pos_bags, neg_bags, model: AnomalyScorer, state: TrainState, cfg: TrainConfig,
                sel_cfg: SelectionConfig, loss_cfg: LossConfig) -> dict[str, float]:
    """One pass over min(len(pos), len(neg)) // batch_pairs batches, shuffled
    and masked by ``state``'s generators; returns the per-pair means of the
    loss terms, omega and K by log column name."""
    if len(pos_bags) < cfg.batch_pairs or len(neg_bags) < cfg.batch_pairs:
        raise ConfigurationError(
            f"batch_pairs={cfg.batch_pairs} needs at least that many bags per class, "
            f"got {len(pos_bags)} anomalous / {len(neg_bags)} normal"
        )
    check_train_bags(list(pos_bags) + list(neg_bags), model)
    pos_order = state.shuffle_rng.permutation(len(pos_bags))
    neg_order = state.shuffle_rng.permutation(len(neg_bags))
    n_batches = min(len(pos_bags), len(neg_bags)) // cfg.batch_pairs

    sums = np.zeros(len(_MEAN_COLUMNS))
    for b in range(n_batches):
        batch = slice(b * cfg.batch_pairs, (b + 1) * cfg.batch_pairs)
        breakdown, sel = batch_step(
            [pos_bags[i] for i in pos_order[batch]],
            [neg_bags[i] for i in neg_order[batch]],
            model, sel_cfg, loss_cfg, state.dropout_rng, state.workspace,
        )
        grads = backward(breakdown.node)
        adam_step(model.params, grads, state, cfg)
        sums += [np.mean(getattr(breakdown if hasattr(breakdown, c) else sel, c)) for c in _MEAN_COLUMNS]
    # every batch holds batch_pairs pairs, so the mean of the batch means
    # is the mean over pairs
    return dict(zip(_MEAN_COLUMNS, sums / n_batches))


# ---------------------------------------------------------------------------
# full runs


@dataclass
class FitResult:
    log_path: Path
    best_checkpoint: Path
    final_checkpoint: Path
    state_path: Path
    best_auc: float
    rows: list[dict] = field(repr=False, default_factory=list)


def _moments(state: TrainState) -> dict[str, np.ndarray]:
    """Both Adam moments of every parameter, as a state file names them."""
    return {f"{prefix}.{name}": a for prefix, store in (("m", state.m), ("v", state.v))
            for name, a in store.items()}


def save_train_state(path, state: TrainState) -> Path:
    header = {"step": state.step, "epoch": state.epoch, "best_auc": state.best_auc,
              "shuffle_rng": state.shuffle_rng.bit_generator.state,
              "dropout_rng": state.dropout_rng.bit_generator.state}
    return write_container(path, STATE_MAGIC, header, _moments(state))


def load_train_state(path, params: ModelParameters) -> TrainState:
    config, arrays = read_container(path, STATE_MAGIC)
    state = TrainState(params)
    try:
        state.step = int(config["step"])
        state.epoch = int(config["epoch"])
        state.best_auc = float(config["best_auc"])
        state.shuffle_rng.bit_generator.state = config["shuffle_rng"]
        state.dropout_rng.bit_generator.state = config["dropout_rng"]
    except (KeyError, TypeError, ValueError) as err:
        raise CheckpointError(f"{path}: bad optimizer state header: {type(err).__name__}: {err}") from None
    load_checked(_moments(state), arrays, f"{path}: moment")
    return state


def _earlier_log(path: Path, epochs: int) -> str:
    """The header and rows of an earlier run's log, which must hold one row
    per epoch that run's state counts."""
    lines = path.read_text().splitlines(keepends=True)
    if not lines or lines[0] != _LOG_HEADER or len(lines) - 1 != epochs:
        raise CheckpointError(f"{path}: expected the header {_LOG_HEADER.strip()!r} and {epochs} rows, "
                              f"one per saved epoch")
    return "".join(lines)


def _format_row(row: dict) -> str:
    cells = []
    for col in LOG_COLUMNS:
        v = row[col]
        if v is None:
            cells.append("")
        elif col == "epoch":
            cells.append(str(v))
        else:
            cells.append(repr(float(v)))
    return ",".join(cells)


def fit(train_bags, test_bags, model: AnomalyScorer, cfg: TrainConfig, out_dir,
        sel_cfg: SelectionConfig = SelectionConfig(),
        loss_cfg: LossConfig = LossConfig(),
        resume_from=None,
        progress=None) -> FitResult:
    """Train for ``cfg.epochs`` epochs, evaluating every ``eval_every``-th
    epoch and the last; keeps the best-AUC and the final checkpoint plus a
    CSV log row per epoch. The result's ``rows`` are this call's epochs.

    ``resume_from`` points at a previous run's output directory, possibly
    ``out_dir`` itself. Its final checkpoint and saved state (Adam moments,
    step and epoch counters, best AUC and both generators' states) are
    loaded, so the run goes on where that one stopped, and ``cfg.seed`` is
    not read. Epochs are numbered on from the saved count, the log starts
    with the earlier run's rows, and that run's ``best.lwck`` is copied
    here first, so this run replaces it only with weights that score
    better.
    """
    check_train_bags(train_bags, model)
    if cfg.epochs >= 1 and not test_bags:
        # the last epoch always evaluates
        raise UndefinedMetricError("the test split holds no videos; every run of at least one epoch evaluates it")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "train_log.csv"
    best_path = out / "best.lwck"
    final_path = out / "final.lwck"
    state_path = out / "final_state.lwts"

    pos_bags = [b for b in train_bags if b.label == 1]
    neg_bags = [b for b in train_bags if b.label == 0]

    earlier_log = _LOG_HEADER
    if resume_from is None:
        state = TrainState(model.params, cfg.seed)
    else:
        prev = Path(resume_from)
        restored = load_checkpoint(prev / "final.lwck", expected_config=model.config_dict())
        model.params.load_arrays(restored.params)
        state = load_train_state(prev / "final_state.lwts", model.params)
        earlier_log = _earlier_log(prev / "train_log.csv", state.epoch)
        with replacing(best_path) as fh:
            fh.write((prev / "best.lwck").read_bytes())

    rows: list[dict] = []
    last = state.epoch + cfg.epochs
    with open(log_path, "w") as log:
        log.write(earlier_log)
        for epoch in range(state.epoch + 1, last + 1):
            means = train_epoch(pos_bags, neg_bags, model, state, cfg, sel_cfg, loss_cfg)
            state.epoch = epoch
            auc_value = None
            if epoch % cfg.eval_every == 0 or epoch == last:
                auc_value = evaluate_bags(test_bags, model).overall_auc
                if auc_value > state.best_auc:
                    state.best_auc = auc_value
                    save_checkpoint(best_path, model)
            values = {"epoch": epoch, "auc": auc_value, **means}
            row = {col: values[col] for col in LOG_COLUMNS}
            rows.append(row)
            log.write(_format_row(row) + "\n")
            log.flush()
            if progress is not None:
                progress(row)

    save_checkpoint(final_path, model)
    save_train_state(state_path, state)
    if state.best_auc < 0:
        # nothing was ever evaluated (epochs=0): the final weights double
        # as the best ones
        save_checkpoint(best_path, model)
    return FitResult(
        log_path=log_path,
        best_checkpoint=best_path,
        final_checkpoint=final_path,
        state_path=state_path,
        best_auc=state.best_auc,
        rows=rows,
    )

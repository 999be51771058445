"""The benchmark's workloads and the run that measures one of them.

A run sets up, then repeats rounds until --seconds are spent, all in one
process:

  setup  make_synthetic + load_bags (train and test) + build_model, repeated
         ``setups`` times; setup_s is their median.
  round  training.fit for ``epochs`` epochs with eval_every=1 on a fresh
         model; then evaluation.evaluate_bags over the whole test split with
         the model read back from best.lwck; then a closed loop with one
         client, each request load_bag + score_video on one test file, as
         ``wsvad score`` does. Eval and score run for their shares of the
         round, so every phase samples the whole run rather than one
         stretch of it, and slow spells on a shared machine hit all metrics
         alike. Every fit must reproduce the first one's train_log.csv and
         final.lwck bytes.

Every timed operation (set-up, fit, epoch, eval, request) is timed in CPU
seconds of this process (``time.process_time``), which leave out the time
the operating system or, in a virtual machine, the host gives to other
work, and between two host speed probes, which put it at a fixed reference
speed (see ``hostspeed``). Everything runs on one thread (the BLAS is
pinned to one), so the CPU time of an operation is the time it computes.
Deadlines and phase shares stay on the wall clock.

The package is driven only through its public functions. In a traced run
the layer functions are wrapped from outside (see ``install_layer_spans``).
"""

from __future__ import annotations

import hashlib
import itertools
import os
import resource
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

from wsvad import data, evaluation, model, training
from wsvad.config import RunConfig

import oracles
from hostspeed import HostSpeed
from spans import Tracer


@dataclass(frozen=True)
class Workload:
    name: str
    feature_dim: int
    separation: float
    n_test_per_class: int
    epochs: int
    setups: int
    min_fits: int
    min_requests: int
    min_evals: int
    # shares of each round given to the fit, eval and score phases
    fit_share: float
    eval_share: float
    score_share: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-d64",
            feature_dim=64, separation=0.5, n_test_per_class=30, epochs=10,
            setups=15, min_fits=2, min_requests=1000, min_evals=10,
            fit_share=0.6, eval_share=0.15, score_share=0.25,
        ),
        Workload(
            name="train-d2048",
            feature_dim=2048, separation=0.15, n_test_per_class=30, epochs=6,
            setups=5, min_fits=2, min_requests=1000, min_evals=10,
            fit_share=0.6, eval_share=0.15, score_share=0.25,
        ),
        Workload(
            name="score-d2048",
            feature_dim=2048, separation=0.15, n_test_per_class=200, epochs=6,
            setups=5, min_fits=1, min_requests=1000, min_evals=5,
            fit_share=0.4, eval_share=0.3, score_share=0.3,
        ),
    )
}

E2E_UNITS = {
    "setup_s": "s",
    "train_pairs_per_s": "1/s",
    "fit_s": "s",
    "auc": "fraction",
    "score_ms_p50": "ms",
    "score_ms_p95": "ms",
    "eval_clips_per_s": "1/s",
    "peak_rss_mb": "MB",
}

AUC_TOLERANCE = 1e-12
# requests are timed one by one, and probed around every batch that takes
# this many CPU seconds: far shorter than a stretch of one host speed
REQUEST_BATCH_S = 0.01

# layers wrapped in a traced run: metric prefix, where the wrapped name
# lives, the attribute, and whether it runs inside the training step (its
# per-call time is then averaged over the fit phase, and its calls are
# reported per trained epoch)
_SPAN_SITES = (
    ("data.make_synthetic", data, "make_synthetic", False),
    ("data.load_bags", data, "load_bags", False),
    ("data.load_bag", data, "load_bag", False),
    ("model.load_checkpoint", model, "load_checkpoint", False),
    ("model.save_checkpoint", model, "save_checkpoint", False),
    ("model.save_checkpoint", training, "save_checkpoint", False),
    ("model.mta_forward", model, "mta_forward", True),
    ("model.hfc_forward", model, "hfc_forward", True),
    ("selection.select", training, "select", True),
    ("losses.total_loss", training, "total_loss", True),
    ("training.adam_step", training, "adam_step", True),
    ("training.train_epoch", training, "train_epoch", True),
    ("evaluation.evaluate_bags", training, "evaluate_bags", False),
    ("evaluation.evaluate_bags", evaluation, "evaluate_bags", False),
    ("evaluation.auc", evaluation, "auc", False),
    ("evaluation.score_video", evaluation, "score_video", False),
)
_TRAINING_STEP_LAYERS = {
    "model.score_bag.train", "autodiff.backward",
    *(prefix for prefix, _, _, in_step in _SPAN_SITES if in_step),
}
_PER_EPOCH_CALL_LAYERS = sorted((_TRAINING_STEP_LAYERS - {"training.train_epoch"}) | {
    "model.score_bag.infer", "evaluation.evaluate_bags", "evaluation.auc", "evaluation.score_video",
})
_PER_CALL_TIME_LAYERS = sorted(_TRAINING_STEP_LAYERS | {
    "model.score_bag.infer", "evaluation.evaluate_bags", "evaluation.auc", "evaluation.score_video",
    "data.make_synthetic", "data.load_bags", "data.load_bag",
    "model.save_checkpoint", "model.load_checkpoint",
})


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_loaded") or name.endswith("checkpoint_bytes"):
        return "bytes"
    if name == "selection.omega_mean":
        return "fraction"
    return "count"


class Failures:
    """Operations and checks attempted, and what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.messages: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.messages)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.messages.append(what)


@dataclass
class Corpus:
    cfg: RunConfig
    train_bags: list
    test_bags: list
    test_manifest: Path
    scorer: model.AnomalyScorer


@dataclass
class FitRecord:
    # CPU seconds at the reference speed, probes left out
    seconds: float
    epoch_seconds: list[float]
    log_sha256: str
    final_sha256: str
    aucs: list[float]
    rows: list[dict] = field(repr=False)


def repeat(op, minimum: int, budget: float) -> None:
    """Call ``op`` at least ``minimum`` times and until ``budget`` seconds
    have passed, skipping a last call that would overrun by more than half."""
    deadline = perf_counter() + budget
    done, last = 0, 0.0
    while done < minimum or perf_counter() + last / 2 < deadline:
        start = perf_counter()
        op()
        last = perf_counter() - start
        done += 1


def chained(measure):
    """An op for ``repeat``: each call of ``measure(before) -> after`` takes
    the probe the previous call ended with as its ``before``."""
    last = None

    def op():
        nonlocal last
        last = measure(last)

    return op


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def count_graph_nodes(loss) -> int:
    """Distinct tensors reachable from ``loss``, parameters included."""
    seen: set[int] = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the names wsvad's modules call into each other through."""
    def checkpoint_written(path):
        tracer.count("model.checkpoint_bytes", os.path.getsize(path))

    for prefix, owner, attr, _ in _SPAN_SITES:
        after = checkpoint_written if attr == "save_checkpoint" else None
        tracer.wrap(owner, attr, prefix, after=after)

    def bytes_read(args, kwargs):
        tracer.count("data.bytes_loaded", os.path.getsize(args[0]))

    tracer.wrap(data, "load_features", None, before=bytes_read)

    def walk_graph(args, kwargs):
        start = tracer.clock()
        nodes = count_graph_nodes(args[0])
        tracer.record("trace.graph_walk", start, tracer.clock())
        tracer.count("autodiff.graph_nodes", nodes)

    tracer.wrap(training, "backward", "autodiff.backward", before=walk_graph)

    def score_bag_mode(args, kwargs):
        is_training = kwargs.get("training", args[2] if len(args) > 2 else False)
        return "model.score_bag.train" if is_training else "model.score_bag.infer"

    tracer.wrap(model.AnomalyScorer, "score_bag", score_bag_mode)


class Run:
    """One workload, one seed, one process."""

    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool, work_dir: Path):
        self.w = workload
        self.seed = seed
        self.seconds = float(seconds)
        self.work = work_dir
        self.failures = Failures()
        self.setup_seconds: list[float] = []
        self.fits: list[FitRecord] = []
        self.untraced_fit: FitRecord | None = None
        self.eval_clips_per_s: list[float] = []
        self.request_seconds: list[float] = []
        self.speed = HostSpeed(workload.feature_dim, work_dir)
        self.tracer = Tracer() if trace else None
        # train_epoch CPU times, recorded in every run between two probes
        self.epoch_clock = Tracer()
        self.epoch_seconds: list[float] = []
        self._epoch_probe = 0.0

    # -- instrumentation ---------------------------------------------------

    def _probe_before_epoch(self, args, kwargs) -> None:
        self._epoch_probe = self.speed.probe()

    def _probe_after_epoch(self, result) -> None:
        _, start, end, _, _ = self.epoch_clock.spans[-1]
        self.epoch_seconds.append(self.speed.at_reference(end - start, self._epoch_probe, self.speed.probe()))

    def instrument(self, traced: bool) -> None:
        if traced:
            install_layer_spans(self.tracer)
        # outermost, so that the probes fall outside every layer's span
        self.epoch_clock.wrap(training, "train_epoch", "training.train_epoch",
                              before=self._probe_before_epoch, after=self._probe_after_epoch)

    def uninstrument(self) -> None:
        self.epoch_clock.uninstall()
        if self.tracer is not None:
            self.tracer.uninstall()

    # -- phases ------------------------------------------------------------

    def set_up(self) -> Corpus:
        w = self.w
        spec = data.SyntheticSpec(
            n_test_normal=w.n_test_per_class,
            n_test_abnormal=w.n_test_per_class,
            feature_dim=w.feature_dim,
            separation=w.separation,
            seed=self.seed,
        )
        cfg = RunConfig(feature_dim=w.feature_dim, epochs=w.epochs, eval_every=1, seed=self.seed)
        # every set-up writes into an empty directory, as the first one does
        shutil.rmtree(self.work / "data", ignore_errors=True)
        before = self.speed.probe_setup()
        start = process_time()
        train_manifest, test_manifest = data.make_synthetic(spec, self.work / "data")
        train_bags = data.load_bags(train_manifest)
        test_bags = data.load_bags(test_manifest)
        scorer = cfg.build_model()
        seconds = process_time() - start
        after = self.speed.probe_setup()
        self.setup_seconds.append(self.speed.setup_at_reference(seconds, before, after))
        return Corpus(cfg, train_bags, test_bags, test_manifest, scorer)

    def fit_once(self, corpus: Corpus, scorer) -> FitRecord:
        cfg = corpus.cfg
        out = self.work / "fit"
        before = self.speed.probe()
        first_epoch = len(self.epoch_seconds)
        probes, spent = len(self.speed.unit_seconds), self.speed.spent
        start = process_time()
        result = training.fit(corpus.train_bags, corpus.test_bags, scorer, cfg.train_config(), out,
                              cfg.selection_config(), cfg.loss_config())
        # the probes around each epoch ran inside fit; their time is not the fit's
        seconds = process_time() - start - (self.speed.spent - spent)
        during = self.speed.unit_seconds[probes:]
        after = self.speed.probe()
        for row in result.rows:
            values = [v for k, v in row.items() if k != "epoch"]
            self.failures.check(
                len(values) == 8 and all(v is not None and np.isfinite(v) for v in values)
                and 0.0 <= row["auc"] <= 1.0,
                f"epoch {row['epoch']}: non-finite or out-of-range log row {row}",
            )
        return FitRecord(
            seconds=self.speed.at_reference(seconds, before, *during, after),
            epoch_seconds=self.epoch_seconds[first_epoch:],
            log_sha256=sha256_file(result.log_path),
            final_sha256=sha256_file(result.final_checkpoint),
            aucs=[row["auc"] for row in result.rows],
            rows=result.rows,
        )

    def check_same_fit(self, fit: FitRecord, reference: FitRecord, what: str) -> None:
        self.failures.check(
            (fit.log_sha256, fit.final_sha256, fit.aucs)
            == (reference.log_sha256, reference.final_sha256, reference.aucs),
            f"determinism: {what} differs from the reference fit "
            f"(train_log.csv {fit.log_sha256[:12]} vs {reference.log_sha256[:12]}, "
            f"final.lwck {fit.final_sha256[:12]} vs {reference.final_sha256[:12]})",
        )

    def read_back_best(self, corpus: Corpus):
        """best.lwck must load with the expected config and save back to
        the same bytes; the loaded model must have the paper's size."""
        best = self.work / "fit" / "best.lwck"
        loaded = model.load_checkpoint(best, expected_config=corpus.scorer.config_dict())
        copy = model.save_checkpoint(self.work / "best_copy.lwck", loaded)
        self.failures.check(copy.read_bytes() == best.read_bytes(),
                            "best.lwck does not save back to identical bytes after load_checkpoint")
        n = loaded.params.count_entries()
        expected = oracles.expected_parameter_count(self.w.feature_dim)
        self.failures.check(n == expected, f"parameter count {n}, expected {expected}")
        if self.w.feature_dim == oracles.PAPER_FEATURE_DIM:
            self.failures.check(n == oracles.PAPER_PARAMETER_COUNT,
                                f"parameter count {n} at D=2048, the paper's is {oracles.PAPER_PARAMETER_COUNT}")
        return loaded

    def evaluate_once(self, corpus: Corpus, scorer, before: float | None = None):
        """One timed, checked evaluate_bags; returns the frame scores by
        video and the probe taken after it."""
        clips = sum(b.num_clips for b in corpus.test_bags)
        if before is None:
            before = self.speed.probe()
        start = process_time()
        result = evaluation.evaluate_bags(corpus.test_bags, scorer)
        seconds = process_time() - start
        after = self.speed.probe()
        self.eval_clips_per_s.append(clips / self.speed.at_reference(seconds, before, after))
        scores = np.concatenate([r.frame_scores for r in result.records])
        labels = np.concatenate([r.frame_labels for r in result.records])
        reference = oracles.rank_sum_auc(scores, labels)
        problems = [
            f"{bag.video_id}: {p}"
            for bag, r in zip(corpus.test_bags, result.records)
            if (p := oracles.frame_score_problem(r.frame_scores, bag.num_frames)) is not None
        ]
        self.failures.check(
            abs(result.overall_auc - reference) <= AUC_TOLERANCE and not problems,
            f"evaluate_bags: auc {result.overall_auc!r} vs rank-sum {reference!r}; {problems[:3]}",
        )
        return {r.video_id: r.frame_scores for r in result.records}, after

    def score_batch(self, scorer, entries, expected: dict[str, np.ndarray], before: float | None = None) -> float:
        """Timed, checked requests for REQUEST_BATCH_S of CPU time, each on
        the next entry; returns the probe taken after them."""
        if before is None:
            before = self.speed.probe()
        served = []
        batch_end = process_time() + REQUEST_BATCH_S
        start = process_time()
        while start < batch_end:
            entry = next(entries)
            bag = data.load_bag(entry.feature_path, num_frames=entry.num_frames)
            frame_scores = evaluation.score_video(bag, scorer)
            end = process_time()
            served.append((entry, bag.video_id, frame_scores, end - start))
            start = end
        after = self.speed.probe()
        for entry, video_id, frame_scores, seconds in served:
            self.request_seconds.append(self.speed.at_reference(seconds, before, after))
            problem = oracles.frame_score_problem(frame_scores, entry.num_frames)
            if problem is None and not np.array_equal(frame_scores, expected[video_id]):
                problem = "differs from evaluate_bags' scores for the same video"
            self.failures.check(problem is None, f"request {len(self.request_seconds)} ({video_id}): {problem}")
        return after

    # -- the run -----------------------------------------------------------

    def _phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    def fit_and_compare(self, corpus: Corpus, scorer) -> None:
        fit = self.fit_once(corpus, scorer)
        reference = self.untraced_fit or (self.fits[0] if self.fits else None)
        if reference is not None:
            self.check_same_fit(fit, reference, f"fit {len(self.fits) + 1}")
        self.fits.append(fit)

    def execute(self) -> None:
        w = self.w
        self.instrument(self.tracer is not None)
        try:
            corpus = None
            for _ in range(w.setups):
                corpus = None  # let the previous corpus go before building the next
                corpus = self.set_up()

            if self.tracer is not None:
                # one untraced fit: the reference the traced fits must match,
                # and the baseline for the tracing overhead
                self.uninstrument()
                self.instrument(False)
                self.untraced_fit = self.fit_once(corpus, corpus.cfg.build_model())
                self.uninstrument()
                self.instrument(True)
            entries = itertools.cycle(data.load_manifest(corpus.test_manifest))
            served: dict = {}

            def evaluate(before):
                return self.evaluate_once(corpus, served["model"], before)[1]

            def requests(before):
                return self.score_batch(served["model"], entries, served["expected"], before)

            def one_round():
                self._phase("fit")
                start = perf_counter()
                self.fit_and_compare(corpus, corpus.cfg.build_model())
                # eval and score get their shares relative to the fit just run
                per_fit_second = (perf_counter() - start) / w.fit_share
                self._phase("eval")
                if not served:
                    served["model"] = self.read_back_best(corpus)
                    served["expected"], _ = self.evaluate_once(corpus, served["model"])
                repeat(chained(evaluate), 0, w.eval_share * per_fit_second)
                self._phase("score")
                repeat(chained(requests), 0, w.score_share * per_fit_second)

            repeat(one_round, w.min_fits, self.seconds)
            self._phase("eval")
            repeat(chained(evaluate), w.min_evals - len(self.eval_clips_per_s), 0.0)
            self._phase("score")
            more_requests = chained(requests)
            while len(self.request_seconds) < w.min_requests:
                more_requests()
        finally:
            self.uninstrument()
            shutil.rmtree(self.work / "data", ignore_errors=True)

    # -- results -----------------------------------------------------------

    def end_to_end(self) -> dict[str, tuple[float, int, str]]:
        """metric -> (value, sample count, what the samples are)."""
        spec = data.SyntheticSpec()
        batch = RunConfig().batch_pairs
        pairs = min(spec.n_normal, spec.n_abnormal) // batch * batch
        epoch_rates = [pairs / s for fit in self.fits for s in fit.epoch_seconds]
        ms = np.asarray(self.request_seconds) * 1000.0
        return {
            "setup_s": (statistics.median(self.setup_seconds), len(self.setup_seconds), "set-ups"),
            "train_pairs_per_s": (statistics.median(epoch_rates), len(epoch_rates), "epochs"),
            "fit_s": (statistics.median(f.seconds for f in self.fits), len(self.fits), "fits"),
            "auc": (self.fits[-1].aucs[-1], 1, "final epoch"),
            "score_ms_p50": (float(np.percentile(ms, 50)), ms.size, "requests"),
            "score_ms_p95": (float(np.percentile(ms, 95)), ms.size, "requests"),
            "eval_clips_per_s": (statistics.median(self.eval_clips_per_s), len(self.eval_clips_per_s), "evals"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1, "process"),
        }

    def request_ms_percentile(self, q: float) -> float:
        return float(np.percentile(np.asarray(self.request_seconds) * 1000.0, q))

    def per_layer(self) -> dict[str, float]:
        tracer = self.tracer
        stats = tracer.layer_stats()
        epochs = stats["training.train_epoch"].calls_by_phase["fit"]
        # span times are CPU seconds; put them at the reference speed
        scale = self.speed.run_factor()
        out: dict[str, float] = {}
        for layer in _PER_CALL_TIME_LAYERS:
            s = stats[layer]
            if layer in _TRAINING_STEP_LAYERS:
                out[f"{layer}_s"] = scale * s.total_s_by_phase["fit"] / s.calls_by_phase["fit"]
            else:
                out[f"{layer}_s"] = scale * s.total_s / s.calls
        for layer in _PER_EPOCH_CALL_LAYERS:
            out[f"{layer}.calls"] = stats[layer].calls_by_phase["fit"] / epochs
        epoch = stats["training.train_epoch"]
        out["training.train_epoch.self_s"] = scale * epoch.self_s / epoch.calls
        out["model.save_checkpoint.calls_per_fit"] = (
            stats["model.save_checkpoint"].calls_by_phase["fit"] / len(self.fits)
        )
        backward_calls = stats["autodiff.backward"].calls_by_phase["fit"]
        nodes = tracer.counts[("autodiff.graph_nodes", "fit")] / backward_calls
        out["autodiff.nodes_per_backward"] = nodes
        out["autodiff.nodes_per_pair"] = nodes / RunConfig().batch_pairs
        out["data.bytes_loaded"] = tracer.counts[("data.bytes_loaded", "setup")] / len(self.setup_seconds)
        saves = stats["model.save_checkpoint"].calls
        out["model.checkpoint_bytes"] = sum(
            v for (k, _), v in tracer.counts.items() if k == "model.checkpoint_bytes"
        ) / saves
        rows = self.fits[-1].rows
        out["selection.omega_mean"] = statistics.fmean(r["omega"] for r in rows)
        out["selection.k_mean"] = statistics.fmean(r["k"] for r in rows)
        out["trace.fit_overhead_s"] = statistics.median(f.seconds for f in self.fits) - self.untraced_fit.seconds
        return out

    def host_info(self) -> dict[str, float]:
        """The probes of this run: how fast the host was, and how steady."""
        q1, median, q3 = statistics.quantiles(self.speed.unit_seconds, n=4)
        return {
            "probes": len(self.speed.unit_seconds),
            "unit_ms_median": median * 1e3,
            "unit_iqr_over_median": (q3 - q1) / median,
            "reference_unit_ms": self.speed.reference_unit_s * 1e3,
            "setup_probe_ms_median": statistics.median(self.speed.setup_probe_seconds) * 1e3,
            "reference_setup_probe_ms": self.speed.reference_setup_probe_s * 1e3,
            "probe_cpu_s": self.speed.spent,
        }

    def fingerprint(self) -> dict[str, str]:
        fit = self.untraced_fit or self.fits[0]
        return {"train_log.csv": fit.log_sha256, "final.lwck": fit.final_sha256}

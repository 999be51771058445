"""Run-config parsing and the command-line surface."""

from __future__ import annotations

import csv
import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

import wsvad
from wsvad import training
from wsvad.autodiff import ConfigurationError
from wsvad.cli import build_parser, main
from wsvad.config import RunConfig, load_run_config, run_config_to_text, write_run_config
from wsvad.data import FormatError, SyntheticSpec, save_features
from wsvad.losses import LossConfig
from wsvad.model import STATE_MAGIC, HfcConfig, MtaConfig, read_container, write_container
from wsvad.selection import SelectionConfig
from wsvad.training import TrainConfig, TrainingError


def _tree_hash(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# run config


class TestRunConfig:
    def test_text_round_trip(self, tmp_path):
        cfg = RunConfig(feature_dim=24, use_mta=False, lr=0.02, epochs=3, out_dir="x/y")
        path = write_run_config(tmp_path / "config.txt", cfg)
        assert load_run_config(path) == cfg

    def test_interrupted_write_leaves_the_previous_file(self, tmp_path):
        path = write_run_config(tmp_path / "config.txt", RunConfig(epochs=3))
        before = path.read_bytes()
        # a lone surrogate cannot be encoded, so the write fails after the
        # file is opened
        with pytest.raises(UnicodeEncodeError):
            write_run_config(path, RunConfig(out_dir="runs/\ud800"))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["config.txt"]

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "config.txt"
        p.write_text("learning_rate=0.1\n")
        with pytest.raises(ConfigurationError, match="unknown config key"):
            load_run_config(p)

    def test_type_mismatch_rejected(self, tmp_path):
        p = tmp_path / "config.txt"
        p.write_text("epochs=ten\n")
        with pytest.raises(ConfigurationError, match="expects a int"):
            load_run_config(p)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_run_config(tmp_path / "none.txt")

    def test_directory_is_named(self, tmp_path):
        with pytest.raises(FormatError, match="is not a file") as err:
            load_run_config(tmp_path)
        assert str(tmp_path) in str(err.value)

    def test_non_utf8_file_names_the_file_and_line(self, tmp_path, capsys):
        p = tmp_path / "c.txt"
        p.write_bytes(b"epochs=2\nlr=\xff\n")
        with pytest.raises(FormatError, match="not UTF-8") as err:
            load_run_config(p)
        assert f"{p}:2:" in str(err.value)
        assert main(["train", "--config", str(p), "--out-dir", str(tmp_path / "run")]) == 2
        assert f"{p}:2:" in capsys.readouterr().err

    def test_overrides_beat_file(self, tmp_path):
        p = tmp_path / "config.txt"
        p.write_text("epochs=5\nlr=0.1\n")
        cfg = load_run_config(p, overrides=["epochs=9"])
        assert cfg.epochs == 9 and cfg.lr == 0.1

    def test_overrides_without_file(self):
        cfg = load_run_config(None, overrides=["use_mta=false", "seed=11"])
        assert cfg.use_mta is False and cfg.seed == 11

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        p = tmp_path / "config.txt"
        p.write_text("# a comment\n\nepochs=2\n")
        assert load_run_config(p).epochs == 2

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigurationError, match="key=value"):
            load_run_config(None, overrides=["epochs"])

    def test_bool_words(self):
        for word, expected in [("true", True), ("YES", True), ("1", True),
                               ("false", False), ("off", False), ("0", False)]:
            assert load_run_config(None, overrides=[f"use_ais={word}"]).use_ais is expected
        with pytest.raises(ConfigurationError):
            load_run_config(None, overrides=["use_ais=maybe"])

    def test_sub_config_builders(self):
        cfg = RunConfig(feature_dim=24, use_mta=False, use_ais=False, use_antagonistic=False)
        assert cfg.mta_config() is None
        assert cfg.hfc_config().dims == (24, 64, 128, 1)
        assert cfg.selection_config().adaptive is False
        assert cfg.loss_config().use_antagonistic is False
        assert cfg.train_config().seed == 7

    def test_text_form_lists_every_field(self):
        text = run_config_to_text(RunConfig())
        for f in fields(RunConfig):
            assert f"{f.name}=" in text

    def test_defaults_are_the_component_defaults(self):
        cfg = RunConfig()
        assert cfg.train_config() == TrainConfig()
        assert cfg.mta_config() == MtaConfig()
        assert cfg.hfc_config() == HfcConfig()
        assert cfg.selection_config() == SelectionConfig()
        assert cfg.loss_config() == LossConfig()

    @pytest.mark.parametrize("bad", ["k_max=4", "dropout=1.0", "head_shape=wide",
                                     "score_threshold=0", "batch_pairs=0"])
    def test_invalid_value_rejected_at_load(self, bad):
        with pytest.raises(ConfigurationError):
            load_run_config(None, overrides=[bad])

    @pytest.mark.parametrize("bad", ["score_threshold=2", "leaky_slope=1.0", "mta_mode=x"])
    def test_renamed_key_errors_name_the_run_key(self, bad):
        key = bad.split("=")[0]
        with pytest.raises(ConfigurationError, match=f"^{key} "):
            load_run_config(None, overrides=[bad])
        with pytest.raises(ConfigurationError, match=f"^{key} "):
            load_run_config(None, overrides=["use_mta=false", bad])

    @pytest.mark.parametrize("bad", [["feature_dim=0"], ["hidden_narrow=0"], ["hidden_wide=0"],
                                     ["hidden_narrow=200"], ["hidden_wide=10"],
                                     ["head_shape=conventional", "hidden_narrow=200"]])
    def test_head_width_errors_name_the_run_key(self, bad):
        key = bad[-1].split("=")[0]
        with pytest.raises(ConfigurationError, match=key) as err:
            load_run_config(None, overrides=bad)
        assert "dims" not in str(err.value)

    def test_attention_keys_checked_with_attention_off(self, tmp_path):
        with pytest.raises(ConfigurationError, match="k_max"):
            load_run_config(None, overrides=["use_mta=false", "k_max=4"])
        # what a run with attention off writes loads again with it on
        path = write_run_config(tmp_path / "config.txt", load_run_config(None, ["use_mta=false", "k_max=7"]))
        assert load_run_config(path, ["use_mta=true"]).mta_config() == MtaConfig(k_max=7)

    def test_file_in_earlier_key_order_loads(self, tmp_path):
        # config.txt files once listed the data and model keys before the
        # optimization keys; key order must not matter
        p = tmp_path / "config.txt"
        p.write_text(
            "train_manifest=a.csv\ntest_manifest=b.csv\nout_dir=runs/x\nfeature_dim=24\n"
            "use_mta=false\nk_max=7\nlambda1=0.2\nleaky_slope=0.25\nmta_mode=pure\n"
            "head_shape=conventional\nhidden_narrow=8\nhidden_wide=16\ndropout=0.0\n"
            "use_ais=false\nscore_threshold=0.8\nuse_antagonistic=false\nlr=0.01\n"
            "weight_decay=0.0\nbatch_pairs=4\nepochs=3\nseed=11\nadam_beta1=0.8\n"
            "adam_beta2=0.99\nadam_eps=1e-06\neval_every=2\n"
        )
        assert load_run_config(p) == RunConfig(
            train_manifest="a.csv", test_manifest="b.csv", out_dir="runs/x", feature_dim=24,
            use_mta=False, k_max=7, lambda1=0.2, leaky_slope=0.25, mta_mode="pure",
            head_shape="conventional", hidden_narrow=8, hidden_wide=16, dropout=0.0,
            use_ais=False, score_threshold=0.8, use_antagonistic=False, lr=0.01,
            weight_decay=0.0, batch_pairs=4, epochs=3, seed=11, adam_beta1=0.8,
            adam_beta2=0.99, adam_eps=1e-06, eval_every=2,
        )


# ---------------------------------------------------------------------------
# CLI


GEN_ARGS = ["--n-normal", "6", "--n-abnormal", "6", "--n-test-normal", "4",
            "--n-test-abnormal", "4", "--clips", "16", "--dims", "24",
            "--span-min", "2", "--span-max", "5"]


class TestGenSynthCommand:
    def test_deterministic_across_invocations(self, tmp_path, capsys):
        for name in ("a", "b"):
            assert main(["gen-synth", "--out", str(tmp_path / name), "--seed", "3", *GEN_ARGS]) == 0
        capsys.readouterr()
        assert _tree_hash(tmp_path / "a") == _tree_hash(tmp_path / "b")

    def test_zero_separation_warns(self, tmp_path, capsys):
        code = main(["gen-synth", "--out", str(tmp_path / "z"), "--separation", "0", *GEN_ARGS])
        captured = capsys.readouterr()
        assert code == 0
        assert "not separable" in captured.err

    def test_defaults_are_the_spec_defaults(self, tmp_path, capsys):
        assert main(["gen-synth", "--out", str(tmp_path / "d")]) == 0
        capsys.readouterr()
        summary = json.loads((tmp_path / "d" / "summary.json").read_text())
        assert summary["spec"] == json.loads(json.dumps(asdict(SyntheticSpec())))

    def test_bad_span_is_usage_error(self, tmp_path, capsys):
        code = main(["gen-synth", "--out", str(tmp_path / "z"), "--span-min", "9",
                     "--span-max", "2", *GEN_ARGS[:-4]])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestParamsCommand:
    def test_reports_default_counts(self, capsys):
        assert main(["params"]) == 0
        out = capsys.readouterr().out
        assert "139,595" in out
        assert "~0.14M" in out
        assert "270,603" in out
        assert "0.516" in out
        assert "match" in out

    def test_respects_overrides(self, capsys):
        assert main(["params", "--set", "feature_dim=24", "--set", "use_mta=false"]) == 0
        out = capsys.readouterr().out
        expected = 24 * 64 + 64 + 64 * 128 + 128 + 128 + 1
        assert f"{expected:,}" in out


class TestAblationCommand:
    def test_each_cell_reruns_from_its_config_to_the_same_bytes(self, tiny_dataset, tmp_path, capsys):
        out_dir = tmp_path / "lattice"
        code = main(["ablation", "--set", f"train_manifest={tiny_dataset['train']}",
                     "--set", f"test_manifest={tiny_dataset['test']}", "--set", f"out_dir={out_dir}",
                     "--set", "feature_dim=24", "--set", "batch_pairs=4", "--set", "epochs=1"])
        table = capsys.readouterr().out.splitlines()
        assert code == 0
        assert table[0].split() == ["attention", "head", "adaptive", "antag", "best", "auc"]
        assert len(table) == 17 and len(list(out_dir.iterdir())) == 16
        # the full model first; attention off, conventional head, AIS on,
        # antagonistic term off is the 14th cell
        assert table[1].split()[:4] == ["on", "hourglass", "on", "on"]
        row = table[14].split()
        assert row[:4] == ["off", "conventional", "on", "off"]
        cell = out_dir / "mta0_hg0_ais1_ant0"
        cfg = load_run_config(cell / "config.txt")
        assert (cfg.use_mta, cfg.head_shape, cfg.use_ais, cfg.use_antagonistic) == (False, "conventional", True, False)
        logged = [float(r["auc"]) for r in csv.DictReader(open(cell / "train_log.csv"))]
        assert row[4] == f"{max(logged):.4f}"

        rerun = tmp_path / "rerun"
        assert main(["train", "--config", str(cell / "config.txt"), "--out-dir", str(rerun), "--quiet"]) == 0
        capsys.readouterr()
        for name in ("train_log.csv", "final.lwck"):
            assert (rerun / name).read_bytes() == (cell / name).read_bytes()

    def test_missing_manifests_are_a_usage_error(self, capsys):
        assert main(["ablation", "--set", "epochs=1"]) == 2
        assert "train_manifest and test_manifest" in capsys.readouterr().err


class TestTrainEvalScoreCommands:
    def test_train_eval_round_trip(self, tiny_dataset, tmp_path, capsys):
        out_dir = tmp_path / "run"
        t0 = time.monotonic()
        code = main([
            "train",
            "--train-manifest", str(tiny_dataset["train"]),
            "--test-manifest", str(tiny_dataset["test"]),
            "--out-dir", str(out_dir),
            "--epochs", "1",
            "--quiet",
            "--set", "feature_dim=24",
            "--set", "batch_pairs=4",
        ])
        elapsed = time.monotonic() - t0
        train_out = capsys.readouterr().out
        assert code == 0
        assert elapsed < 30.0
        assert "best auc:" in train_out
        assert (out_dir / "train_log.csv").exists()
        assert (out_dir / "config.txt").exists()

        # frame AUC reported by eval must equal the last logged AUC
        rows = list(csv.DictReader(open(out_dir / "train_log.csv")))
        code = main(["eval", "--checkpoint", str(out_dir / "final.lwck"),
                     "--manifest", str(tiny_dataset["test"]), "--per-video"])
        eval_out = capsys.readouterr().out
        assert code == 0
        logged = float(rows[-1]["auc"])
        assert f"frame auc: {logged:.6f}" in eval_out
        assert "class synthetic:" in eval_out
        assert "per-video mean auc:" in eval_out

    def test_eval_writes_score_files(self, trained_tiny, tiny_dataset, tmp_path, capsys):
        scores_dir = tmp_path / "scores"
        code = main(["eval", "--checkpoint", str(trained_tiny["result"].best_checkpoint),
                     "--manifest", str(tiny_dataset["test"]),
                     "--scores-dir", str(scores_dir)])
        capsys.readouterr()
        assert code == 0
        files = sorted(scores_dir.glob("*.csv"))
        assert len(files) == 12  # 6 normal + 6 anomalous test videos
        rows = list(csv.DictReader(open(files[0])))
        assert set(rows[0]) == {"frame_index", "score", "label"}

    def test_missing_train_manifest_is_usage_error(self, tmp_path, capsys):
        code = main(["train", "--train-manifest", str(tmp_path / "none.csv"),
                     "--test-manifest", str(tmp_path / "none.csv"),
                     "--out-dir", str(tmp_path / "run")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_train_flags_are_set_aliases(self):
        args = build_parser().parse_args(["train", "--epochs", "3", "--set", "seed=2",
                                          "--out-dir", "x", "--seed", "5"])
        assert args.overrides == ["epochs=3", "seed=2", "out_dir=x", "seed=5"]

    def test_bad_config_value_reported_before_inputs_are_read(self, tmp_path, capsys):
        code = main(["train", "--train-manifest", str(tmp_path / "none.csv"),
                     "--test-manifest", str(tmp_path / "none.csv"),
                     "--out-dir", str(tmp_path / "run"), "--set", "k_max=4"])
        err = capsys.readouterr().err
        assert code == 2
        assert "k_max" in err and "none.csv" not in err

    def test_unknown_config_key_is_usage_error(self, tiny_dataset, tmp_path, capsys):
        code = main(["train", "--train-manifest", str(tiny_dataset["train"]),
                     "--test-manifest", str(tiny_dataset["test"]),
                     "--out-dir", str(tmp_path / "run"),
                     "--set", "momentum=0.9"])
        assert code == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_eval_single_class_manifest_is_usage_error(self, trained_tiny, tiny_dataset, capsys):
        # manifest that keeps only the normal test videos; it must sit next to
        # the original because feature paths resolve relative to the manifest
        src = Path(tiny_dataset["test"])
        lines = src.read_text().splitlines()
        kept = [lines[0]] + [l for l in lines[1:] if ",0," in l]
        only_normal = src.parent / "normal_only.csv"
        only_normal.write_text("\n".join(kept) + "\n")
        code = main(["eval", "--checkpoint", str(trained_tiny["result"].best_checkpoint),
                     "--manifest", str(only_normal)])
        assert code == 2
        assert "both classes" in capsys.readouterr().err

    def test_eval_header_only_manifest_is_usage_error(self, trained_tiny, tmp_path, capsys):
        mp = tmp_path / "manifest.csv"
        mp.write_text("feature_path,label,num_frames,frame_labels,class\n")
        code = main(["eval", "--checkpoint", str(trained_tiny["result"].best_checkpoint),
                     "--manifest", str(mp)])
        assert code == 2
        assert "holds no videos" in capsys.readouterr().err

    def test_eval_manifest_naming_a_directory_is_usage_error(self, trained_tiny, tmp_path, capsys):
        mp = tmp_path / "manifest.csv"
        mp.write_text("feature_path,label,num_frames,frame_labels,class\n.,1,16,,\n")
        code = main(["eval", "--checkpoint", str(trained_tiny["result"].best_checkpoint),
                     "--manifest", str(mp)])
        assert code == 2
        assert "is not a file" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["missing", "overflow", "inf"])
    def test_resume_from_a_bad_moment_is_usage_error(self, tiny_dataset, tmp_path, capsys, fault):
        args = ["train", "--train-manifest", str(tiny_dataset["train"]),
                "--test-manifest", str(tiny_dataset["test"]), "--set", "feature_dim=24",
                "--set", "batch_pairs=4", "--epochs", "1", "--quiet"]
        first = tmp_path / "first"
        assert main(args + ["--out-dir", str(first)]) == 0
        state = first / "final_state.lwts"
        header, arrays = read_container(state, STATE_MAGIC)
        arrays = dict(arrays)
        if fault == "missing":
            del arrays["m.head.2.bias"]
        else:
            arrays["v.head.2.bias"] = np.full(1, 1e300 if fault == "overflow" else np.inf)
        write_container(state, STATE_MAGIC, header, arrays)
        capsys.readouterr()
        code = main(args + ["--out-dir", str(tmp_path / "second"), "--resume-from", str(first)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {state}: moment ") and "head.2.bias" in err

    def test_refused_resume_changes_no_file(self, tiny_dataset, tmp_path, capsys, monkeypatch):
        args = ["train", "--train-manifest", str(tiny_dataset["train"]),
                "--test-manifest", str(tiny_dataset["test"]), "--set", "feature_dim=24",
                "--set", "batch_pairs=4", "--epochs", "1", "--quiet", "--out-dir", str(tmp_path)]
        assert main(args + ["--set", "dropout=0.5"]) == 0
        before = _tree_hash(tmp_path)
        capsys.readouterr()
        code = main(args + ["--set", "dropout=0.3", "--resume-from", str(tmp_path)])
        assert code == 2
        assert "does not match expected" in capsys.readouterr().err
        assert _tree_hash(tmp_path) == before

        # a fresh run has written its config before its first epoch, so a
        # run killed in that epoch keeps it
        def killed(*_):
            raise TrainingError("killed")

        monkeypatch.setattr(training, "train_epoch", killed)
        assert main(args + ["--out-dir", str(tmp_path / "killed"), "--set", "dropout=0.3"]) == 1
        assert load_run_config(tmp_path / "killed" / "config.txt").dropout == 0.3

    def test_score_command_stdout_and_file(self, trained_tiny, tmp_path, capsys):
        feats = np.random.default_rng(0).standard_normal((16, 24)).astype(np.float32)
        fpath = save_features(tmp_path / "clip.lwvf", feats)

        ckpt = str(trained_tiny["result"].best_checkpoint)
        assert main(["score", "--checkpoint", ckpt, "--features", str(fpath),
                     "--num-frames", "40"]) == 0
        out = capsys.readouterr().out

        out_csv = tmp_path / "scores.csv"
        assert main(["score", "--checkpoint", ckpt, "--features", str(fpath),
                     "--num-frames", "40", "--out", str(out_csv)]) == 0
        capsys.readouterr()
        rows = list(csv.reader(open(out_csv, newline="")))
        assert len(rows) == 41
        assert all(0.0 < float(r[1]) < 1.0 for r in rows[1:])
        # stdout is the CSV that --out writes, cell for cell
        assert list(csv.reader(out.splitlines())) == rows

    def test_score_into_a_closed_pipe_ends_quietly(self, trained_tiny, tmp_path):
        # `wsvad score --num-frames 200000 | head -1`: the reader closes the
        # pipe after one line, and the command stops with nothing on stderr
        fpath = save_features(tmp_path / "clip.lwvf", np.zeros((16, 24), np.float32))
        src = str(Path(wsvad.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "wsvad", "score", "--checkpoint", str(trained_tiny["result"].best_checkpoint),
             "--features", str(fpath), "--num-frames", "200000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == b"frame_index,score,label\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (0, b"")

    def test_score_with_a_nan_weight_is_usage_error(self, trained_tiny, tmp_path, capsys):
        header, arrays = read_container(trained_tiny["result"].best_checkpoint, b"LWCK")
        arrays = dict(arrays, **{"head.1.bias": np.full(arrays["head.1.bias"].shape, np.nan)})
        ckpt = write_container(tmp_path / "nan.lwck", b"LWCK", header, arrays)
        fpath = save_features(tmp_path / "clip.lwvf", np.zeros((16, 24), np.float32))
        code = main(["score", "--checkpoint", str(ckpt), "--features", str(fpath)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {ckpt}: parameter 'head.1.bias' holds a non-finite value")

    def test_score_wrong_dim_is_usage_error(self, trained_tiny, tmp_path, capsys):
        feats = np.random.default_rng(0).standard_normal((16, 7)).astype(np.float32)
        fpath = save_features(tmp_path / "clip.lwvf", feats)
        code = main(["score", "--checkpoint", str(trained_tiny["result"].best_checkpoint),
                     "--features", str(fpath)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("shape, flags, message", [
        ((3, 24), [], "has 3 clips but the largest kernel needs 5"),
        ((8, 25), [], "has 25-dim features, the model expects 24"),
        ((8, 24), ["--num-frames", "0"], "num_frames (0) must be >= clip count (8)"),
        ((8, 24), ["--num-frames", "-3"], "num_frames (-3) must be >= clip count (8)"),
    ], ids=["too-few-clips", "wrong-width", "zero-frames", "negative-frames"])
    def test_score_rejection_names_the_features_file(self, trained_tiny, tmp_path, capsys, shape, flags, message):
        fpath = save_features(tmp_path / "clip.lwvf", np.zeros(shape, np.float32))
        code = main(["score", "--checkpoint", str(trained_tiny["result"].best_checkpoint),
                     "--features", str(fpath)] + flags)
        err = capsys.readouterr().err
        assert code == 2
        assert str(fpath) in err and message in err


class TestGradCheckCommand:
    def test_both_modes_pass(self, capsys):
        code = main(["grad-check", "--clips", "6", "--dims", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mode residual:" in out and "mode pure:" in out
        assert "PASS" in out

    @pytest.mark.parametrize("modes", [",", "", " , ,"])
    def test_empty_mode_list_is_usage_error(self, capsys, modes):
        # a gradient check that checked nothing does not pass
        code = main(["grad-check", "--clips", "6", "--dims", "8", "--modes", modes])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--modes" in captured.err

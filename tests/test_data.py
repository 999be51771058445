"""File formats, manifests, frame-label expansion, and the synthetic corpus."""

from __future__ import annotations

import hashlib
import io
import json
import os
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from wsvad import data as data_module
from wsvad import model as model_module
from wsvad.data import (
    ClipFeatureBag,
    FormatError,
    ManifestEntry,
    SyntheticSpec,
    clip_frame_bounds,
    expand_clip_labels,
    load_bag,
    load_bags,
    load_features,
    load_frame_labels,
    load_manifest,
    make_synthetic,
    mean_per_clip,
    save_features,
    write_frame_labels,
    write_manifest,
)
from wsvad.evaluation import auc, score_video
from wsvad.model import AnomalyScorer, HfcConfig, MtaConfig


def _tree_hash(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# feature files


class TestFeatureFiles:
    def test_binary_round_trip_bit_identical(self, tmp_path):
        feats = np.random.default_rng(0).standard_normal((7, 5)).astype(np.float32)
        path = save_features(tmp_path / "v.lwvf", feats)
        loaded, _ = load_features(path)
        assert loaded.dtype == np.float32
        assert loaded.tobytes() == feats.tobytes()

    def test_csv_twin_matches_binary(self, tmp_path):
        feats = np.random.default_rng(1).standard_normal((4, 3)).astype(np.float32)
        binary = save_features(tmp_path / "v.lwvf", feats)
        twin = save_features(tmp_path / "v.csv", feats)
        np.testing.assert_array_equal(load_features(twin)[0], load_features(binary)[0])

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(t=st.integers(1, 9), d=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_round_trip_property(self, tmp_path, t, d, seed):
        feats = np.random.default_rng(seed).standard_normal((t, d))
        path = save_features(tmp_path / "v.lwvf", feats)
        np.testing.assert_array_equal(load_features(path)[0], feats.astype(np.float32).astype(np.float64))

    def test_bad_magic_offset_zero(self, tmp_path):
        p = tmp_path / "bad.lwvf"
        p.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(FormatError) as err:
            load_features(p)
        assert err.value.offset == 0

    def test_bad_version_offset(self, tmp_path):
        feats = np.ones((2, 2), dtype=np.float32)
        p = save_features(tmp_path / "v.lwvf", feats)
        raw = bytearray(p.read_bytes())
        raw[4:6] = (99).to_bytes(2, "little")
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as err:
            load_features(p)
        assert err.value.offset == 4

    def test_short_payload_is_truncation_error(self, tmp_path):
        # header promises 32x2048 but payload is missing
        p = tmp_path / "trunc.lwvf"
        p.write_bytes(struct.pack("<4sHII", b"LWVF", 1, 32, 2048) + bytes(16))
        with pytest.raises(FormatError, match="truncated"):
            load_features(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        feats = np.ones((2, 2), dtype=np.float32)
        p = save_features(tmp_path / "v.lwvf", feats)
        p.write_bytes(p.read_bytes() + b"x")
        with pytest.raises(FormatError, match="trailing"):
            load_features(p)

    @staticmethod
    def _short_reads(monkeypatch, cap, shrink_to=None):
        """Open feature files so that each payload read returns at most
        ``cap`` bytes, as a raw read may; with ``shrink_to`` the file is cut
        to that many bytes after the first payload read."""

        class ShortReads(io.FileIO):
            def readinto(self, b):
                got = super().readinto(memoryview(b).cast("B")[:cap])
                if shrink_to is not None:
                    os.truncate(self.name, shrink_to)
                return got

        monkeypatch.setattr(data_module, "open", lambda path, mode, buffering: ShortReads(path, mode),
                            raising=False)

    def test_short_raw_reads_are_resumed(self, tmp_path, monkeypatch):
        feats = np.random.default_rng(0).standard_normal((5, 7)).astype(np.float32)
        p = save_features(tmp_path / "v.lwvf", feats)
        self._short_reads(monkeypatch, cap=40)  # 140 payload bytes in 4 reads
        assert load_features(p)[0].tobytes() == feats.tobytes()

    def test_file_shrinking_mid_read_names_where_the_read_stopped(self, tmp_path, monkeypatch):
        p = save_features(tmp_path / "v.lwvf", np.ones((5, 7), dtype=np.float32))
        self._short_reads(monkeypatch, cap=40, shrink_to=14 + 40)
        with pytest.raises(FormatError, match="shrank") as err:
            load_features(p)
        assert err.value.offset == 14 + 40

    def test_nonpositive_dims_rejected(self, tmp_path):
        p = tmp_path / "zero.lwvf"
        p.write_bytes(struct.pack("<4sHII", b"LWVF", 1, 0, 4))
        with pytest.raises(FormatError) as err:
            load_features(p)
        assert err.value.offset == 6

    @pytest.mark.parametrize("shape, bad", [
        pytest.param((3, 4), {(1, 2): np.nan, (2, 0): np.nan}, id="nan"),
        pytest.param((3, 4), {(1, 2): np.inf, (2, 0): np.inf}, id="inf"),
        pytest.param((3, 4), {(1, 2): -np.inf, (2, 0): -np.inf}, id="-inf"),
        # the row's float64 sum is inf - inf = NaN, not an infinity
        pytest.param((3, 4), {(1, 3): -np.inf, (1, 1): np.inf}, id="both-infinities-in-one-row"),
        pytest.param((3, 4), {(2, 3): np.nan}, id="last-row-only"),
        pytest.param((32, 2048), {(17, 1000): np.inf, (17, 1500): -np.inf, (30, 5): np.nan}, id="32x2048"),
    ])
    def test_non_finite_binary_value_rejected_with_offset(self, tmp_path, shape, bad):
        feats = np.ones(shape, dtype=np.float32)
        for cell, value in bad.items():
            feats[cell] = value
        p = save_features(tmp_path / "v.lwvf", feats)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match="non-finite") as err:
                load_features(p)
        # 14-byte header, then row-major f32; only the first bad value is named
        row, col = min(bad)
        assert err.value.offset == 14 + 4 * (row * shape[1] + col)
        assert str(p) in str(err.value)

    def test_signalling_nan_rejected_without_a_warning(self, tmp_path):
        p = save_features(tmp_path / "v.lwvf", np.ones((2, 3), dtype=np.float32))
        blob = bytearray(p.read_bytes())
        blob[14:18] = (0x7F800001).to_bytes(4, "little")  # the first value
        p.write_bytes(bytes(blob))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match="non-finite") as err:
                load_features(p)
        assert err.value.offset == 14

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(data=st.data())
    def test_damaged_file_loads_or_raises_format_error(self, tmp_path, data):
        # truncations and single-bit flips of a 3x4 file; a 1.0 entry turns
        # into inf when bit 30 of its exponent flips
        feats = np.random.default_rng(11).standard_normal((3, 4)).astype(np.float32)
        feats[1, 1] = 1.0
        blob = bytearray(save_features(tmp_path / "v.lwvf", feats).read_bytes())
        if data.draw(st.booleans(), label="truncate"):
            blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
            blob[bit // 8] ^= 1 << (bit % 8)
        path = tmp_path / "damaged.lwvf"
        path.write_bytes(bytes(blob))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                loaded, _ = load_features(path)
            except FormatError as err:
                assert str(path) in str(err)
                return
        _, _, t, d = struct.unpack_from("<4sHII", blob)
        assert loaded.dtype == np.float32 and loaded.shape == (t, d)
        assert np.isfinite(loaded).all()
        assert loaded.tobytes() == bytes(blob[14:])

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_csv_value_rejected_with_line(self, tmp_path, bad):
        p = tmp_path / "v.csv"
        p.write_text(f"# clip features\n1,2\n\n3,4\n5,{bad}\n{bad},6\n")
        with pytest.raises(FormatError, match="non-finite") as err:
            load_features(p)
        assert f"{p}:5:" in str(err.value)

    @pytest.mark.parametrize("text", ["", "\n\n", "# clip features\n\n# none\n"])
    def test_csv_without_data_rows_rejected(self, tmp_path, text):
        p = tmp_path / "v.csv"
        p.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match="no data rows") as err:
                load_bag(p)
        assert str(p) in str(err.value)


# ---------------------------------------------------------------------------
# bags, manifests, frame labels


class TestBagsAndManifests:
    def test_load_bag_round_trip(self, tmp_path):
        feats = np.random.default_rng(3).standard_normal((6, 4)).astype(np.float32)
        path = save_features(tmp_path / "v.lwvf", feats)
        bag = load_bag(path, label=1, num_frames=96, video_id="v", class_name="fight")
        assert bag.num_clips == 6 and bag.feature_dim == 4
        np.testing.assert_array_equal(bag.features, feats.astype(np.float64))

    @pytest.mark.parametrize("suffix", [".lwvf", ".csv"])
    def test_loaded_bags_hold_float32(self, tmp_path, suffix):
        feats = np.random.default_rng(4).standard_normal((6, 5)).astype(np.float32)
        fp = save_features(tmp_path / f"v{suffix}", feats)
        mp = write_manifest(tmp_path / "manifest.csv", [ManifestEntry(feature_path=fp, label=1, num_frames=12)])
        for bag in (load_bag(fp), load_bags(mp)[0]):
            assert bag.features.dtype == np.float32
            assert bag.features.nbytes == 6 * 5 * 4
            assert bag.features.tobytes() == feats.tobytes()

    @pytest.mark.parametrize("d", [1, 64, 1000, 2048])
    def test_loaded_bags_carry_the_clip_means_of_their_load(self, tmp_path, monkeypatch, d):
        # the load's checked row sums are the bag's clip means, with
        # mean_per_clip's bits, so a loaded bag is scored without summing
        # its features again
        feats = np.random.default_rng(d).standard_normal((8, d)).astype(np.float32)
        model = AnomalyScorer(HfcConfig.for_feature_dim(d), MtaConfig(), seed=3)
        loaded = []
        for suffix in (".lwvf", ".csv"):
            fp = save_features(tmp_path / f"v{suffix}", feats)
            mp = write_manifest(tmp_path / f"manifest{suffix}.csv",
                                [ManifestEntry(feature_path=fp, label=0, num_frames=8)])
            loaded += [load_bag(fp), load_bags(mp)[0]]
        expected = score_video(ClipFeatureBag(feats, 0, "v", 8), model)

        def summed_again(features):
            raise AssertionError("a loaded bag's clip means were summed again")

        with monkeypatch.context() as patch:
            patch.setattr(data_module, "mean_per_clip", summed_again)
            patch.setattr(model_module, "mean_per_clip", summed_again)
            for bag in loaded:
                assert score_video(bag, model).tobytes() == expected.tobytes()
        for bag in loaded:
            assert bag.clip_means.tobytes() == mean_per_clip(bag.features).tobytes()

    def test_bag_validation(self):
        with pytest.raises(ValueError, match="label"):
            ClipFeatureBag(features=np.ones((4, 2)), label=3, video_id="v", num_frames=8)
        with pytest.raises(ValueError, match="num_frames"):
            ClipFeatureBag(features=np.ones((4, 2)), label=0, video_id="v", num_frames=2)

    @pytest.mark.parametrize("labels", [
        [0, 1, 1], np.array([0, 1, 1], dtype=np.uint8), [False, True, True], [0.0, 1.0, 1.0],
    ])
    def test_accepted_frame_label_values(self, labels):
        bag = ClipFeatureBag(np.ones((3, 2)), 1, "v", 3, frame_labels=labels)
        assert bag.frame_labels.dtype == np.uint8
        assert bag.frame_labels.tolist() == [0, 1, 1]

    @pytest.mark.parametrize("bad", [256, 2, -1, 0.5, np.nan])
    def test_frame_label_values_other_than_0_or_1_rejected_before_the_cast(self, bad):
        # uint8 would turn 256 into 0 and 0.5 into 0: an anomalous frame
        # that silently reads as normal
        with pytest.raises(ValueError, match=r"'clip_7'.*0 or 1"):
            ClipFeatureBag(np.ones((3, 2)), 1, "clip_7", 3, frame_labels=np.array([0, 1, bad]))

    def test_clip_anomalous_frame_counts(self):
        labels = np.array([1, 0, 0, 1, 1, 1, 1, 0, 0, 0, 1], dtype=np.uint8)
        bag = ClipFeatureBag(np.ones((4, 2)), 1, "v", 11, frame_labels=labels)
        # clips cover frames [0, 2), [2, 5), [5, 8) and [8, 11)
        counts = bag.clip_anomalous_frame_counts
        assert counts.dtype == np.int64 and counts.tolist() == [1, 2, 2, 1]
        assert bag.clip_anomalous_frame_counts is counts
        assert bag.clip_frame_counts.tolist() == [2, 3, 3, 3]
        unlabelled = ClipFeatureBag(np.ones((4, 2)), 0, "n", 11)
        assert unlabelled.clip_anomalous_frame_counts.tolist() == [0, 0, 0, 0]

    @settings(max_examples=60, deadline=None)
    @given(t=st.integers(1, 40), extra=st.integers(0, 200), seed=st.integers(0, 2**32 - 1))
    def test_clip_anomalous_frame_counts_sum_each_clips_frames(self, t, extra, seed):
        labels = np.random.default_rng(seed).integers(0, 2, t + extra).astype(np.uint8)
        bag = ClipFeatureBag(np.ones((t, 2)), 1, "v", t + extra, frame_labels=labels)
        bounds = clip_frame_bounds(t, t + extra)
        expected = [int(labels[bounds[i]:bounds[i + 1]].sum()) for i in range(t)]
        assert bag.clip_anomalous_frame_counts.tolist() == expected

    def test_manifest_round_trip(self, tmp_path):
        feats = np.ones((4, 3), dtype=np.float32)
        fp = save_features(tmp_path / "a.lwvf", feats)
        entries = [ManifestEntry(feature_path=fp, label=0, num_frames=16, frame_label_path=None, class_name="")]
        mp = write_manifest(tmp_path / "manifest.csv", entries)
        loaded = load_manifest(mp)
        assert len(loaded) == 1
        assert loaded[0].label == 0 and loaded[0].num_frames == 16

    @pytest.mark.parametrize("frames", [-1, 0, 5])
    def test_a_frame_count_below_the_clip_count_names_its_row(self, tmp_path, frames):
        # a count below 1 is rejected at its manifest line; 5 frames for 8
        # clips once the feature file is read, naming it and the manifest
        fp = save_features(tmp_path / "a.lwvf", np.ones((8, 3), dtype=np.float32))
        write_frame_labels(tmp_path / "a.txt", [0, 1] * 4)
        mp = tmp_path / "manifest.csv"
        mp.write_text(f"feature_path,label,num_frames,frame_labels,class\na.lwvf,1,{frames},a.txt,\n")
        with pytest.raises(FormatError, match=f"num_frames.*{frames}") as err:
            load_bags(mp)
        where = [f"{mp}:2:"] if frames < 1 else [str(mp), str(fp.resolve())]
        assert all(w in str(err.value) for w in where), str(err.value)

    def test_missing_manifest_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_manifest(tmp_path / "nope.csv")

    def test_missing_feature_file_raises_file_not_found(self, tmp_path):
        mp = tmp_path / "manifest.csv"
        mp.write_text("feature_path,label,num_frames,frame_labels,class\nghost.lwvf,0,16,,\n")
        with pytest.raises(FileNotFoundError, match="ghost"):
            load_manifest(mp)

    def test_wrong_header_rejected(self, tmp_path):
        mp = tmp_path / "manifest.csv"
        mp.write_text("path,label\nx,0\n")
        with pytest.raises(FormatError, match="header"):
            load_manifest(mp)

    def test_non_utf8_manifest_names_the_file_and_line(self, tmp_path):
        fp = save_features(tmp_path / "a.lwvf", np.ones((4, 3), dtype=np.float32))
        mp = write_manifest(tmp_path / "manifest.csv", [ManifestEntry(feature_path=fp, label=0, num_frames=16)])
        mp.write_bytes(mp.read_bytes() + b"\xff\xfe.lwvf,1,16,,\n")
        with pytest.raises(FormatError, match="not UTF-8") as err:
            load_manifest(mp)
        assert f"{mp}:3:" in str(err.value)

    @pytest.mark.parametrize("row", ["a.lw\0vf,1,16,,", "a.lwvf,1,16,a\0.txt,"])
    def test_nul_in_a_manifest_path_names_the_line(self, tmp_path, row):
        save_features(tmp_path / "a.lwvf", np.ones((4, 3), dtype=np.float32))
        mp = tmp_path / "manifest.csv"
        mp.write_text(f"feature_path,label,num_frames,frame_labels,class\n{row}\n")
        with pytest.raises(FormatError, match="NUL") as err:
            load_manifest(mp)
        assert f"{mp}:2:" in str(err.value)

    @pytest.mark.parametrize("row", [".,1,16,,", "a.lwvf,1,16,.,"])
    def test_manifest_path_that_is_not_a_file_names_the_line(self, tmp_path, row):
        # "." resolves to the manifest's own folder, which exists
        save_features(tmp_path / "a.lwvf", np.ones((4, 3), dtype=np.float32))
        mp = tmp_path / "manifest.csv"
        mp.write_text(f"feature_path,label,num_frames,frame_labels,class\n{row}\n")
        with pytest.raises(FormatError, match="is not a file") as err:
            load_manifest(mp)
        assert f"{mp}:2:" in str(err.value)

    def test_manifest_that_is_a_directory_is_named(self, tmp_path):
        with pytest.raises(FormatError, match="is not a file") as err:
            load_manifest(tmp_path)
        assert str(tmp_path) in str(err.value)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(data=st.data())
    def test_damaged_manifest_loads_or_raises_format_error(self, tmp_path, data):
        # truncations and single-bit flips of a two-entry manifest
        fp = save_features(tmp_path / "a.lwvf", np.ones((4, 3), dtype=np.float32))
        lp = write_frame_labels(tmp_path / "a.txt", [0, 1] * 8)
        blob = bytearray(write_manifest(tmp_path / "manifest.csv", [
            ManifestEntry(feature_path=fp, label=1, num_frames=16, frame_label_path=lp, class_name="fight"),
            ManifestEntry(feature_path=fp, label=0, num_frames=16),
        ]).read_bytes())
        if data.draw(st.booleans(), label="truncate"):
            blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
            blob[bit // 8] ^= 1 << (bit % 8)
        path = tmp_path / "damaged.csv"
        path.write_bytes(bytes(blob))
        try:
            entries = load_manifest(path)
        except (FormatError, FileNotFoundError) as err:
            assert str(path) in str(err)
            return
        assert all(e.label in (0, 1) and e.feature_path.exists() for e in entries)

    def test_frame_labels_round_trip(self, tmp_path):
        flags = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
        p = write_frame_labels(tmp_path / "labels.txt", flags)
        np.testing.assert_array_equal(load_frame_labels(p, 5), flags)

    def test_frame_label_count_mismatch(self, tmp_path):
        p = write_frame_labels(tmp_path / "labels.txt", [0, 1, 0])
        with pytest.raises(FormatError, match="expected 4"):
            load_frame_labels(p, 4)

    def test_non_utf8_frame_labels_name_the_file_and_line(self, tmp_path):
        p = tmp_path / "labels.txt"
        p.write_bytes(b"0\n1\n\xff\n")
        with pytest.raises(FormatError, match="not UTF-8") as err:
            load_frame_labels(p, 3)
        assert f"{p}:3:" in str(err.value) and "at byte 4" in str(err.value)


# ---------------------------------------------------------------------------
# clip -> frame expansion


class TestExpandClipLabels:
    def test_even_split(self):
        flags = np.zeros(32, dtype=np.uint8)
        flags[0] = 1
        frames = expand_clip_labels(flags, 64)
        assert frames[0] == 1 and frames[1] == 1
        assert frames[2:].sum() == 0

    def test_one_extra_frame(self):
        frames = expand_clip_labels(np.ones(32, dtype=np.uint8), 33)
        bounds = clip_frame_bounds(32, 33)
        widths = np.diff(bounds)
        assert (widths == 2).sum() == 1 and (widths == 1).sum() == 31
        assert len(frames) == 33

    def test_all_normal(self):
        frames = expand_clip_labels(np.zeros(8, dtype=np.uint8), 37)
        assert frames.sum() == 0 and len(frames) == 37

    def test_fewer_frames_than_clips_rejected(self):
        with pytest.raises(ValueError):
            expand_clip_labels(np.zeros(8, dtype=np.uint8), 7)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 400))
    def test_partition_covers_every_frame_exactly_once(self, t, extra):
        n = t + extra
        bounds = clip_frame_bounds(t, n)
        widths = np.diff(bounds)
        assert bounds[0] == 0 and bounds[-1] == n
        assert (widths >= 1).all()
        assert widths.sum() == n


# ---------------------------------------------------------------------------
# synthetic corpus


class TestSyntheticSpecValidation:
    def test_bad_span(self):
        with pytest.raises(ValueError, match="anomaly_span"):
            SyntheticSpec(anomaly_span=(0, 4))
        with pytest.raises(ValueError, match="anomaly_span"):
            SyntheticSpec(anomaly_span=(4, 2))

    def test_negative_separation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(separation=-1.0)

    def test_zero_counts(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_normal=0)


SMALL = dict(n_normal=8, n_abnormal=8, n_test_normal=4, n_test_abnormal=4,
             clip_count=16, feature_dim=24, anomaly_span=(2, 5))


def _norm_only_auc(test_manifest) -> float:
    scores, labels = [], []
    for bag in load_bags(test_manifest):
        bounds = clip_frame_bounds(bag.num_clips, bag.num_frames)
        clip_norms = np.linalg.norm(bag.features, axis=1)
        scores.append(np.repeat(clip_norms, np.diff(bounds)))
        if bag.frame_labels is not None:
            labels.append(bag.frame_labels)
        else:
            labels.append(np.zeros(bag.num_frames, dtype=np.uint8))
    return auc(np.concatenate(scores), np.concatenate(labels))


class TestMakeSynthetic:
    def test_same_seed_twice_byte_identical(self, tmp_path):
        spec = SyntheticSpec(**SMALL, seed=5)
        make_synthetic(spec, tmp_path / "a")
        make_synthetic(spec, tmp_path / "b")
        assert _tree_hash(tmp_path / "a") == _tree_hash(tmp_path / "b")

    def test_different_seed_differs(self, tmp_path):
        make_synthetic(SyntheticSpec(**SMALL, seed=5), tmp_path / "a")
        make_synthetic(SyntheticSpec(**SMALL, seed=6), tmp_path / "b")
        assert _tree_hash(tmp_path / "a") != _tree_hash(tmp_path / "b")

    def test_zero_separation_is_chance_level(self, tmp_path):
        spec = SyntheticSpec(separation=0.0, seed=11)
        _, test_manifest = make_synthetic(spec, tmp_path)
        assert abs(_norm_only_auc(test_manifest) - 0.5) < 0.05

    def test_separation_six_sigma_norm_auc(self, tmp_path):
        spec = SyntheticSpec(separation=6.0, seed=11)
        _, test_manifest = make_synthetic(spec, tmp_path)
        assert _norm_only_auc(test_manifest) >= 0.99

    def test_structure_and_labels(self, tmp_path):
        spec = SyntheticSpec(**SMALL, seed=9)
        train_manifest, test_manifest = make_synthetic(spec, tmp_path)
        train = load_bags(train_manifest)
        test = load_bags(test_manifest)
        assert len(train) == 16 and len(test) == 8
        t = spec.clip_count
        for bag in train + test:
            assert bag.num_clips == t and bag.feature_dim == spec.feature_dim
            assert t * 8 <= bag.num_frames <= t * 16
        # frame labels only on the anomalous test videos
        for bag in train:
            assert bag.frame_labels is None
        for bag in test:
            if bag.label == 1:
                assert bag.frame_labels is not None
                assert bag.frame_labels.sum() > 0
            else:
                assert bag.frame_labels is None

    def test_one_contiguous_run_per_abnormal_video(self, tmp_path):
        spec = SyntheticSpec(**SMALL, seed=13)
        _, test_manifest = make_synthetic(spec, tmp_path)
        for bag in load_bags(test_manifest):
            if bag.label != 1:
                continue
            flags = bag.frame_labels.astype(int)
            runs = np.count_nonzero(np.diff(np.concatenate([[0], flags, [0]])) == 1)
            assert runs == 1

    def test_summary_records_planted_runs(self, tmp_path):
        spec = SyntheticSpec(**SMALL, seed=5)
        make_synthetic(spec, tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        counts = summary["train_anomaly_clip_counts"]
        assert len(counts) == spec.n_abnormal
        lo, hi = spec.anomaly_span
        assert all(lo <= c <= hi for c in counts)
        assert summary["mean_train_anomaly_clips"] == pytest.approx(np.mean(counts))

    def test_anomalous_clips_have_larger_norms(self, tmp_path):
        spec = SyntheticSpec(**SMALL, seed=21)
        _, test_manifest = make_synthetic(spec, tmp_path)
        for bag in load_bags(test_manifest):
            if bag.label != 1:
                continue
            bounds = clip_frame_bounds(bag.num_clips, bag.num_frames)
            clip_flags = np.array([bag.frame_labels[bounds[i]] for i in range(bag.num_clips)])
            norms = np.linalg.norm(bag.features, axis=1)
            assert norms[clip_flags == 1].min() > norms[clip_flags == 0].max()

"""Clip-feature bags on disk: feature files, manifests, frame labels, and a
synthetic weak-label corpus generator.

Binary feature file layout (little endian):

    magic    4 bytes   b"LWVF"
    version  u16       1
    T        u32       clips per video
    D        u32       feature dims per clip
    payload  T*D f32   row major

Features are stored as float32 on disk and stay float32 in memory; the
scoring head computes in float32 by default, so they reach it without a
copy. Clip means and norms are reduced from an exact float64 promotion.
A loader reads each feature once before scoring: the float64 row sums that
prove every value finite are also, divided by D, the bag's clip means.
The CSV twin (``.csv`` suffix) holds the same float32 values as T rows of D
decimal fields.

A manifest is a CSV with header ``feature_path,label,num_frames,
frame_labels,class``; the last two cells may be empty. Paths are stored
relative to the manifest's directory. Frame label files carry one 0/1 per
line, one line per frame.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import struct
import warnings
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

FEATURE_MAGIC = b"LWVF"
FEATURE_VERSION = 1
_HEADER = struct.Struct("<4sHII")

MANIFEST_COLUMNS = ("feature_path", "label", "num_frames", "frame_labels", "class")


class FormatError(ValueError):
    """A file does not match its declared on-disk format."""

    def __init__(self, message: str, *, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)
        self.offset = offset


# ---------------------------------------------------------------------------
# feature files


def save_features(path, features) -> Path:
    """Write a (T, D) feature array; ``.csv`` suffix selects the text twin."""
    path = Path(path)
    arr = np.asarray(features, dtype=np.float32)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"features must be a non-empty 2-d array, got shape {arr.shape}")
    if path.suffix == ".csv":
        with open(path, "w") as fh:
            for row in arr:
                fh.write(",".join(str(v) for v in row))
                fh.write("\n")
    else:
        t, d = arr.shape
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(FEATURE_MAGIC, FEATURE_VERSION, t, d))
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    return path


def load_features(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a feature file back as the stored float32 values, bit for bit,
    with each clip's mean, ``mean_per_clip``'s bits: ``(features, means)``.

    NaN and infinite values are rejected, naming the CSV line or the byte
    offset of the first one, and so is a CSV without data rows. The check
    and the means are one pass: a float64 sum of finite float32 values
    cannot overflow, so the row sums are all finite exactly when every
    value is, and divided by D they are the means. Only a file whose sums
    are not all finite is scanned value by value, to name the first bad one.
    """
    if not isinstance(path, Path):
        path = Path(path)
    if path.suffix == ".csv":
        try:
            with warnings.catch_warnings():
                # a CSV without data rows is rejected below, not warned about
                warnings.simplefilter("ignore", UserWarning)
                arr = np.loadtxt(path, delimiter=",", dtype=np.float32, ndmin=2)
        except ValueError as exc:
            raise FormatError(f"{path}: malformed feature CSV: {exc}") from None
        if arr.size == 0:
            raise FormatError(f"{path}: feature CSV holds no data rows")
        means = _finite_clip_means(arr)
        if means is None:
            row = int(np.argmin(np.isfinite(arr).all(axis=1)))
            # loadtxt skips blank and comment lines; count only the data rows
            lines = [n for n, text in enumerate(path.read_text().splitlines(), 1)
                     if text.split("#", 1)[0].strip()]
            raise FormatError(f"{path}:{lines[row]}: non-finite feature value")
        return arr, means

    # unbuffered: the header and the payload are one read each, with no
    # buffer fill behind the 14-byte header read
    with open(path, "rb", buffering=0) as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _HEADER.size:
            raise FormatError(
                f"{path}: truncated header, need {_HEADER.size} bytes, have {size}",
                offset=size,
            )
        magic, version, t, d = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != FEATURE_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}", offset=0)
        if version != FEATURE_VERSION:
            raise FormatError(f"{path}: unsupported version {version}", offset=4)
        if t < 1 or d < 1:
            raise FormatError(f"{path}: non-positive dimensions T={t} D={d}", offset=6)
        expected = t * d * 4
        payload = size - _HEADER.size
        if payload < expected:
            raise FormatError(
                f"{path}: truncated payload, header promises {t}x{d} f32 ({expected} bytes), have {payload}",
                offset=size,
            )
        if payload > expected:
            raise FormatError(f"{path}: trailing bytes after payload", offset=_HEADER.size + expected)
        # read straight into an aligned array: a view of a payload that
        # starts at byte 14 would be unaligned, and slower to sum and copy
        arr = np.empty((t, d), dtype="<f4")
        got = fh.readinto(arr)
        while got < expected:
            # a raw read may stop short of the request (at 2 GiB on Linux)
            more = fh.readinto(memoryview(arr).cast("B")[got:])
            if not more:
                raise FormatError(f"{path}: file shrank while being read", offset=_HEADER.size + got)
            got += more
    means = _finite_clip_means(arr)
    if means is None:
        i = int(np.argmin(np.isfinite(arr.reshape(-1))))
        raise FormatError(
            f"{path}: non-finite feature value {arr.flat[i]} at clip {i // d}, dim {i % d}",
            offset=_HEADER.size + 4 * i,
        )
    return arr, means


@np.errstate(invalid="ignore")
def _finite_clip_means(arr) -> np.ndarray | None:
    """``mean_per_clip(arr)``, or None when a mean is not finite. A float64
    sum of finite float32 values cannot overflow, so the means, and their
    total, are finite exactly when every value is. A signalling NaN, or
    +inf and -inf in one row, would raise NumPy's invalid-value warning in
    a reduction; the None is the whole report."""
    means = mean_per_clip(arr)
    return means if math.isfinite(np.add.reduce(means)) else None


# ---------------------------------------------------------------------------
# bags


def mean_per_clip(features) -> np.ndarray:
    """Mean of each clip's features, (..., T) from (..., T, D) or a list of
    (T, D) bags: what ``np.mean`` computes, without its Python wrapper. Summed
    in float64 as the reduction reads the features, with no float64 copy."""
    features = np.asarray(features)
    means = np.add.reduce(features, axis=-1, dtype=np.float64)
    means /= features.shape[-1]
    return means


@dataclass
class ClipFeatureBag:
    """One video as a MIL bag: T clip feature rows plus its weak video label."""

    features: np.ndarray
    label: int
    video_id: str
    num_frames: int
    class_name: str | None = None
    frame_labels: np.ndarray | None = None

    def __post_init__(self):
        # float32 features, as loaded from disk, stay float32 at half the
        # memory, the dtype the head computes in; any other dtype is
        # promoted to float64
        features = np.asarray(self.features)
        self.features = features if features.dtype == np.float32 else features.astype(np.float64, copy=False)
        if self.features.ndim != 2:
            raise ValueError(f"bag features must be 2-d, got shape {self.features.shape}")
        if self.label not in (0, 1):
            raise ValueError(f"bag label must be 0 or 1, got {self.label}")
        if self.num_frames < self.features.shape[0]:
            raise ValueError(
                f"num_frames ({self.num_frames}) must be >= clip count ({self.features.shape[0]})"
            )
        if self.frame_labels is not None:
            labels = np.asarray(self.frame_labels)
            # checked before the uint8 cast, which would wrap 256 to 0 and
            # truncate 0.5 to 0; NaN, like any value but 0 and 1, equals neither
            if labels.size != np.count_nonzero(labels == 0) + np.count_nonzero(labels == 1):
                bad = labels[(labels != 0) & (labels != 1)].flat[0]
                raise ValueError(f"video {self.video_id!r}: frame labels must be 0 or 1, got {bad!r}")
            self.frame_labels = labels.astype(np.uint8, copy=False)
            if self.frame_labels.shape != (self.num_frames,):
                raise ValueError(
                    f"frame labels must have one entry per frame "
                    f"({self.num_frames}), got shape {self.frame_labels.shape}"
                )

    @property
    def num_clips(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    # computed on first use; the means and norms reduce the exact float64
    # promotion, so a float32 bag and a float64 bag of the same values give
    # the same bits

    @cached_property
    def clip_means(self) -> np.ndarray:
        """Mean of each clip's features, (T,): the attention block's input.
        ``load_bag`` and ``load_bags`` set it from the load's finiteness
        pass (see ``load_features``), so a loaded bag never sums again."""
        return mean_per_clip(self.features)

    @cached_property
    def clip_norms(self) -> np.ndarray:
        """L2 norm of each clip's features, (T,): what instance selection
        ranks. The float64 squares are the one (T, D) temporary, half the
        peak of ``np.linalg.norm`` on a float64 copy, which computes the same
        sqrt(add.reduce(x * x))."""
        return np.sqrt(np.add.reduce(np.square(self.features, dtype=np.float64), axis=1))

    @cached_property
    def clip_frame_counts(self) -> np.ndarray:
        """Frames each clip covers, (T,): the widths of ``clip_frame_bounds``,
        which evaluation repeats each clip's score over."""
        bounds = clip_frame_bounds(self.num_clips, self.num_frames)
        # not np.diff, whose Python overhead is several times this subtraction
        return bounds[1:] - bounds[:-1]

    @cached_property
    def clip_anomalous_frame_counts(self) -> np.ndarray:
        """Anomalous frames each clip covers, (T,) int64: the frame labels
        summed over each clip's range of ``clip_frame_bounds``. Evaluation
        weights each clip score by these and ``clip_frame_counts``. A bag
        without frame labels counts none."""
        if self.frame_labels is None:
            return np.zeros(self.num_clips, dtype=np.int64)
        bounds = clip_frame_bounds(self.num_clips, self.num_frames)
        return np.add.reduceat(self.frame_labels, bounds[:-1], dtype=np.int64)


def load_bag(path, label=0, num_frames=None, video_id=None, class_name=None, frame_labels=None):
    """Load one feature file into a bag, naming the file in any error; metadata defaults to trivial values."""
    if not isinstance(path, Path):
        path = Path(path)
    feats, means = load_features(path)
    try:
        bag = ClipFeatureBag(features=feats, label=label, video_id=path.stem if video_id is None else video_id,
                             num_frames=feats.shape[0] if num_frames is None else num_frames,
                             class_name=class_name, frame_labels=frame_labels)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    bag.clip_means = means
    return bag


# ---------------------------------------------------------------------------
# manifests and frame labels


@dataclass(frozen=True)
class ManifestEntry:
    feature_path: Path
    label: int
    num_frames: int
    frame_label_path: Path | None = None
    class_name: str | None = None


def write_manifest(path, entries) -> Path:
    path = Path(path)
    base = path.parent.resolve()

    def rel(p: Path) -> str:
        p = Path(p).resolve()
        try:
            return p.relative_to(base).as_posix()
        except ValueError:
            return str(p)

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_COLUMNS)
        for e in entries:
            writer.writerow(
                [
                    rel(e.feature_path),
                    e.label,
                    e.num_frames,
                    rel(e.frame_label_path) if e.frame_label_path is not None else "",
                    e.class_name or "",
                ]
            )
    return path


def _read_text(path: Path) -> str:
    """The file's bytes decoded as UTF-8; bytes that are not UTF-8 raise a
    ``FormatError`` naming the line and the byte offset."""
    blob = path.read_bytes()
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as err:
        line = blob.count(b"\n", 0, err.start) + 1
        raise FormatError(f"{path}:{line}: not UTF-8 text", offset=err.start) from None


def _existing_file(path: Path, what: str) -> Path:
    """``path``, which must name a file; ``what`` opens either error."""
    if not path.exists():
        raise FileNotFoundError(f"{what} not found: {path}")
    if not path.is_file():
        raise FormatError(f"{what} {path} is not a file")
    return path


def load_manifest(path) -> list[ManifestEntry]:
    """Parse a UTF-8 manifest; every referenced path must name a file."""
    path = _existing_file(Path(path), "manifest")
    base = path.parent
    entries: list[ManifestEntry] = []
    with io.StringIO(_read_text(path), newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != MANIFEST_COLUMNS:
            raise FormatError(
                f"{path}: manifest header must be {','.join(MANIFEST_COLUMNS)}, got {header}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(MANIFEST_COLUMNS):
                raise FormatError(f"{path}:{lineno}: expected {len(MANIFEST_COLUMNS)} cells, got {len(row)}")
            feat_cell, label_cell, frames_cell, flabel_cell, class_cell = (c.strip() for c in row)
            try:
                label = int(label_cell)
                num_frames = int(frames_cell)
            except ValueError:
                raise FormatError(f"{path}:{lineno}: label and num_frames must be integers") from None
            if label not in (0, 1):
                raise FormatError(f"{path}:{lineno}: label must be 0 or 1, got {label}")
            if num_frames < 1:
                raise FormatError(f"{path}:{lineno}: num_frames must be positive, got {num_frames}")
            if "\0" in feat_cell + flabel_cell:
                raise FormatError(f"{path}:{lineno}: a file path holds a NUL character")
            where = f"{path}:{lineno}"
            feature_path = _existing_file((base / feat_cell).resolve(), f"{where}: feature file")
            frame_label_path = (_existing_file((base / flabel_cell).resolve(), f"{where}: frame label file")
                                if flabel_cell else None)
            entries.append(
                ManifestEntry(
                    feature_path=feature_path,
                    label=label,
                    num_frames=num_frames,
                    frame_label_path=frame_label_path,
                    class_name=class_cell or None,
                )
            )
    return entries


def write_frame_labels(path, flags) -> Path:
    path = Path(path)
    flags = np.asarray(flags)
    with open(path, "w", encoding="utf-8") as fh:
        for v in flags:
            fh.write(f"{int(v)}\n")
    return path


def load_frame_labels(path, expected_frames: int) -> np.ndarray:
    path = Path(path)
    out = np.zeros(expected_frames, dtype=np.uint8)
    n = 0
    with io.StringIO(_read_text(path), newline=None) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            if text not in ("0", "1"):
                raise FormatError(f"{path}:{lineno}: frame labels must be 0 or 1, got {text!r}")
            if n >= expected_frames:
                n += 1
                continue
            out[n] = int(text)
            n += 1
    if n != expected_frames:
        raise FormatError(f"{path}: expected {expected_frames} frame labels, found {n}")
    return out


def load_bags(manifest_path) -> list[ClipFeatureBag]:
    """Load every entry of a manifest into memory, in manifest order."""
    bags = []
    for e in load_manifest(manifest_path):
        feats, means = load_features(e.feature_path)
        if e.num_frames < feats.shape[0]:
            raise FormatError(f"{manifest_path}: num_frames ({e.num_frames}) of {e.feature_path} "
                              f"is below its clip count ({feats.shape[0]})")
        frame_labels = None
        if e.frame_label_path is not None:
            frame_labels = load_frame_labels(e.frame_label_path, e.num_frames)
        bag = ClipFeatureBag(
            features=feats,
            label=e.label,
            video_id=e.feature_path.stem,
            num_frames=e.num_frames,
            class_name=e.class_name,
            frame_labels=frame_labels,
        )
        bag.clip_means = means
        bags.append(bag)
    return bags


# ---------------------------------------------------------------------------
# clip <-> frame alignment


def clip_frame_bounds(clip_count: int, num_frames: int) -> np.ndarray:
    """Partition boundaries: clip i covers frames [bounds[i], bounds[i+1])."""
    if clip_count < 1:
        raise ValueError("clip_count must be positive")
    if num_frames < clip_count:
        raise ValueError(f"num_frames ({num_frames}) must be >= clip count ({clip_count})")
    return (np.arange(clip_count + 1, dtype=np.int64) * num_frames) // clip_count


def expand_clip_labels(clip_flags, num_frames: int) -> np.ndarray:
    """Broadcast per-clip 0/1 flags onto frames; every frame gets exactly one clip."""
    flags = np.asarray(clip_flags)
    if flags.ndim != 1:
        raise ValueError(f"clip flags must be 1-d, got shape {flags.shape}")
    if not np.isin(flags, (0, 1)).all():
        raise ValueError("clip flags must be 0 or 1")
    bounds = clip_frame_bounds(flags.shape[0], num_frames)
    return np.repeat(flags.astype(np.uint8), np.diff(bounds))


# ---------------------------------------------------------------------------
# synthetic corpus


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for the synthetic weak-label corpus.

    Normal clips are prototype + N(0, noise_sigma^2) noise per dim. Each
    abnormal video carries exactly one contiguous run of shifted-prototype
    clips. The shift is separation * (fixed standard-normal direction), a
    per-dim displacement of about separation sigma, so anomalous clips also
    end up with clearly larger L2 norms and the magnitude ranking used by
    instance selection holds by construction.
    """

    n_normal: int = 100            # train-split counts
    n_abnormal: int = 100
    n_test_normal: int = 30
    n_test_abnormal: int = 30
    clip_count: int = 32           # T
    feature_dim: int = 64          # D
    anomaly_span: tuple[int, int] = (2, 8)   # run length drawn uniformly, inclusive
    separation: float = 4.0        # per-dim shift scale, in units of noise_sigma=1
    noise_sigma: float = 1.0
    seed: int = 7
    class_name: str = "synthetic"

    def __post_init__(self):
        lo, hi = self.anomaly_span
        if not (1 <= lo <= hi <= self.clip_count):
            raise ValueError(f"anomaly_span {self.anomaly_span} must fit inside [1, {self.clip_count}]")
        if min(self.n_normal, self.n_abnormal, self.n_test_normal, self.n_test_abnormal) < 1:
            raise ValueError("all video counts must be positive")
        if self.clip_count < 2 or self.feature_dim < 1:
            raise ValueError("need clip_count >= 2 and feature_dim >= 1")
        if self.separation < 0 or self.noise_sigma < 0:
            raise ValueError("separation and noise_sigma must be non-negative")


def make_synthetic(spec: SyntheticSpec, out_dir) -> tuple[Path, Path]:
    """Write a synthetic corpus under ``out_dir``; a pure function of ``spec``.

    Produces train/ and test/ feature files, frame label files for test-split
    abnormal videos, ``train_manifest.csv`` + ``test_manifest.csv``, and a
    ``summary.json`` recording the planted anomaly run lengths. Identical
    specs produce byte-identical trees.
    """
    out = Path(out_dir)
    rng = np.random.default_rng(spec.seed)
    proto = rng.standard_normal(spec.feature_dim)
    direction = rng.standard_normal(spec.feature_dim)
    anom_proto = proto + spec.separation * direction

    t, d = spec.clip_count, spec.feature_dim
    lo, hi = spec.anomaly_span

    for split in ("train", "test"):
        (out / split).mkdir(parents=True, exist_ok=True)

    run_lengths: dict[str, list[int]] = {"train": [], "test": []}
    manifests: dict[str, list[ManifestEntry]] = {"train": [], "test": []}

    # draw order is fixed (train normals, train abnormals, test normals,
    # test abnormals) so a given spec always yields the same bytes
    plan = [
        ("train", 0, spec.n_normal),
        ("train", 1, spec.n_abnormal),
        ("test", 0, spec.n_test_normal),
        ("test", 1, spec.n_test_abnormal),
    ]
    for split, label, count in plan:
        for i in range(count):
            kind = "abnormal" if label else "normal"
            stem = f"{split}_{kind}_{i:03d}"
            num_frames = int(rng.integers(8 * t, 16 * t + 1))
            feats = proto + spec.noise_sigma * rng.standard_normal((t, d))
            clip_flags = np.zeros(t, dtype=np.uint8)
            if label:
                length = int(rng.integers(lo, hi + 1))
                start = int(rng.integers(0, t - length + 1))
                feats[start : start + length] = (
                    anom_proto + spec.noise_sigma * rng.standard_normal((length, d))
                )
                clip_flags[start : start + length] = 1
                run_lengths[split].append(length)
            feat_path = out / split / f"{stem}.lwvf"
            save_features(feat_path, feats)
            frame_label_path = None
            if label and split == "test":
                frame_label_path = out / split / f"{stem}_frames.txt"
                write_frame_labels(frame_label_path, expand_clip_labels(clip_flags, num_frames))
            manifests[split].append(
                ManifestEntry(
                    feature_path=feat_path,
                    label=label,
                    num_frames=num_frames,
                    frame_label_path=frame_label_path,
                    class_name=spec.class_name if label else None,
                )
            )

    train_manifest = write_manifest(out / "train_manifest.csv", manifests["train"])
    test_manifest = write_manifest(out / "test_manifest.csv", manifests["test"])

    summary = {
        "spec": asdict(spec),
        "train_anomaly_clip_counts": run_lengths["train"],
        "test_anomaly_clip_counts": run_lengths["test"],
        "mean_train_anomaly_clips": float(np.mean(run_lengths["train"])),
        "mean_test_anomaly_clips": float(np.mean(run_lengths["test"])),
    }
    (out / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return train_manifest, test_manifest

"""Flat key=value run configuration.

One file drives a whole run: ``key=value`` lines, ``#`` comments, unknown
keys and invalid values rejected when read. The same ``key=value`` strings work as command-line
overrides, and the effective configuration can be echoed back out in a form
that parses to an equal config.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .autodiff import ConfigurationError
from .data import _existing_file, _read_text
from .losses import LossConfig
from .model import AnomalyScorer, HfcConfig, MtaConfig, replacing
from .selection import SelectionConfig
from .training import TrainConfig


# component config fields that a run config sets under another key; their
# errors, which start with the field's name, are reported under the key
_RUN_KEYS = {"threshold": "score_threshold", "slope": "leaky_slope", "mode": "mta_mode"}


@dataclass(frozen=True)
class RunConfig(TrainConfig):
    """Every setting of a run. The optimization keys are ``TrainConfig``'s;
    the rest default to the values of the component configs they build."""

    # data / paths
    train_manifest: str = ""
    test_manifest: str = ""
    out_dir: str = "runs/default"
    feature_dim: int = HfcConfig.dims[0]
    # model
    use_mta: bool = True
    k_max: int = MtaConfig.k_max
    lambda1: float = MtaConfig.lambda1
    leaky_slope: float = MtaConfig.slope
    mta_mode: str = MtaConfig.mode
    head_shape: str = HfcConfig.head_shape
    hidden_narrow: int = HfcConfig.dims[1]
    hidden_wide: int = HfcConfig.dims[2]
    dropout: float = HfcConfig.dropout
    # selection
    use_ais: bool = SelectionConfig.adaptive
    score_threshold: float = SelectionConfig.threshold
    # losses
    use_antagonistic: bool = LossConfig.use_antagonistic

    def __post_init__(self):
        # a run config is valid iff the configs it builds are; the attention
        # keys are checked with use_mta off too, so that the config.txt a
        # run writes stays loadable once attention is switched back on
        super().__post_init__()
        # the head's own checks name its dims tuple; these name the run keys
        for key in ("feature_dim", "hidden_narrow", "hidden_wide"):
            if getattr(self, key) < 1:
                raise ConfigurationError(f"{key} must be positive, got {getattr(self, key)}")
        if not self.hidden_narrow < self.hidden_wide:
            raise ConfigurationError(
                f"hidden_narrow ({self.hidden_narrow}) must be below hidden_wide ({self.hidden_wide}) "
                f"for either head_shape"
            )
        try:
            self._attention_config()
            self.hfc_config()
            self.selection_config()
        except ConfigurationError as err:
            field, _, rest = str(err).partition(" ")
            if field not in _RUN_KEYS:
                raise
            raise ConfigurationError(f"{_RUN_KEYS[field]} {rest}") from None

    def _attention_config(self) -> MtaConfig:
        return MtaConfig(k_max=self.k_max, lambda1=self.lambda1, slope=self.leaky_slope, mode=self.mta_mode)

    def mta_config(self) -> MtaConfig | None:
        return self._attention_config() if self.use_mta else None

    def hfc_config(self) -> HfcConfig:
        return HfcConfig.for_feature_dim(
            self.feature_dim,
            head_shape=self.head_shape,
            narrow=self.hidden_narrow,
            wide=self.hidden_wide,
            dropout=self.dropout,
            slope=self.leaky_slope,
        )

    def selection_config(self) -> SelectionConfig:
        return SelectionConfig(threshold=self.score_threshold, adaptive=self.use_ais)

    def loss_config(self) -> LossConfig:
        return LossConfig(use_antagonistic=self.use_antagonistic)

    def train_config(self) -> TrainConfig:
        return TrainConfig(**{f.name: getattr(self, f.name) for f in fields(TrainConfig)})

    def build_model(self) -> AnomalyScorer:
        return AnomalyScorer(self.hfc_config(), self.mta_config(), seed=self.seed)


_FIELDS = {f.name: f.type for f in fields(RunConfig)}
_TRUE_WORDS = {"true", "1", "yes", "on"}
_FALSE_WORDS = {"false", "0", "no", "off"}


def _parse_value(key: str, text: str):
    kind = _FIELDS.get(key)
    if kind is None:
        raise ConfigurationError(f"unknown config key {key!r}")
    text = text.strip()
    try:
        if kind == "bool":
            low = text.lower()
            if low in _TRUE_WORDS:
                return True
            if low in _FALSE_WORDS:
                return False
            raise ValueError(text)
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
        return text
    except ValueError:
        raise ConfigurationError(f"config key {key!r} expects a {kind}, got {text!r}") from None


def _parse_pair(line: str) -> tuple[str, str]:
    if "=" not in line:
        raise ConfigurationError(f"expected key=value, got {line!r}")
    key, text = line.split("=", 1)
    return key.strip(), text


def load_run_config(path=None, overrides=()) -> RunConfig:
    """Read a UTF-8 config file (optional) and apply ``key=value`` overrides
    on top; bytes that are not UTF-8 raise ``data.FormatError`` with the
    file and line."""
    values: dict = {}
    if path is not None:
        path = _existing_file(Path(path), "config file")
        for raw in _read_text(path).splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, text = _parse_pair(line)
            values[key] = _parse_value(key, text)
    for raw in overrides:
        key, text = _parse_pair(raw)
        values[key] = _parse_value(key, text)
    return RunConfig(**values)


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def run_config_to_text(cfg: RunConfig) -> str:
    lines = [f"{f.name}={_format_value(getattr(cfg, f.name))}" for f in fields(RunConfig)]
    return "\n".join(lines) + "\n"


def write_run_config(path, cfg: RunConfig) -> Path:
    """Write ``cfg`` as UTF-8 text to ``path`` atomically (see
    ``model.replacing``)."""
    path = Path(path)
    with replacing(path) as fh:
        fh.write(run_config_to_text(cfg).encode("utf-8"))
    return path

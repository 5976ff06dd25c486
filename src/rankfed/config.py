"""Run configuration and the INI-style config file format.

A config file uses flat key=value pairs grouped in sections ([run],
[dropout], [regularization], [data], [model]); every key maps 1:1 onto a
RunConfig field. Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields

from .errors import ParameterError

MODES = ("spd-cfl", "fixed-rank-lora", "fedavg-full")
SCHEMES = ("iid", "overlap", "disjoint")
TASKS = ("multiclass", "multilabel")
CL_METHODS = ("none", "ewc", "mas", "lwf")
REINIT_METHODS = ("svd", "gaussian")
AGGREGATIONS = ("factor", "dense")


@dataclass(frozen=True)
class RunConfig:
    # [run]
    mode: str = "spd-cfl"
    seed: int = 0
    rounds: int = 60
    local_epochs: int = 1
    eta: float = 0.1
    eta_decay: float = 1.0
    batch_size: int = 16
    participation: float = 1.0
    count_ops: bool = False
    # [dropout]
    r_init: int = 8
    r_min: int = 2
    subtractor: int = 2
    theta: float = 0.9
    lam: float = 0.5
    cooldown: float = 5
    reinit: str = "svd"
    aggregation: str = "factor"
    # [regularization]
    cl_method: str = "ewc"
    mu1: float = 0.01
    mu2: float = 0.01
    lwf_temperature: float = 1.0
    # [data]
    task: str = "multiclass"
    classes: int = 10
    dim: int = 16
    n_per_class: int = 120
    separation: float = 2.5
    scheme: str = "disjoint"
    classes_per_client: int = 4
    shared_classes: int = 2
    num_clients: int = 5
    num_labels: int = 7
    n_samples: int = 1200
    multilabel_skew: float = 0.0
    csv_path: str = ""
    label_column: str = "label"
    # [model]
    hidden: tuple = (32,)
    sigma_init: float = 0.02
    pretrain_epochs: int = 40
    pretrain_eta: float = 0.05
    pretrain_batch: int = 32
    probe_samples: int = 128
    bytes_per_param: int = 4

    def validate(self) -> "RunConfig":
        """Check every field; raise ``ParameterError`` on the first bad one.

        Checks are written so that NaN fails them. Runs validate here, once,
        before any data is generated; the training kernels do not re-check.
        """
        def need(ok: bool, message: str):
            if not ok:
                raise ParameterError(message)

        def finite_at_least(name: str, low: float, strict: bool = False):
            v = getattr(self, name)
            ok = math.isfinite(v) and (v > low if strict else v >= low)
            need(ok, f"{name} must be finite and {'>' if strict else '>='} {low}, got {v!r}")

        def one_of(name: str, choices):
            v = getattr(self, name)
            need(v in choices, f"{name} must be one of {choices}, got {v!r}")

        one_of("mode", MODES)
        need(self.rounds >= 1, f"rounds must be >= 1, got {self.rounds}")
        need(self.local_epochs >= 0, f"local_epochs must be >= 0, got {self.local_epochs}")
        finite_at_least("eta", 0)
        need(0 < self.eta_decay <= 1, f"eta_decay must lie in (0, 1], got {self.eta_decay}")
        need(self.batch_size >= 1, f"batch_size must be >= 1, got {self.batch_size}")
        need(0 < self.participation <= 1,
             f"participation must lie in (0, 1], got {self.participation}")
        need(self.r_init >= self.r_min >= 1,
             f"need r_init >= r_min >= 1, got {self.r_init}, {self.r_min}")
        need(self.subtractor >= 1, f"subtractor must be >= 1, got {self.subtractor}")
        need(0 <= self.theta < 1, f"theta must lie in [0, 1), got {self.theta}")
        need(0 <= self.lam < 1, f"lam must lie in [0, 1), got {self.lam}")
        need(self.cooldown >= 0, f"cooldown must be >= 0 (inf: never drop), got {self.cooldown}")
        one_of("reinit", REINIT_METHODS)
        one_of("aggregation", AGGREGATIONS)
        one_of("cl_method", CL_METHODS)
        finite_at_least("mu1", 0)
        finite_at_least("mu2", 0)
        finite_at_least("lwf_temperature", 0, strict=True)
        one_of("task", TASKS)
        need(self.classes >= 2, f"classes must be >= 2, got {self.classes}")
        need(self.dim >= 2, f"dim must be >= 2, got {self.dim}")
        need(self.n_per_class >= 1, f"n_per_class must be >= 1, got {self.n_per_class}")
        finite_at_least("separation", 0)
        one_of("scheme", SCHEMES)
        need(self.num_clients >= 1, f"num_clients must be >= 1, got {self.num_clients}")
        need(self.num_labels >= 1, f"num_labels must be >= 1, got {self.num_labels}")
        need(self.n_samples >= 1, f"n_samples must be >= 1, got {self.n_samples}")
        need(0 <= self.multilabel_skew <= 1,
             f"multilabel_skew must lie in [0, 1], got {self.multilabel_skew}")
        need(isinstance(self.hidden, tuple) and len(self.hidden) >= 1
             and all(type(h) is int and h >= 1 for h in self.hidden),
             f"hidden must be a non-empty tuple of positive layer widths, got {self.hidden!r}")
        finite_at_least("sigma_init", 0, strict=True)
        need(self.pretrain_epochs >= 0, f"pretrain_epochs must be >= 0, got {self.pretrain_epochs}")
        finite_at_least("pretrain_eta", 0)
        need(self.pretrain_batch >= 1, f"pretrain_batch must be >= 1, got {self.pretrain_batch}")
        need(self.probe_samples >= 2, f"probe_samples must be >= 2, got {self.probe_samples}")
        need(self.bytes_per_param >= 1, f"bytes_per_param must be >= 1, got {self.bytes_per_param}")
        return self


_SECTIONS = {
    "run": ("mode", "seed", "rounds", "local_epochs", "eta", "eta_decay",
            "batch_size", "participation", "count_ops"),
    "dropout": ("r_init", "r_min", "subtractor", "theta", "lam", "cooldown",
                "reinit", "aggregation"),
    "regularization": ("cl_method", "mu1", "mu2", "lwf_temperature"),
    "data": ("task", "classes", "dim", "n_per_class", "separation", "scheme",
             "classes_per_client", "shared_classes", "num_clients",
             "num_labels", "n_samples", "multilabel_skew", "csv_path",
             "label_column"),
    "model": ("hidden", "sigma_init", "pretrain_epochs", "pretrain_eta",
              "pretrain_batch", "probe_samples", "bytes_per_param"),
}


def _parse_value(name: str, raw: str, kind):
    raw = raw.strip()
    try:
        if kind is bool:
            if raw.lower() in ("1", "true", "yes", "on"):
                return True
            if raw.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        if kind is int:
            return int(raw)
        if kind is float:
            if raw.lower() in ("inf", "infinity"):
                return math.inf
            return float(raw)
        if kind is tuple:
            return tuple(int(v) for v in raw.split(",") if v.strip())
        return raw
    except ValueError:
        raise ParameterError(f"bad value for {name!r}: {raw!r}") from None


def load_config(path) -> RunConfig:
    """Parse an INI-style config file into a validated RunConfig."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ParameterError(f"cannot read config file: {path}")
    types = {f.name: type(getattr(RunConfig(), f.name)) for f in fields(RunConfig)}
    # cooldown may be written as an int but is stored as float
    types["cooldown"] = float
    overrides = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ParameterError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SECTIONS[section]:
                raise ParameterError(f"unknown key {key!r} in section [{section}]")
            overrides[key] = _parse_value(key, raw, types[key])
    return RunConfig(**overrides).validate()


def config_text(config: RunConfig) -> str:
    """Render a RunConfig back to its file format."""
    lines = []
    for section, keys in _SECTIONS.items():
        lines.append(f"[{section}]")
        for key in keys:
            value = getattr(config, key)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)

"""Run configuration and the INI-style config file format.

A config file uses flat key=value pairs grouped in sections ([run],
[dropout], [regularization], [data], [model]); every key maps 1:1 onto a
RunConfig field. Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields

from .client import PRETRAIN_SETTINGS, LocalTrainConfig
from .errors import ParameterError, of_type, require_finite
from .lora import RankSchedule, capped_rank
from .model import CLConfig
from .numerics import Rng
from .server import ServerSettings

MODES = ("spd-cfl", "fixed-rank-lora", "fedavg-full")
SCHEMES = ("iid", "overlap", "disjoint")
TASKS = ("multiclass", "multilabel")


def _opens(section: str, default):
    """A field that opens a config-file section: it and the fields after it,
    up to the next such field, are that section's keys."""
    return field(default=default, metadata={"section": section})


@dataclass(frozen=True)
class RunConfig:
    mode: str = _opens("run", "spd-cfl")
    seed: int = 0
    rounds: int = 60
    local_epochs: int = 1
    eta: float = 0.1
    eta_decay: float = 1.0
    batch_size: int = 16
    participation: float = 1.0
    count_ops: bool = False
    r_init: int = _opens("dropout", 8)
    r_min: int = 2
    subtractor: int = 2
    theta: float = 0.9
    lam: float = 0.5
    cooldown: float = 5
    reinit: str = "svd"
    aggregation: str = "factor"
    cl_method: str = _opens("regularization", "ewc")
    mu1: float = 0.01
    mu2: float = 0.01
    lwf_temperature: float = 1.0
    task: str = _opens("data", "multiclass")
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
    hidden: tuple = _opens("model", (32,))
    sigma_init: float = 0.02
    pretrain_epochs: int = 40
    pretrain_eta: float = 0.05
    pretrain_batch: int = 32
    probe_samples: int = 128
    bytes_per_param: int = 4

    def validate(self) -> "RunConfig":
        """Check every field; raise ``ParameterError`` on the first bad one.

        Each field must first hold its annotated type: an int field any
        integral number, a float field any real one, neither a bool. The
        checks are written so that NaN fails them. Runs validate here, once,
        before any data is generated; the training kernels do not re-check.
        The random stream (the seed's range), the local-training settings, the
        rank schedule, the server settings and the regularizer own their
        rules; validate() builds them instead of restating them.
        """
        def need(ok: bool, message: str):
            if not ok:
                raise ParameterError(message)

        def finite_at_least(name: str, low: float, strict: bool = False):
            require_finite(name, getattr(self, name), low, strict)

        def one_of(name: str, choices):
            v = getattr(self, name)
            need(v in choices, f"{name} must be one of {choices}, got {v!r}")

        for name, kind in _TYPES.items():
            v = getattr(self, name)
            need(of_type(v, kind), f"{name} must be of type {kind.__name__}, got {v!r}")
        one_of("mode", MODES)
        Rng(self.seed)
        need(self.rounds >= 1, f"rounds must be >= 1, got {self.rounds}")
        LocalTrainConfig(self.local_epochs, self.eta, self.batch_size)
        need(0 < self.eta_decay <= 1, f"eta_decay must lie in (0, 1], got {self.eta_decay}")
        need(0 < self.participation <= 1,
             f"participation must lie in (0, 1], got {self.participation}")
        # built in every mode: r_init >= r_min >= 1 binds the fixed rank too
        schedule = RankSchedule(self.r_init, self.r_min, self.subtractor)
        need(self.mode != "spd-cfl" or schedule.can_drop,
             f"spd-cfl can never drop from r_init {self.r_init} by subtractor "
             f"{self.subtractor} without passing r_min {self.r_min}")
        self.server_settings()
        CLConfig(self.cl_method, self.mu1, self.mu2, self.lwf_temperature)
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
        need(len(self.hidden) >= 1 and all(of_type(h, int) and h >= 1 for h in self.hidden),
             f"hidden must be a non-empty tuple of positive layer widths, got {self.hidden!r}")
        finite_at_least("sigma_init", 0, strict=True)
        LocalTrainConfig.check(self.pretrain_epochs, self.pretrain_eta, self.pretrain_batch,
                               PRETRAIN_SETTINGS)
        need(self.probe_samples >= 2, f"probe_samples must be >= 2, got {self.probe_samples}")
        need(self.bytes_per_param >= 1, f"bytes_per_param must be >= 1, got {self.bytes_per_param}")
        need(not (self.csv_path and self.task == "multilabel"),
             "csv_path yields multiclass labels; it cannot be used with task = multilabel")
        if not self.csv_path:  # a CSV's width and classes are known once it is read
            self.check_rank_cap(self.dim, self.classes if self.task == "multiclass"
                                else self.num_labels)
        return self

    def server_settings(self) -> ServerSettings:
        """The server's dropout rules (``theta`` .. ``aggregation``), checked."""
        return ServerSettings(self.theta, self.lam, self.cooldown, self.reinit,
                              self.aggregation)

    def check_rank_cap(self, dim: int, out_dim: int) -> None:
        """Reject an ``r_init`` above the largest per-layer rank cap of the
        [dim, *hidden, out_dim] network: no layer could host it, and every
        drop down to that cap would change nothing that is sent."""
        if self.mode == "fedavg-full":
            return
        dims = (dim, *self.hidden, out_dim)
        largest = max(capped_rank(self.r_init, h1, h2) for h2, h1 in zip(dims, dims[1:]))
        if largest < self.r_init:
            raise ParameterError(
                f"r_init {self.r_init} exceeds the largest per-layer rank cap "
                f"{largest} of the {'x'.join(map(str, dims))} network")


def _sections() -> dict:
    """Section name -> its keys, in file order."""
    sections, current = {}, None
    for f in fields(RunConfig):
        current = f.metadata.get("section", current)
        sections.setdefault(current, []).append(f.name)
    return sections


_SECTIONS = _sections()
# Type of each key, from its annotation; parsing and validate() read it.
_TYPES = {f.name: {"bool": bool, "int": int, "float": float, "str": str,
                   "tuple": tuple}[f.type] for f in fields(RunConfig)}


def _parse_value(name: str, raw: str, kind):
    raw = raw.strip()
    try:
        if kind is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is tuple:
            return tuple(int(v) for v in raw.split(","))
        return raw
    except (KeyError, ValueError):
        raise ParameterError(f"bad value for {name!r}: {raw!r}") from None


def load_config(path, **overrides) -> RunConfig:
    """Parse an INI-style config file into a validated RunConfig. Keyword
    ``overrides`` replace the file's values before the one validation, so a
    file may be completed by them (a mode given on the command line)."""
    # default_section="" cannot be written as a header, so a [DEFAULT]
    # section is an unknown section like any other instead of being dropped
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path, encoding="utf-8-sig") as fh:
            parser.read_file(fh)
    except OSError:
        raise ParameterError(f"cannot read config file: {path}") from None
    except (UnicodeDecodeError, configparser.Error) as exc:
        reason = " ".join(str(exc).split())  # configparser's messages span lines
        raise ParameterError(f"malformed config file {path}: {reason}") from None
    values = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ParameterError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SECTIONS[section]:
                raise ParameterError(f"unknown key {key!r} in section [{section}]")
            values[key] = _parse_value(key, raw, _TYPES[key])
    return RunConfig(**{**values, **overrides}).validate()


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

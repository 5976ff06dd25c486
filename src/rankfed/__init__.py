"""Federated LoRA fine-tuning simulator with consistency-driven stepwise rank
dropout and continual-learning regularization."""

from .config import RunConfig, load_config
from .data import Dataset, PartitionPlan, generate_synthetic, ks_statistic, partition
from .harness import RunResult, evaluate, pretrain_base, run_federated
from .lora import AdapterSet, LoRAAdapter, RankSchedule, init_adapter_set
from .model import CLConfig, FrozenBase
from .numerics import Rng

__version__ = "0.1.0"

__all__ = [
    "AdapterSet", "CLConfig", "Dataset", "FrozenBase", "LoRAAdapter",
    "PartitionPlan", "RankSchedule", "Rng", "RunConfig", "RunResult",
    "evaluate", "generate_synthetic", "init_adapter_set", "ks_statistic",
    "load_config", "partition", "pretrain_base", "run_federated",
]

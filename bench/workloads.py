"""The benchmark's workloads and the layers its tracer wraps.

Each workload is a ``RunConfig`` override, the harness pool size, which is
set explicitly so that no workload inherits ``RANKFED_WORKERS`` from the
caller's shell, and the median time of its reference kernel on the
reference box (a 2-core x86-64 VM, numpy 2.4 with OpenBLAS; see
``run.reference_kernel``). End-to-end times are reported at that speed.
Why each workload exists is in ``NOTES.md``.
"""

from __future__ import annotations

from typing import NamedTuple

from spans import Target


class Workload(NamedTuple):
    overrides: dict
    workers: int
    ref_kernel_s: float


WORKLOADS = {
    # RunConfig defaults: the paper's configuration, two rank drops (8->6->4).
    "paper-ewc": Workload({}, 1, 0.059),
    # The same run through the harness thread pool (2 = nproc of the
    # reference box); the only workload on which the pool runs.
    "paper-ewc-pool2": Workload({}, 2, 0.059),
    # Large matrix products, distillation penalty, 128-wide CKA probes.
    "wide-lwf": Workload(dict(cl_method="lwf", num_clients=10, scheme="overlap",
                              dim=64, hidden=(128, 128), rounds=30), 1, 0.31),
    # Full-weight FedAvg: no adapters, server round, importances or CKA.
    "fedavg-multilabel": Workload(dict(mode="fedavg-full", task="multilabel",
                                       num_clients=20, participation=0.25,
                                       multilabel_skew=0.5, n_samples=2400,
                                       rounds=200), 1, 0.060),
}


def make_config(name: str, seed: int, rounds: int | None = None):
    """The validated RunConfig of a workload; ``rounds`` shortens it for tests."""
    from rankfed.config import RunConfig

    overrides = dict(WORKLOADS[name].overrides, seed=seed)
    if rounds is not None:
        overrides["rounds"] = rounds
    return RunConfig(**overrides).validate()


# Set-up as run_federated calls it; setup_s is the sum of these spans.
SETUP_TARGETS = (
    Target("rankfed.harness", "build_dataset", "data.build"),
    Target("rankfed.harness", "build_partition", "data.build"),
    Target("rankfed.harness", "build_pretrain_dataset", "data.build"),
    Target("rankfed.harness", "pretrain_base", "harness.pretrain_base"),
)

LAYER_TARGETS = SETUP_TARGETS + (
    Target("rankfed.harness", "local_train", "client.local_train"),
    Target("rankfed.harness", "refresh_importances", "client.refresh_importances"),
    Target("rankfed.client", "estimate_fim", "model.estimate_importance"),
    Target("rankfed.client", "estimate_mas_importance", "model.estimate_importance"),
    Target("rankfed.client", "total_local_loss", "model.total_local_loss"),
    Target("rankfed.client", "sgd_step", "model.sgd_step"),
    Target("rankfed.model", "supervised_loss_and_grads", "model.supervised_loss_and_grads"),
    Target("rankfed.model", "lwf_penalty", "model.lwf_penalty"),
    Target("rankfed.harness", "forward", "model.forward"),
    Target("rankfed.harness", "layer_averaged_cka", "metrics.layer_averaged_cka"),
    Target("rankfed.harness", "weight_distance", "metrics.weight_distance"),
    Target("rankfed.harness", "server_round", "server.server_round"),
    Target("rankfed.server", "aggregate", "server.aggregate"),
    Target("rankfed.server", "reinit_at_rank", "lora.reinit_at_rank"),
    Target("rankfed.harness", "full_loss_and_grads", "model.full_loss_and_grads"),
    Target("rankfed.harness", "evaluate", "harness.evaluate"),
    # Both evaluators score multilabel splits through this name.
    Target("rankfed.harness", "auc", "metrics.auc"),
)

ROOT_SPAN = "harness.run_federated"

# One wrapped function serves two layers; the caller decides which.
RELABEL = {
    ("model.forward", "harness.evaluate"): "model.forward.eval",
    ("model.full_loss_and_grads", "harness.pretrain_base"):
        "model.full_loss_and_grads.pretrain",
}

LAYERS = (ROOT_SPAN,) + tuple(dict.fromkeys(t.span for t in LAYER_TARGETS)) + tuple(
    RELABEL.values())

COUNTS = {
    "model.multiplies": "count",
    "metrics.transmitted_params": "count",
    "metrics.transmitted_mb_at_best": "MB",
    "lora.rank_drops": "count",
    "client.importance_hit_ratio": "ratio",
    "trace_overhead": "ratio",
}


def per_layer_units() -> dict:
    """Every per-layer metric name and its unit, as the traced run prints them."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.s"] = "s"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units.update(COUNTS)
    return units


END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "client_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "final_test_metric": "ratio",
}

"""Run orchestration: base pretraining, the federated round loop for every
mode, per-round logging, evaluation, and the operation-count budget.

A run is fully determined by (RunConfig, seed): every random draw comes from
a labeled sub-stream of the root seed. A round's participants with equal
shard sizes train together as one client-stacked group (see
``client.group_sgd``); each client's result is the one it would get alone,
and the server receives the results in client-id order.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .client import (ClientState, LocalTrainConfig, group_sgd, local_train,
                     refresh_importances, sgd_epochs)
from .config import RunConfig
from .data import (Dataset, PartitionPlan, dataset_from_arrays,
                   generate_multilabel, generate_synthetic, load_csv,
                   partition, partition_multilabel, relabeled)
from .errors import InputError, ParameterError, UndefinedMetricError
from .lora import AdapterSet, RankSchedule, capped_rank, init_adapter_set
from .metrics import (CommLedger, accuracy_score, auc, communication_cost,
                      layer_averaged_cka, prepare_representations,
                      weight_distance)
from .model import (CLConfig, FrozenBase, OpCounter, forward,
                    full_loss_and_grads, random_base)
from .numerics import Rng
from .server import (ClientUpdate, ServerState, server_round, shard_weights,
                     weighted_sum)

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RoundRecord:
    """One round's line of ``records.jsonl``, after its schema version."""

    round: int
    phase: int | None
    rank: int | None
    consistency: float | None
    global_loss: float | None
    val_metric: float | None
    test_metric: float | None
    wd_stability: list | None
    wd_plasticity: list | None
    cka_stability: list | None
    cka_plasticity: list | None
    cumulative_params: int
    dropped: bool

    def to_dict(self) -> dict:
        d = {"schema_version": SCHEMA_VERSION}
        for f in dataclasses.fields(self):
            d[f.name] = getattr(self, f.name)
        return d


RECORD_FIELDS = ("schema_version",
                 *(f.name for f in dataclasses.fields(RoundRecord)))


@dataclass
class RunResult:
    config: RunConfig
    records: list
    dataset: Dataset
    plan: PartitionPlan
    base: FrozenBase
    base_checksum: str
    final_adapters: AdapterSet | None
    ledger: CommLedger
    best_val_round: int
    cost_at_best: tuple
    final_metrics: dict
    op_count: int | None = None


# ---------------------------------------------------------------------------
# Data and base construction
# ---------------------------------------------------------------------------

def build_dataset(config: RunConfig, rng: Rng) -> Dataset:
    if config.csv_path:
        x, y, _ = load_csv(config.csv_path, config.label_column)
        return dataset_from_arrays(x, y, rng)
    if config.task == "multiclass":
        return generate_synthetic(config.classes, config.dim, config.n_per_class,
                                  config.separation, rng)
    return generate_multilabel(config.n_samples, config.dim, config.num_labels, rng)


def build_partition(config: RunConfig, dataset: Dataset, rng: Rng) -> PartitionPlan:
    if config.task == "multiclass":
        return partition(dataset, config.num_clients, config.scheme, rng,
                         config.classes_per_client, config.shared_classes)
    return partition_multilabel(dataset, config.num_clients, rng,
                                config.multilabel_skew)


def build_pretrain_dataset(config: RunConfig, dataset: Dataset, rng: Rng) -> Dataset:
    """A sibling task from the same generator family for base pretraining.

    For multiclass data: the same cluster geometry with fresh sample noise and
    a cyclic label shift, so the base learns the domain's structure while the
    federated task still has to relearn the readout. For multilabel data: a
    fresh draw of the same generator. External CSV data has no generator to
    resample, so its pretraining split is the training features themselves
    under the shifted labels.
    """
    if config.csv_path:
        return relabeled(dataset, shift=1)
    if config.task == "multiclass":
        sibling = generate_synthetic(config.classes, config.dim,
                                     config.n_per_class, config.separation,
                                     rng, class_means=dataset.class_means)
        return relabeled(sibling, shift=1)
    return generate_multilabel(config.n_samples, config.dim, config.num_labels, rng)


def pretrain_base(dataset: Dataset, epochs: int, rng: Rng,
                  eta: float = 0.05, batch_size: int = 32,
                  hidden=(32,)) -> FrozenBase:
    """Train all base weights on the given dataset, then freeze them.

    With epochs=0 the base is the frozen random initialization.
    """
    n = len(dataset.train_x)
    if n == 0:
        raise InputError("pretraining dataset is empty")
    init = random_base([dataset.dim, *hidden, dataset.num_classes], rng)
    weights = [w.copy() for w in init.weights]
    biases = [b.copy() for b in init.biases]
    orders = (rng.substream("pretrain-shuffle", epoch).permutation(n)
              for epoch in range(epochs))
    sgd_epochs(_full_model_step(weights, biases, dataset.task, eta),
               dataset.train_x, dataset.train_y, batch_size, orders)
    return FrozenBase(tuple(weights), tuple(biases))


class Setup:
    """A run's dataset, partition plan and frozen base, each drawn from its
    own labeled stream of the config's seed. The plan and the base are built
    on first use: scoring a checkpoint needs no partition, and printing a
    partition needs no pretraining."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.root = Rng(config.seed)
        self.dataset = build_dataset(config, self.root.substream("data"))
        # validate() cannot check a CSV's network before the file is read
        config.check_rank_cap(self.dataset.dim, self.dataset.num_classes)
        # every round scores the validation split; the LoRA modes' CKA probe
        # draws its rows from it and needs two
        rows = len(self.dataset.val_x)
        least = 1 if config.mode == "fedavg-full" else 2
        if rows < least:
            raise ParameterError(f"the validation split has {rows} rows and {config.mode} "
                                 f"needs at least {least}; give the run more samples")

    @cached_property
    def plan(self) -> PartitionPlan:
        return build_partition(self.config, self.dataset, self.root.substream("partition"))

    @cached_property
    def base(self) -> FrozenBase:
        """Pretrained on the sibling task of the dataset."""
        config, root = self.config, self.root
        return pretrain_base(
            build_pretrain_dataset(config, self.dataset, root.substream("pretrain-data")),
            config.pretrain_epochs, root.substream("pretrain"), config.pretrain_eta,
            config.pretrain_batch, config.hidden)


def _full_model_step(weights, biases, task, eta, counter=None):
    """An ``sgd_epochs`` step that updates every weight and bias in place.
    Weights [C, h1, h2] and biases [C, h1] train C client models on
    client-stacked shards."""
    def step(epoch, xb, yb):
        loss, w_grads, b_grads = full_loss_and_grads(weights, biases, xb, yb,
                                                     task, counter)
        for w, b, gw, gb in zip(weights, biases, w_grads, b_grads):
            w -= eta * gw
            b -= eta * gb
        return loss

    return step


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def evaluate(base: FrozenBase, adapters, split, task_mode: str = "multiclass") -> dict:
    """Metrics of the adapted model on a (features, labels) split.

    Multiclass: accuracy of argmax predictions. Multilabel: per-label ROC AUC
    of the raw logits plus the macro mean; labels whose split contains a
    single class are reported as undefined (None) rather than failing the
    whole evaluation.
    """
    x, y = split
    if len(x) == 0:
        raise InputError("empty evaluation split")
    logits, _ = forward(base, adapters, x)
    if task_mode == "multiclass":
        return {"accuracy": accuracy_score(np.argmax(logits, axis=1), y)}
    if task_mode != "multilabel":
        raise ParameterError(f"unknown task mode: {task_mode}")
    per_label, undefined = [], []
    for l in range(logits.shape[1]):
        try:
            per_label.append(auc(logits[:, l], y[:, l]))
        except UndefinedMetricError:
            per_label.append(None)
            undefined.append(l)
    defined = [v for v in per_label if v is not None]
    return {
        "auc_per_label": per_label,
        "auc_mean": float(np.mean(defined)) if defined else None,
        "undefined_labels": undefined,
    }


def _metric_scalar(metrics: dict) -> float | None:
    return metrics.get("accuracy", metrics.get("auc_mean"))


# ---------------------------------------------------------------------------
# Federated loop
# ---------------------------------------------------------------------------

def _participant_count(config: RunConfig) -> int:
    return max(1, math.ceil(config.participation * config.num_clients))


def _participants(config: RunConfig, rng: Rng, round_index: int):
    s, k = config.num_clients, _participant_count(config)
    if k >= s:
        return list(range(s))
    perm = rng.substream("participation", round_index).permutation(s)
    return sorted(int(c) for c in perm[:k])


def _clients(setup: Setup, cl: CLConfig = CLConfig()):
    """Every client's record (its shard of the training split and its stream)
    and the local-training settings the clients share; the round loop fills
    in each round's index and learning rate."""
    config, dataset = setup.config, setup.dataset
    clients = [ClientState(client_id=cid, features=dataset.train_x[idx],
                           labels=dataset.train_y[idx],
                           rng=setup.root.substream("client", cid))
               for cid, idx in enumerate(setup.plan.client_indices)]
    return clients, LocalTrainConfig(config.local_epochs, config.eta,
                                     config.batch_size, cl=cl, task=dataset.task)


class _AdapterRounds:
    """LoRA modes: clients train adapters on the frozen base; the server
    aggregates them, tracks gradient consistency and drops the rank."""

    def __init__(self, setup: Setup):
        config, root, base = setup.config, setup.root, setup.base
        if config.mode == "fixed-rank-lora":
            schedule = RankSchedule(config.r_init, config.r_init, config.subtractor)
            cl = CLConfig("none")
        else:
            schedule = RankSchedule(config.r_init, config.r_min, config.subtractor)
            cl = CLConfig(config.cl_method, config.mu1, config.mu2,
                          config.lwf_temperature)
        adapters0 = init_adapter_set(base.layer_shapes(), schedule.current_rank,
                                     config.sigma_init, root.substream("adapters"))
        self.server = ServerState(
            adapters=adapters0, schedule=schedule, theta=config.theta,
            lam=config.lam, cooldown=config.cooldown,
            aggregation=config.aggregation, reinit_method=config.reinit,
            reinit_sigma=config.sigma_init,
            reinit_rng=root.substream("reinit") if config.reinit == "gaussian" else None,
        )
        self.clients, self.local = _clients(setup, cl)
        val_x = setup.dataset.val_x
        probe_idx = root.substream("probe").permutation(len(val_x))[:config.probe_samples]
        self.probe_x = val_x[probe_idx]
        self.base = base

    def param_count(self) -> int:
        return self.server.adapters.param_count()

    def train_group(self, cids, local: LocalTrainConfig, counter):
        states, server = [self.clients[cid] for cid in cids], self.server
        if local.cl.active and local.cl.method in ("ewc", "mas"):
            anchor = server.accumulated if server.accumulated is not None else server.adapters
            for state in states:
                refresh_importances(state, self.base, anchor,
                                    server.schedule.phase, local)
        return local_train(states, self.base, server.adapters,
                           server.accumulated, local, counter)

    def close_round(self, results, weights):
        """Run the server round, then score each participant's adapters
        against the incoming global adapters (plasticity) and the stability
        anchor (stability) by weight distance and layer-averaged CKA.

        The CKA operands are prepared (centred, self-HSIC computed) once: the
        incoming and stability probe representations once per round, each
        participant's once per client; each ``layer_averaged_cka`` call then
        computes only the cross-HSIC of its pair.
        """
        incoming, stability = self.server.adapters, self.server.accumulated
        phase = self.server.schedule.phase
        updates = [ClientUpdate(cid, adp, self.clients[cid].shard_size)
                   for cid, adp, _ in results]
        self.server, outcome = server_round(self.server, updates)

        base, probe_x = self.base, self.probe_x
        incoming_dense = incoming.dense()
        reps_incoming = prepare_representations(forward(base, incoming, probe_x)[1])
        reps_stability = (prepare_representations(forward(base, stability, probe_x)[1])
                          if stability is not None else None)
        wd_sta, wd_pla, cka_sta, cka_pla = [], [], [], []
        for _, adp, _ in results:
            local_dense = adp.dense()
            wd_pla.append(weight_distance(local_dense, incoming_dense))
            reps_local = prepare_representations(forward(base, adp, probe_x)[1])
            cka_pla.append(layer_averaged_cka(reps_local, reps_incoming))
            if stability is not None:
                wd_sta.append(weight_distance(local_dense, stability))
                cka_sta.append(layer_averaged_cka(reps_local, reps_stability))
        fields = dict(phase=phase, rank=outcome.rank,
                      consistency=outcome.consistency,
                      wd_stability=wd_sta or None, wd_plasticity=wd_pla,
                      cka_stability=cka_sta or None, cka_plasticity=cka_pla,
                      dropped=outcome.dropped)
        return base, outcome.global_adapters, fields


class _FullModelRounds:
    """fedavg-full: clients train every weight and bias; the server takes
    their shard-weighted mean. No adapters, so no rank or diagnostics."""

    NO_ADAPTER_FIELDS = dict(phase=None, rank=None, consistency=None,
                             wd_stability=None, wd_plasticity=None,
                             cka_stability=None, cka_plasticity=None,
                             dropped=False)

    def __init__(self, setup: Setup):
        self.weights = [w.copy() for w in setup.base.weights]
        self.biases = [b.copy() for b in setup.base.biases]
        self.clients, self.local = _clients(setup)

    def param_count(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def train_group(self, cids, local: LocalTrainConfig, counter):
        c = len(cids)
        w = [np.repeat(m[np.newaxis], c, axis=0) for m in self.weights]
        b = [np.repeat(v[np.newaxis], c, axis=0) for v in self.biases]
        losses = group_sgd([self.clients[cid] for cid in cids],
                           _full_model_step(w, b, local.task, local.eta, counter), local)
        return [([m[i] for m in w], [v[i] for v in b]) for i in range(c)], losses

    def close_round(self, results, weights):
        total = weighted_sum(weights, (w + b for _, (w, b), _ in results))
        n = len(self.weights)
        self.weights, self.biases = total[:n], total[n:]
        return FrozenBase(self.weights, self.biases), None, self.NO_ADAPTER_FIELDS


def _groups(participants, sizes):
    """Participants with equal shard sizes, each group in client-id order."""
    groups = {}
    for cid in participants:
        groups.setdefault(sizes[cid], []).append(cid)
    return list(groups.values())


def _run_rounds(setup: Setup, mode) -> RunResult:
    """The round loop of every mode.

    ``mode`` (one of the classes above) trains one group of equal-shard
    participants per ``train_group`` call, given the round's local-training
    settings, returning each client's update and epoch losses, and folds the
    round's results and shard weights in ``close_round``, which returns the
    base and adapters to score plus the mode's record fields.
    """
    config, root, dataset = setup.config, setup.root, setup.dataset
    sizes = [c.shard_size for c in mode.clients]
    ledger = CommLedger(_participant_count(config), config.bytes_per_param)
    records = []
    counter = OpCounter() if config.count_ops else None

    for t in range(1, config.rounds + 1):
        local = dataclasses.replace(mode.local, round_index=t,
                                    eta=config.eta * config.eta_decay ** (t - 1))
        participants = _participants(config, root, t)
        trained = {}
        for group in _groups(participants, sizes):
            updates, losses = mode.train_group(group, local, counter)
            trained.update(zip(group, zip(updates, losses)))
        results = [(cid, *trained[cid]) for cid in participants]
        ledger.add_round(mode.param_count())

        weights = shard_weights([sizes[cid] for cid in participants])
        last_losses = [losses[-1] if losses else None for _, _, losses in results]
        global_loss = (float(np.dot(weights, last_losses))
                       if all(l is not None for l in last_losses) else None)

        model, adapters, fields = mode.close_round(results, weights)
        val = evaluate(model, adapters, (dataset.val_x, dataset.val_y), dataset.task)
        test = evaluate(model, adapters, (dataset.test_x, dataset.test_y), dataset.task)
        records.append(RoundRecord(
            round=t, global_loss=global_loss,
            val_metric=_metric_scalar(val), test_metric=_metric_scalar(test),
            cumulative_params=ledger.cumulative_transmitted()[-1], **fields,
        ))

    best = max(range(len(records)),
               key=lambda i: (records[i].val_metric
                              if records[i].val_metric is not None else -np.inf))
    return RunResult(
        config=config, records=records, dataset=dataset, plan=setup.plan,
        base=setup.base, base_checksum=setup.base.checksum(), final_adapters=adapters,
        ledger=ledger, best_val_round=best + 1,
        cost_at_best=communication_cost(ledger, best + 1),
        final_metrics=test,
        op_count=counter.multiplies if counter is not None else None,
    )


def run_federated(config: RunConfig) -> RunResult:
    """Execute a full federated run for the configured mode.

    The frozen base's checksum is verified after the round loop; a mutated
    base aborts the run.
    """
    setup = Setup(config.validate())
    # partition first: a partition that cannot be built costs no pretraining
    _, base = setup.plan, setup.base
    checksum_before = base.checksum()
    mode_cls = _FullModelRounds if config.mode == "fedavg-full" else _AdapterRounds
    result = _run_rounds(setup, mode_cls(setup))
    if base.checksum() != checksum_before:
        raise InputError("frozen base was mutated during the run")
    return result


# ---------------------------------------------------------------------------
# Operation-count budget
# ---------------------------------------------------------------------------

def op_count_budget(config: RunConfig) -> int:
    """Closed-form multiply estimate T * S * E * psi * batch.

    ``psi`` counts per-sample forward+backward multiplies from the layer
    dimensions and the initial rank (capped per layer). The formula models one
    representative mini-batch per epoch, so instrumented comparisons are made
    on runs whose shards are within a small factor of the batch size.
    """
    config.validate()
    out_dim = config.classes if config.task == "multiclass" else config.num_labels
    dims = [config.dim, *config.hidden, out_dim]
    psi = 0
    for l in range(len(dims) - 1):
        h2, h1 = dims[l], dims[l + 1]
        if config.mode == "fedavg-full":
            psi += 3 * h1 * h2
        else:
            r = capped_rank(config.r_init, h1, h2)
            psi += 2 * h1 * h2 + 3 * r * (h1 + h2)
    return (config.rounds * _participant_count(config) * config.local_epochs
            * psi * config.batch_size)


# ---------------------------------------------------------------------------
# Record serialization
# ---------------------------------------------------------------------------

def records_jsonl(records) -> str:
    return "".join(json.dumps(r.to_dict(), sort_keys=False) + "\n" for r in records)


def write_records_jsonl(records, path) -> None:
    with open(path, "w") as fh:
        fh.write(records_jsonl(records))


def write_summary_csv(records, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_FIELDS)
        for r in records:
            d = r.to_dict()
            row = []
            for name in RECORD_FIELDS:
                v = d[name]
                if v is None:
                    row.append("")
                elif isinstance(v, list):
                    row.append(json.dumps(v))
                else:
                    row.append(v)
            writer.writerow(row)

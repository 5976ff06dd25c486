"""Run orchestration: base pretraining, the federated round loop for every
mode, per-round logging and evaluation.

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
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .client import (ClientState, LocalTrainConfig, group_sgd, local_train,
                     refresh_importances, sgd_epochs)
from .config import RunConfig
from .data import (Dataset, PartitionPlan, dataset_from_arrays,
                   generate_multilabel, generate_synthetic, load_csv,
                   partition, partition_multilabel, relabeled)
from .errors import InputError, NumericError, ParameterError, UndefinedMetricError
from .lora import AdapterSet, RankSchedule, init_adapter_set
from .metrics import (CommLedger, accuracy_score, column_aucs, layer_averaged_cka,
                      prepare_representations, weight_distance)
# Not called here. The benchmark's tracer wraps ``rankfed.harness.auc`` as its
# ``metrics.auc`` layer, so the name stays importable until that target is
# re-pointed at ``column_aucs``.
from .metrics import auc  # noqa: F401
from .model import (CLConfig, FrozenBase, OpCounter, forward, full_grads,
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
    """A finished run. ``base`` and ``final_adapters`` are the model the last
    record scored: the frozen pretrained base and the last round's global
    adapters in the LoRA modes, the last round's averaged weights and None in
    ``fedavg-full``. ``base_checksum`` names the pretrained base in every
    mode, the one a checkpoint binds to and ``Setup(config).base`` rebuilds.
    ``cost_at_best`` is ``cumulative_params`` at ``best_val_round``, and in MB.
    """

    records: list
    dataset: Dataset
    plan: PartitionPlan
    base: FrozenBase
    base_checksum: str
    final_adapters: AdapterSet | None
    ledger: CommLedger
    best_val_round: int
    cost_at_best: tuple
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
        return relabeled(dataset)
    if config.task == "multiclass":
        sibling = generate_synthetic(config.classes, config.dim,
                                     config.n_per_class, config.separation,
                                     rng, class_means=dataset.class_means)
        return relabeled(sibling)
    return generate_multilabel(config.n_samples, config.dim, config.num_labels, rng)


def _training_targets(dataset: Dataset) -> np.ndarray:
    """The train split's labels as the loss consumes them: multilabel 0/1
    targets as float64, multiclass class indices as they are."""
    if dataset.task == "multilabel":
        return dataset.train_y.astype(np.float64)
    return dataset.train_y


def pretrain_base(dataset: Dataset, epochs: int, rng: Rng,
                  eta: float = 0.05, batch_size: int = 32,
                  hidden=(32,)) -> FrozenBase:
    """Train all base weights on the given dataset, then freeze them.

    With epochs=0 the base is the frozen random initialization. Multilabel
    targets are cast to float64 once here rather than by the loss every step.
    Each step computes the gradients only: nothing reads a pretraining loss.
    """
    n = len(dataset.train_x)
    if n == 0:
        raise InputError("pretraining dataset is empty")
    init = random_base([dataset.dim, *hidden, dataset.num_classes], rng)
    weights = [w.copy() for w in init.weights]
    biases = [b.copy() for b in init.biases]
    orders = (rng.substream("pretrain-shuffle", epoch).permutation(n)
              for epoch in range(epochs))

    def step(epoch, xb, yb):
        _descend(weights, biases, *full_grads(weights, biases, xb, yb, dataset.task), eta)

    sgd_epochs(step, dataset.train_x, _training_targets(dataset), batch_size, orders)
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
    """An ``sgd_epochs`` step that updates every weight and bias in place and
    returns the mini-batch loss. Weights [C, h1, h2] and biases [C, h1] train
    C client models on client-stacked shards."""
    def step(epoch, xb, yb):
        loss, w_grads, b_grads = full_loss_and_grads(weights, biases, xb, yb,
                                                     task, counter)
        _descend(weights, biases, w_grads, b_grads, eta)
        return loss

    return step


def _descend(weights, biases, w_grads, b_grads, eta):
    """One gradient-descent step on every weight and bias, in place."""
    for w, b, gw, gb in zip(weights, biases, w_grads, b_grads):
        w -= eta * gw
        b -= eta * gb


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def evaluate(base: FrozenBase, adapters, splits, task_mode: str = "multiclass") -> dict:
    """Metrics of the adapted model on every split of ``splits``, a mapping
    from split name to (features, labels); returns name -> metrics in the
    mapping's order.

    Multiclass: accuracy of argmax predictions. Multilabel: the ROC AUC of
    every label's raw logits plus the macro mean; labels whose split
    contains a single class are reported as undefined (None) rather than
    failing the whole evaluation. Non-finite logits raise ``NumericError``
    naming the first such split in mapping order: no metric is defined for
    them.

    Splits of equal shape are scored as one group, as equal shards train
    as one: one client-stacked forward pass, and for multilabel one
    ``column_aucs`` pass over the group's label columns side by side. Each
    split's metrics are the bits it gets scored alone.
    """
    if task_mode not in ("multiclass", "multilabel"):
        raise ParameterError(f"unknown task mode: {task_mode}")
    groups = {}
    for name, (x, _) in splits.items():
        if len(x) == 0:
            raise InputError(f"the {name} split is empty")
        groups.setdefault(np.shape(x), []).append(name)
    logits = {}
    for names in groups.values():
        stacked, _ = forward(base, adapters, np.stack([splits[n][0] for n in names]))
        logits.update(zip(names, stacked))
    for name in splits:
        if not np.all(np.isfinite(logits[name])):
            raise NumericError(f"the model's logits on the {name} split are not finite")
    if task_mode == "multiclass":
        return {name: {"accuracy": accuracy_score(np.argmax(logits[name], axis=1), y)}
                for name, (_, y) in splits.items()}
    for name, (_, y) in splits.items():
        if np.shape(y) != logits[name].shape:
            raise InputError(f"the {name} split's labels have shape {np.shape(y)}, "
                             f"its logits {logits[name].shape}")
    scored = {}
    for names in groups.values():
        width = logits[names[0]].shape[1]  # one model: every split's logits are as wide
        per_label = column_aucs(np.concatenate([logits[n] for n in names], axis=1),
                                np.concatenate([splits[n][1] for n in names], axis=1))
        for i, name in enumerate(names):
            aucs = per_label[i * width:(i + 1) * width]
            defined = [v for v in aucs if v is not None]
            scored[name] = {
                "auc_per_label": aucs,
                "auc_mean": float(np.mean(defined)) if defined else None,
                "undefined_labels": [l for l, v in enumerate(aucs) if v is None],
            }
    return {name: scored[name] for name in splits}


def _metric_scalar(metrics: dict) -> float | None:
    return metrics.get("accuracy", metrics.get("auc_mean"))


# ---------------------------------------------------------------------------
# Federated loop
# ---------------------------------------------------------------------------

def _participant_count(config: RunConfig) -> int:
    """Clients per round: the ceiling of participation x num_clients, taken
    on the decimal as written, so 0.14 x 50 is 7, not the float 7.000...01."""
    exact = Fraction(repr(float(config.participation))) * config.num_clients
    return max(1, math.ceil(exact))


def _participants(num_clients: int, count: int, rng: Rng, round_index: int):
    """The round's ``count`` participants of ``num_clients``, in id order."""
    if count >= num_clients:
        return list(range(num_clients))
    perm = rng.substream("participation", round_index).permutation(num_clients)
    return sorted(int(c) for c in perm[:count])


def _clients(setup: Setup, cl: CLConfig = CLConfig()):
    """Every client's record (its shard of the training split, with
    multilabel targets as float64, and its stream) and the local-training
    settings the clients share; the round loop fills in each round's index
    and learning rate."""
    config, dataset = setup.config, setup.dataset
    targets = _training_targets(dataset)
    clients = [ClientState(client_id=cid, features=dataset.train_x[idx],
                           labels=targets[idx],
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
            adapters=adapters0, schedule=schedule, settings=config.server_settings(),
            reinit_sigma=config.sigma_init, reinit_rng=root.substream("reinit"))
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

        The plasticity distances are the server round's displacement norms,
        so a participant's dense product is formed here only for the
        stability distance, when an anchor exists.

        The CKA operands are prepared (centred, self-HSIC computed) once: the
        incoming and stability probe representations once per round, each
        participant's once per client; each ``layer_averaged_cka`` call then
        computes only the cross-HSIC of its pair. A pair with a constant
        representation on some layer has no CKA and is recorded as None.
        """
        incoming, stability = self.server.adapters, self.server.accumulated
        phase = self.server.schedule.phase
        updates = [ClientUpdate(cid, adp, self.clients[cid].shard_size)
                   for cid, adp, _ in results]
        self.server, outcome = server_round(self.server, updates)

        base, probe_x = self.base, self.probe_x
        reps_incoming = prepare_representations(forward(base, incoming, probe_x)[1])
        reps_stability = (prepare_representations(forward(base, stability, probe_x)[1])
                          if stability is not None else None)
        wd_sta, cka_sta, cka_pla = [], [], []
        for _, adp, _ in results:
            reps_local = prepare_representations(forward(base, adp, probe_x)[1])
            cka_pla.append(_cka_or_none(reps_local, reps_incoming))
            if stability is not None:
                wd_sta.append(weight_distance(adp.dense(), stability))
                cka_sta.append(_cka_or_none(reps_local, reps_stability))
        fields = dict(phase=phase, rank=outcome.rank,
                      consistency=outcome.consistency,
                      wd_stability=wd_sta or None,
                      wd_plasticity=list(outcome.displacement_norms),
                      cka_stability=cka_sta or None, cka_plasticity=cka_pla,
                      dropped=outcome.dropped)
        return base, outcome.global_adapters, fields


def _cka_or_none(reps_a, reps_b) -> float | None:
    try:
        return layer_averaged_cka(reps_a, reps_b)
    except UndefinedMetricError:
        return None


class _FullModelRounds:
    """fedavg-full: clients train every weight and bias; the server takes
    their shard-weighted mean. No adapters, so no rank or diagnostics."""

    NO_ADAPTER_FIELDS = dict(phase=None, rank=None, consistency=None,
                             wd_stability=None, wd_plasticity=None,
                             cka_stability=None, cka_plasticity=None,
                             dropped=False)

    def __init__(self, setup: Setup):
        self.model = setup.base
        self.clients, self.local = _clients(setup)

    def param_count(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.model.weights, self.model.biases))

    def train_group(self, cids, local: LocalTrainConfig, counter):
        c = len(cids)
        w = [np.repeat(m[np.newaxis], c, axis=0) for m in self.model.weights]
        b = [np.repeat(v[np.newaxis], c, axis=0) for v in self.model.biases]
        losses = group_sgd([self.clients[cid] for cid in cids],
                           _full_model_step(w, b, local.task, local.eta, counter), local)
        return [([m[i] for m in w], [v[i] for v in b]) for i in range(c)], losses

    def close_round(self, results, weights):
        total = weighted_sum(weights, (w + b for _, (w, b), _ in results))
        n = len(self.model.weights)
        self.model = FrozenBase(total[:n], total[n:])
        return self.model, None, self.NO_ADAPTER_FIELDS


@contextmanager
def _diverged(clients, round_index: int):
    """Floating-point overflow or an invalid operation inside the block means
    that the updates of ``clients`` diverged: raise ``NumericError`` naming
    them, rather than record an infinity or a NaN (or warn and go on)."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        who = "client" if len(clients) == 1 else "clients"
        raise NumericError(f"{who} {', '.join(str(c) for c in clients)}: {exc} "
                           f"at round {round_index} (training diverged)") from None


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
    base and adapters to score plus the mode's record fields. One
    ``evaluate`` call scores the round's val and test splits.
    """
    config, root, dataset = setup.config, setup.root, setup.dataset
    sizes = [c.shard_size for c in mode.clients]
    count = _participant_count(config)
    ledger = CommLedger(count)
    records = []
    counter = OpCounter() if config.count_ops else None
    splits = {name: dataset.split(name) for name in ("val", "test")}

    for t in range(1, config.rounds + 1):
        local = dataclasses.replace(mode.local, round_index=t,
                                    eta=config.eta * config.eta_decay ** (t - 1))
        participants = _participants(config.num_clients, count, root, t)
        trained = {}
        for group in _groups(participants, sizes):
            with _diverged(group, t):
                updates, losses = mode.train_group(group, local, counter)
            trained.update(zip(group, zip(updates, losses)))
        results = [(cid, *trained[cid]) for cid in participants]
        ledger.add_round(mode.param_count())

        weights = shard_weights([sizes[cid] for cid in participants])
        last_losses = [losses[-1] if losses else None for _, _, losses in results]
        with _diverged(participants, t):
            global_loss = (float(np.dot(weights, last_losses))
                           if all(l is not None for l in last_losses) else None)
            model, adapters, fields = mode.close_round(results, weights)
            scores = evaluate(model, adapters, splits, dataset.task)
        val, test = scores["val"], scores["test"]
        records.append(RoundRecord(
            round=t, global_loss=global_loss,
            val_metric=_metric_scalar(val), test_metric=_metric_scalar(test),
            cumulative_params=ledger.transmitted, **fields,
        ))

    best = max(range(len(records)),
               key=lambda i: (records[i].val_metric
                              if records[i].val_metric is not None else -np.inf))
    sent = records[best].cumulative_params
    return RunResult(
        records=records, dataset=dataset, plan=setup.plan,
        base=model, base_checksum=setup.base.checksum(), final_adapters=adapters,
        ledger=ledger, best_val_round=best + 1,
        cost_at_best=(sent, sent * config.bytes_per_param / 2**20),
        op_count=counter.multiplies if counter is not None else None,
    )


def run_federated(config: RunConfig) -> RunResult:
    """Execute a full federated run for the configured mode.

    The frozen base's checksum is verified after the round loop, as the
    result's ``base_checksum``; a mutated base aborts the run.
    """
    setup = Setup(config.validate())
    # partition first: a partition that cannot be built costs no pretraining
    _, base = setup.plan, setup.base
    checksum_before = base.checksum()
    mode_cls = _FullModelRounds if config.mode == "fedavg-full" else _AdapterRounds
    result = _run_rounds(setup, mode_cls(setup))
    if result.base_checksum != checksum_before:
        raise InputError("frozen base was mutated during the run")
    return result


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

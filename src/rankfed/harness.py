"""Run orchestration: base pretraining, the federated round loop for every
mode, per-round logging and evaluation. A run is fully determined by
(RunConfig, seed): every random draw comes from a labeled sub-stream of the
root seed."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .client import (PRETRAIN_SETTINGS, ClientState, LocalTrainConfig, _ClientStack,
                     adapter_stack, group_sgd, local_train, refresh_importances,
                     sgd_epochs)
from .config import RunConfig
from .data import (Dataset, PartitionPlan, dataset_from_arrays,
                   generate_multilabel, generate_synthetic, load_csv,
                   partition, partition_multilabel, relabeled)
from .errors import InputError, NumericError, ParameterError, UndefinedMetricError
from .lora import AdapterSet, RankSchedule, init_adapter_set
from .metrics import (CommLedger, _column_aucs, accuracy_score, layer_averaged_cka,
                      prepare_labels, prepare_representations, weight_distance)
# Not called here. The benchmark's tracer wraps this name as its ``metrics.auc``
# layer, so it stays importable until that target is re-pointed at ``_column_aucs``.
from .metrics import auc  # noqa: F401
from .model import (CLConfig, FrozenBase, OpCounter, Walk, _descend, base_preactivation,
                    forward, full_grads, random_base)
# The full-model step's name: the benchmark's tracer wraps it as that layer.
from .model import supervised_loss_and_grads as full_loss_and_grads
from .numerics import Rng, aligned_params, lay_out
from .server import ClientUpdate, ServerState, server_round, shard_weights, weighted_sum

SCHEMA_VERSION = 1


@dataclass(frozen=True, kw_only=True)
class RoundRecord:
    """One round's line of ``records.jsonl``, after its schema version. The
    adapter fields keep their defaults in ``fedavg-full``."""

    round: int
    phase: int | None = None
    rank: int | None = None
    consistency: float | None = None
    global_loss: float | None
    val_metric: float | None
    test_metric: float | None
    wd_stability: list | None = None
    wd_plasticity: list | None = None
    cka_stability: list | None = None
    cka_plasticity: list | None = None
    cumulative_params: int
    dropped: bool = False

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
    record scored: the frozen base and the last global adapters in the LoRA
    modes, the averaged weights and None in ``fedavg-full``. ``base_checksum``
    names the pretrained base in every mode. ``cost_at_best`` is
    ``cumulative_params`` at ``best_val_round``, and in MB."""

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
    """The train split's labels in the form the loss consumes them, float64
    rows shaped like the logits: multilabel 0/1 targets as they are,
    multiclass labels as one-hot rows [n, num_classes]. The multiclass label
    range is checked here, once, and by no training step."""
    if dataset.task == "multilabel":
        return dataset.train_y.astype(np.float64)
    y, c = dataset.train_y, dataset.num_classes
    # np.eye(c)[-1] would pick the last class: the range comes first
    if y.size and (y.min() < 0 or y.max() >= c):
        raise InputError(f"labels must lie in [0, {c})")
    return np.eye(c)[y]


def pretrain_base(dataset: Dataset, epochs: int, rng: Rng,
                  eta: float = 0.05, batch_size: int = 32,
                  hidden=(32,)) -> FrozenBase:
    """Train all base weights on the given dataset, then freeze them. With
    epochs=0 the base is the frozen random initialization. The settings obey
    local training's rule, and an error names them as ``RunConfig`` does."""
    LocalTrainConfig.check(epochs, eta, batch_size, PRETRAIN_SETTINGS)
    n = len(dataset.train_x)
    if n == 0:
        raise InputError("pretraining dataset is empty")
    init = random_base([dataset.dim, *hidden, dataset.num_classes], rng)
    stack = _model_stack(init, None)
    orders = (rng.substream("pretrain-shuffle", epoch).permutation(n)
              for epoch in range(epochs))

    def step(epoch, xb, yb):
        full_grads(stack.walk, xb, yb, dataset.task, stack.out)
        _descend(stack.params.buf, stack.grads.buf, eta)

    sgd_epochs(step, dataset.train_x, _training_targets(dataset), batch_size, orders)
    return FrozenBase(*_layers(stack.params))


def _layers(flat):
    """The weight views and the bias views of an ``aligned_params`` result
    laid out weights first, then biases."""
    n = len(flat.views) // 2
    return flat.views[:n], flat.views[n:]


class Setup:
    """A run's dataset, partition plan and frozen base, each drawn from its
    own labeled stream of the config's seed, and the training targets. The
    plan and the base are built on first use: scoring a checkpoint needs no
    partition, and printing a partition needs no pretraining."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.root = Rng(config.seed)
        self.dataset = build_dataset(config, self.root.substream("data"))
        # validate() cannot check a CSV's network before the file is read
        config.check_rank_cap(self.dataset.dim, self.dataset.num_classes)
        self.targets = _training_targets(self.dataset)
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


def _model_stack(model: FrozenBase, clients) -> _ClientStack:
    """``clients`` copies of a full model in one client-major
    ``aligned_params`` pair laid out weights first, then biases (weights
    [C, h1, h2], biases [C, h1]; one unstacked copy for ``None``, as
    pretraining trains); its ``updates`` are the rows of the parameter buffer."""
    params, grads = aligned_params(model.weights + model.biases, clients, client_major=True)
    return _ClientStack(params, grads, Walk(*_layers(params)), list(zip(*_layers(grads))),
                        params.buf.reshape(clients or 1, -1))


def _model_step(stack: _ClientStack, task: str, eta: float):
    """The ``sgd_epochs`` step that trains a ``_model_stack``'s models in
    place on a client-stacked batch at ``eta``."""
    def step(epoch, xb, yb):
        loss, _ = full_loss_and_grads(stack.walk, xb, yb, task, stack.out)
        _descend(stack.params.buf, stack.grads.buf, eta)
        return loss

    return step


def _kept_stack(stacks: dict, states, rank, build) -> _ClientStack:
    """The stack that ``stacks`` keeps for the group's shard size, replaced
    by ``build()`` unless its key is the group's client count and ``rank``."""
    size = states[0].shard_size
    if size not in stacks or stacks[size].key != (len(states), rank):
        stacks[size] = build()
    return stacks[size]


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

class _SplitGroup(NamedTuple):
    """Prepared splits of one feature shape: their names in mapping order,
    their features stacked [g, rows, dim], their labels as given, and for
    multilabel their label columns side by side, prepared (else None)."""

    names: tuple
    features: np.ndarray
    labels: tuple
    columns: object  # metrics.prepare_labels output, or None


@dataclass(frozen=True)
class _PreparedSplits:
    """Evaluation splits prepared by ``prepare_splits`` for one task."""

    task: str
    names: tuple
    groups: tuple


def prepare_splits(splits, task: str) -> _PreparedSplits:
    """Prepare ``splits``, a mapping from split name to (features, labels),
    once for many ``evaluate`` calls of the ``task`` given. Splits of equal
    feature shape form one group, scored by one client-stacked forward pass.
    An empty split, or multilabel labels that are not one row per sample,
    raise ``InputError`` naming the split; labels that are not 0/1 raise it
    too. The set holds the arrays as they are now: prepare again after
    changing them.
    """
    if task not in ("multiclass", "multilabel"):
        raise ParameterError(f"unknown task mode: {task}")
    groups = {}
    for name, (x, y) in splits.items():
        if len(x) == 0:
            raise InputError(f"the {name} split is empty")
        if task == "multilabel" and (np.ndim(y) != 2 or len(y) != len(x)):
            raise InputError(f"the {name} split's labels have shape {np.shape(y)}, "
                             f"its features {np.shape(x)}")
        groups.setdefault(np.shape(x), []).append(name)
    prepared = []
    for names in groups.values():
        labels = tuple(splits[n][1] for n in names)
        columns = (prepare_labels(np.concatenate(labels, axis=1))
                   if task == "multilabel" else None)
        prepared.append(_SplitGroup(tuple(names), np.stack([splits[n][0] for n in names]),
                                    labels, columns))
    return _PreparedSplits(task, tuple(splits), tuple(prepared))


def evaluate(base: FrozenBase, adapters, splits) -> dict:
    """Metrics of the adapted model on every split of ``splits``, the output
    of ``prepare_splits`` (raw splits raise ``ParameterError``); returns
    name -> metrics in the splits' order. Each split's metrics are the bits
    it gets when prepared and scored alone.

    Multiclass: accuracy of argmax predictions. Multilabel: the ROC AUC of
    every label's raw logits plus the macro mean; labels whose split contains
    a single class are reported as undefined (None). Non-finite logits raise
    ``NumericError`` naming the first such split in the splits' order.
    """
    if not isinstance(splits, _PreparedSplits):
        raise ParameterError("evaluate takes prepare_splits output")
    outputs = [forward(base, adapters, group.features)[0] for group in splits.groups]
    if not all(np.all(np.isfinite(stacked)) for stacked in outputs):
        logits = {name: z for group, stacked in zip(splits.groups, outputs)
                  for name, z in zip(group.names, stacked)}
        first = next(n for n in splits.names if not np.all(np.isfinite(logits[n])))
        raise NumericError(f"the model's logits on the {first} split are not finite")
    scored = {}
    for group, stacked in zip(splits.groups, outputs):
        if splits.task == "multiclass":
            scored.update((name, {"accuracy": accuracy_score(np.argmax(z, axis=1), y)})
                          for name, z, y in zip(group.names, stacked, group.labels))
        else:
            scored.update(_auc_metrics(group, stacked))
    return {name: scored[name] for name in splits.names}


def _auc_metrics(group: _SplitGroup, stacked):
    """(name, metrics) of each multilabel split of ``group`` from its stacked
    logits [g, rows, L]: one ``column_aucs`` scoring pass over the group's
    prepared label columns side by side, fed the negated logits as label rows
    [g·L, rows] by one ufunc call. ``evaluate`` has checked them finite."""
    for name, z, y in zip(group.names, stacked, group.labels):
        if np.shape(y) != z.shape:
            raise InputError(f"the {name} split's labels have shape {np.shape(y)}, "
                             f"its logits {z.shape}")
    g, rows, width = stacked.shape
    values = _column_aucs(np.negative(stacked.transpose(0, 2, 1), order="C")
                          .reshape(-1, rows), group.columns)
    for name, split in zip(group.names, values.reshape(g, width)):
        defined = split[~np.isnan(split)]
        aucs = [None if math.isnan(v) else v for v in split.tolist()]
        yield name, {
            "auc_per_label": aucs,
            # np.mean's arithmetic, without its list conversion and wrapper
            "auc_mean": float(np.add.reduce(defined) / len(defined)) if len(defined) else None,
            "undefined_labels": [l for l, v in enumerate(aucs) if v is None],
        }


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
    """Every client's record and the local-training settings the clients
    share; the round loop fills in each round's index and learning rate."""
    config, dataset = setup.config, setup.dataset
    clients = [ClientState(client_id=cid, features=dataset.train_x[idx],
                           labels=setup.targets[idx],
                           rng=setup.root.substream("client", cid))
               for cid, idx in enumerate(setup.plan.client_indices)]
    return clients, LocalTrainConfig(config.local_epochs, config.eta,
                                     config.batch_size, cl=cl, task=dataset.task)


class _AdapterRounds:
    """LoRA modes: clients train adapters on the frozen base; the server
    aggregates them, tracks gradient consistency and drops the rank. Each
    shard size's group trains in a ``_ClientStack`` kept across rounds while
    its client count and rank hold."""

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
        self.probe_z0 = base_preactivation(base, self.probe_x)
        self.base = base
        self.stability_reps = (None, None)  # (phase, prepared anchor representations)
        self.stacks = {}  # shard size -> _ClientStack

    def param_count(self) -> int:
        return self.server.adapters.param_count()

    def train_group(self, cids, local: LocalTrainConfig, counter):
        states, server = [self.clients[cid] for cid in cids], self.server
        if local.cl.active and local.epochs > 0:
            # the quadratic methods take the first phase's importances at the
            # incoming adapters; LwF has no stability teacher before a drop
            anchor = server.accumulated
            if anchor is None and local.cl.method != "lwf":
                anchor = server.adapters
            for state in states:
                refresh_importances(state, self.base, anchor,
                                    server.schedule.phase, local)
        stack = _kept_stack(self.stacks, states, server.adapters.nominal_rank,
                            lambda: adapter_stack(self.base, server.adapters, len(states)))
        return local_train(states, self.base, server.adapters,
                           server.accumulated, local, counter, stack)

    def close_round(self, results, weights):
        """Run the server round, then score each participant's adapters
        against the incoming global adapters (plasticity) and the stability
        anchor (stability) by weight distance and layer-averaged CKA. The
        plasticity distances are the server round's displacement norms. The
        stability anchor's CKA operands are kept for the phase: it changes
        only at a drop. A pair with no CKA is recorded as None.
        """
        incoming, stability = self.server.adapters, self.server.accumulated
        phase = self.server.schedule.phase
        updates = [ClientUpdate(cid, adp, self.clients[cid].shard_size)
                   for cid, adp, _ in results]
        self.server, outcome = server_round(self.server, updates)

        base, probe_x, z0 = self.base, self.probe_x, self.probe_z0

        def probe_reps(adapters):
            return prepare_representations(forward(base, adapters, probe_x, z0)[1])

        reps_incoming = probe_reps(incoming)
        if stability is not None and self.stability_reps[0] != phase:
            self.stability_reps = (phase, probe_reps(stability))
        reps_stability = self.stability_reps[1]
        wd_sta, cka_sta, cka_pla = [], [], []
        for _, adp, _ in results:
            reps_local = probe_reps(adp)
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
    their shard-weighted mean. No adapters, so no rank or diagnostics. Each
    shard size's group trains in a ``_ClientStack`` kept across rounds while
    its client count holds. ``row`` holds the global model laid out as one
    client's row: the base's copy, then each round's mean of the clients'
    rows, which the model views."""

    def __init__(self, setup: Setup):
        self.model = setup.base
        arrays = self.model.weights + self.model.biases
        self.row, self.shapes = aligned_params(arrays)[0].buf, [a.shape for a in arrays]
        self.clients, self.local = _clients(setup)
        self.stacks = {}  # shard size -> _ClientStack

    def param_count(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.model.weights, self.model.biases))

    def train_group(self, cids, local: LocalTrainConfig, counter):
        """Each client's trained row of the group's stack, a view that holds
        until the stack trains the next round, and epoch losses."""
        states = [self.clients[cid] for cid in cids]
        stack = _kept_stack(self.stacks, states, None,
                            lambda: _model_stack(self.model, len(cids)))
        stack.updates[...] = self.row
        stack.walk.counter = counter
        losses = group_sgd(states, _model_step(stack, local.task, local.eta), local,
                           shards=stack.operands(states)[:2])
        return list(stack.updates), losses

    def close_round(self, results, weights):
        """The participants' shard-weighted mean of their rows, in client-id
        order, as a fresh model viewing it."""
        (self.row,) = weighted_sum(weights, ([row] for _, row, _ in results))
        self.model = FrozenBase(*_layers(lay_out(self.row, self.shapes)))
        return self.model, None, {}


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
    """The round loop of every mode. ``mode`` (one of the classes above)
    trains one group of equal-shard participants per ``train_group`` call,
    returning each client's update and epoch losses, and folds the round's
    results and shard weights in ``close_round``, which returns the base and
    adapters to score plus the mode's record fields.
    """
    config, root, dataset = setup.config, setup.root, setup.dataset
    sizes = [c.shard_size for c in mode.clients]
    count = _participant_count(config)
    ledger = CommLedger(count)
    records = []
    counter = OpCounter() if config.count_ops else None
    splits = prepare_splits({name: dataset.split(name) for name in ("val", "test")},
                            dataset.task)

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
            scores = evaluate(model, adapters, splits)
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


def run_federated(config: RunConfig, setup: Setup | None = None) -> RunResult:
    """Execute a full federated run for the configured mode, on ``setup`` when
    given: one built from an equal config, so the data is not drawn (or a
    CSV read) again.

    The frozen base's checksum is verified after the round loop, as the
    result's ``base_checksum``; a mutated base aborts the run.
    """
    config.validate()
    if setup is None:
        setup = Setup(config)
    elif setup.config != config:
        raise ParameterError("the setup was built from another config than the run's")
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
    return "".join(json.dumps(r.to_dict()) + "\n" for r in records)


def write_summary_csv(records, path) -> None:
    """The records as CSV: csv writes None as an empty field; lists are JSON."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_FIELDS)
        writer.writerows([json.dumps(v) if isinstance(v, list) else v
                          for v in r.to_dict().values()] for r in records)

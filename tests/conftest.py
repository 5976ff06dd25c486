"""Shared test helpers: random model construction, one-hot training targets,
finite-difference oracles and a linear probe."""

import numpy as np
import pytest

from rankfed.lora import AdapterSet, LoRAAdapter, init_adapter_set
from rankfed.metrics import accuracy_score
from rankfed.model import (_factor_grads, _forward_cache, forward, lwf_penalty,
                           random_base)
from rankfed.numerics import Rng, softmax


@pytest.fixture
def rng():
    return Rng(12345)


def one_hot(labels, classes: int) -> np.ndarray:
    """Integer class labels as the float64 one-hot rows the multiclass loss
    takes, one row per label ([..., classes] for labels [...])."""
    return np.eye(classes)[np.asarray(labels)]


def make_model(rng, dims=(5, 7, 4), rank=3, batch=6, sigma=0.05, warm=True):
    """Small base + adapter set + batch with one-hot targets; warm adapters
    have nonzero B."""
    base = random_base(list(dims), rng.substream("base"))
    adapters = init_adapter_set(base.layer_shapes(), rank, sigma,
                                rng.substream("adapters"))
    if warm:
        warmed = []
        for lid, a in enumerate(adapters):
            warmed.append(LoRAAdapter(
                a.B + rng.substream("warm-b", lid).normal(*a.B.shape, sigma),
                a.A + rng.substream("warm-a", lid).normal(*a.A.shape, sigma),
            ))
        adapters = AdapterSet(tuple(warmed), adapters.nominal_rank)
    x = rng.substream("x").normal(batch, dims[0])
    y = rng.substream("y").integers(0, dims[-1], batch)
    return base, adapters, x, one_hot(y, dims[-1])


def perturbed(adapters, layer, which, idx, eps):
    """Copy of the adapter set with one factor entry shifted by eps."""
    out = []
    for lid, a in enumerate(adapters):
        if lid == layer:
            B, A = a.B.copy(), a.A.copy()
            if which == "B":
                B[idx] += eps
            else:
                A[idx] += eps
            out.append(LoRAAdapter(B, A))
        else:
            out.append(a)
    return AdapterSet(tuple(out), adapters.nominal_rank)


def fd_factor_grads(loss_fn, adapters, step=1e-5):
    """Central finite differences of loss_fn w.r.t. every adapter factor entry."""
    grads = []
    for lid, a in enumerate(adapters):
        gB = np.zeros_like(a.B)
        gA = np.zeros_like(a.A)
        for which, g in (("B", gB), ("A", gA)):
            for idx in np.ndindex(g.shape):
                up = loss_fn(perturbed(adapters, lid, which, idx, step))
                dn = loss_fn(perturbed(adapters, lid, which, idx, -step))
                g[idx] = (up - dn) / (2 * step)
        grads.append((gB, gA))
    return grads


def lwf_penalty_and_grads(base, adapters, teacher, x, mu, **kwargs):
    """``lwf_penalty`` of the student ``adapters`` toward ``teacher`` on ``x``,
    with its logit gradient carried back to the student's factors, as
    ``total_local_loss`` carries it."""
    student = _forward_cache(base.weights, base.biases, adapters, x)
    penalty, dz = lwf_penalty(forward(base, teacher, x)[0], student.hs[-1], mu,
                              **kwargs)
    return penalty, _factor_grads(student, dz)


def max_rel_err(analytic, fd, floor=1e-6):
    """Worst-entry relative error between analytic and FD gradient lists."""
    worst = 0.0
    for (aB, aA), (fB, fA) in zip(analytic, fd):
        for a, f in ((aB, fB), (aA, fA)):
            denom = np.maximum(np.abs(f), floor)
            worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    return worst


def linear_probe_accuracy(train_x, train_y, test_x, test_y, num_classes: int,
                          epochs: int = 300, eta: float = 0.1) -> float:
    """Accuracy of a full-batch softmax-regression probe on fixed features."""
    d = train_x.shape[1]
    w = np.zeros((num_classes, d))
    b = np.zeros(num_classes)
    n = len(train_x)
    for _ in range(epochs):
        logits = train_x @ w.T + b
        p = softmax(logits)
        p[np.arange(n), train_y] -= 1.0
        p /= n
        w -= eta * (p.T @ train_x)
        b -= eta * p.sum(axis=0)
    pred = np.argmax(test_x @ w.T + b, axis=1)
    return accuracy_score(pred, test_y)

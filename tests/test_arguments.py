"""Malformed library calls fail by name.

Every public entry point checks its array arguments' ndim, pinned axis
lengths, dtype kind and class-id range, and rejects a ragged nested list; a
malformed call raises a SplalError whose message starts with the argument's
name (`name: ...`, or `a/b/c: ...` for a rule over several arguments).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splal.augment import strong_augment, weak_augment
from splal.data import Pool, split_labeled
from splal.errors import SplalError
from splal.loss import total_loss
from splal.metrics import auc_ovr, confusion, summary
from splal.model import OptimizerState, adam_step, ce_value_and_dlogits, forward, init_params
from splal.orchestrator import DatasetState
from splal.prototypes import PrototypeBank
from splal.pseudo import combine, ensemble, knn_prediction
from splal.selector import cosine_matrix, gate

from helpers import zero_gradients

PARAMS = init_params(9, (5,), 3, np.random.default_rng(0))


def named(err, name: str) -> bool:
    """Whether the message's field (the text before its first colon) names the argument."""
    return name in str(err.value).split(":")[0].split("/")


def pool_with(truth: list) -> Pool:
    """A pool of 2x2 zero grids with the given truth column."""
    return Pool(np.arange(len(truth)), np.zeros((len(truth), 2, 2)), np.array(truth))


def ce_call(a):
    return ce_value_and_dlogits(forward(PARAMS, a["X"]), a["targets"], a["weights"])


PROBES = {
    "gate on a (0, d) prototype matrix": (
        lambda: gate(np.zeros((0, 3)), np.ones((2, 3)), 0.9, 0.05), "num_classes"),
    "gate on a (1, d) prototype matrix": (
        lambda: gate(np.ones((1, 3)), np.ones((2, 3)), 0.9, 0.05), "num_classes"),
    "combine with two alphas": (
        lambda: combine(np.ones(3) / 3, np.ones(3) / 3, np.ones(3) / 3, (0.5, 0.5)), "alphas"),
    "knn_prediction with feature widths 3 and 4": (
        lambda: knn_prediction(np.ones((2, 3)), np.ones((5, 4)), np.eye(2)[[0, 1, 0, 1, 0]],
                               np.arange(5), 1), "features"),
    "knn_prediction with 3 label rows for 5 features": (
        lambda: knn_prediction(np.ones((2, 3)), np.ones((5, 3)), np.eye(2)[[0, 1, 0]],
                               np.arange(5), 1), "labeled_labels"),
    "auc_ovr with 1-D scores": (
        lambda: auc_ovr(np.linspace(0, 1, 4), np.array([0, 1, 0, 1])), "scores"),
    "auc_ovr with truth 2 against 2 columns": (
        lambda: auc_ovr(np.eye(2)[[0, 1, 0]], np.array([0, 1, 2])), "truths"),
    "summary on a (2, 3) matrix": (
        lambda: summary(np.ones((2, 3), dtype=np.int64)), "matrix"),
    "ce_value_and_dlogits with 2 weights for 3 rows": (
        lambda: ce_call({"X": np.ones((3, 9)), "targets": np.eye(3), "weights": np.ones(2)}), "weights"),
    "init_params with a hidden width of 0": (
        lambda: init_params(4, (0,), 2, np.random.default_rng(0)), "hidden_widths"),
    "confusion with float predictions": (
        lambda: confusion(np.array([0.5, 1.0]), np.array([0, 1]), 2), "predictions"),
    "PrototypeBank with feature_dim 0": (
        lambda: PrototypeBank(2, 0), "feature_dim"),
    "gate on nan features": (
        lambda: gate(np.eye(3), np.full((2, 3), np.nan), 0.9, 0.05), "features"),
    "gate on a nan prototype": (
        lambda: gate(np.array([[1.0, 0.0], [np.nan, 1.0]]), np.ones((2, 2)), 0.9, 0.05), "prototypes"),
    "knn_prediction on a nan labeled feature": (
        lambda: knn_prediction(np.array([0.0, 1.0]), np.array([[1.0, 0.0], [np.nan, 1.0], [0.5, 0.5]]),
                               np.eye(2)[[0, 1, 0]], np.arange(3), 1), "labeled_features"),
    "knn_prediction on an infinite query": (
        lambda: knn_prediction(np.array([np.inf, 1.0]), np.eye(2), np.eye(2), np.arange(2), 1), "features"),
    "DatasetState.split with truth -1": (
        lambda: DatasetState.split(pool_with([0, 1, -1, 1]), np.arange(4), 2), "pool.truth"),
    "DatasetState.split with truth 2 against 2 classes": (
        lambda: DatasetState.split(pool_with([0, 1, 2, 1]), np.arange(4), 2), "pool.truth"),
    "split_labeled with truth 5 against 2 classes": (
        lambda: split_labeled(pool_with([0, 1, 5, 1]), 0.5, 0, 2), "pool.truth"),
    "split_labeled with truth -1": (
        lambda: split_labeled(pool_with([0, 1, -1, 1]), 0.5, 0, 2), "pool.truth"),
    "split_labeled with float truth": (
        lambda: split_labeled(pool_with([0.0, 1.0, 0.0, 1.0]), 0.5, 0, 2), "pool.truth"),
    "split_labeled with ratio 0": (
        lambda: split_labeled(pool_with([0, 1, 0, 1]), 0.0, 0, 2), "ratio"),
    "confusion with prediction 3 against 3 classes": (
        lambda: confusion(np.array([3]), np.array([0]), 3), "predictions"),
    "confusion with truth -1": (
        lambda: confusion(np.array([0]), np.array([-1]), 3), "truths"),
    "PrototypeBank.push with class id 2 against 2 classes": (
        lambda: PrototypeBank(2, 3).push(np.array([2]), np.ones((1, 3))), "class_ids"),
    "knn_prediction with k 0": (
        lambda: knn_prediction(np.ones((2, 3)), np.ones((5, 3)), np.eye(2)[[0, 1, 0, 1, 0]],
                               np.arange(5), 0), "k"),
    "knn_prediction with k 6 over 5 labeled rows": (
        lambda: knn_prediction(np.ones((2, 3)), np.ones((5, 3)), np.eye(2)[[0, 1, 0, 1, 0]],
                               np.arange(5), 6), "k"),
    "summary on an all-zero matrix": (
        lambda: summary(np.zeros((2, 2), dtype=np.int64)), "matrix"),
    "OptimizerState with a ragged m": (
        lambda: OptimizerState(m=[0.0, [0.0, 0.0]], v=np.zeros(2)), "m"),
    "total_loss with 3 weak views for 2 grids": (
        lambda: total_loss(PARAMS, np.ones((2, 3, 3)), np.eye(3)[[0, 1]], 1.0, np.ones((3, 3, 3)),
                           np.ones((2, 3, 3)), 0.6, 0.4), "weak_grids"),
}


@pytest.mark.parametrize("probe", PROBES)
def test_malformed_call_fails_by_name(probe):
    call, name = PROBES[probe]
    with pytest.raises(SplalError) as err:
        call()
    assert named(err, name), str(err.value)


def _valid():
    """name -> (call on a dict of arrays, valid arrays, {argument: perturbations}).

    Perturbations: "n" adds an axis, "k" changes the dtype kind, a digit
    changes that axis's length, "r" makes it a ragged nested list, and "c"
    puts a class id outside [0, K). An argument that sets the shape of
    others (the first of a group that must be equal) takes only the
    perturbations it is checked on by itself.
    """
    rng = np.random.default_rng(1)
    feats, labeled = rng.normal(size=(5, 4)), rng.normal(size=(6, 4))
    labels, ids = np.eye(3)[[0, 1, 2, 0, 1, 2]], np.arange(6)
    probs = rng.dirichlet(np.ones(3), size=5)
    grids = rng.uniform(size=(4, 3, 3))
    flips = rng.random((4, 2)) < 0.5
    knn_args = {"features": feats, "labeled_features": labeled, "labeled_labels": labels,
                "labeled_ids": ids}
    return {
        "cosine_matrix": (lambda a: cosine_matrix(a["prototypes"], a["features"]),
                          {"prototypes": labeled[:3], "features": feats},
                          {"prototypes": "nkr", "features": "nk1r"}),
        "gate": (lambda a: gate(a["prototypes"], a["features"], 0.9, 0.05),
                 {"prototypes": labeled[:3], "features": feats},
                 {"prototypes": "nkr", "features": "nk1r"}),
        "knn_prediction": (lambda a: knn_prediction(**a, k=2), knn_args,
                           {"features": "nk1r", "labeled_features": "nkr",
                            "labeled_labels": "nk0r", "labeled_ids": "nk0r"}),
        "combine": (lambda a: combine(**a), {"linear": probs, "knn": probs, "similarity": probs,
                                              "alphas": np.array([0.2, 0.1, 0.7])},
                    {"linear": "kr", "knn": "nk01r", "similarity": "nk01r", "alphas": "nk0r"}),
        "ensemble": (lambda a: ensemble(**a, k=2, alphas=(0.2, 0.1, 0.7)),
                     {"probabilities": probs, "posterior": probs, **knn_args},
                     {"probabilities": "nkr", "posterior": "nk01r", "features": "nk01r",
                      "labeled_features": "nkr", "labeled_labels": "nk01r", "labeled_ids": "nk0r"}),
        "confusion": (lambda a: confusion(a["predictions"], a["truths"], 3),
                      {"predictions": np.array([0, 1, 2, 2, 1]), "truths": np.array([0, 1, 2, 0, 0])},
                      {"predictions": "nkrc", "truths": "nk0rc"}),
        "summary": (lambda a: summary(a["matrix"]), {"matrix": np.array([[3, 1, 0], [0, 2, 1], [1, 0, 4]])},
                    {"matrix": "nk01r"}),
        "auc_ovr": (lambda a: auc_ovr(a["scores"], a["truths"]),
                    {"scores": probs, "truths": np.array([0, 1, 2, 0, 1])},
                    {"scores": "nkr", "truths": "nk0rc"}),
        "ce_value_and_dlogits": (ce_call, {"X": rng.uniform(size=(5, 9)), "targets": probs,
                                           "weights": np.ones(5)},
                                 {"targets": "nk01r", "weights": "nk0r"}),
        "total_loss": (lambda a: total_loss(PARAMS, a["grids"], a["targets"], a["weights"], a["weak_grids"],
                                            a["strong_grids"], 0.6, 0.4),
                       {"grids": grids, "targets": probs[:4], "weights": np.ones(4),
                        "weak_grids": grids[:, ::-1], "strong_grids": grids.copy()},
                       {"grids": "nkr", "targets": "nk01r", "weights": "nk0r",
                        "weak_grids": "nk012r", "strong_grids": "nk012r"}),
        "PrototypeBank.push": (lambda a: PrototypeBank(3, 4).push(a["class_ids"], a["features"]),
                               {"class_ids": np.array([0, 2, 1, 1, 0]), "features": feats},
                               {"class_ids": "nkrc", "features": "nk01r"}),
        "init_params": (lambda a: init_params(9, a["hidden_widths"], 3, np.random.default_rng(0)),
                        {"hidden_widths": np.array([5, 4])}, {"hidden_widths": "kr"}),
        "weak_augment": (lambda a: weak_augment(a["x"], a["flip_h"], a["flip_v"]),
                         {"x": grids, "flip_h": flips[:, 0], "flip_v": flips[:, 1]},
                         {"x": "nkr", "flip_h": "nk0r", "flip_v": "nk0r"}),
        "strong_augment": (lambda a: strong_augment(a["x"]), {"x": grids}, {"x": "nkr"}),
        "forward": (lambda a: forward(PARAMS, a["X"]), {"X": rng.uniform(size=(5, 9))}, {"X": "nk1r"}),
        "set_flat": (lambda a: PARAMS.copy().set_flat(a["flat"]), {"flat": PARAMS.flatten()},
                     {"flat": "nk0r"}),
        "adam_step": (lambda a: adam_step(PARAMS.copy(), zero_gradients(PARAMS),
                                          OptimizerState(m=a["state.m"], v=np.zeros(a["state.m"].shape))),
                      {"state.m": np.zeros(PARAMS.num_params())}, {"state.m": "nk0"}),
        "OptimizerState": (lambda a: OptimizerState(m=np.zeros(PARAMS.num_params()), v=a["v"]),
                           {"v": np.zeros(PARAMS.num_params())}, {"v": "nk0r"}),
    }


VALID = _valid()
# Other dtypes than the checked kinds allow, by the kind of a valid argument.
REJECTED = {"f": (np.complex128, np.str_), "i": (np.float64, np.complex128), "b": (np.int64, np.float64)}
CASES = [(entry, arg, how) for entry, (_, _, args) in VALID.items()
         for arg, hows in args.items() for how in hows]


@pytest.mark.parametrize("entry", VALID)
def test_valid_calls_pass(entry):
    call, arrays, _ = VALID[entry]
    call({name: a.copy() for name, a in arrays.items()})


@pytest.mark.parametrize("entry, arg, how", CASES)
@settings(max_examples=6, deadline=None)
@given(delta=st.sampled_from([-1, 1, 2]), pick=st.integers(0, 1))
def test_one_perturbed_argument_is_named(entry, arg, how, delta, pick):
    call, arrays, _ = VALID[entry]
    arrays = {name: a.copy() for name, a in arrays.items()}
    a = arrays[arg]
    if how == "n":
        a = a[..., None]
    elif how == "k":
        a = a.astype(REJECTED[a.dtype.kind][pick])
    elif how == "r":  # the last entry nests one level deeper than the others
        a = a.tolist()
        a[-1] = [a[-1], a[-1]]
    elif how == "c":  # -1, or past the largest valid id (every valid table uses all K ids)
        a[pick] = -1 if delta < 0 else a.max() + delta
    else:
        axis = int(how)
        length = a.shape[axis] + delta
        a = np.take(a, np.minimum(np.arange(length), a.shape[axis] - 1), axis=axis)
    arrays[arg] = a
    with pytest.raises(SplalError) as err:
        call(arrays)
    assert named(err, arg), str(err.value)

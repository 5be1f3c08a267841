"""Malformed library calls fail by name.

Every public entry point checks its array arguments' ndim, pinned axis
lengths and dtype kind, and a malformed call raises a SplalError whose
message starts with the argument's name (`name: ...`, or `a/b/c: ...` for a
rule over several arguments).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splal.augment import strong_augment, weak_augment
from splal.errors import SplalError
from splal.loss import total_loss
from splal.metrics import auc_ovr, confusion, summary
from splal.model import OptimizerState, adam_step, ce_value_and_dlogits, forward, init_params
from splal.prototypes import PrototypeBank
from splal.pseudo import combine, ensemble, knn_prediction
from splal.selector import cosine_matrix, gate

from helpers import zero_gradients

PARAMS = init_params(9, (5,), 3, np.random.default_rng(0))


def named(err, name: str) -> bool:
    """Whether the message's field (the text before its first colon) names the argument."""
    return name in str(err.value).split(":")[0].split("/")


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
    changes that axis's length. An argument that sets the shape of others
    (the first of a group that must be equal) takes only the perturbations
    it is checked on by itself.
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
                          {"prototypes": "nk", "features": "nk1"}),
        "gate": (lambda a: gate(a["prototypes"], a["features"], 0.9, 0.05),
                 {"prototypes": labeled[:3], "features": feats},
                 {"prototypes": "nk", "features": "nk1"}),
        "knn_prediction": (lambda a: knn_prediction(**a, k=2), knn_args,
                           {"features": "nk1", "labeled_features": "nk",
                            "labeled_labels": "nk0", "labeled_ids": "nk0"}),
        "combine": (lambda a: combine(**a), {"linear": probs, "knn": probs, "similarity": probs,
                                              "alphas": np.array([0.2, 0.1, 0.7])},
                    {"linear": "k", "knn": "nk01", "similarity": "nk01", "alphas": "nk0"}),
        "ensemble": (lambda a: ensemble(**a, k=2, alphas=(0.2, 0.1, 0.7)),
                     {"probabilities": probs, "posterior": probs, **knn_args},
                     {"probabilities": "nk", "posterior": "nk01", "features": "nk01",
                      "labeled_features": "nk", "labeled_labels": "nk01", "labeled_ids": "nk0"}),
        "confusion": (lambda a: confusion(a["predictions"], a["truths"], 3),
                      {"predictions": np.array([0, 1, 2, 2, 1]), "truths": np.array([0, 1, 2, 0, 0])},
                      {"predictions": "nk", "truths": "nk0"}),
        "summary": (lambda a: summary(a["matrix"]), {"matrix": np.array([[3, 1, 0], [0, 2, 1], [1, 0, 4]])},
                    {"matrix": "nk01"}),
        "auc_ovr": (lambda a: auc_ovr(a["scores"], a["truths"]),
                    {"scores": probs, "truths": np.array([0, 1, 2, 0, 1])},
                    {"scores": "nk", "truths": "nk0"}),
        "ce_value_and_dlogits": (ce_call, {"X": rng.uniform(size=(5, 9)), "targets": probs,
                                           "weights": np.ones(5)},
                                 {"targets": "nk01", "weights": "nk0"}),
        "total_loss": (lambda a: total_loss(PARAMS, a["grids"], a["targets"], a["weights"], a["weak_grids"],
                                            a["strong_grids"], 0.6, 0.4),
                       {"grids": grids, "targets": probs[:4], "weights": np.ones(4),
                        "weak_grids": grids[:, ::-1], "strong_grids": grids.copy()},
                       {"grids": "nk", "targets": "nk01", "weights": "nk0",
                        "weak_grids": "nk012", "strong_grids": "nk012"}),
        "PrototypeBank.push": (lambda a: PrototypeBank(3, 4).push(a["class_ids"], a["features"]),
                               {"class_ids": np.array([0, 2, 1, 1, 0]), "features": feats},
                               {"class_ids": "nk", "features": "nk01"}),
        "init_params": (lambda a: init_params(9, a["hidden_widths"], 3, np.random.default_rng(0)),
                        {"hidden_widths": np.array([5, 4])}, {"hidden_widths": "k"}),
        "weak_augment": (lambda a: weak_augment(a["x"], a["flip_h"], a["flip_v"]),
                         {"x": grids, "flip_h": flips[:, 0], "flip_v": flips[:, 1]},
                         {"x": "nk", "flip_h": "nk0", "flip_v": "nk0"}),
        "strong_augment": (lambda a: strong_augment(a["x"]), {"x": grids}, {"x": "nk"}),
        "forward": (lambda a: forward(PARAMS, a["X"]), {"X": rng.uniform(size=(5, 9))}, {"X": "nk1"}),
        "set_flat": (lambda a: PARAMS.copy().set_flat(a["flat"]), {"flat": PARAMS.flatten()},
                     {"flat": "nk0"}),
        "adam_step": (lambda a: adam_step(PARAMS.copy(), zero_gradients(PARAMS),
                                          OptimizerState(m=a["state.m"], v=np.zeros(a["state.m"].shape))),
                      {"state.m": np.zeros(PARAMS.num_params())}, {"state.m": "nk0"}),
        "OptimizerState": (lambda a: OptimizerState(m=np.zeros(PARAMS.num_params()), v=a["v"]),
                           {"v": np.zeros(PARAMS.num_params())}, {"v": "nk0"}),
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
    else:
        axis = int(how)
        length = a.shape[axis] + delta
        a = np.take(a, np.minimum(np.arange(length), a.shape[axis] - 1), axis=axis)
    arrays[arg] = a
    with pytest.raises(SplalError) as err:
        call(arrays)
    assert named(err, arg), str(err.value)

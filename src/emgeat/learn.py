"""Linear max-margin window classifier, trained from scratch.

The model minimizes

    F(w, b) = 0.5 * ||w||^2 + C * sum_i cw(y_i) * max(0, 1 - y_i (w.x_i + b))^2

by a finite Newton method (Keerthi & DeCoste, JMLR 6, 2005): the squared
hinge makes F piecewise quadratic, so each iteration solves one linear system
in the generalized Hessian over the rows inside the margin and backtracks
along that direction until the Armijo condition holds. Every accepted step
decreases F, and the iterate is exact once the active set stops changing, so
a fit takes a handful of iterations. The iterate is one vector theta = (w, b)
over the rows with a bias column appended, evaluated once per trial point:
the accepted trial's objective, gradient and active set feed the next step.
The bias is not regularized; per-class weights cw compensate for label
imbalance. Features are standardized per column and the standardization is
stored on the model so prediction is self-contained.
"""

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .features import FeatureMatrix, NEGATIVE_LABEL

DEFAULT_C = 5.0

# Columns with no variance carry no information; they are mapped to zero by
# standardizing with this floor instead of dividing by zero.
_SCALE_FLOOR = 1e-12

# Sufficient-decrease fraction of the Armijo line search.
_ARMIJO = 1e-4

# Cap on Newton iterations, and the relative objective improvement below
# which the last step is taken and the fit counts as converged.
_MAX_ITERATIONS = 2000
_TOL = 1e-10


@dataclass(frozen=True)
class TrainConfig:
    c: float = DEFAULT_C
    class_weights: dict = None  # label -> weight; None derives from the data
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError(f"penalty C {self.c!r} must be positive and finite")


@dataclass
class LinearModel:
    feature_names: tuple
    weights: np.ndarray
    bias: float
    mean: np.ndarray
    scale: np.ndarray
    positive_label: str
    negative_label: str = NEGATIVE_LABEL
    train_info: dict = field(default_factory=dict)


class Prf(NamedTuple):
    precision: float
    recall: float
    f1: float


def compute_class_weights(labels) -> dict:
    """Inverse-frequency weights: w_c = N / (K * N_c)."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("no labels")
    return _inverse_frequency(*np.unique(labels, return_counts=True))


def _inverse_frequency(classes, counts) -> dict:
    return dict(zip(map(str, classes), (counts.sum() / (counts.size * counts)).tolist()))


def balance_test_set(labels, seed: int) -> np.ndarray:
    """Indices of a label-balanced subset (majorities downsampled).

    Every class is randomly subsampled to the minority count; returned
    indices are sorted so the original row order is preserved.
    """
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("no labels")
    classes, counts = np.unique(labels, return_counts=True)
    m = counts.min()
    rng = np.random.default_rng(seed)
    keep = []
    for c in classes:
        idx = np.flatnonzero(labels == c)
        if idx.size > m:
            idx = rng.choice(idx, size=m, replace=False)
        keep.append(idx)
    return np.sort(np.concatenate(keep))


def _check_features(X, feature_names):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("feature matrix must be 2-D")
    finite = np.isfinite(X)
    if not finite.all():
        col = int(np.argwhere(~finite)[0, 1])
        name = feature_names[col] if feature_names else str(col)
        raise ValueError(f"non-finite value in feature column {name}")
    return X


def _evaluate(Z1, y, sw, c, theta):
    """Objective, gradient and active rows (positive slack) at theta = (w, b)
    over Z1 = [Z | 1]: one product for the margins, one transposed back."""
    slack = np.maximum(0.0, 1.0 - y * (Z1 @ theta))
    w = theta[:-1]
    grad = -2.0 * c * (Z1.T @ (sw * y * slack))  # zero outside the margin
    grad[:-1] += w
    return 0.5 * float(w @ w) + c * float(sw @ slack**2), grad, slack > 0.0


def train_linear_svm(
    X,
    labels,
    feature_names: tuple,
    positive_label: str,
    config: TrainConfig = TrainConfig(),
) -> LinearModel:
    """Fit the weighted squared-hinge linear classifier.

    Deterministic: zero initialization, full-batch Newton steps, no
    randomness. ``train_info["epochs"]`` counts Newton iterations and
    ``grad_norm`` is the final ||grad F||.
    """
    X = _check_features(X, feature_names)
    labels = np.asarray(labels)
    if X.shape[0] != labels.size:
        raise ValueError("row count mismatch between features and labels")
    classes, inverse = np.unique(labels, return_inverse=True)
    present = [str(c) for c in classes]
    if len(present) < 2:
        raise ValueError(f"training data has a single class: {present}")
    if positive_label not in present:
        raise ValueError(f"positive label {positive_label!r} absent from training data")

    weights_by_class = config.class_weights
    if weights_by_class is None:
        weights_by_class = _inverse_frequency(classes, np.bincount(inverse))
    sw = np.array([weights_by_class[c] for c in present], dtype=float)[inverse]
    y = np.where(labels == positive_label, 1.0, -1.0)

    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale[scale < _SCALE_FLOOR] = 1.0
    Z1 = np.hstack([(X - mean) / scale, np.ones((X.shape[0], 1))])  # bias column
    d = X.shape[1]
    ridge = np.diag([1.0] * d + [0.0])  # the bias is not regularized
    theta = np.zeros(d + 1)
    f, grad, active = _evaluate(Z1, y, sw, config.c, theta)
    history = [f]
    converged = False
    epoch = 0
    for epoch in range(1, _MAX_ITERATIONS + 1):
        rows = Z1[active]
        # Positive definite: a step toward the quadratic model's minimizer
        # cannot satisfy all its active rows while both classes are present,
        # so every iterate keeps a row inside the margin: the bias entry is > 0.
        hess = ridge + 2.0 * config.c * (rows.T * sw[active]) @ rows
        step = np.linalg.solve(hess, -grad)
        slope = float(grad @ step)  # -slope is the squared Newton decrement
        # The quadratic model predicts an improvement of -slope / 2; below
        # _TOL this is the last step, taken so the result sits on the optimum.
        last = -0.5 * slope <= _TOL * max(1.0, f)
        t = 1.0
        for _ in range(60):
            trial = _evaluate(Z1, y, sw, config.c, theta + t * step)
            if trial[0] <= f + _ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            converged = last  # no decrease left at float resolution
            break
        theta = theta + t * step
        f, grad, active = trial  # the next step starts from the accepted trial
        history.append(f)
        if last:
            converged = True
            break

    return LinearModel(
        feature_names=tuple(feature_names),
        weights=theta[:d],
        bias=float(theta[d]),
        mean=mean,
        scale=scale,
        positive_label=positive_label,
        train_info={
            "converged": converged,
            "epochs": epoch,
            "objective": f,
            "grad_norm": float(np.sqrt(grad @ grad)),
            "objective_history": history,
            "c": config.c,
            "class_weights": {k: float(v) for k, v in weights_by_class.items()},
        },
    )


def decision_values(model: LinearModel, X) -> np.ndarray:
    X = _check_features(X, model.feature_names)
    if X.shape[1] != model.weights.size:
        raise ValueError("feature count does not match the model")
    Z = (X - model.mean) / model.scale
    # A per-row sum, not Z @ w: a row's value must not depend on how many
    # rows share the call, so the engine's batches agree with predict().
    return np.add.reduce(Z * model.weights, axis=1) + model.bias


def predict(model: LinearModel, X) -> np.ndarray:
    """Labels for each row; the positive class requires margin strictly > 0."""
    dec = decision_values(model, X)
    out = np.where(dec > 0, model.positive_label, model.negative_label)
    return out.astype(object)


def prf_metrics(y_true, y_pred) -> dict:
    """Per-class precision/recall/F1, zero where a denominator is zero."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.size != y_pred.size:
        raise ValueError("length mismatch")
    out = {}
    for label in sorted(set(map(str, y_true)) | set(map(str, y_pred))):
        tp = float(np.sum((y_true == label) & (y_pred == label)))
        fp = float(np.sum((y_true != label) & (y_pred == label)))
        fn = float(np.sum((y_true == label) & (y_pred != label)))
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = (
            2.0 * precision * recall / (precision + recall)
            if precision + recall > 0
            else 0.0
        )
        out[label] = Prf(precision, recall, f1)
    return out


def build_stratified_folds(labels, k: int, seed: int) -> list:
    """k folds with every class present in each; (train_idx, test_idx) pairs.

    Class members are shuffled then dealt round-robin, so every fold gets
    every class exactly when each class has at least k rows.
    """
    labels = np.asarray(labels)
    if k < 2:
        raise ValueError("need at least 2 folds")
    classes, counts = np.unique(labels, return_counts=True)
    if (counts < k).any():
        raise ValueError(f"could not stratify {k} folds: some class has fewer than {k} rows")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(labels.size, dtype=int)
    for c in classes:
        idx = rng.permutation(np.flatnonzero(labels == c))
        fold_of[idx] = np.arange(idx.size) % k
    return [(np.flatnonzero(fold_of != j), np.flatnonzero(fold_of == j)) for j in range(k)]


def _fold_metrics(X, labels, train_rows, test_rows, feature_names, positive_label, config):
    """Train on X[train_rows], predict X[test_rows]: label -> Prf there."""
    model = train_linear_svm(
        X[train_rows], labels[train_rows], feature_names, positive_label, config
    )
    return prf_metrics(labels[test_rows], predict(model, X[test_rows]))


def grid_search_cv(
    X,
    labels,
    feature_names: tuple,
    positive_label: str,
    penalties,
    base_config: TrainConfig = TrainConfig(),
    k: int = 3,
):
    """Pick the penalty C from `penalties` by k-fold mean F1.

    The score is the positive-class F1 averaged over stratified folds (folds
    fixed across candidates). Ties go to the smaller C, then to the earlier
    position. Returns (best_config, results) where results is a list of
    (config, mean_f1) in the order of `penalties`.
    """
    X = _check_features(X, feature_names)
    labels = np.asarray(labels)
    folds = build_stratified_folds(labels, k, base_config.seed)
    results = []
    best = None
    for c in penalties:
        config = replace(base_config, c=c)
        scores = []
        for train_idx, test_idx in folds:
            prf = _fold_metrics(
                X, labels, train_idx, test_idx, feature_names, positive_label, config
            )
            scores.append(prf[positive_label].f1)
        mean_f1 = float(np.mean(scores))
        results.append((config, mean_f1))
        if best is None or mean_f1 > best[1] or (mean_f1 == best[1] and c < best[0].c):
            best = (config, mean_f1)
    return best[0], results


@dataclass
class FoldResult:
    participant: str
    n_test: int
    metrics: dict  # label -> Prf


@dataclass
class EvalReport:
    folds: list
    mean: dict  # label -> Prf of per-fold means
    f1_std: dict  # label -> std of F1 across folds


def lopo_evaluate(
    matrix: FeatureMatrix,
    positive_label: str,
    config: TrainConfig = TrainConfig(),
) -> EvalReport:
    """Leave-one-participant-out evaluation with balanced test folds.

    Each fold trains on all other participants (class weights derived from
    that training split unless fixed in config) and tests on the held-out
    participant after majority downsampling. Deterministic given config.seed.
    """
    participants = sorted(set(map(str, matrix.participants)))
    if len(participants) < 2:
        raise ValueError("leave-one-participant-out needs at least 2 participants")
    with_positive = set(map(str, matrix.participants[matrix.labels == positive_label]))
    missing = [p for p in participants if p not in with_positive]
    if missing:
        raise ValueError(f"participant {missing[0]} has no {positive_label} windows")
    X, labels = matrix.values, matrix.labels
    folds = []
    for i, participant in enumerate(participants):
        held_out = matrix.participants == participant
        test_idx = np.flatnonzero(held_out)
        test_idx = test_idx[balance_test_set(labels[test_idx], seed=config.seed + i)]
        prf = _fold_metrics(
            X, labels, ~held_out, test_idx, matrix.feature_names, positive_label, config
        )
        folds.append(FoldResult(participant=participant, n_test=test_idx.size, metrics=prf))
    labels_seen = sorted({label for fold in folds for label in fold.metrics})
    mean = {}
    f1_std = {}
    for label in labels_seen:
        per_fold = [fold.metrics.get(label, Prf(0.0, 0.0, 0.0)) for fold in folds]
        mean[label] = Prf(*(float(np.mean([getattr(m, f) for m in per_fold]))
                            for f in Prf._fields))
        f1_std[label] = float(np.std([m.f1 for m in per_fold]))
    return EvalReport(folds=folds, mean=mean, f1_std=f1_std)

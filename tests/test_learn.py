"""Linear classifier: weights, gradient oracle, folds, LOPO evaluation."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import emgeat.learn as learn
from emgeat.features import FeatureMatrix
from emgeat.learn import (
    LinearModel,
    TrainConfig,
    balance_test_set,
    build_stratified_folds,
    compute_class_weights,
    decision_values,
    grid_search_cv,
    lopo_evaluate,
    predict,
    prf_metrics,
    train_linear_svm,
    _evaluate,
)


def make_blobs(n_per_class=60, gap=2.0, sd=0.4, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack(
        [
            rng.normal([-gap, -gap], sd, (n_per_class, 2)),
            rng.normal([gap, gap], sd, (n_per_class, 2)),
        ]
    )
    y = np.array(["NA"] * n_per_class + ["C"] * n_per_class, dtype=object)
    return X, y


def objective_trace(X, y, feature_names, config=TrainConfig()):
    """The objective at the start and after each epoch of a fit: the final
    objective of the same fit capped at 0, 1, ..., its own epoch count."""

    def fit():
        return train_linear_svm(X, y, feature_names, "C", config).train_info

    info = fit()
    trace = []
    with pytest.MonkeyPatch.context() as mp:
        for cap in range(info["epochs"] + 1):
            mp.setattr(learn, "_MAX_ITERATIONS", cap)
            trace.append(fit()["objective"])
    assert trace[-1] == info["objective"]
    return info, trace


def make_matrix(values, labels, participants):
    n = len(labels)
    return FeatureMatrix(
        feature_names=tuple(f"f{i}" for i in range(values.shape[1])),
        values=values,
        labels=np.asarray(labels, dtype=object),
        participants=np.asarray(participants, dtype=object),
        onsets_s=np.zeros(n),
        terminations_s=np.ones(n),
    )


class TestClassWeights:
    def test_imbalanced_two_class(self):
        w = compute_class_weights(["NA"] * 900 + ["C"] * 100)
        assert w["NA"] == pytest.approx(0.5556, abs=1e-4)
        assert w["C"] == pytest.approx(5.0)

    def test_balanced(self):
        w = compute_class_weights(["NA"] * 100 + ["C"] * 100)
        assert w == {"NA": 1.0, "C": 1.0}

    def test_three_class(self):
        w = compute_class_weights(["NA"] * 500 + ["C"] * 100 + ["S"] * 400)
        assert w["NA"] == pytest.approx(0.667, abs=1e-3)
        assert w["C"] == pytest.approx(3.333, abs=1e-3)
        assert w["S"] == pytest.approx(0.833, abs=1e-3)


class TestBalanceTestSet:
    def test_downsamples_majority(self):
        labels = np.array(["NA"] * 500 + ["C"] * 100, dtype=object)
        idx = balance_test_set(labels, seed=0)
        kept = labels[idx]
        assert np.sum(kept == "NA") == 100
        assert np.sum(kept == "C") == 100

    def test_balanced_input_unchanged_sizes(self):
        labels = np.array(["NA"] * 50 + ["C"] * 50, dtype=object)
        idx = balance_test_set(labels, seed=3)
        assert idx.size == 100

    def test_deterministic_and_sorted(self):
        labels = np.array(["NA"] * 300 + ["C"] * 80, dtype=object)
        a = balance_test_set(labels, seed=11)
        b = balance_test_set(labels, seed=11)
        assert np.array_equal(a, b)
        assert np.all(np.diff(a) > 0)


class TestTraining:
    def test_separable_blobs_perfect(self):
        X, y = make_blobs()
        model = train_linear_svm(X, y, ("f1", "f2"), "C")
        assert np.mean(predict(model, X) == y) == 1.0

    def test_objective_monotone_non_increasing(self):
        X, y = make_blobs(seed=2)
        _, h = objective_trace(X, y, ("f1", "f2"))
        assert len(h) >= 2
        for a, b in zip(h, h[1:]):
            assert b <= a + 1e-12

    @pytest.mark.parametrize("c", [1e300, 1e200, 1e160])
    def test_penalty_beyond_finite_arithmetic_refused(self, c):
        # Raised, not warned: the test suite turns a RuntimeWarning into an error.
        X, y = make_blobs()
        with pytest.raises(ValueError, match=re.escape(f"penalty C {c!r} takes the fit beyond")):
            train_linear_svm(X, y, ("f1", "f2"), "C", TrainConfig(c=c))

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(7)
        Z = rng.standard_normal((40, 3))
        Z1 = np.hstack([Z, np.ones((40, 1))])
        y = np.where(rng.uniform(size=40) > 0.5, 1.0, -1.0)
        sw = rng.uniform(0.5, 2.0, size=40)
        c = 5.0
        eps = 1e-6
        for _ in range(10):
            w = rng.standard_normal(3)
            b = float(rng.standard_normal())
            theta = np.append(w, b)
            _, grad, active = _evaluate(Z1, y, sw, c, theta)
            assert np.array_equal(active, y * (Z @ w + b) < 1.0)
            for k in range(4):  # the last entry is the bias
                step = np.zeros(4)
                step[k] = eps
                num = (
                    _evaluate(Z1, y, sw, c, theta + step)[0]
                    - _evaluate(Z1, y, sw, c, theta - step)[0]
                ) / (2 * eps)
                assert abs(grad[k] - num) <= 1e-5 * max(1.0, abs(num))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(6, 60),
        d=st.integers(1, 5),
        c=st.floats(1e-3, 1e3),
    )
    def test_reported_state_is_that_of_the_returned_iterate(self, seed, n, d, c):
        """objective and grad_norm are the loop's own final values; they must
        equal a from-scratch recomputation at the returned weights and bias."""
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d))
        labels = np.where(rng.uniform(size=n) < 0.4, "C", "NA").astype(object)
        labels[:2] = ["C", "NA"]  # both classes, and overlapping: not separable
        X[1] = X[0]
        weights = {"C": float(rng.uniform(0.2, 5.0)), "NA": float(rng.uniform(0.2, 5.0))}
        model = train_linear_svm(
            X, labels, tuple(f"f{i}" for i in range(d)), "C",
            TrainConfig(c=c, class_weights=weights),
        )
        Z1 = np.hstack([(X - model.mean) / model.scale, np.ones((n, 1))])
        y = np.where(labels == "C", 1.0, -1.0)
        sw = np.array([weights[label] for label in labels])
        f, grad, _ = _evaluate(Z1, y, sw, c, np.append(model.weights, model.bias))
        info = model.train_info
        assert info["objective"] == pytest.approx(f, rel=1e-12, abs=0.0)
        assert info["grad_norm"] == pytest.approx(float(np.linalg.norm(grad)), rel=1e-12, abs=0.0)

    def test_tiny_penalty_shrinks_weights(self):
        X, y = make_blobs()
        model = train_linear_svm(X, y, ("f1", "f2"), "C", TrainConfig(c=1e-8))
        assert float(np.linalg.norm(model.weights)) < 1e-3

    def test_deterministic(self):
        X, y = make_blobs(seed=5)
        a = train_linear_svm(X, y, ("f1", "f2"), "C")
        b = train_linear_svm(X, y, ("f1", "f2"), "C")
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    def test_single_class_rejected(self):
        X = np.zeros((10, 2))
        y = np.array(["C"] * 10, dtype=object)
        with pytest.raises(ValueError, match="single class"):
            train_linear_svm(X, y, ("f1", "f2"), "C")

    def test_missing_positive_label_rejected(self):
        X, y = make_blobs()
        with pytest.raises(ValueError, match="absent"):
            train_linear_svm(X, y, ("f1", "f2"), "S")

    def test_realtime_training_set_converges(self, rt_model):
        info = rt_model.train_info
        assert info["converged"] is True
        assert info["epochs"] <= 50
        assert info["grad_norm"] <= 1e-6 * max(1.0, info["objective"])

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(4, 80),
        d=st.integers(1, 6),
        c=st.floats(1e-3, 1e3),
        weights=st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
    )
    def test_weighted_nonseparable_property(self, seed, n, d, c, weights):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d)) * rng.uniform(0.01, 100.0, d)
        y = np.where(rng.uniform(size=n) > 0.5, "C", "NA").astype(object)
        y[:2] = ["C", "NA"]
        # The same point under both labels makes the data non-separable.
        X = np.vstack([X, X[:1]])
        y = np.append(y, "NA" if y[0] == "C" else "C")
        config = TrainConfig(c=c, class_weights={"C": weights[0], "NA": weights[1]})
        info, h = objective_trace(X, y, tuple(f"f{i}" for i in range(d)), config)
        assert all(b <= a for a, b in zip(h, h[1:]))
        assert info["converged"] is True
        assert info["grad_norm"] <= 1e-6 * max(1.0, info["objective"])

    def test_iteration_cap_still_returns_model(self, monkeypatch):
        monkeypatch.setattr(learn, "_MAX_ITERATIONS", 1)
        X, y = make_blobs(gap=0.35, sd=1.0, seed=4)
        model = train_linear_svm(X, y, ("f1", "f2"), "C")
        assert model.train_info["converged"] is False
        assert model.train_info["epochs"] == 1
        assert np.all(np.isfinite(model.weights)) and np.isfinite(model.bias)
        assert predict(model, X).shape == y.shape

    @pytest.mark.parametrize("layout", ["constant", "duplicated"])
    def test_degenerate_columns_converge(self, layout):
        X, y = make_blobs(gap=0.35, sd=1.0, seed=6)
        if layout == "constant":
            X = np.column_stack([X, np.full(len(y), 3.0)])  # takes the scale floor
        else:
            X = np.column_stack([X, X, X[:, :1]])
        names = tuple(f"f{i}" for i in range(X.shape[1]))
        info = train_linear_svm(X, y, names, "C").train_info
        assert info["converged"] is True
        assert info["grad_norm"] <= 1e-6 * max(1.0, info["objective"])

    def test_nonfinite_feature_rejected(self):
        X, y = make_blobs()
        X[3, 1] = np.nan
        with pytest.raises(ValueError, match="f2"):
            train_linear_svm(X, y, ("f1", "f2"), "C")


class TestPredict:
    def test_zero_decision_is_negative(self):
        model = LinearModel(
            feature_names=("f1",),
            weights=np.zeros(1),
            bias=0.0,
            mean=np.zeros(1),
            scale=np.ones(1),
            positive_label="C",
        )
        X = np.array([[3.0], [-3.0]])
        assert np.all(decision_values(model, X) == 0.0)
        assert list(predict(model, X)) == ["NA", "NA"]

    def test_decision_of_a_row_does_not_depend_on_batch_size(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 7))
        model = LinearModel(
            feature_names=tuple(f"f{i}" for i in range(7)),
            weights=rng.normal(size=7),
            bias=0.3,
            mean=rng.normal(size=7),
            scale=rng.uniform(0.5, 2.0, 7),
            positive_label="C",
        )
        whole = decision_values(model, X)
        for size in (1, 2, 3, 5):
            for i in range(0, 40 - size, size):
                part = decision_values(model, X[i : i + size])
                assert np.array_equal(part, whole[i : i + size])

    def test_column_rescale_invariance(self):
        X, y = make_blobs(seed=9)
        base = predict(train_linear_svm(X, y, ("f1", "f2"), "C"), X)
        X2 = X.copy()
        X2[:, 1] *= 37.0  # refit standardization absorbs the scale
        again = predict(train_linear_svm(X2, y, ("f1", "f2"), "C"), X2)
        assert np.array_equal(base, again)


class TestPrf:
    def test_hand_counts(self):
        y_true = ["C"] * 10 + ["NA"] * 10
        y_pred = ["C"] * 9 + ["NA"] + ["NA"] * 9 + ["C"]
        prf = prf_metrics(y_true, y_pred)["C"]
        assert prf.precision == pytest.approx(0.9)
        assert prf.recall == pytest.approx(0.9)
        assert prf.f1 == pytest.approx(0.9)

    def test_perfect(self):
        y = ["C", "NA", "C"]
        prf = prf_metrics(y, y)["C"]
        assert (prf.precision, prf.recall, prf.f1) == (1.0, 1.0, 1.0)

    def test_zero_denominators(self):
        prf = prf_metrics(["C", "C", "NA"], ["NA", "NA", "NA"])["C"]
        assert (prf.precision, prf.recall, prf.f1) == (0.0, 0.0, 0.0)


class TestFoldsAndGrid:
    def test_folds_partition_rows(self):
        labels = np.array(["C"] * 30 + ["NA"] * 60, dtype=object)
        folds = build_stratified_folds(labels, 3, seed=0)
        seen = np.concatenate([test for _, test in folds])
        assert sorted(seen.tolist()) == list(range(90))
        for train_idx, test_idx in folds:
            assert set(train_idx) & set(test_idx) == set()
            assert "C" in labels[test_idx] and "NA" in labels[test_idx]

    @settings(max_examples=60, deadline=None)
    @given(
        counts=st.lists(st.integers(1, 8), min_size=1, max_size=3),
        k=st.integers(2, 5),
        seed=st.integers(0, 99),
    )
    def test_folds_exist_exactly_when_every_class_reaches_k(self, counts, k, seed):
        labels = np.repeat(["C", "NA", "S"][: len(counts)], counts).astype(object)
        if min(counts) < k:
            with pytest.raises(ValueError, match=f"fewer than {k} rows"):
                build_stratified_folds(labels, k, seed)
            return
        for _, test_idx in build_stratified_folds(labels, k, seed):
            assert set(labels[test_idx]) == set(labels)

    def test_ties_go_to_the_smaller_penalty(self):
        X, y = make_blobs(seed=3)  # separable: every penalty scores F1 = 1
        config, results = grid_search_cv(X, y, ("f1", "f2"), "C", [5.0, 0.5, 2.0])
        assert [r[1] for r in results] == [1.0, 1.0, 1.0]
        assert [r[0].c for r in results] == [5.0, 0.5, 2.0]
        assert config.c == 0.5

    def test_singleton_grid(self):
        X, y = make_blobs(seed=3)
        config, results = grid_search_cv(X, y, ("f1", "f2"), "C", [5.0])
        assert config.c == 5.0
        assert len(results) == 1

    def test_selection_matches_external_loop(self):
        # noisy overlap so the penalty actually matters
        X, y = make_blobs(gap=0.35, sd=1.0, seed=17)
        grid = [0.01, 5.0]
        config, results = grid_search_cv(X, y, ("f1", "f2"), "C", grid)

        folds = build_stratified_folds(np.asarray(y), 3, seed=0)
        external = []
        for c in grid:
            scores = []
            for train_idx, test_idx in folds:
                m = train_linear_svm(
                    X[train_idx], y[train_idx], ("f1", "f2"), "C", TrainConfig(c=c)
                )
                scores.append(prf_metrics(y[test_idx], predict(m, X[test_idx]))["C"].f1)
            external.append(float(np.mean(scores)))
        best_external = grid[int(np.argmax(external))]
        assert config.c == best_external
        assert [r[1] for r in results] == pytest.approx(external)


class TestLopo:
    def _three_participant_matrix(self, seed=0):
        rng = np.random.default_rng(seed)
        blocks, labels, parts = [], [], []
        for p in ("P01", "P02", "P03"):
            Xp, yp = make_blobs(n_per_class=40, seed=rng.integers(2**31))
            blocks.append(Xp)
            labels.extend(yp)
            parts.extend([p] * len(yp))
        return make_matrix(np.vstack(blocks), labels, parts)

    def test_each_participant_excluded_once(self):
        report = lopo_evaluate(self._three_participant_matrix(), "C")
        assert [f.participant for f in report.folds] == ["P01", "P02", "P03"]

    def test_mean_equals_arithmetic_mean(self):
        report = lopo_evaluate(self._three_participant_matrix(), "C")
        f1s = [f.metrics["C"].f1 for f in report.folds]
        assert report.mean["C"].f1 == pytest.approx(np.mean(f1s))
        assert report.f1_std["C"] == pytest.approx(np.std(f1s))

    def test_single_participant_rejected(self):
        mat = make_matrix(*make_blobs(seed=1), ["P01"] * 120)

        with pytest.raises(ValueError, match="at least 2"):
            lopo_evaluate(mat, "C")

    def test_participant_without_positives_named(self):
        X, y = make_blobs(n_per_class=40, seed=2)
        y2 = np.array(["NA"] * 40, dtype=object)
        values = np.vstack([X, X[:40]])
        labels = np.concatenate([y, y2])
        parts = ["P01"] * 80 + ["P02"] * 40
        with pytest.raises(ValueError, match="P02"):
            lopo_evaluate(make_matrix(values, labels, parts), "C")

    def test_label_permutation_is_chance_level(self):
        rng = np.random.default_rng(0)
        blocks = [rng.normal(0, 1, (120, 3)) for _ in range(4)]
        labels = np.asarray(rng.choice(["C", "NA"], size=480), dtype=object)
        parts = np.repeat([f"P{i}" for i in range(4)], 120)
        mat = make_matrix(np.vstack(blocks), labels, parts)
        report = lopo_evaluate(mat, "C", TrainConfig(seed=1))
        assert report.mean["C"].f1 == pytest.approx(0.5, abs=0.1)

    def test_deterministic(self):
        mat = self._three_participant_matrix(seed=7)
        a = lopo_evaluate(mat, "C")
        b = lopo_evaluate(mat, "C")
        assert a.mean["C"] == b.mean["C"]
        assert a.f1_std["C"] == b.f1_std["C"]

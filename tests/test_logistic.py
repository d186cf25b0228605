"""Logistic head: gradient correctness, monotone descent, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairshot import logistic
from pairshot.errors import NoDataError, NumericError, ShapeError
from pairshot.logistic import LogisticHead, gradients, objective


def random_problem(rng, n=None, dim=None, k=None):
    n = n or int(rng.integers(4, 20))
    dim = dim or int(rng.integers(2, 10))
    k = k or int(rng.integers(2, 5))
    X = rng.normal(size=(n, dim))
    y = rng.integers(0, k, size=n)
    Y = np.zeros((n, k))
    Y[np.arange(n), y] = 1.0
    return X, y, Y, dim, k


def reference_fit(head, X, y, max_iter=logistic.MAX_ITER_DEFAULT, tol=logistic.TOL_DEFAULT):
    """LogisticHead.fit's loop as it was before the fit reused the accepted
    step's softmax: objective and gradients recomputed at every point."""
    Y = np.zeros((X.shape[0], head.n_classes))
    Y[np.arange(X.shape[0]), y] = 1.0
    head.objective_trace = [objective(head.W, head.b, X, Y, head.l2)]
    for _ in range(max_iter):
        grad_w, grad_b = gradients(head.W, head.b, X, Y, head.l2)
        gmax = max(float(np.abs(grad_w).max()), float(np.abs(grad_b).max()))
        if gmax < tol:
            break
        gsq = float(np.sum(grad_w * grad_w) + np.sum(grad_b * grad_b))
        current = head.objective_trace[-1]
        step = 1.0
        while step >= logistic._MIN_STEP:
            candidate = objective(head.W - step * grad_w, head.b - step * grad_b, X, Y, head.l2)
            if candidate <= current - logistic._ARMIJO_C * step * gsq:
                break
            step *= 0.5
        else:
            break
        head.W -= step * grad_w
        head.b -= step * grad_b
        head.objective_trace.append(candidate)
    return head


class TestFitMatchesReference:
    @settings(max_examples=40, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 30),
        dim=st.integers(1, 12),
        k=st.integers(2, 5),
        scale=st.sampled_from([1e-3, 1.0, 30.0]),
        l2=st.sampled_from([0.0, 1e-4, 0.5]),
        max_iter=st.sampled_from([0, 1, 7, logistic.MAX_ITER_DEFAULT]),
    )
    def test_weights_and_trace_are_bit_identical(self, seed, n, dim, k, scale, l2, max_iter):
        rng = np.random.default_rng(seed)
        X = rng.normal(scale=scale, size=(n, dim))
        y = rng.integers(0, k, size=n)
        fitted = LogisticHead(k, dim, l2=l2).fit(X, y, max_iter=max_iter)
        reference = reference_fit(LogisticHead(k, dim, l2=l2), X, y, max_iter=max_iter)
        assert fitted.W.tobytes() == reference.W.tobytes()
        assert fitted.b.tobytes() == reference.b.tobytes()
        assert fitted.objective_trace == reference.objective_trace


class TestGradientCheck:
    def test_matches_central_differences(self):
        """50 random problems: analytic gradients of the regularized
        cross-entropy match central finite differences to 1e-6 relative."""
        rng = np.random.default_rng(42)
        h = 1e-6
        for _ in range(50):
            X, _, Y, dim, k = random_problem(rng)
            W = rng.normal(scale=0.5, size=(k, dim))
            b = rng.normal(scale=0.5, size=k)
            l2 = 10.0 ** rng.uniform(-5, -2)
            grad_w, grad_b = gradients(W, b, X, Y, l2)

            i, j = rng.integers(0, k), rng.integers(0, dim)
            Wp, Wm = W.copy(), W.copy()
            Wp[i, j] += h
            Wm[i, j] -= h
            numeric_w = (objective(Wp, b, X, Y, l2) - objective(Wm, b, X, Y, l2)) / (2 * h)
            np.testing.assert_allclose(grad_w[i, j], numeric_w, rtol=1e-6, atol=1e-9)

            bp, bm = b.copy(), b.copy()
            bp[i] += h
            bm[i] -= h
            numeric_b = (objective(W, bp, X, Y, l2) - objective(W, bm, X, Y, l2)) / (2 * h)
            np.testing.assert_allclose(grad_b[i], numeric_b, rtol=1e-6, atol=1e-9)

    def test_l2_term_excludes_intercepts(self):
        """Scaling the intercept changes no part of the penalty: the
        objective difference must be pure cross-entropy."""
        rng = np.random.default_rng(0)
        X, _, Y, dim, k = random_problem(rng, n=8, dim=3, k=2)
        W = np.zeros((k, dim))
        b_small = np.zeros(k)
        b_large = np.array([100.0, -100.0])
        # With W = 0 the penalty is 0 in both cases; only CE differs.
        small = objective(W, b_small, X, Y, 1.0)
        large = objective(W, b_large, X, Y, 1.0)
        assert small != large
        # And the penalty really does respond to W.
        assert objective(W + 1.0, b_small, X, Y, 1.0) > objective(W, b_small, X, Y, 0.0)


class TestFit:
    def test_objective_trace_never_increases(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            X, y, _, dim, k = random_problem(rng)
            head = LogisticHead(n_classes=k, dim=dim)
            head.fit(X, y, max_iter=120)
            trace = np.array(head.objective_trace)
            assert np.all(np.diff(trace) <= 0)

    def test_fit_is_deterministic(self):
        rng = np.random.default_rng(3)
        X, y, _, dim, k = random_problem(rng, n=30, dim=5, k=3)
        a = LogisticHead(n_classes=k, dim=dim).fit(X, y)
        b = LogisticHead(n_classes=k, dim=dim).fit(X, y)
        np.testing.assert_array_equal(a.W, b.W)
        np.testing.assert_array_equal(a.b, b.b)

    def test_separable_data_is_classified_correctly(self):
        rng = np.random.default_rng(11)
        centers = np.array([[3.0, 0.0], [-3.0, 0.0], [0.0, 3.0]])
        X = np.vstack([c + 0.3 * rng.normal(size=(20, 2)) for c in centers])
        y = np.repeat([0, 1, 2], 20)
        head = LogisticHead(n_classes=3, dim=2).fit(X, y)
        preds = head.predict_proba(X).argmax(axis=1)
        assert (preds == y).mean() == 1.0

    def test_stops_on_small_gradient(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = np.array([0, 1])
        head = LogisticHead(n_classes=2, dim=2)
        head.fit(X, y, max_iter=5000, tol=1e-4)
        assert len(head.objective_trace) < 5000
        gw, gb = gradients(
            head.W, head.b, X, np.eye(2), head.l2
        )
        assert max(np.abs(gw).max(), np.abs(gb).max()) < 1e-4

    def test_shape_validation(self):
        head = LogisticHead(n_classes=2, dim=3)
        with pytest.raises(NoDataError):
            head.fit(np.zeros((0, 3)), np.zeros(0, dtype=int))
        with pytest.raises(ShapeError):
            head.fit(np.zeros((4, 2)), np.zeros(4, dtype=int))
        with pytest.raises(ShapeError):
            head.fit(np.zeros((4, 3)), np.array([0, 1, 2, 0]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 1), (3, 2)])
    def test_non_finite_gradient_raises(self, value, where):
        """An embedding that is NaN or infinite stops the fit with
        NumericError wherever it sits."""
        X = np.random.default_rng(1).normal(size=(4, 3))
        X[where] = value
        with pytest.raises(NumericError):
            LogisticHead(n_classes=2, dim=3).fit(X, np.array([0, 1, 0, 1]))

    def test_head_needs_two_classes(self):
        with pytest.raises(ShapeError):
            LogisticHead(n_classes=1, dim=4)


class TestPredictProba:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        X, y, _, dim, k = random_problem(rng, n=12, dim=4, k=3)
        head = LogisticHead(n_classes=k, dim=dim).fit(X, y)
        probs = head.predict_proba(X)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_single_vector_and_batch_agree(self):
        rng = np.random.default_rng(6)
        X, y, _, dim, k = random_problem(rng, n=10, dim=4, k=2)
        head = LogisticHead(n_classes=k, dim=dim).fit(X, y)
        np.testing.assert_allclose(
            head.predict_proba(X[0]), head.predict_proba(X)[0], atol=1e-15
        )

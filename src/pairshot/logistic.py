"""Multinomial logistic regression head, fit by full-batch descent.

Deterministic by construction: zero initialization, full-batch
gradients, and a backtracking (Armijo) line search, stopping when the
gradient max-norm drops below 1e-6 or after 500 iterations.  The L2
penalty (default 1e-4) applies to the weights, not the intercepts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NoDataError, NumericError, ShapeError
from .numerics import stable_softmax

L2_DEFAULT = 1e-4
TOL_DEFAULT = 1e-6
MAX_ITER_DEFAULT = 500
_ARMIJO_C = 1e-4
_MIN_STEP = 1e-12


def _objective_and_probs(
    W: np.ndarray, b: np.ndarray, X: np.ndarray, Y: np.ndarray, l2: float
) -> tuple[float, np.ndarray]:
    """objective at (W, b) and the class probabilities it is taken from."""
    probs = stable_softmax(X @ W.T + b)
    eps = 1e-300  # guards log(0); probabilities this small carry no gradient signal
    ce = -np.mean(np.sum(Y * np.log(probs + eps), axis=1))
    return float(ce + 0.5 * l2 * np.sum(W * W)), probs


def objective(W: np.ndarray, b: np.ndarray, X: np.ndarray, Y: np.ndarray, l2: float) -> float:
    """Mean cross-entropy plus 0.5 * l2 * ||W||_F^2."""
    return _objective_and_probs(W, b, X, Y, l2)[0]


def _gradients_at(
    probs: np.ndarray, W: np.ndarray, X: np.ndarray, Y: np.ndarray, l2: float
) -> tuple[np.ndarray, np.ndarray]:
    """gradients at W and the intercepts whose class probabilities are probs."""
    delta = (probs - Y) / X.shape[0]
    grad_w = delta.T @ X + l2 * W
    grad_b = delta.sum(axis=0)
    return grad_w, grad_b


def gradients(
    W: np.ndarray, b: np.ndarray, X: np.ndarray, Y: np.ndarray, l2: float
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of objective with respect to W and b."""
    return _gradients_at(stable_softmax(X @ W.T + b), W, X, Y, l2)


@dataclass
class LogisticHead:
    """Trained weights mapping embeddings to class probabilities."""

    n_classes: int
    dim: int
    l2: float = L2_DEFAULT
    W: np.ndarray = field(init=False)
    b: np.ndarray = field(init=False)
    objective_trace: list[float] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        if self.n_classes < 2:
            raise ShapeError("a head needs at least two classes")
        if self.dim <= 0:
            raise ShapeError("embedding dimension must be positive")
        self.W = np.zeros((self.n_classes, self.dim), dtype=np.float64)
        self.b = np.zeros(self.n_classes, dtype=np.float64)

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        max_iter: int = MAX_ITER_DEFAULT,
        tol: float = TOL_DEFAULT,
    ) -> "LogisticHead":
        """Full-batch descent with backtracking; same data, same weights.

        The accepted step's probabilities give the next gradient, so each
        iteration computes the softmax once per step size it tries.
        """
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if X.ndim != 2 or X.shape[0] == 0:
            raise NoDataError("fit needs a non-empty 2-D embedding matrix")
        if X.shape[1] != self.dim:
            raise ShapeError(f"embeddings have dim {X.shape[1]}, head expects {self.dim}")
        if y.shape != (X.shape[0],):
            raise ShapeError("labels must be one integer per row")
        if y.min() < 0 or y.max() >= self.n_classes:
            raise ShapeError("label index outside [0, n_classes)")
        Y = np.zeros((X.shape[0], self.n_classes), dtype=np.float64)
        Y[np.arange(X.shape[0]), y] = 1.0

        current, probs = _objective_and_probs(self.W, self.b, X, Y, self.l2)
        self.objective_trace = [current]
        for _ in range(max_iter):
            grad_w, grad_b = _gradients_at(probs, self.W, X, Y, self.l2)
            if not (np.all(np.isfinite(grad_w)) and np.all(np.isfinite(grad_b))):
                raise NumericError("non-finite gradient in logistic head fit")
            gmax = max(float(np.abs(grad_w).max()), float(np.abs(grad_b).max()))
            if gmax < tol:
                break
            gsq = float(np.sum(grad_w * grad_w) + np.sum(grad_b * grad_b))
            step = 1.0
            while step >= _MIN_STEP:
                candidate, candidate_probs = _objective_and_probs(
                    self.W - step * grad_w, self.b - step * grad_b, X, Y, self.l2
                )
                if candidate <= current - _ARMIJO_C * step * gsq:
                    break
                step *= 0.5
            else:
                break  # no productive step left; gradient is numerically flat
            self.W -= step * grad_w
            self.b -= step * grad_b
            current, probs = candidate, candidate_probs
            self.objective_trace.append(current)
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities for one embedding or a batch of them."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if x.shape[1] != self.dim:
            raise ShapeError(f"embeddings have dim {x.shape[1]}, head expects {self.dim}")
        probs = stable_softmax(x @ self.W.T + self.b)
        return probs[0] if single else probs

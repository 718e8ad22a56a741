"""Fully-connected networks with manual forward/backward passes.

Instant-NGP uses two tiny MLPs: a density network (1 hidden layer of 64)
and a color network (2 hidden layers of 64).  We implement them with plain
NumPy so the whole library is self-contained, and expose exact FLOP counts
for the breakdown of Figure 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.math import relu
from repro.utils.rng import seeded_rng


@dataclass
class MLPConfig:
    """Shape of a fully-connected network.

    Attributes:
        input_dim: Input feature dimensionality.
        hidden_dim: Width of every hidden layer.
        num_hidden: Number of hidden layers (paper: 1 density, 2 color).
        output_dim: Output dimensionality.
    """

    input_dim: int
    hidden_dim: int
    num_hidden: int
    output_dim: int

    def __post_init__(self) -> None:
        for name in ("input_dim", "hidden_dim", "output_dim"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.num_hidden < 0:
            raise ConfigurationError("num_hidden must be >= 0")

    @property
    def layer_dims(self) -> List[Tuple[int, int]]:
        """``(in, out)`` pairs for every weight matrix."""
        dims = [self.input_dim] + [self.hidden_dim] * self.num_hidden
        dims.append(self.output_dim)
        return list(zip(dims[:-1], dims[1:]))


class MLP:
    """A ReLU MLP with He initialisation and a manual backward pass.

    The final layer is linear; callers apply their own output activation
    (exp for density, sigmoid for color) so gradients stay composable.
    """

    def __init__(self, config: MLPConfig, seed: int = 0) -> None:
        self.config = config
        rng = seeded_rng(seed)
        self.weights: List[np.ndarray] = []
        self.biases: List[np.ndarray] = []
        for fan_in, fan_out in config.layer_dims:
            std = np.sqrt(2.0 / fan_in)
            self.weights.append(rng.normal(0.0, std, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))

    # ------------------------------------------------------------------
    def forward(
        self, x: np.ndarray, keep_activations: bool = False
    ) -> Tuple[np.ndarray, Optional[List[np.ndarray]]]:
        """Run the network.

        Args:
            x: ``(N, input_dim)`` inputs.
            keep_activations: When True also return the per-layer
                pre-activation inputs needed by :meth:`backward`.

        Returns:
            ``(output, cache)`` where ``cache`` is None unless requested.
        """
        cache = [x] if keep_activations else None
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w + b
            if i != last:
                h = relu(h)
            if keep_activations and i != last:
                cache.append(h)
        return h, cache

    def __call__(self, x: np.ndarray) -> np.ndarray:
        out, _ = self.forward(x)
        return out

    def backward(
        self, cache: List[np.ndarray], grad_out: np.ndarray
    ) -> Tuple[np.ndarray, List[np.ndarray], List[np.ndarray]]:
        """Backpropagate ``grad_out`` through the network.

        Args:
            cache: Activations returned by ``forward(keep_activations=True)``
                (layer inputs: x, h1, ..., h_{L-1}).
            grad_out: ``(N, output_dim)`` gradient at the (linear) output.

        Returns:
            ``(grad_input, grad_weights, grad_biases)``.
        """
        grad_ws: List[np.ndarray] = [None] * len(self.weights)
        grad_bs: List[np.ndarray] = [None] * len(self.biases)
        g = grad_out
        for i in range(len(self.weights) - 1, -1, -1):
            inp = cache[i]
            grad_ws[i] = inp.T @ g
            grad_bs[i] = g.sum(axis=0)
            g = g @ self.weights[i].T
            if i > 0:
                # cache[i] is the *post*-ReLU activation of layer i-1, so the
                # ReLU mask is simply activation > 0.
                g = g * (inp > 0.0)
        return g, grad_ws, grad_bs

    # ------------------------------------------------------------------
    def parameters(self) -> List[np.ndarray]:
        """Flat list of parameter arrays (weights then biases, interleaved)."""
        params: List[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            params.extend([w, b])
        return params

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def flops_per_point(self) -> int:
        """Multiply-accumulate FLOPs (2 per MAC) for a single input row."""
        return sum(2 * fi * fo for fi, fo in self.config.layer_dims)

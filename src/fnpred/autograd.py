"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Supports exactly the operations the encoder, decoder, and loss heads need:
broadcasting arithmetic, batched matmul, slicing/gather with scatter-add
backward, reductions, and the usual nonlinearities.  Everything is double
precision so analytic gradients can be validated against central finite
differences tightly.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

ArrayLike = Union["Tensor", np.ndarray, float, int]


class Tensor:
    """A numpy array plus the closure needed to backpropagate through it."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: tuple["Tensor", ...] = (),
        backward: Optional[Callable[[np.ndarray], None]] = None,
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def _accumulate_rows(self, idx: np.ndarray, g: np.ndarray) -> None:
        """Accumulate ``g`` scatter-added into rows ``idx`` of a zero array of this shape."""
        ga = np.zeros_like(self.data)
        np.add.at(ga, idx, g)
        self._accumulate(ga)

    def _accumulate_slice(self, key, g: np.ndarray) -> None:
        """Accumulate ``g`` written at ``key`` into a zero array of this shape."""
        ga = np.zeros_like(self.data)
        ga[key] = g
        self._accumulate(ga)

    def backward(self) -> None:
        """Backpropagate from a scalar tensor through the whole graph, once.

        Backward is one-shot: each non-leaf node is released as soon as it
        has passed its gradient on, its ``grad`` and closure set to ``None``
        and its ``_parents`` to ``()``.  Only leaves (nodes without a
        backward closure: parameters and inputs) keep their gradient.  The graph
        is freed as it is walked, so it cannot be backpropagated again.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = None
            node._backward = None
            node._parents = ()

    # -- operator sugar -------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other: ArrayLike) -> "Tensor":
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return mul(self, -1.0)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return add(self, -as_tensor(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return add(as_tensor(other), -self)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return mul(self, power(as_tensor(other), -1.0))

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return mul(as_tensor(other), power(self, -1.0))

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return matmul(self, other)

    def __pow__(self, exponent: float) -> "Tensor":
        return power(self, exponent)

    def __getitem__(self, key) -> "Tensor":
        return slice_view(self, key)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x: ArrayLike) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    if any(p.requires_grad for p in parents):
        return Tensor(data, parents=parents, backward=backward)
    return Tensor(data)


def add(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def bw(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), bw)


def mul(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def bw(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), bw)


def power(a: ArrayLike, exponent: float) -> Tensor:
    a = as_tensor(a)
    out_data = a.data ** exponent

    def bw(g: np.ndarray) -> None:
        a._accumulate(g * exponent * a.data ** (exponent - 1.0))

    return _make(out_data, (a,), bw)


def matmul(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Matrix product over the last two axes; operands of equal rank >= 2
    must share their leading batch shape (no broadcasting)."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or a.data.ndim != b.data.ndim or a.data.shape[:-2] != b.data.shape[:-2]:
        raise ValueError("matmul needs operands of equal rank >= 2 with the same batch shape")
    out_data = a.data @ b.data

    def bw(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g @ b.data.swapaxes(-1, -2))
        if b.requires_grad:
            b._accumulate(a.data.swapaxes(-1, -2) @ g)

    return _make(out_data, (a, b), bw)


def transpose(a: ArrayLike, axes: Optional[Sequence[int]] = None) -> Tensor:
    """Permute axes (reverse them when ``axes`` is None)."""
    a = as_tensor(a)
    out_data = np.transpose(a.data, axes)
    inverse = None if axes is None else np.argsort(axes)

    def bw(g: np.ndarray) -> None:
        a._accumulate(np.transpose(g, inverse))

    return _make(out_data, (a,), bw)


def reshape(a: ArrayLike, shape: Sequence[int]) -> Tensor:
    a = as_tensor(a)
    shape = tuple(shape)
    out_data = a.data.reshape(shape)

    def bw(g: np.ndarray) -> None:
        a._accumulate(g.reshape(a.data.shape))

    return _make(out_data, (a,), bw)


def concat(parts: Iterable[ArrayLike], axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ValueError("concat of zero tensors")
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]

    def bw(g: np.ndarray) -> None:
        offset = 0
        for p, size in zip(parts, sizes):
            if p.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(offset, offset + size)
                p._accumulate(g[tuple(sl)])
            offset += size

    return _make(out_data, tuple(parts), bw)


def take_rows(a: ArrayLike, indices) -> Tensor:
    """Gather rows by integer index; backward scatter-adds (repeats allowed).

    The backward goes through ``a._accumulate_rows``, so a source that keeps
    compact row gradients (a parameter on a ``ParamTape``) never receives an
    array of its full size."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.int64)
    out_data = a.data[idx]

    def bw(g: np.ndarray) -> None:
        a._accumulate_rows(idx, g)

    return _make(out_data, (a,), bw)


def slice_view(a: ArrayLike, key) -> Tensor:
    """Basic (non-repeating) slicing; backward writes into a zero buffer
    (through ``a._accumulate_slice``, as for ``take_rows``)."""
    a = as_tensor(a)
    out_data = a.data[key]

    def bw(g: np.ndarray) -> None:
        a._accumulate_slice(key, g)

    return _make(out_data, (a,), bw)


def sum_(a: ArrayLike, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g: np.ndarray) -> None:
        if axis is None:
            ga = np.broadcast_to(g, a.data.shape)
        elif keepdims:
            ga = np.broadcast_to(g, a.data.shape)
        else:
            ga = np.broadcast_to(np.expand_dims(g, axis), a.data.shape)
        a._accumulate(ga.astype(np.float64, copy=False))

    return _make(out_data, (a,), bw)


def mean(a: ArrayLike, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        count = a.data.size
    else:
        count = a.data.shape[axis]
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / count)


def max_(a: ArrayLike, axis: int, keepdims: bool = False) -> Tensor:
    """Max along one axis; ties share the incoming gradient equally."""
    a = as_tensor(a)
    out_data = a.data.max(axis=axis, keepdims=keepdims)

    def bw(g: np.ndarray) -> None:
        expanded = out_data if keepdims else np.expand_dims(out_data, axis)
        mask = (a.data == expanded).astype(np.float64)
        mask /= mask.sum(axis=axis, keepdims=True)
        ge = g if keepdims else np.expand_dims(g, axis)
        a._accumulate(mask * ge)

    return _make(out_data, (a,), bw)


def relu(a: ArrayLike) -> Tensor:
    a = as_tensor(a)
    out_data = np.maximum(a.data, 0.0)

    def bw(g: np.ndarray) -> None:
        a._accumulate(g * (a.data > 0.0))

    return _make(out_data, (a,), bw)


def tanh(a: ArrayLike) -> Tensor:
    a = as_tensor(a)
    out_data = np.tanh(a.data)

    def bw(g: np.ndarray) -> None:
        a._accumulate(g * (1.0 - out_data**2))

    return _make(out_data, (a,), bw)


def softplus(a: ArrayLike) -> Tensor:
    """Numerically stable log(1 + e^x)."""
    a = as_tensor(a)
    x = a.data
    out_data = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

    def bw(g: np.ndarray) -> None:
        s = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
        a._accumulate(g * s)

    return _make(out_data, (a,), bw)


def log_softmax(a: ArrayLike, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - lse

    def bw(g: np.ndarray) -> None:
        sm = np.exp(out_data)
        a._accumulate(g - sm * g.sum(axis=axis, keepdims=True))

    return _make(out_data, (a,), bw)


def softmax(a: ArrayLike, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def bw(g: np.ndarray) -> None:
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        a._accumulate(out_data * (g - inner))

    return _make(out_data, (a,), bw)


def dropout(a: ArrayLike, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    a = as_tensor(a)
    if not training or p <= 0.0:
        return a
    mask = (rng.random(a.data.shape) >= p) / (1.0 - p)
    return mul(a, Tensor(mask))

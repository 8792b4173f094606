"""Reverse-mode automatic differentiation over dense float64 arrays.

A Node wraps an ndarray value together with its parents and one VJP, a
closure that maps an incoming gradient to a tuple of gradients, one per
parent in parent order.  Graphs are built eagerly by the op layer (see
ops.py), kept acyclic by construction, and traversed exactly once, in
reverse topological order, by backward(), which calls each node's VJP
once.  Everything is float64: the whole package trades speed for the
headroom central differences need.

ParamStore owns the named leaf arrays plus the RNG used to initialize them,
so a training step can rebuild a fresh graph over the same storage and a
store recreated from the same seed (with the same init calls, in the same
order) is bit-identical.

Inside `with no_grad():` the same ops run value-only: each Node keeps its
value but drops its parents and VJP, so no graph outlives the op that
built it.  Inference, prototype precompute and the finite-difference
forwards of grad_check run this way; `backward` refuses to run there.
"""
from __future__ import annotations

from collections.abc import Callable, Mapping
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from . import fmp
from .errors import PreconditionError, ShapeError

Array = np.ndarray
# gradient of a node's value -> one gradient per parent, in parent order
VJP = Callable[[Array], tuple[Array, ...]]


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Reduce a broadcasted gradient back to `shape`."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _normalize_axes(axis, ndim: int) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


# False inside `no_grad`: ops then build value-only Nodes.
_recording = True


@contextmanager
def no_grad():
    """Value-only mode for the body of a with statement: Nodes made inside
    keep no parents or VJP.  The previous mode comes back on exit, also on
    an exception, so nested uses restore their outer mode."""
    global _recording
    outer, _recording = _recording, False
    try:
        yield
    finally:
        _recording = outer


class Node:
    """One value in the computation graph, with its gradient accumulator.
    A node with parents has one VJP that returns all their gradients."""

    __slots__ = ("value", "grad", "_parents", "_vjp")

    def __init__(self, value, parents: tuple["Node", ...] = (), vjp: VJP | None = None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: Array | None = None
        if _recording:
            self._parents, self._vjp = parents, vjp
        else:
            self._parents, self._vjp = (), None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    # -- generic array plumbing ------------------------------------------

    def __add__(self, other):
        a, b = self, as_node(other)
        return Node(
            a.value + b.value,
            (a, b),
            lambda g: (_unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)),
        )

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self, as_node(other)
        return Node(
            a.value - b.value,
            (a, b),
            lambda g: (_unbroadcast(g, a.value.shape), _unbroadcast(-g, b.value.shape)),
        )

    def __rsub__(self, other):
        return as_node(other).__sub__(self)

    def __mul__(self, other):
        a, b = self, as_node(other)
        return Node(
            a.value * b.value,
            (a, b),
            lambda g: (_unbroadcast(g * b.value, a.value.shape), _unbroadcast(g * a.value, b.value.shape)),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self, as_node(other)
        return Node(
            a.value / b.value,
            (a, b),
            lambda g: (
                _unbroadcast(g / b.value, a.value.shape),
                _unbroadcast(-g * a.value / (b.value * b.value), b.value.shape),
            ),
        )

    def __rtruediv__(self, other):
        return as_node(other).__truediv__(self)

    def __neg__(self):
        return Node(-self.value, (self,), lambda g: (-g,))

    def sum(self, axis=None, keepdims: bool = False) -> "Node":
        in_shape = self.value.shape
        axes = _normalize_axes(axis, self.value.ndim)

        def vjp(g: Array) -> tuple[Array]:
            if not keepdims:
                for a in sorted(axes):
                    g = np.expand_dims(g, a)
            return (np.broadcast_to(g, in_shape).copy(),)

        return Node(self.value.sum(axis=axes or None, keepdims=keepdims), (self,), vjp)

    def mean(self, axis=None, keepdims: bool = False) -> "Node":
        axes = _normalize_axes(axis, self.value.ndim)
        count = int(np.prod([self.value.shape[a] for a in axes])) if axes else 1
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / max(count, 1))

    def reshape(self, shape) -> "Node":
        in_shape = self.value.shape
        return Node(self.value.reshape(shape), (self,), lambda g: (g.reshape(in_shape),))

    def transpose(self, axes=None) -> "Node":
        if axes is None:
            axes = tuple(reversed(range(self.value.ndim)))
        # the inverse permutation is found in the VJP, which value-only
        # forwards never call
        return Node(self.value.transpose(axes), (self,), lambda g: (g.transpose(np.argsort(axes)),))


def as_node(x) -> Node:
    """Wrap a plain array or scalar as a constant leaf."""
    return x if isinstance(x, Node) else Node(x)


def backward(loss: Node) -> None:
    """Populate .grad on every node the scalar `loss` depends on.

    Traversal is iterative postorder, so each node is visited exactly once
    and a node's accumulated gradient is complete before its VJP pushes it
    to its parents, in parent order; a VJP that returns more or fewer
    gradients than its node has parents raises ValueError.  Nodes not on
    any path to the loss keep grad None.
    Inside `no_grad` there is no graph to walk, so it raises.
    """
    if not _recording:
        raise PreconditionError("backward called inside no_grad, where no graph is built")
    if loss.value.shape != ():
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.value.shape}")

    order: list[Node] = []
    visited: set[int] = {id(loss)}
    stack: list[tuple[Node, Iterator[Node]]] = [(loss, iter(loss._parents))]
    while stack:
        node, parents = stack[-1]
        advanced = False
        for parent in parents:
            if id(parent) not in visited:
                visited.add(id(parent))
                stack.append((parent, iter(parent._parents)))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()

    loss.grad = np.ones((), dtype=np.float64)
    for node in reversed(order):
        if node.grad is None or not node._parents:
            continue
        for parent, pg in zip(node._parents, node._vjp(node.grad), strict=True):
            parent.grad = pg if parent.grad is None else parent.grad + pg


class ParamStore:
    """Named float64 parameter arrays with deterministic initialization."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)
        self._arrays: dict[str, Array] = {}

    # -- creation --------------------------------------------------------

    def add(self, key: str, value) -> Array:
        if key in self._arrays:
            raise PreconditionError(f"duplicate parameter key {key!r}")
        arr = np.array(value, dtype=np.float64)
        self._arrays[key] = arr
        return arr

    def xavier_uniform(self, key: str, shape: tuple[int, ...], fan_in: int, fan_out: int) -> Array:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return self.add(key, self.rng.uniform(-limit, limit, size=shape))

    def zeros(self, key: str, shape) -> Array:
        return self.add(key, np.zeros(shape))

    def ones(self, key: str, shape) -> Array:
        return self.add(key, np.ones(shape))

    # -- access ----------------------------------------------------------

    def keys(self) -> list[str]:
        return list(self._arrays)

    def array(self, key: str) -> Array:
        return self._arrays[key]

    def set_array(self, key: str, value) -> Array:
        """Overwrite an existing parameter in place, keeping its shape."""
        arr = self._arrays[key]
        arr[...] = np.asarray(value, dtype=np.float64)
        return arr

    def __contains__(self, key: str) -> bool:
        return key in self._arrays

    def nodes(self) -> dict[str, Node]:
        """Fresh leaf nodes over the stored arrays, one graph's worth."""
        return {k: Node(v) for k, v in self._arrays.items()}

    def sgd_step(self, nodes: Mapping[str, Node], lr: float) -> None:
        """In-place p -= lr * grad for every parameter touched by backward."""
        for key, arr in self._arrays.items():
            g = nodes[key].grad
            if g is not None:
                arr -= lr * g

    # -- serialization ---------------------------------------------------

    def save(self, path) -> None:
        fmp.write_arrays(path, self._arrays, self.seed)

    @classmethod
    def load(cls, path) -> "ParamStore":
        seed, arrays = fmp.read_arrays(path)
        store = cls(seed)
        store._arrays = arrays
        return store


def min_abs_grad(
    build: Callable[[Mapping[str, Node]], Node],
    store: ParamStore,
    keys: list[str] | None = None,
) -> float:
    """Smallest nonzero analytic gradient magnitude over parameter entries.

    Central differences cannot resolve a gradient entry whose true magnitude
    sits below the finite-difference noise floor, so callers screening
    configurations for grad_check reject any whose min_abs_grad is too small.
    Entries with exactly zero gradient are skipped: a parameter the loss
    does not depend on differences to exactly zero as well, so it cannot
    trip the checker.
    """
    nodes = store.nodes()
    backward(build(nodes))
    smallest = np.inf
    for key in keys if keys is not None else store.keys():
        g = nodes[key].grad
        if g is None:
            continue
        mags = np.abs(np.asarray(g))
        nonzero = mags[mags > 0.0]
        if nonzero.size:
            smallest = min(smallest, float(nonzero.min()))
    return smallest


def grad_check(
    build: Callable[[Mapping[str, Node]], Node],
    store: ParamStore,
    eps: float = 1e-5,
    keys: list[str] | None = None,
) -> float:
    """Worst relative error between analytic and central-difference grads.

    `build` must be a deterministic function from leaf nodes to a scalar
    Node.  Every entry of every parameter (or of `keys`, if given) is
    perturbed by +/- eps; relative error is |a - n| / max(|a|, |n|, 1e-8).
    The perturbed forwards run value-only.
    """
    nodes = store.nodes()
    backward(build(nodes))

    def value_at() -> float:
        with no_grad():
            return float(build(store.nodes()).value)

    worst = 0.0
    for key in keys if keys is not None else store.keys():
        arr = store.array(key)
        g = nodes[key].grad
        analytic = np.zeros_like(arr) if g is None else g
        flat = arr.reshape(-1)
        aflat = analytic.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = value_at()
            flat[i] = orig - eps
            fm = value_at()
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * eps)
            err = abs(aflat[i] - numeric) / max(abs(aflat[i]), abs(numeric), 1e-8)
            if err > worst:
                worst = err
    return worst

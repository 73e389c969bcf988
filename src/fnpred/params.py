"""Named parameter arrays, per-step gradient tapes, and checkpoint persistence.

A checkpoint is a directory holding ``manifest.txt`` (one line per array:
name, comma-joined shape, dtype, byte offset) and ``params.bin`` (the
concatenated little-endian float64 payload).  Saving and loading round-trips
bit-exactly, including optimizer moments and the step counter, so training
can resume with an identical trajectory.
"""

from __future__ import annotations

import os

import numpy as np

from .autograd import Tensor

MANIFEST_NAME = "manifest.txt"
PAYLOAD_NAME = "params.bin"


class ParamStore:
    """All trainable state: values, optimizer moments and the step counter."""

    def __init__(self, seed: int = 0):
        self.values: dict[str, np.ndarray] = {}
        self.opt_state: dict[str, np.ndarray] = {}
        self.step_count: int = 0
        self.rng_seed = seed
        self._rng = np.random.default_rng(seed)

    def add(self, name: str, array: np.ndarray) -> np.ndarray:
        if name in self.values:
            raise ValueError(f"duplicate parameter name {name!r}")
        array = np.asarray(array, dtype=np.float64)
        if not np.all(np.isfinite(array)):
            raise ValueError(f"parameter {name!r} contains non-finite values")
        self.values[name] = array
        return array

    def affine(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """Weight matrix initialized uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)), fan_in = shape[0]."""
        bound = 1.0 / np.sqrt(shape[0])
        return self.add(name, self._rng.uniform(-bound, bound, size=shape))

    def embedding(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        return self.add(name, self._rng.normal(0.0, 0.02, size=shape))

    def zeros(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        return self.add(name, np.zeros(shape))

    def ones(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        return self.add(name, np.ones(shape))


class ParamTape:
    """Bridges a ParamStore into one autograd forward/backward pass.

    Each parameter is wrapped in a Tensor at most once per tape, so gradient
    contributions from repeated uses accumulate on the same node.  The tape
    is the only holder of a step's gradients: after ``backward()`` on the
    loss, :meth:`grads` hands them to the optimizer.
    """

    def __init__(self, store: ParamStore, trainable: bool = True):
        self.store = store
        self.trainable = trainable
        self._tensors: dict[str, Tensor] = {}

    def get(self, name: str) -> Tensor:
        tensor = self._tensors.get(name)
        if tensor is None:
            tensor = Tensor(self.store.values[name], requires_grad=self.trainable)
            self._tensors[name] = tensor
        return tensor

    def grads(self) -> dict[str, np.ndarray]:
        """``{name: gradient}`` for each parameter that backward reached; a missing name means zero."""
        return {name: t.grad for name, t in self._tensors.items() if t.grad is not None}


def save_checkpoint(store: ParamStore, directory: str) -> list[str]:
    """Write manifest + payload; returns the paths written."""
    os.makedirs(directory, exist_ok=True)
    lines = []
    payload = bytearray()

    def put(name: str, arr: np.ndarray) -> None:
        data = np.ascontiguousarray(arr, dtype="<f8")
        shape = ",".join(str(s) for s in data.shape)
        lines.append(f"{name}\t{shape}\tfloat64\t{len(payload)}")
        payload.extend(data.tobytes())

    for name, value in store.values.items():
        put(f"param/{name}", value)
    for name in sorted(store.opt_state):
        put(f"opt/{name}", store.opt_state[name])
    put("meta/step", np.array([float(store.step_count)]))

    manifest_path = os.path.join(directory, MANIFEST_NAME)
    payload_path = os.path.join(directory, PAYLOAD_NAME)
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(payload_path, "wb") as fh:
        fh.write(bytes(payload))
    return [manifest_path, payload_path]


def load_checkpoint(directory: str) -> ParamStore:
    """Reconstruct a ParamStore (values, moments, step counter) bit-exactly."""
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    payload_path = os.path.join(directory, PAYLOAD_NAME)
    with open(payload_path, "rb") as fh:
        payload = fh.read()
    store = ParamStore(seed=0)
    with open(manifest_path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ValueError(f"manifest line {line_no}: expected 4 tab-separated fields")
            name, shape_text, dtype, offset_text = parts
            if dtype != "float64":
                raise ValueError(f"manifest line {line_no}: unsupported dtype {dtype!r}")
            shape = tuple(int(s) for s in shape_text.split(",") if s)
            count = int(np.prod(shape)) if shape else 1
            offset = int(offset_text)
            arr = np.frombuffer(payload, dtype="<f8", count=count, offset=offset).reshape(shape).copy()
            if name.startswith("param/"):
                store.add(name[len("param/"):], arr)
            elif name.startswith("opt/"):
                store.opt_state[name[len("opt/"):]] = arr
            elif name == "meta/step":
                store.step_count = int(arr[0])
            else:
                raise ValueError(f"manifest line {line_no}: unknown section for {name!r}")
    return store

"""Named parameter arrays, per-step gradient tapes, and checkpoint persistence.

A checkpoint is a directory holding ``manifest.txt`` (one line per array:
name, comma-joined shape, dtype, byte offset) and ``params.bin`` (the
concatenated little-endian float64 payload).  Saving and loading round-trips
bit-exactly, including optimizer moments and the run state, so training
can resume with an identical trajectory.  An array that no optimizer step
has reached has no moments, so its ``opt/`` entries are absent.  The run
state is ``meta/step`` and, once an evaluation has run, ``meta/best_step``
and ``meta/best_score``; a run without validation writes ``meta/step`` alone.
"""

from __future__ import annotations

import itertools
import os
from typing import Collection, Optional

import numpy as np

from .autograd import Tensor

MANIFEST_NAME = "manifest.txt"
PAYLOAD_NAME = "params.bin"
# The only meta/ entries: manifest name -> (ParamStore attribute, type).
_META = {"meta/step": ("step_count", int), "meta/best_step": ("best_step", int), "meta/best_score": ("best_score", float)}
_TMP_SUFFIX = ".tmp"  # a checkpoint file being written


class ParamStore:
    """All trainable state: values, optimizer moments and the run state (step count, best evaluation)."""

    def __init__(self, seed: int = 0):
        self.values: dict[str, np.ndarray] = {}
        self.opt_state: dict[str, np.ndarray] = {}
        self.step_count: int = 0
        self.best_step: Optional[int] = None
        self.best_score: Optional[float] = None
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

    def reset_run(self) -> None:
        """Start a new run on these values: no moments, no steps, no best evaluation."""
        self.opt_state.clear()
        self.step_count = 0
        self.best_step = self.best_score = None


def _has_negative_zero(x: np.ndarray) -> bool:
    return bool(np.any(np.signbit(x) & (x == 0.0)))


class ParamLeaf(Tensor):
    """A parameter's tensor on a tape; gathers and slices of it pass back
    their compact gradients instead of arrays of its full size.

    The compact parts wait, in the order backward produced them, until a
    dense contribution arrives or :meth:`dense_grad` is called.  They are
    then summed into ``grad`` with the bits of the dense path, in which
    each part is first spread over a zero array of the full size:

    - a gather's part sums its repeated rows from +0.0, so it never holds
      a -0.0;
    - a slice's part is the incoming gradient, -0.0 included;
    - the first contribution is copied and later ones are added, and adding
      a zero array turns every -0.0 outside a part's rows into +0.0.  The
      full-size pass this needs runs only while ``grad`` may hold a -0.0.
    """

    __slots__ = ("_parts", "_negzero")

    def __init__(self, data: np.ndarray, requires_grad: bool):
        super().__init__(data, requires_grad=requires_grad)
        self._parts: list[tuple[bool, object, np.ndarray]] = []  # (is a gather, index, gradient)
        self._negzero: Optional[bool] = None  # may ``grad`` hold a -0.0? None: not known

    def _accumulate(self, g: np.ndarray) -> None:
        if self._parts:
            self._fold_parts()
        super()._accumulate(g)
        self._negzero = None

    def _accumulate_rows(self, idx: np.ndarray, g: np.ndarray) -> None:
        self._parts.append((True, idx, g))

    def _accumulate_slice(self, key, g: np.ndarray) -> None:
        self._parts.append((False, key, g))

    def dense_grad(self) -> Optional[np.ndarray]:
        """The summed gradient, or None if backward never reached this leaf."""
        self._fold_parts()
        return self.grad

    def _fold_parts(self) -> None:
        for is_gather, run in itertools.groupby(self._parts, key=lambda part: part[0]):
            if is_gather:
                self._fold_gathers([(idx, g) for _, idx, g in run])
            else:
                for _, key, g in run:
                    self._fold_slice(key, g)
        self._parts.clear()

    def _fold_gathers(self, run: list[tuple[np.ndarray, np.ndarray]]) -> None:
        """Add consecutive gathers: each one's rows summed from +0.0, then
        added to ``grad`` one gather after another, all in two ``add.at``."""
        n, row_shape = len(self.data), self.data.shape[1:]
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        elif self._negzero is not False:
            self.grad += 0.0  # the first gather's zero rows; its own rows hold no -0.0
        rows = np.concatenate([idx.ravel() for idx, _ in run]) % n
        calls = np.repeat(np.arange(len(run)), [idx.size for idx, _ in run])
        grads = np.concatenate([g.reshape((idx.size,) + row_shape) for idx, g in run])
        keys, inverse = np.unique(calls * n + rows, return_inverse=True)  # sorted by gather, then row
        partial = np.zeros((keys.size,) + row_shape)
        np.add.at(partial, inverse.ravel(), grads)
        np.add.at(self.grad, keys % n, partial)
        self._negzero = False

    def _fold_slice(self, key, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
            self.grad[key] = g
            self._negzero = _has_negative_zero(g)
        elif self._negzero is False:
            self.grad[key] += g
        else:
            summed = self.grad[key] + g
            self.grad += 0.0  # the dense path's zeros outside ``key``
            self.grad[key] = summed
            self._negzero = _has_negative_zero(summed)


class ParamTape:
    """Bridges a ParamStore into one autograd forward/backward pass.

    Each parameter is wrapped in a :class:`ParamLeaf` at most once per tape,
    so gradient contributions from repeated uses accumulate on the same
    node.  The tape is the only holder of a step's gradients: after
    ``backward()`` on the loss, :meth:`grads` hands them to the optimizer.
    """

    def __init__(self, store: ParamStore, trainable: bool = True):
        self.store = store
        self.trainable = trainable
        self._tensors: dict[str, ParamLeaf] = {}

    def get(self, name: str) -> Tensor:
        tensor = self._tensors.get(name)
        if tensor is None:
            tensor = ParamLeaf(self.store.values[name], requires_grad=self.trainable)
            self._tensors[name] = tensor
        return tensor

    def grads(self) -> dict[str, np.ndarray]:
        """``{name: gradient}`` for each parameter that backward reached; a missing name means zero."""
        return {name: g for name, t in self._tensors.items() if (g := t.dense_grad()) is not None}


def save_checkpoint(store: ParamStore, directory: str) -> list[str]:
    """Write manifest + payload; returns the paths written.

    Each array is streamed into a temporary payload file in ``directory``,
    and the manifest into a temporary file next to it.  Only once both are
    complete are they renamed over ``params.bin`` and then ``manifest.txt``,
    so a failure while writing leaves the previous checkpoint as it was and
    removes the temporary files.  Between the two renames the directory
    holds the new payload with the old manifest: the new checkpoint when the
    layout is unchanged, else rejected on load, as a run's later saves only
    add entries and the old manifest no longer tiles the payload.  The files
    are not fsynced: this guards against a crashed process, not against a
    lost disk write.
    """
    os.makedirs(directory, exist_ok=True)
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    payload_path = os.path.join(directory, PAYLOAD_NAME)
    manifest_tmp, payload_tmp = manifest_path + _TMP_SUFFIX, payload_path + _TMP_SUFFIX
    arrays = [(f"param/{name}", value) for name, value in store.values.items()]
    arrays += [(f"opt/{name}", store.opt_state[name]) for name in sorted(store.opt_state)]
    meta = [(name, getattr(store, attr)) for name, (attr, _) in _META.items()]
    arrays += [(name, np.array([float(value)])) for name, value in meta if value is not None]
    lines = []
    try:
        with open(payload_tmp, "wb") as fh:
            offset = 0
            for name, arr in arrays:
                data = np.ascontiguousarray(arr, dtype="<f8")
                shape = ",".join(str(s) for s in data.shape)
                lines.append(f"{name}\t{shape}\tfloat64\t{offset}")
                fh.write(data)
                offset += data.nbytes
        with open(manifest_tmp, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(payload_tmp, payload_path)
        os.replace(manifest_tmp, manifest_path)
    except BaseException:
        for path in (payload_tmp, manifest_tmp):
            if os.path.exists(path):
                os.remove(path)
        raise
    return [manifest_path, payload_path]


def load_checkpoint(directory: str, names: Optional[Collection[str]] = None) -> ParamStore:
    """Reconstruct a ParamStore (values, moments, run state) bit-exactly.

    ``names`` selects the manifest entries to read: full entry names such as
    ``"param/tok_emb"``, or whole sections such as ``"param/"``.  With None
    every entry is read.  Entries not selected are never read, and a
    selected name the manifest lacks is not an error.

    The manifest's arrays must tile ``params.bin`` exactly, in manifest
    order: each starts where the previous one ends and the last one ends
    at the end of the file.  This is checked for every entry, selected or
    not.  Each selected array is read straight from its offset.
    """
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    payload_path = os.path.join(directory, PAYLOAD_NAME)
    entries = []
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
            if not (name.startswith(("param/", "opt/")) or name in _META):
                raise ValueError(f"manifest line {line_no}: unknown section for {name!r}")
            shape = tuple(int(s) for s in shape_text.split(",") if s)
            if any(d < 0 for d in shape):
                raise ValueError(f"manifest line {line_no}: negative dimension in shape {shape_text!r}")
            count = int(np.prod(shape)) if shape else 1
            entries.append((line_no, name, shape, count, int(offset_text)))
    store = ParamStore(seed=0)
    with open(payload_path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        end, where = 0, "manifest"
        for line_no, name, _, count, offset in entries:
            where = f"manifest line {line_no}"
            if offset != end:
                kind = "a gap" if offset > end else "an overlap"
                raise ValueError(f"{where}: offset {offset} leaves {kind} after byte {end}")
            end = offset + 8 * count
            if end > size:
                raise ValueError(f"{where}: {name!r} ends at byte {end}, past the {size}-byte payload")
        if end != size:
            raise ValueError(f"{where}: the last array ends at byte {end}, leaving {size - end} trailing bytes")
        for line_no, name, shape, count, offset in entries:
            section = name[: name.index("/") + 1]
            if names is not None and name not in names and section not in names:
                continue
            fh.seek(offset)
            arr = np.fromfile(fh, dtype="<f8", count=count).reshape(shape)
            if section == "param/":
                store.add(name[len("param/"):], arr)
            elif section == "opt/":
                store.opt_state[name[len("opt/"):]] = arr
            else:
                attr, kind = _META[name]
                setattr(store, attr, kind(arr[0]))
    return store

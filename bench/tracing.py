"""Traced runs: time the program's layers from outside.

The tracer swaps module attributes of ``fnpred`` for timing wrappers.  A
function is wrapped under every name it is bound to in a loaded ``fnpred``
module, so ``fnpred.trainer.encode_function`` and ``fnpred.cli.encode_function``
both record ``encoder.encode`` spans.  Each span is (name, start, end, parent,
stage, extra); self time is a span's duration minus its children's.  Nothing
under ``src/`` changes, and a target that no longer exists is reported
missing instead of failing the run.
"""

from __future__ import annotations

import importlib
import os
import statistics
import sys
import time

# span name -> (defining module, attribute)
TARGETS = {
    "ingest.parse": ("fnpred.ingest", "parse_function_records"),
    "ingest.normalize": ("fnpred.ingest", "normalize_record"),
    "ingest.cfg": ("fnpred.ingest", "build_fine_grained_cfg"),
    "ingest.defuse": ("fnpred.ingest", "compute_defuse_pairs"),
    "kernels.bfs": ("fnpred.kernels", "bfs_limited"),
    "kernels.sgns": ("fnpred.kernels", "sgns_epoch"),
    "kernels.sw": ("fnpred.kernels", "smith_waterman_score"),
    "tokenizer.build_pipeline": ("fnpred.tokenizer", "build_pipeline"),
    "tokenizer.preprocess_name": ("fnpred.tokenizer", "preprocess_name"),
    "relations.skipgram": ("fnpred.relations", "train_skipgram"),
    "relations.subword": ("fnpred.relations", "train_subword_embeddings"),
    "relations.groups": ("fnpred.relations", "build_relation_groups"),
    "pretrain.infill": ("fnpred.pretrain", "text_infilling"),
    "pretrain.cdi": ("fnpred.pretrain", "cdi_pairs"),
    "pretrain.dui": ("fnpred.pretrain", "dui_pairs"),
    "encoder.encode": ("fnpred.encoder", "encode_function"),
    "encoder.alm_losses": ("fnpred.encoder", "alm_losses"),
    "tasks.sample_triplet": ("fnpred.tasks", "sample_triplet"),
    "tasks.name_loss": ("fnpred.tasks", "name_loss"),
    "tasks.predict_name": ("fnpred.tasks", "predict_name"),
    "tasks.decode_step": ("fnpred.tasks", "decode_step_probs"),
    "trainer.adam": ("fnpred.trainer", "adam_step"),
    "params.save": ("fnpred.params", "save_checkpoint"),
    "params.load": ("fnpred.params", "load_checkpoint"),
}


def _bytes_written(args, paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


# span name -> hook turning (args, result) into a number or id kept with the span
EXTRAS = {
    "ingest.parse": lambda args, result: len(result),
    "encoder.encode": lambda args, result: args[0].id,
    "params.save": _bytes_written,
}


def graph_size(loss) -> int:
    """Nodes reachable from ``loss`` through parents that need gradients."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    """Span recorder; spans are kept in memory and summarized at the end."""

    def __init__(self):
        self.spans: list[list] = []  # [name, t0, t1, parent, stage, extra]
        self.stack: list[int] = []
        self.stage: str | None = None  # spans are recorded only inside a stage
        self.missing: list[str] = []
        self.bookkeeping_s = 0.0  # graph counting, done before the span opens
        self.per_span_cost_s = 0.0
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, extra=None, pre=None):
        """``pre(args)`` runs before the span opens and is kept as its extra,
        with its time booked as tracing overhead."""
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if self.stage is None:
                return fn(*args, **kwargs)
            value = None
            if pre is not None:
                t0 = clock()
                value = pre(args)
                self.bookkeeping_s += clock() - t0
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.stage, value]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for name, (mod_name, attr) in TARGETS.items():
            module = importlib.import_module(mod_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, EXTRAS.get(name))
            for mod in [m for n, m in sys.modules.items() if n == "fnpred" or n.startswith("fnpred.")]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))
        self._install_backward()
        self._calibrate()

    def _install_backward(self) -> None:
        tensor = getattr(importlib.import_module("fnpred.autograd"), "Tensor", None)
        original = getattr(tensor, "backward", None)
        if original is None:
            self.missing.append("autograd.backward")
            return
        tensor.backward = self._wrap("autograd.backward", original, pre=lambda args: graph_size(args[0]))
        self._undo.append((tensor, "backward", original))

    def _calibrate(self) -> None:
        """Cost of one span, from a wrapped no-op against a bare one."""
        def noop():
            return None

        wrapped = self._wrap("calibration", noop)
        n = 20000
        saved, self.stage = self.stage, "calibration"
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(n):
            wrapped()
        traced = time.perf_counter() - t0
        self.stage = saved
        del self.spans[-n:]
        self.per_span_cost_s = max(traced - bare, 0.0) / n

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- summaries ----------------------------------------------------------

    def select(self, name: str, stage: str | None = None) -> list[list]:
        return [s for s in self.spans if s[0] == name and (stage is None or s[4] == stage)]

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out: dict[str, list] = {}
        for i, s in enumerate(self.spans):
            row = out.setdefault(s[0], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s[2] - s[1]
            row[2] += s[2] - s[1] - child[i]
        return {k: tuple(v) for k, v in out.items()}

    def overhead_s(self) -> float:
        return len(self.spans) * self.per_span_cost_s + self.bookkeeping_s


def _mean_s(spans: list[list]) -> float | None:
    return statistics.fmean(s[2] - s[1] for s in spans) if spans else None


def layer_metrics(tr: Tracer, counts: dict, calib_ms: float, window_s: float) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run, and the names that have no value.

    ``counts`` holds the workload's own tallies: ``train_steps``,
    ``triplets``, ``functions`` named and ``relate_commands``.  A metric has
    no value when its layer recorded no span, because the layer did not run
    or its target is missing.
    """
    out: dict[str, tuple[float | None, str]] = {}

    def mean(key, span, unit, scale, stage=None):
        value = _mean_s(tr.select(span, stage))
        out[key] = (None if value is None else value * scale, unit)

    def per(key, unit, span, num, den):
        out[key] = (num / den if tr.select(span) and den else None, unit)

    parse = tr.select("ingest.parse")
    per("ingest.parse.us_per_record", "us", "ingest.parse",
        sum(s[2] - s[1] for s in parse) * 1e6, sum(s[5] for s in parse))
    mean("ingest.normalize.us_per_call", "ingest.normalize", "us", 1e6)
    mean("ingest.cfg.us_per_call", "ingest.cfg", "us", 1e6)
    mean("ingest.defuse.us_per_call", "ingest.defuse", "us", 1e6)
    per("kernels.bfs.calls_per_step", "count", "kernels.bfs",
        len(tr.select("kernels.bfs", "train")), counts["train_steps"])
    mean("kernels.bfs.us_per_call", "kernels.bfs", "us", 1e6)
    mean("kernels.sgns.ms_per_epoch", "kernels.sgns", "ms", 1e3)
    per("kernels.sw.calls", "count", "kernels.sw",
        len(tr.select("kernels.sw", "relate")), counts["relate_commands"])
    mean("kernels.sw.us_per_call", "kernels.sw", "us", 1e6)
    mean("tokenizer.build_pipeline.ms", "tokenizer.build_pipeline", "ms", 1e3)
    mean("tokenizer.preprocess_name.us_per_call", "tokenizer.preprocess_name", "us", 1e6)
    mean("relations.skipgram.s", "relations.skipgram", "s", 1.0)
    mean("relations.subword.s", "relations.subword", "s", 1.0)
    mean("relations.groups.s", "relations.groups", "s", 1.0)
    mean("pretrain.infill.us_per_call", "pretrain.infill", "us", 1e6)
    mean("pretrain.cdi.us_per_call", "pretrain.cdi", "us", 1e6)
    mean("pretrain.dui.us_per_call", "pretrain.dui", "us", 1e6)
    mean("encoder.encode.ms_per_call", "encoder.encode", "ms", 1e3)
    per("encoder.encode.calls_per_triplet", "count", "encoder.encode",
        len(tr.select("encoder.encode", "train")), counts["triplets"])
    encodes = tr.select("encoder.encode")
    seen: set = set()
    repeats = 0
    for s in encodes:
        repeats += s[5] in seen
        seen.add(s[5])
    per("encoder.encode.repeat_pct", "%", "encoder.encode", 100.0 * repeats, len(encodes))
    mean("encoder.alm_losses.ms_per_call", "encoder.alm_losses", "ms", 1e3)
    mean("autograd.backward.ms_per_step", "autograd.backward", "ms", 1e3, stage="train")
    # The first steps of a seed are the same however long the run is, so
    # this count repeats exactly on a rerun of the seed.
    first = tr.select("autograd.backward", "train")[:2]
    per("autograd.nodes_per_step", "count", "autograd.backward", sum(s[5] for s in first), len(first))
    mean("tasks.sample_triplet.ms_per_call", "tasks.sample_triplet", "ms", 1e3)
    mean("tasks.name_loss.ms_per_call", "tasks.name_loss", "ms", 1e3)
    mean("tasks.predict_name.ms_per_call", "tasks.predict_name", "ms", 1e3, stage="predict")
    per("tasks.decode_step.calls_per_fn", "count", "tasks.decode_step",
        len(tr.select("tasks.decode_step", "predict")), counts["functions"])
    mean("tasks.decode_step.ms_per_call", "tasks.decode_step", "ms", 1e3)
    mean("trainer.adam.ms_per_step", "trainer.adam", "ms", 1e3)
    mean("params.save.ms_per_call", "params.save", "ms", 1e3)
    saves = tr.select("params.save")
    per("params.save.mb_per_call", "MB", "params.save", sum(s[5] for s in saves) / 2**20, len(saves))
    mean("params.load.ms", "params.load", "ms", 1e3)
    out["host.calib_ms"] = (calib_ms, "ms")
    out["trace.overhead_pct"] = (100.0 * tr.overhead_s() / window_s, "%")
    missing = sorted(k for k, (v, _) in out.items() if v is None)
    return out, missing

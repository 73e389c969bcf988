"""Parameter store, tape, and checkpoint round-trip behavior."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fnpred.autograd as ag
import fnpred.params as params
from fnpred.autograd import Tensor
from fnpred.params import MANIFEST_NAME, PAYLOAD_NAME, ParamStore, ParamTape, load_checkpoint, save_checkpoint


def small_store(seed: int = 0) -> ParamStore:
    store = ParamStore(seed=seed)
    store.affine("w", (4, 3))
    store.zeros("b", (3,))
    store.embedding("emb", (5, 4))
    store.ones("gain", (3,))
    return store


class TestParamStore:
    def test_duplicate_name_rejected(self):
        store = small_store()
        with pytest.raises(ValueError):
            store.zeros("w", (2, 2))

    def test_non_finite_rejected(self):
        store = ParamStore()
        with pytest.raises(ValueError):
            store.add("bad", np.array([np.nan]))

    def test_affine_bound_is_inverse_sqrt_fan_in(self):
        store = ParamStore(seed=3)
        store.affine("w", (16, 64))
        bound = 1.0 / np.sqrt(16)
        assert np.abs(store.values["w"]).max() <= bound
        assert np.abs(store.values["w"]).max() > 0.5 * bound  # actually fills the range

    def test_same_seed_same_init(self):
        a, b = small_store(seed=9), small_store(seed=9)
        for name in a.values:
            np.testing.assert_array_equal(a.values[name], b.values[name])

    def test_insertion_order_preserved(self):
        store = small_store()
        assert list(store.values) == ["w", "b", "emb", "gain"]


class TestParamTape:
    def test_get_caches_single_tensor(self):
        store = small_store()
        tape = ParamTape(store, trainable=True)
        assert tape.get("w") is tape.get("w")

    def test_repeated_uses_accumulate_on_one_tape_only(self):
        store = small_store()
        tape = ParamTape(store, trainable=True)
        ag.sum_(tape.get("w") + tape.get("w") * 2.0 + ag.sum_(tape.get("b"))).backward()
        grads = tape.grads()
        assert list(grads) == ["w", "b"]  # only what backward reached
        np.testing.assert_array_equal(grads["w"], np.full((4, 3), 3.0))
        np.testing.assert_array_equal(grads["b"], np.full(3, 12.0))
        tape2 = ParamTape(store, trainable=True)
        assert tape2.grads() == {}
        ag.sum_(tape2.get("w")).backward()
        np.testing.assert_array_equal(tape2.grads()["w"], np.ones((4, 3)))

    def test_non_trainable_tape_contributes_no_grads(self):
        store = small_store()
        tape = ParamTape(store, trainable=False)
        ag.sum_(tape.get("w")).backward()
        assert tape.grads() == {}


def dense_take_rows(a: Tensor, indices) -> Tensor:
    """The dense gather backward: scatter-add into a zero array of the source's size."""
    idx = np.asarray(indices, dtype=np.int64)

    def bw(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        a._accumulate(ga)

    return Tensor(a.data[idx], parents=(a,), backward=bw)


def dense_slice_view(a: Tensor, key) -> Tensor:
    """The dense slice backward: write into a zero array of the source's size."""

    def bw(g):
        ga = np.zeros_like(a.data)
        ga[key] = g
        a._accumulate(ga)

    return Tensor(a.data[key], parents=(a,), backward=bw)


def weights_with_zeros(shape, seed: int) -> np.ndarray:
    """Random weights in which a third of the entries are -0.0 or +0.0, so
    the gradients that reach the parameter carry signed zeros."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=shape)
    zeros = rng.integers(0, 6, size=shape)
    w[zeros == 0] = -0.0
    w[zeros == 1] = 0.0
    return w


def sparse_and_dense_grads(ops, rows: int = 6, cols: int = 3) -> tuple[bytes, bytes]:
    """One loss, sum over ``ops`` of sum(op(P) * W), backpropagated twice: through
    a ParamTape (compact pairs) and through the dense oracle ops on a plain leaf.

    Each op is ``("rows", indices)``, ``("slice", start, stop)`` or
    ``("dense",)``, a use of the whole parameter.
    """
    store = ParamStore(seed=0)
    store.embedding("P", (rows, cols))
    tape = ParamTape(store, trainable=True)
    oracle = Tensor(store.values["P"].copy(), requires_grad=True)
    losses = []
    for leaf, take, view in ((tape.get("P"), ag.take_rows, ag.slice_view),
                             (oracle, dense_take_rows, dense_slice_view)):
        total = None
        for i, op in enumerate(ops):
            if op[0] == "rows":
                out = take(leaf, op[1])
            elif op[0] == "slice":
                out = view(leaf, slice(op[1], op[2]))
            else:
                out = leaf
            term = ag.sum_(out * weights_with_zeros(out.shape, seed=i))
            total = term if total is None else total + term
        losses.append(total)
    for loss in losses:
        loss.backward()
    return tape.grads()["P"].tobytes(), oracle.grad.tobytes()


class TestRowSparseGradients:
    """Gathers and slices of a tape parameter keep compact gradients, and
    ``grads()`` sums them to the dense path's bits, signed zeros included."""

    @pytest.mark.parametrize("ops", [
        [("rows", [2, 2, 5, 2])],                               # repeated rows in one call
        [("rows", [1, 3]), ("rows", [3, 4, 1]), ("rows", [3])],  # overlapping rows across calls
        [("slice", 1, 4), ("rows", [0, 2, 2])],                 # a slice and a gather of one parameter
        [("rows", [0, 2, 2]), ("slice", 1, 4)],
        [("slice", 0, 3)],                                      # a lone slice keeps an incoming -0.0
        [("slice", 0, 3), ("slice", 2, 5), ("rows", [5])],      # -0.0 turned +0.0 by later zero rows
        [("rows", [1, -1]), ("dense",), ("slice", 2, 6)],       # a negative index and a dense use
        [("dense",), ("rows", [0, 0, 0, 0])],                   # a dense -0.0, then a gather
        [("dense",), ("slice", 0, 2)],                          # a dense -0.0, then a slice
        [("rows", [])],
    ])
    def test_matches_dense_path_bit_for_bit(self, ops):
        sparse, dense = sparse_and_dense_grads(ops)
        assert sparse == dense

    def test_signed_zero_cases_are_exercised(self):
        lone = np.frombuffer(sparse_and_dense_grads([("slice", 0, 3)])[0]).reshape(6, 3)
        assert np.any(np.signbit(lone) & (lone == 0.0))  # the dense path keeps a -0.0 here
        mixed = np.frombuffer(sparse_and_dense_grads([("slice", 0, 3), ("slice", 2, 5), ("rows", [5])])[0])
        assert not np.any(np.signbit(mixed) & (mixed == 0.0))  # ... and turns it +0.0 here

    @settings(max_examples=150, deadline=None)
    @given(st.lists(
        st.one_of(
            st.tuples(st.just("rows"), st.lists(st.integers(-6, 5), max_size=7)),
            st.tuples(st.just("slice"), st.integers(0, 5), st.integers(0, 6)),
            st.tuples(st.just("dense")),
        ),
        min_size=1, max_size=6,
    ))
    def test_random_uses_match_dense_path(self, ops):
        sparse, dense = sparse_and_dense_grads(ops)
        assert sparse == dense

    def test_no_full_size_array_reaches_the_leaf_during_backward(self):
        store = ParamStore(seed=0)
        store.embedding("P", (1000, 4))
        tape = ParamTape(store, trainable=True)
        leaf = tape.get("P")
        ag.sum_(ag.take_rows(leaf, [3, 3, 7]) + ag.slice_view(leaf, slice(10, 13))).backward()
        assert leaf.grad is None  # only compact pairs so far
        grad = tape.grads()["P"]
        assert grad.shape == (1000, 4)
        assert sorted(set(np.nonzero(grad)[0])) == [3, 7, 10, 11, 12]
        np.testing.assert_array_equal(grad[3], np.full(4, 2.0))


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        store = small_store(seed=5)
        store.opt_state["w.m"] = np.full((4, 3), 0.25)
        store.step_count = 17
        paths = save_checkpoint(store, str(tmp_path / "ckpt"))
        assert paths == [os.path.join(str(tmp_path / "ckpt"), f) for f in (MANIFEST_NAME, PAYLOAD_NAME)]
        loaded = load_checkpoint(str(tmp_path / "ckpt"))
        assert loaded.step_count == 17
        assert list(loaded.values) == list(store.values)
        for name in store.values:
            np.testing.assert_array_equal(loaded.values[name], store.values[name])
        np.testing.assert_array_equal(loaded.opt_state["w.m"], store.opt_state["w.m"])

    def test_save_twice_byte_identical(self, tmp_path):
        store = small_store(seed=1)
        save_checkpoint(store, str(tmp_path / "a"))
        save_checkpoint(store, str(tmp_path / "b"))
        for fname in (MANIFEST_NAME, PAYLOAD_NAME):
            with open(tmp_path / "a" / fname, "rb") as fa, open(tmp_path / "b" / fname, "rb") as fb:
                assert fa.read() == fb.read()

    def test_corrupted_manifest_detected(self, tmp_path):
        store = small_store()
        save_checkpoint(store, str(tmp_path / "c"))
        manifest = tmp_path / "c" / MANIFEST_NAME
        text = manifest.read_text()
        assert "\t4,3\t" in text
        manifest.write_text(text.replace("\t4,3\t", "\t40,30\t", 1))
        with pytest.raises((ValueError, KeyError)):
            load_checkpoint(str(tmp_path / "c"))

    def test_truncated_payload_detected(self, tmp_path):
        store = small_store()
        save_checkpoint(store, str(tmp_path / "d"))
        payload = tmp_path / "d" / PAYLOAD_NAME
        payload.write_bytes(payload.read_bytes()[:-8])
        with pytest.raises(ValueError):
            load_checkpoint(str(tmp_path / "d"))

    def test_failed_write_keeps_old_checkpoint_and_no_temp_files(self, tmp_path, monkeypatch):
        directory = str(tmp_path / "e")
        old = small_store(seed=2)
        save_checkpoint(old, directory)
        before = {f: (tmp_path / "e" / f).read_bytes() for f in (MANIFEST_NAME, PAYLOAD_NAME)}

        class DiskFullAfterTwoArrays:
            """A payload file whose third write fails, as on a full disk."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.writes += 1
                if self.writes == 3:
                    raise OSError(28, "No space left on device")
                return self.fh.write(data)

        def failing_open(path, mode="r", **kwargs):
            fh = open(path, mode, **kwargs)
            return DiskFullAfterTwoArrays(fh) if "b" in mode else fh

        monkeypatch.setattr(params, "open", failing_open, raising=False)
        new = small_store(seed=3)
        new.step_count = 9
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(new, directory)
        monkeypatch.undo()
        assert sorted(os.listdir(directory)) == sorted([MANIFEST_NAME, PAYLOAD_NAME])
        for fname, data in before.items():
            assert (tmp_path / "e" / fname).read_bytes() == data
        loaded = load_checkpoint(directory)
        assert loaded.step_count == old.step_count
        for name, value in old.values.items():
            assert loaded.values[name].tobytes() == value.tobytes()

    def test_write_replaces_previous_checkpoint(self, tmp_path):
        directory = str(tmp_path / "f")
        save_checkpoint(small_store(seed=2), directory)
        newer = small_store(seed=4)
        newer.step_count = 3
        save_checkpoint(newer, directory)
        assert sorted(os.listdir(directory)) == sorted([MANIFEST_NAME, PAYLOAD_NAME])
        loaded = load_checkpoint(directory)
        assert loaded.step_count == 3
        assert all(loaded.values[n].tobytes() == v.tobytes() for n, v in newer.values.items())


class TestRunState:
    """The run state's ``meta/`` entries: the best evaluation is written once
    one has run, and only the three known names are read."""

    def _store_with_best(self) -> ParamStore:
        store = small_store(seed=5)
        store.step_count, store.best_step, store.best_score = 9, 6, -1.0 / 3.0
        return store

    def _meta_lines(self, directory) -> list[str]:
        lines = (directory / MANIFEST_NAME).read_text().splitlines()
        return [line.split("\t")[0] for line in lines if line.startswith("meta/")]

    def test_best_evaluation_round_trips_after_meta_step(self, tmp_path):
        save_checkpoint(self._store_with_best(), str(tmp_path))
        assert self._meta_lines(tmp_path) == ["meta/step", "meta/best_step", "meta/best_score"]
        loaded = load_checkpoint(str(tmp_path))
        assert (loaded.step_count, loaded.best_step) == (9, 6)
        assert np.float64(loaded.best_score).tobytes() == np.float64(-1.0 / 3.0).tobytes()

    def test_no_evaluation_writes_meta_step_alone(self, tmp_path):
        store = small_store(seed=5)
        store.step_count = 9
        save_checkpoint(store, str(tmp_path))
        assert self._meta_lines(tmp_path) == ["meta/step"]
        loaded = load_checkpoint(str(tmp_path))
        assert loaded.best_step is None and loaded.best_score is None

    def test_hand_written_entries_accepted_by_exact_name(self, tmp_path):
        store = small_store(seed=5)
        store.step_count = 9
        save_checkpoint(store, str(tmp_path))
        payload, manifest = tmp_path / PAYLOAD_NAME, tmp_path / MANIFEST_NAME
        end = payload.stat().st_size
        with open(manifest, "a", encoding="utf-8") as fh:
            fh.write(f"meta/best_score\t1\tfloat64\t{end}\nmeta/best_step\t1\tfloat64\t{end + 8}\n")
        with open(payload, "ab") as fh:
            fh.write(np.array([0.75, 4.0], dtype="<f8").tobytes())
        loaded = load_checkpoint(str(tmp_path))
        assert (loaded.step_count, loaded.best_step, loaded.best_score) == (9, 4, 0.75)

    @pytest.mark.parametrize("name", ["meta/stale_evals", "meta/best", "meta/best_steps", "meta/Best_step", "meta/"])
    def test_other_meta_names_rejected(self, tmp_path, name):
        save_checkpoint(self._store_with_best(), str(tmp_path))
        manifest = tmp_path / MANIFEST_NAME
        lines = manifest.read_text().splitlines()
        line_no = next(i for i, line in enumerate(lines, start=1) if line.startswith("meta/best_step\t"))
        lines[line_no - 1] = lines[line_no - 1].replace("meta/best_step", name, 1)
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"manifest line {line_no}: unknown section for '{name}'"):
            load_checkpoint(str(tmp_path))
        with pytest.raises(ValueError, match="unknown section"):
            load_checkpoint(str(tmp_path), names=("param/",))

    def test_param_section_reads_no_meta_entry(self, tmp_path, monkeypatch):
        save_checkpoint(self._store_with_best(), str(tmp_path))
        real, reads = np.fromfile, []

        def spy(fh, *args, **kwargs):
            reads.append(fh.tell())
            return real(fh, *args, **kwargs)

        monkeypatch.setattr(np, "fromfile", spy)
        loaded = load_checkpoint(str(tmp_path), names=("param/",))
        monkeypatch.undo()
        assert len(reads) == len(small_store().values)
        assert (loaded.step_count, loaded.best_step, loaded.best_score) == (0, None, None)

    def test_reset_run_clears_moments_step_and_best(self):
        store = self._store_with_best()
        store.opt_state["w.m"] = np.ones((4, 3))
        values = {name: value.tobytes() for name, value in store.values.items()}
        store.reset_run()
        assert (store.opt_state, store.step_count, store.best_step, store.best_score) == ({}, 0, None, None)
        assert {name: value.tobytes() for name, value in store.values.items()} == values


class TestSelectiveLoad:
    """``load_checkpoint(directory, names)`` reads only the entries asked for."""

    def _saved(self, tmp_path) -> str:
        store = small_store(seed=6)
        store.opt_state = {"w.m": np.full((4, 3), 0.5), "w.v": np.full((4, 3), 0.25)}
        store.step_count = 4
        save_checkpoint(store, str(tmp_path))
        return str(tmp_path)

    def test_sections_and_single_entries(self, tmp_path):
        directory = self._saved(tmp_path)
        full = load_checkpoint(directory)
        values_only = load_checkpoint(directory, names=("param/",))
        assert list(values_only.values) == list(full.values)
        assert all(values_only.values[n].tobytes() == full.values[n].tobytes() for n in full.values)
        assert values_only.opt_state == {} and values_only.step_count == 0
        some = load_checkpoint(directory, names={"param/emb", "opt/w.v", "meta/step", "param/absent"})
        assert list(some.values) == ["emb"] and list(some.opt_state) == ["w.v"]
        assert some.step_count == 4
        assert some.opt_state["w.v"].tobytes() == full.opt_state["w.v"].tobytes()

    def test_unselected_entries_still_tile_the_payload(self, tmp_path):
        directory = self._saved(tmp_path)
        manifest = tmp_path / MANIFEST_NAME
        lines = manifest.read_text().splitlines()
        lines[-1] = lines[-1].replace("\t1\t", "\t2\t", 1)  # meta/step claims two values
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"manifest line {len(lines)}: 'meta/step' ends at byte \d+, past"):
            load_checkpoint(directory, names=("param/",))


class TestPayloadTiling:
    """``load_checkpoint`` accepts only arrays that tile the payload exactly."""

    def _saved(self, tmp_path):
        save_checkpoint(small_store(), str(tmp_path))
        manifest = tmp_path / MANIFEST_NAME
        return manifest, manifest.read_text().splitlines()

    def _set_offset(self, lines, index, offset):
        fields = lines[index].split("\t")
        fields[3] = str(offset)
        lines[index] = "\t".join(fields)

    def test_gap_named(self, tmp_path):
        manifest, lines = self._saved(tmp_path)
        self._set_offset(lines, 1, 4 * 3 * 8 + 8)  # "b" starts 8 bytes after "w" ends
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="manifest line 2: offset 104 leaves a gap after byte 96"):
            load_checkpoint(str(tmp_path))

    def test_overlap_named(self, tmp_path):
        manifest, lines = self._saved(tmp_path)
        self._set_offset(lines, 2, 96)  # "emb" starts inside "b"
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="manifest line 3: offset 96 leaves an overlap after byte 120"):
            load_checkpoint(str(tmp_path))

    def test_array_past_end_named(self, tmp_path):
        manifest, lines = self._saved(tmp_path)
        lines[-1] = lines[-1].replace("\t1\t", "\t2\t", 1)  # meta/step claims two values
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"manifest line {len(lines)}: 'meta/step' ends at byte \d+, past"):
            load_checkpoint(str(tmp_path))

    def test_trailing_bytes_named(self, tmp_path):
        manifest, lines = self._saved(tmp_path)
        with open(tmp_path / PAYLOAD_NAME, "ab") as fh:
            fh.write(b"\0" * 8)
        with pytest.raises(ValueError, match=f"manifest line {len(lines)}: .* leaving 8 trailing bytes"):
            load_checkpoint(str(tmp_path))

    def test_negative_dimension_named(self, tmp_path):
        manifest, lines = self._saved(tmp_path)
        lines[0] = lines[0].replace("\t4,3\t", "\t-4,3\t", 1)
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="manifest line 1: negative dimension"):
            load_checkpoint(str(tmp_path))

"""Round-trip and corruption tests for the binary weight files."""

import json
import struct

import numpy as np
import pytest

from roletune.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from roletune.data import ByteTokenizer
from roletune.errors import CheckpointError
from roletune.model import ModelConfig, RoleAdapters, Transformer

CFG = ModelConfig(d_model=16, n_layers=2, n_heads=2, d_ff=32,
                  vocab_size=ByteTokenizer.vocab_size, max_positions=128)


def trained_like_pair(seed=0):
    model = Transformer.create(CFG, seed)
    adapters = RoleAdapters(CFG, rank=2, alpha=4.0, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for t in adapters.trainable_parameters().values():
        t.data = rng.normal(0.0, 0.3, size=t.shape).astype(np.float32)
    return model, adapters


class TestRoundTrip:
    def test_exact_weights(self, tmp_path):
        model, adapters = trained_like_pair()
        path = tmp_path / "w.rtck"
        save_checkpoint(path, model, adapters, extra={"note": "hello", "step": 7})
        loaded_model, loaded_adapters, extra = load_checkpoint(path)

        assert loaded_model.config == CFG
        for name, arr in model.base.named_arrays().items():
            np.testing.assert_array_equal(loaded_model.base.named_arrays()[name], arr)
        for name, arr in adapters.named_arrays().items():
            np.testing.assert_array_equal(loaded_adapters.named_arrays()[name], arr)
        assert extra == {"note": "hello", "step": 7}

    def test_adapter_hyperparameters_survive(self, tmp_path):
        model = Transformer.create(CFG, 3)
        adapters = RoleAdapters(CFG, rank=4, alpha=9.0, seed=3,
                                targets={"agent": ("q", "v", "o"), "user": ("q",)})
        path = tmp_path / "w.rtck"
        save_checkpoint(path, model, adapters)
        _, loaded, extra = load_checkpoint(path)
        assert loaded.rank == 4 and loaded.alpha == 9.0
        assert loaded.targets == {"agent": ("q", "v", "o"), "user": ("q",)}
        assert extra == {}

    def test_training_regime_survives(self, tmp_path):
        model, adapters = trained_like_pair()
        adapters.regime = {"strict_cross_round": True, "user_sees_instruction": False}
        path = tmp_path / "w.rtck"
        save_checkpoint(path, model, adapters)
        _, loaded, _ = load_checkpoint(path)
        assert loaded.regime == {"strict_cross_round": True, "user_sees_instruction": False}

    def test_checkpoint_without_regime_loads_the_default(self, tmp_path):
        model, adapters = trained_like_pair()
        adapters.regime = {"strict_cross_round": True, "user_sees_instruction": False}
        path = tmp_path / "w.rtck"
        save_checkpoint(path, model, adapters)
        raw = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", raw, 8)
        header = json.loads(raw[12:12 + header_len].decode("utf-8"))
        del header["adapters"]["strict_cross_round"], header["adapters"]["user_sees_instruction"]
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(MAGIC + struct.pack("<I", VERSION)
                         + struct.pack("<I", len(blob)) + blob + raw[12 + header_len:])
        _, loaded, _ = load_checkpoint(path)
        assert loaded.regime == {"strict_cross_round": False, "user_sees_instruction": True}

    def test_loaded_model_forwards_identically(self, tmp_path):
        model, adapters = trained_like_pair(seed=5)
        path = tmp_path / "w.rtck"
        save_checkpoint(path, model, adapters)
        loaded_model, loaded_adapters, _ = load_checkpoint(path)
        tokens = np.array([[1, 10, 20, 30]])
        pos = np.arange(4)[None, :]
        a, _ = model.forward_segment(tokens, pos, "agent", adapters)
        b, _ = loaded_model.forward_segment(tokens, pos, "agent", loaded_adapters)
        np.testing.assert_array_equal(a.data, b.data)

    def test_byte_stable_output(self, tmp_path):
        model, adapters = trained_like_pair(seed=9)
        p1, p2 = tmp_path / "a.rtck", tmp_path / "b.rtck"
        save_checkpoint(p1, model, adapters, extra={"k": 1})
        save_checkpoint(p2, model, adapters, extra={"k": 1})
        assert p1.read_bytes() == p2.read_bytes()


class TestRejection:
    def make_file(self, tmp_path):
        model, adapters = trained_like_pair()
        path = tmp_path / "w.rtck"
        save_checkpoint(path, model, adapters)
        return path

    def test_bad_magic(self, tmp_path):
        path = self.make_file(tmp_path)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_wrong_version(self, tmp_path):
        path = self.make_file(tmp_path)
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", VERSION + 1)
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        path = self.make_file(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - 100])
        with pytest.raises(CheckpointError, match="ends inside"):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        path = self.make_file(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_corrupt_header_json(self, tmp_path):
        path = self.make_file(tmp_path)
        data = bytearray(path.read_bytes())
        (header_len,) = struct.unpack_from("<I", data, 8)
        data[12:12 + 4] = b"!!!!"
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="header"):
            load_checkpoint(path)

    def test_shape_mismatch(self, tmp_path):
        path = self.make_file(tmp_path)
        raw = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", raw, 8)
        header = json.loads(raw[12:12 + header_len].decode("utf-8"))
        for entry in header["arrays"]:
            if entry["name"] == "base.embed":
                entry["shape"][0] += 1  # lie about the embedding rows
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(MAGIC + struct.pack("<I", VERSION)
                         + struct.pack("<I", len(blob)) + blob
                         + raw[12 + header_len:])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_array(self, tmp_path):
        path = self.make_file(tmp_path)
        raw = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", raw, 8)
        header = json.loads(raw[12:12 + header_len].decode("utf-8"))
        # drop the first adapter array from the header and its bytes from the body
        drop = next(e for e in header["arrays"] if e["name"].startswith("adapters."))
        nbytes = int(np.prod(drop["shape"])) * np.dtype(drop["dtype"]).itemsize
        start = 12 + header_len
        for entry in header["arrays"]:
            if entry is drop:
                break
            start += int(np.prod(entry["shape"])) * np.dtype(entry["dtype"]).itemsize
        header["arrays"].remove(drop)
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        body = raw[12 + header_len:start] + raw[start + nbytes:]
        path.write_bytes(MAGIC + struct.pack("<I", VERSION)
                         + struct.pack("<I", len(blob)) + blob + body)
        with pytest.raises(CheckpointError, match="missing adapter weight"):
            load_checkpoint(path)

    @pytest.mark.parametrize("defect, mutate", [
        ("lacks 'dtype'", lambda h: h["arrays"][0].pop("dtype")),
        ("lacks 'shape'", lambda h: h["arrays"][0].pop("shape")),
        ("lacks 'name'", lambda h: h["arrays"][0].pop("name")),
        ("entry 0 is malformed .*float99", lambda h: h["arrays"][0].update(dtype="float99")),
        ("dtype int32", lambda h: h["arrays"][0].update(dtype="int32")),
        (r"shape \('a', 'b', 'c'\)", lambda h: h["arrays"][0].update(shape="abc")),
        ("entry 0 is malformed", lambda h: h.update(arrays=[1, 2])),
        ("'arrays' is not a list", lambda h: h.update(arrays=5)),
        ("no 'targets' entry", lambda h: h["adapters"].pop("targets")),
        ("'user_sees_instruction' is 1, not a boolean",
         lambda h: h["adapters"].update(user_sees_instruction=1)),
        ("'extra' is not an object", lambda h: h.update(extra=[1, 2])),
        ("model_config: d_model is 16.0, not int", lambda h: h["model_config"].update(d_model=16.0)),
        ("model_config: rope_base is nan, not float",
         lambda h: h["model_config"].update(rope_base=float("nan"))),
        ("norm_epsilon must be positive", lambda h: h["model_config"].update(norm_epsilon=-1.0)),
        ("adapter field 'rank' is 8.9, not int", lambda h: h["adapters"].update(rank=8.9)),
        ("adapter field 'alpha' is True, not float", lambda h: h["adapters"].update(alpha=True)),
        ("adapter field 'alpha' is nan, not float",
         lambda h: h["adapters"].update(alpha=float("nan"))),
        ("adapter targets of 'agent' are 'qv', not a list of names",
         lambda h: h["adapters"]["targets"].update(agent="qv")),
    ], ids=["no-dtype", "no-shape", "no-name", "unknown-dtype", "int-dtype", "string-shape",
            "entries-not-objects", "arrays-not-a-list", "no-adapter-targets",
            "non-boolean-regime", "non-object-extra", "float-model-size", "nan-rope-base",
            "negative-norm-epsilon", "fractional-rank", "boolean-alpha", "nan-alpha",
            "string-adapter-targets"])
    def test_malformed_header_entry(self, tmp_path, defect, mutate):
        path = self.make_file(tmp_path)
        raw = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", raw, 8)
        header = json.loads(raw[12:12 + header_len].decode("utf-8"))
        mutate(header)
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(MAGIC + struct.pack("<I", VERSION)
                         + struct.pack("<I", len(blob)) + blob + raw[12 + header_len:])
        with pytest.raises(CheckpointError, match=defect):
            load_checkpoint(path)

    @pytest.mark.parametrize("name, value", [
        ("adapters.agent.layer0.q.B", np.nan),
        ("adapters.user.layer1.q.A", -np.inf),
        ("base.embed", np.inf),
    ], ids=["nan-adapter", "neg-inf-adapter", "inf-base"])
    def test_non_finite_weight(self, tmp_path, name, value):
        path = self.make_file(tmp_path)
        raw = bytearray(path.read_bytes())
        (header_len,) = struct.unpack_from("<I", raw, 8)
        header = json.loads(raw[12:12 + header_len].decode("utf-8"))
        offset = 12 + header_len
        for entry in header["arrays"]:
            if entry["name"] == name:
                break
            offset += int(np.prod(entry["shape"])) * np.dtype(entry["dtype"]).itemsize
        raw[offset:offset + 4] = np.array([value], dtype="<f4").tobytes()  # its first element
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match=f"{name!r} holds non-finite"):
            load_checkpoint(path)

    def test_not_a_file_at_all(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"hello world this is not weights")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

import numpy as np
import pytest

from gofa import checkpoint
from gofa.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint


class TestCheckpoint:
    def test_round_trip_bit_exact(self, rng, tmp_path):
        tensors = {
            "layer.w": rng.normal(size=(4, 7)),
            "gate": np.asarray(0.25),
            "counts": np.arange(5, dtype=np.int64),
            "small": rng.normal(size=(3,)).astype(np.float32),
        }
        path = tmp_path / "model.gofa"
        save_checkpoint(path, tensors, config={"d_model": 16, "note": "x"})
        loaded, config = load_checkpoint(path)
        assert config == {"d_model": 16, "note": "x"}
        assert set(loaded) == set(tensors)
        for name, arr in tensors.items():
            assert loaded[name].dtype == arr.dtype
            assert np.array_equal(loaded[name], arr)
            assert loaded[name].tobytes() == arr.tobytes()

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "m.gofa"
        save_checkpoint(path, {"x": np.zeros(2)})
        assert path.read_bytes()[:4] == MAGIC == b"GOFA"

    def test_corruption_detected(self, rng, tmp_path):
        path = tmp_path / "m.gofa"
        save_checkpoint(path, {"x": rng.normal(size=(8,))})
        blob = bytearray(path.read_bytes())
        blob[20] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="CRC"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.gofa"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_no_config_chunk(self, tmp_path):
        path = tmp_path / "m.gofa"
        save_checkpoint(path, {"x": np.zeros(1)})
        _, config = load_checkpoint(path)
        assert config is None

    def test_unicode_names(self, tmp_path):
        path = tmp_path / "m.gofa"
        save_checkpoint(path, {"weird.name.0": np.ones((2, 2))})
        loaded, _ = load_checkpoint(path)
        assert "weird.name.0" in loaded

    def test_interrupted_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "m.gofa"
        save_checkpoint(path, {"x": np.arange(4.0)}, config={"step": 1})
        before = path.read_bytes()

        class HalfWrite:
            """A file that takes half of what it is given, then fails."""

            def __init__(self, file, mode):
                self.fh = open(file, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                self.fh.flush()
                raise OSError("disk full")

        monkeypatch.setattr(checkpoint, "open", HalfWrite, raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, {"x": np.arange(1000.0)}, config={"step": 2})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.gofa"]
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(tmp_path / "new.gofa", {"x": np.zeros(3)})
        assert [p.name for p in tmp_path.iterdir()] == ["m.gofa"]
        monkeypatch.undo()
        _, config = load_checkpoint(path)
        assert config == {"step": 1}

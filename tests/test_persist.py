"""The persistence layer: atomic writes, tolerant reads, quarantine and
manifest checks (``repro.persist``, ``docs/robustness.md``)."""

import json

import pytest

from repro import faults, persist
from repro.errors import CampaignError


def _truncating(occurrence=1):
    return faults.activate(faults.FaultPlan(
        schedule={"persist.truncate": [occurrence]}))


class TestAtomicWrite:
    def test_json_layout(self, tmp_path):
        path = tmp_path / "a.json"
        persist.write_json(path, {"x": [1, 2]})
        assert path.read_text() == json.dumps({"x": [1, 2]},
                                              indent=1) + "\n"
        assert not list(tmp_path.glob("*.tmp"))

    def test_truncated_write_leaves_old_file_until_rename(
            self, tmp_path, monkeypatch):
        """A crash between write and rename: the truncated payload sits
        in the temp file and the previous file is untouched."""
        path = tmp_path / "a.json"
        persist.write_json(path, {"old": True})

        def crash(src, dst):
            raise OSError("crash before rename")

        monkeypatch.setattr(persist.os, "replace", crash)
        new = json.dumps({"new": "x" * 40}, indent=1) + "\n"
        with _truncating(), pytest.raises(OSError, match="crash"):
            persist.write_text(path, new)
        assert persist.read_json(path) == {"old": True}
        tmp = tmp_path / "a.json.tmp"
        assert tmp.read_text() == new[:len(new) // 2]

    def test_seam_truncates_text_and_bytes(self, tmp_path):
        with _truncating(2):
            persist.write_text(tmp_path / "t.csv", "a,b\n1,2\n")
            persist.write_bytes(tmp_path / "b.npy", b"0123456789")
        assert (tmp_path / "t.csv").read_text() == "a,b\n1,2\n"
        assert (tmp_path / "b.npy").read_bytes() == b"01234"


class TestReadJson:
    def test_missing_truncated_and_non_object(self, tmp_path):
        path = tmp_path / "r.json"
        assert persist.read_json(path) is None
        with _truncating():
            persist.write_json(path, {"records": list(range(20))})
        assert persist.read_json(path) is None
        path.write_bytes(b"\xff\xfe")
        assert persist.read_json(path) is None
        path.write_text("[1, 2]")
        assert persist.read_json(path) is None
        persist.write_json(path, {"ok": 1})
        assert persist.read_json(path) == {"ok": 1}


class TestQuarantine:
    def test_moves_to_sibling_or_given_destination(self, tmp_path):
        victim = tmp_path / "chunk_0001.json"
        victim.write_text("{")
        assert persist.quarantine(victim)
        assert not victim.exists()
        assert (tmp_path / "quarantine" / victim.name).read_text() == "{"
        victim.write_text("[")
        dest = tmp_path / "elsewhere" / "r0001.record.json"
        assert persist.quarantine(victim, dest)
        assert dest.read_text() == "["
        assert not persist.quarantine(victim)  # nothing left to move


class TestCheckManifest:
    MANIFEST = {"fingerprint": "abc", "config": {"seed": 1}}

    def _governed(self, tmp_path):
        files = [tmp_path / "manifest.json"]
        for i in range(3):
            files.append(tmp_path / "chunks" / f"chunk_{i:04d}.json")
            files[-1].parent.mkdir(exist_ok=True)
            files[-1].write_text("{}")
        return [(f, f.parent / "quarantine" / f.name) for f in files]

    def test_fresh_write_then_matching_resume(self, tmp_path):
        path = tmp_path / "manifest.json"
        assert persist.check_manifest(path, self.MANIFEST, True, []) == 0
        assert persist.read_json(path) == self.MANIFEST
        assert persist.check_manifest(path, self.MANIFEST, True, []) == 0

    def test_mismatch_raises(self, tmp_path):
        path = tmp_path / "manifest.json"
        persist.write_json(path, dict(self.MANIFEST, fingerprint="zzz"))
        with pytest.raises(CampaignError, match="different experiment"):
            persist.check_manifest(path, self.MANIFEST, True,
                                   self._governed(tmp_path))
        # No resume: the manifest is simply rewritten.
        assert persist.check_manifest(path, self.MANIFEST, False, []) == 0
        assert persist.read_json(path) == self.MANIFEST

    def test_corrupt_manifest_quarantines_everything_it_governed(
            self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"finger')
        moves = self._governed(tmp_path)
        assert persist.check_manifest(path, self.MANIFEST, True,
                                      moves) == 4
        for _, dest in moves:
            assert dest.exists()
        assert not list((tmp_path / "chunks").glob("chunk_*.json"))
        assert persist.read_json(path) == self.MANIFEST

"""Tests for the ``python -m repro.bench`` command-line front end."""

import pytest

from repro.bench.__main__ import main


@pytest.fixture(autouse=True)
def _in_tmp_dir(tmp_path, monkeypatch):
    """Each test runs in a fresh working directory, so the result cache
    the CLI fills lands there, not in the checkout."""
    monkeypatch.chdir(tmp_path)


class TestCli:
    def test_barrier_tables(self, capsys):
        assert main(["barrier", "--nodes", "2", "4"]) == 0
        out = capsys.readouterr().out
        assert "E1:" in out and "E2:" in out
        assert "TDLB (UHCAF 2level)" in out
        assert "2(2)" in out and "16(2)" in out

    def test_reduce_table_with_payload(self, capsys):
        assert main(["reduce", "--nodes", "2", "--nelems", "64"]) == 0
        out = capsys.readouterr().out
        assert "E3:" in out and "64 element(s)" in out
        assert "two-level reduction" in out

    def test_broadcast_table(self, capsys):
        assert main(["broadcast", "--nodes", "2"]) == 0
        out = capsys.readouterr().out
        assert "E4:" in out and "flat binomial broadcast" in out

    def test_hpl_quick(self, quick_report, monkeypatch, capsys):
        monkeypatch.chdir(quick_report[0])
        assert main(["hpl", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "UHCAF 2level" in out and "GFortran" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["warp-speed"])

    def test_custom_ipn(self, capsys):
        assert main(["barrier", "--nodes", "2", "--ipn", "4"]) == 0
        out = capsys.readouterr().out
        assert "4 images per node" in out

    def test_rerun_is_served_from_the_cache(self, tmp_path, capsys):
        """A second run executes no cell: every executed cell is stored
        as a fresh file under ``.repro-cache/``, and none is."""
        def entries():
            return {p: (p.stat().st_ino, p.stat().st_mtime_ns)
                    for p in (tmp_path / ".repro-cache").rglob("*")
                    if p.is_file()}

        assert main(["barrier", "--nodes", "2"]) == 0
        first, cold = capsys.readouterr().out, entries()
        assert main(["barrier", "--nodes", "2"]) == 0
        assert capsys.readouterr().out == first
        assert cold and entries() == cold

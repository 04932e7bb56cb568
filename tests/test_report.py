"""Tests for the claims registry, the reproduction report and its CLI."""

from pathlib import Path

from repro.__main__ import main
from repro.exec import stable_fingerprint
from repro.report import REGISTRY, Claim, render_report


class TestClaim:
    def test_in_band(self):
        c = Claim("E1", "x", "p", "m", (1.0, 2.0), 1.5)
        assert c.ok

    def test_below_band(self):
        assert not Claim("E1", "x", "p", "m", (1.0, 2.0), 0.5).ok

    def test_above_band(self):
        assert not Claim("E1", "x", "p", "m", (1.0, 2.0), 2.5).ok

    def test_band_edges_inclusive(self):
        assert Claim("E1", "x", "p", "m", (1.0, 2.0), 1.0).ok
        assert Claim("E1", "x", "p", "m", (1.0, 2.0), 2.0).ok


class TestRender:
    def test_all_pass_message(self):
        text = render_report([Claim("E1", "d", "p", "m", (0, 2), 1)])
        assert "All claims within" in text
        assert "✅" in text

    def test_failures_flagged(self):
        text = render_report([Claim("E9", "d", "p", "m", (0, 1), 5)])
        assert "OUT OF BAND" in text
        assert "1 claim(s) out of band" in text

    def test_table_structure(self):
        claims = [Claim("E1", "desc-a", "pap", "meas", (0, 2), 1),
                  Claim("E2", "desc-b", "pap2", "meas2", (0, 2), 1)]
        text = render_report(claims)
        assert "| E1 | desc-a | pap | meas |" in text
        assert "| E2 | desc-b |" in text



class TestRunReport:
    def test_quick_report_all_in_band(self, quick_report):
        _, _, claims = quick_report
        assert len(claims) >= 6
        for c in claims:
            assert c.ok, f"{c.experiment} {c.description}: {c.measured}"

    def test_quick_report_covers_headlines(self, quick_report):
        _, _, claims = quick_report
        experiments = {c.experiment for c in claims}
        assert experiments >= {"E1", "E2", "E3", "E4", "E5", "E6", "model"}

    def test_shared_cells_run_once(self, quick_report):
        """Entries that read the same cell share one run: the cache
        holds one entry per distinct quick cell."""
        _, cache, _ = quick_report
        distinct = {stable_fingerprint(t) for e in REGISTRY
                    if e.quick_cells for t in e.quick_cells.values()}
        assert cache.puts == len(distinct)
        assert sum(len(e.quick_cells or {}) for e in REGISTRY) > len(distinct)

    def test_experiments_table_lists_every_entry(self):
        """EXPERIMENTS.md's fidelity table has one row per entry, in
        registry order; CI compares its values with a full-scale run."""
        text = (Path(__file__).resolve().parent.parent
                / "EXPERIMENTS.md").read_text(encoding="utf-8")
        section = text.split("## Summary of fidelity", 1)[1]
        rows = [line.split(" | ")[:3] for line in section.splitlines()
                if line.startswith("| ") and not line.startswith("| exp ")]
        assert rows == [[f"| {e.experiment}", e.description, e.paper]
                        for e in REGISTRY]

    def test_every_entry_has_full_scale_cells(self):
        """Full scale evaluates every entry; only the model's constant
        checks read no cell."""
        assert all(e.cells or e.experiment == "model" for e in REGISTRY)


class TestReportCli:
    def test_prints_report(self, quick_report, monkeypatch, capsys):
        """A re-run over the session's filled cache serves every cell,
        and its last line says so."""
        monkeypatch.chdir(quick_report[0])
        assert main(["--quick"]) == 0
        out = capsys.readouterr().out
        assert "paper vs measured" in out
        cells = len({stable_fingerprint(t) for e in REGISTRY
                     if e.quick_cells for t in e.quick_cells.values()})
        assert out.splitlines()[-1] == (
            f"cache: {cells}/{cells} cell(s) served from .repro-cache")

    def test_writes_file(self, quick_report, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(quick_report[0])
        path = tmp_path / "report.md"
        assert main(["--quick", "-o", str(path)]) == 0
        assert "paper vs measured" in path.read_text()

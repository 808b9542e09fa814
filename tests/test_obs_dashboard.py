"""The HTML dashboard: one self-contained file, no scripts, no network."""

from html.parser import HTMLParser

from repro.obs import cli as obs_cli
from repro.obs.dashboard import render_dashboard, write_dashboard
from repro.obs.ledger import RunLedger, record


def _records(times=(1.0, 1.01, 0.99, 1.0, 1.02), label="bench_a"):
    out = []
    for wall in times:
        out.append(
            record(
                kind="bench",
                label=label,
                wall_time_s=wall,
                spans={
                    "detect": {
                        "count": 1, "total_s": wall * 0.6, "mean_s": wall * 0.6,
                        "sums": {"stalls": round(wall * 100)},
                    },
                    "normalize": {"count": 1, "total_s": wall * 0.3, "mean_s": wall * 0.3},
                },
                quality={"gap_count": 2, "dropped_samples": 10},
            )
        )
    return out


class _Audit(HTMLParser):
    """Parses the document and collects self-containedness violations."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.tags = []
        self.violations = []

    def handle_starttag(self, tag, attrs):
        self.tags.append(tag)
        attrs = dict(attrs)
        if tag == "script":
            self.violations.append("script tag")
        if tag == "link":
            self.violations.append(f"external link: {attrs.get('href')}")
        if tag in ("img", "iframe"):
            self.violations.append(f"external resource tag: {tag}")
        for attribute in ("src", "href"):
            value = attrs.get(attribute, "")
            if value.startswith(("http:", "https:", "//")):
                self.violations.append(f"network reference: {value}")


class TestRenderDashboard:
    def test_single_well_formed_document(self):
        page = render_dashboard(_records())
        assert page.startswith("<!DOCTYPE html>")
        assert page.count("<html") == 1
        assert page.count("</html>") == 1
        parser = _Audit()
        parser.feed(page)
        assert "svg" in parser.tags  # sparklines are inline SVG
        assert "style" in parser.tags  # styling is inline too

    def test_self_contained_no_scripts_no_network(self):
        parser = _Audit()
        parser.feed(render_dashboard(_records()))
        assert parser.violations == []

    def test_sections_present(self):
        page = render_dashboard(_records())
        assert "wall-time trends" in page
        assert "span breakdown" in page
        assert "detect.stalls" in page
        assert "quality" in page
        assert "bench:bench_a" in page

    def test_regression_badge_paired_with_text(self):
        page = render_dashboard(_records(times=(1.0, 1.0, 1.0, 1.0, 3.2)))
        assert "REGRESSION" in page  # never color alone

    def test_stable_history_shows_ok(self):
        page = render_dashboard(_records())
        assert ">ok</span>" in page
        assert "REGRESSION" not in page

    def test_empty_ledger_renders_hint(self):
        page = render_dashboard([])
        assert "ledger is empty" in page
        parser = _Audit()
        parser.feed(page)
        assert parser.violations == []

    def test_labels_are_escaped(self):
        entry = record(
            kind="profile", label="<svg onload=x>", wall_time_s=0.5
        )
        page = render_dashboard([entry])
        assert "<svg onload" not in page
        assert "&lt;svg onload" in page

    def test_failed_campaign_runs_surface_in_overlay(self):
        failed = record(
            kind="campaign-run",
            label="camp/r2",
            wall_time_s=0.2,
            extra={"status": "failed", "error": "HardwareMissingError: gone"},
        )
        page = render_dashboard(_records() + [failed])
        assert "failed" in page
        assert "camp/r2" in page


class TestWriteDashboard:
    def test_writes_file_and_creates_parents(self, tmp_path):
        out = write_dashboard(
            tmp_path / "reports" / "dash.html", _records()
        )
        assert out.is_file()
        assert out.read_text(encoding="utf-8").startswith("<!DOCTYPE html>")


class TestDashboardCli:
    def test_renders_from_ledger(self, tmp_path, capsys):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append_many(_records())
        out = tmp_path / "dash.html"
        code = obs_cli.main(
            ["dashboard", str(ledger.path), "-o", str(out)]
        )
        assert code == obs_cli.EXIT_OK
        assert out.is_file()
        assert "dashboard (5 entries)" in capsys.readouterr().out
        parser = _Audit()
        parser.feed(out.read_text(encoding="utf-8"))
        assert parser.violations == []

    def test_missing_ledger_exits_two(self, tmp_path, capsys):
        code = obs_cli.main(
            ["dashboard", str(tmp_path / "absent.jsonl")]
        )
        assert code == obs_cli.EXIT_BAD_INPUT
        assert "cannot read" in capsys.readouterr().err

    def test_custom_title(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append_many(_records())
        out = tmp_path / "dash.html"
        obs_cli.main(
            [
                "dashboard",
                str(ledger.path),
                "-o",
                str(out),
                "--title",
                "nightly bench",
            ]
        )
        assert "<title>nightly bench</title>" in out.read_text()

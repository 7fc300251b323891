"""Tests for the xydiff command-line interface."""

import contextlib
import json
import os
import sqlite3
import subprocess
import sys

import pytest

from repro.cli import main
from repro.xmlkit import parse


@pytest.fixture
def files(tmp_path):
    old = tmp_path / "old.xml"
    new = tmp_path / "new.xml"
    old.write_text("<a><b>x</b><c>gone</c></a>")
    new.write_text("<a><b>y</b><d>fresh</d></a>")
    return tmp_path, old, new


class TestDiffCommand:
    def test_diff_to_file(self, files):
        tmp_path, old, new = files
        out = tmp_path / "delta.xml"
        assert main(["diff", str(old), str(new), "-o", str(out)]) == 0
        content = out.read_text()
        assert content.startswith("<delta")
        assert "<update" in content

    def test_diff_to_stdout(self, files, capsys):
        _, old, new = files
        assert main(["diff", str(old), str(new)]) == 0
        assert "<delta" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["diff", str(tmp_path / "no.xml"), str(tmp_path / "no2.xml")]) == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_xml(self, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<a><b></a>")
        ok = tmp_path / "ok.xml"
        ok.write_text("<a/>")
        assert main(["diff", str(bad), str(ok)]) == 2
        err = capsys.readouterr().err
        # compiler-style one-liner: error: <file>:<line>:<col>: <message>
        assert err.startswith(f"error: {bad}:1:")
        assert "mismatched tag" in err

    def test_malformed_xml_stats(self, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<a>&undefined;</a>")
        ok = tmp_path / "ok.xml"
        ok.write_text("<a/>")
        assert main(["stats", str(ok), str(bad)]) == 2
        assert f"error: {bad}:1:" in capsys.readouterr().err


class TestApplyRevert:
    def test_apply_then_revert(self, files):
        tmp_path, old, new = files
        delta = tmp_path / "delta.xml"
        applied = tmp_path / "applied.xml"
        reverted = tmp_path / "reverted.xml"
        xidmap = tmp_path / "applied.xidmap"
        assert main(["diff", str(old), str(new), "-o", str(delta)]) == 0
        assert main(
            [
                "apply", str(old), str(delta), "--verify",
                "-o", str(applied), "--xidmap-out", str(xidmap),
            ]
        ) == 0
        assert parse(applied.read_text()).deep_equal(parse(new.read_text()))
        assert main(
            [
                "revert", str(applied), str(delta),
                "--xidmap", str(xidmap), "-o", str(reverted),
            ]
        ) == 0
        assert parse(reverted.read_text()).deep_equal(parse(old.read_text()))

    def test_revert_with_diff_xidmap(self, files):
        # diff --new-xidmap lets the new version be reverted directly.
        tmp_path, old, new = files
        delta = tmp_path / "delta.xml"
        xidmap = tmp_path / "new.xidmap"
        reverted = tmp_path / "reverted.xml"
        assert main(
            [
                "diff", str(old), str(new),
                "-o", str(delta), "--new-xidmap", str(xidmap),
            ]
        ) == 0
        assert main(
            [
                "revert", str(new), str(delta), "--verify",
                "--xidmap", str(xidmap), "-o", str(reverted),
            ]
        ) == 0
        assert parse(reverted.read_text()).deep_equal(parse(old.read_text()))

    def test_indented_round_trip(self, tmp_path):
        # apply, revert, validate and aggregate parse with diff's
        # whitespace policy, so the delta's positions and XIDs line up
        # on pretty-printed input.
        old = tmp_path / "old.xml"
        new = tmp_path / "new.xml"
        old.write_text("<doc>\n  <p>one</p>\n  <p>two</p>\n</doc>\n")
        new.write_text("<doc>\n  <p>one</p>\n  <p>three</p>\n</doc>\n")
        delta = tmp_path / "delta.xml"
        xidmap = tmp_path / "new.xidmap"
        applied = tmp_path / "applied.xml"
        reverted = tmp_path / "reverted.xml"
        assert main(
            [
                "diff", str(old), str(new),
                "-o", str(delta), "--new-xidmap", str(xidmap),
            ]
        ) == 0
        assert main(
            ["apply", str(old), str(delta), "--verify", "-o", str(applied)]
        ) == 0
        assert parse(applied.read_text()).deep_equal(parse(new.read_text()))
        assert main(
            [
                "revert", str(new), str(delta), "--verify",
                "--xidmap", str(xidmap), "-o", str(reverted),
            ]
        ) == 0
        assert parse(reverted.read_text()).deep_equal(parse(old.read_text()))
        assert main(["validate", str(delta), "--base", str(old)]) == 0
        aggregated = tmp_path / "aggregated.xml"
        assert main(
            ["aggregate", str(old), str(delta), "-o", str(aggregated)]
        ) == 0
        assert main(
            ["apply", str(old), str(aggregated), "--verify", "-o", str(applied)]
        ) == 0
        assert parse(applied.read_text()).deep_equal(parse(new.read_text()))

    def test_indented_round_trip_keeping_whitespace(self, tmp_path):
        old = tmp_path / "old.xml"
        new = tmp_path / "new.xml"
        old.write_text("<doc>\n  <p>one</p>\n</doc>\n")
        new.write_text("<doc>\n  <p>one</p>\n  <p>two</p>\n</doc>\n")
        delta = tmp_path / "delta.xml"
        applied = tmp_path / "applied.xml"
        assert main(
            [
                "diff", str(old), str(new), "-o", str(delta),
                "--keep-whitespace",
            ]
        ) == 0
        assert main(
            [
                "apply", str(old), str(delta), "--verify",
                "--keep-whitespace", "-o", str(applied),
            ]
        ) == 0
        assert parse(
            applied.read_text(), strip_whitespace=False
        ).deep_equal(parse(new.read_text(), strip_whitespace=False))

    def test_invert(self, files, capsys):
        tmp_path, old, new = files
        delta = tmp_path / "delta.xml"
        main(["diff", str(old), str(new), "-o", str(delta)])
        assert main(["invert", str(delta)]) == 0
        assert "<delta" in capsys.readouterr().out


class TestStats:
    def test_stats_output(self, files, capsys):
        _, old, new = files
        assert main(["stats", str(old), str(new)]) == 0
        out = capsys.readouterr().out
        assert "old nodes:" in out
        assert "phase3 seconds:" in out
        assert "delta bytes:" in out
        assert "stage order:" in out

    def test_stats_json(self, files, capsys):
        import json

        _, old, new = files
        assert main(["stats", str(old), str(new), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "buld"
        assert payload["stage_order"][0] == "annotate"
        assert payload["delta_bytes"] > 0
        assert set(payload["phase_seconds"]) == {
            f"phase{i}" for i in range(1, 6)
        }

    def test_stats_engine_flag(self, files, capsys):
        import json

        _, old, new = files
        assert main(
            ["stats", str(old), str(new), "--engine", "lu", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "lu"
        assert payload["stage_order"] == ["match", "build-delta"]


class TestEngineFlag:
    @pytest.mark.parametrize("engine", ["buld", "lu", "ladiff", "diffmk", "flat"])
    def test_diff_engine_round_trips(self, files, engine, tmp_path):
        _, old, new = files
        delta = tmp_path / "delta.xml"
        applied = tmp_path / "applied.xml"
        assert main(
            ["diff", str(old), str(new), "--engine", engine, "-o", str(delta)]
        ) == 0
        assert main(
            ["apply", str(old), str(delta), "--verify", "-o", str(applied)]
        ) == 0
        assert parse(applied.read_text()).deep_equal(parse(new.read_text()))

    def test_unknown_engine_rejected(self, files, capsys):
        _, old, new = files
        with pytest.raises(SystemExit):
            main(["diff", str(old), str(new), "--engine", "nope"])
        assert "invalid choice" in capsys.readouterr().err


class TestNewSubcommands:
    def test_explain(self, files, capsys):
        _, old, new = files
        assert main(["explain", str(old), str(new)]) == 0
        out = capsys.readouterr().out
        assert "updated" in out
        assert "deleted" in out
        assert "inserted" in out

    def test_explain_no_changes(self, files, capsys):
        _, old, _ = files
        assert main(["explain", str(old), str(old)]) == 0
        assert "no changes" in capsys.readouterr().out

    def test_validate_clean(self, files, tmp_path, capsys):
        _, old, new = files
        delta = tmp_path / "delta.xml"
        main(["diff", str(old), str(new), "-o", str(delta)])
        assert main(["validate", str(delta), "--base", str(old)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_sitediff_directories(self, tmp_path, capsys):
        old_dir = tmp_path / "old"
        new_dir = tmp_path / "new"
        for directory in (old_dir, new_dir):
            (directory / "sub").mkdir(parents=True)
        (old_dir / "same.xml").write_text("<p>same text</p>")
        (new_dir / "same.xml").write_text("<p>same text</p>")
        (old_dir / "changed.xml").write_text("<p><v>1</v></p>")
        (new_dir / "changed.xml").write_text("<p><v>2</v></p>")
        (old_dir / "gone.xml").write_text("<p>bye</p>")
        (new_dir / "sub" / "fresh.xml").write_text("<p>hi</p>")
        (old_dir / "notes.txt").write_text("not xml")  # ignored by pattern

        deltas_dir = tmp_path / "deltas"
        assert main(
            [
                "sitediff", str(old_dir), str(new_dir),
                "--deltas-dir", str(deltas_dir),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "changed   changed.xml" in out
        assert "removed   gone.xml" in out
        assert "unchanged same.xml" in out
        assert "fresh.xml" in out
        assert "update=1" in out
        written = list(deltas_dir.glob("*.delta.xml"))
        assert len(written) == 1

    def test_sitediff_malformed_document_isolated(self, tmp_path, capsys):
        """A bad page is reported but the rest of the site still diffs."""
        old_dir = tmp_path / "old"
        new_dir = tmp_path / "new"
        old_dir.mkdir()
        new_dir.mkdir()
        (old_dir / "good.xml").write_text("<p><v>1</v></p>")
        (new_dir / "good.xml").write_text("<p><v>2</v></p>")
        (old_dir / "bad.xml").write_text("<p>fine</p>")
        (new_dir / "bad.xml").write_text("<p><broken</p>")

        assert main(["sitediff", str(old_dir), str(new_dir)]) == 2
        captured = capsys.readouterr()
        assert "changed   good.xml" in captured.out
        assert "failed    bad.xml" in captured.out
        assert "'failed': 1" in captured.out
        assert f"error: {new_dir / 'bad.xml'}:1:" in captured.err

    def test_sitediff_one_sided_parse_failure_not_added(
        self, tmp_path, capsys
    ):
        old_dir = tmp_path / "old"
        new_dir = tmp_path / "new"
        old_dir.mkdir()
        new_dir.mkdir()
        (new_dir / "only.xml").write_text("<p><broken</p>")
        assert main(["sitediff", str(old_dir), str(new_dir)]) == 2
        out = capsys.readouterr().out
        assert "added" not in out.splitlines()[0]
        assert "failed    only.xml" in out

    def test_validate_detects_problems(self, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text(
            "<delta>"
            "<update xid='1'><oldval>a</oldval><newval>b</newval></update>"
            "<update xid='1'><oldval>b</oldval><newval>c</newval></update>"
            "</delta>"
        )
        assert main(["validate", str(bad)]) == 1
        assert "duplicate-update" in capsys.readouterr().out

    def test_htmlize(self, tmp_path, capsys):
        page = tmp_path / "page.html"
        page.write_text("<ul><li>one<li>two</ul>")
        assert main(["htmlize", str(page)]) == 0
        out = capsys.readouterr().out
        assert out.count("<li>") == 2
        assert out.count("</li>") == 2
        parse(out)  # well-formed

    def test_infer_dtd(self, tmp_path, capsys):
        doc = tmp_path / "cat.xml"
        doc.write_text(
            '<c><p sku="a"><n>1</n></p><p sku="b"><n>2</n></p></c>'
        )
        assert main(["infer-dtd", str(doc)]) == 0
        out = capsys.readouterr().out
        assert "<!ELEMENT" in out
        assert "sku ID" in out

    def test_merge(self, tmp_path, capsys):
        base = tmp_path / "base.xml"
        ours = tmp_path / "ours.xml"
        theirs = tmp_path / "theirs.xml"
        base.write_text("<d><a>one</a><b>two</b></d>")
        ours.write_text("<d><a>ONE</a><b>two</b></d>")
        theirs.write_text("<d><a>one</a><b>TWO</b></d>")
        merged = tmp_path / "merged.xml"
        assert main(
            ["merge", str(base), str(ours), str(theirs), "-o", str(merged)]
        ) == 0
        assert parse(merged.read_text()).deep_equal(
            parse("<d><a>ONE</a><b>TWO</b></d>")
        )

    def test_merge_strict_conflict(self, tmp_path, capsys):
        base = tmp_path / "base.xml"
        ours = tmp_path / "ours.xml"
        theirs = tmp_path / "theirs.xml"
        base.write_text("<d><a>base</a></d>")
        ours.write_text("<d><a>mine</a></d>")
        theirs.write_text("<d><a>yours</a></d>")
        assert main(
            ["merge", str(base), str(ours), str(theirs), "--strict", "-o",
             str(tmp_path / "m.xml")]
        ) == 1
        assert "conflict" in capsys.readouterr().err

    def test_aggregate(self, tmp_path):
        v0 = tmp_path / "v0.xml"
        v1 = tmp_path / "v1.xml"
        v2 = tmp_path / "v2.xml"
        v0.write_text("<d><a>0</a></d>")
        v1.write_text("<d><a>1</a></d>")
        v2.write_text("<d><a>2</a><b/></d>")
        d1 = tmp_path / "d1.xml"
        d2 = tmp_path / "d2.xml"
        main(["diff", str(v0), str(v1), "-o", str(d1)])
        # second delta must continue from the labelled v1: reproduce it by
        # applying d1 so XIDs line up, then diffing against v2
        applied = tmp_path / "applied.xml"
        xmap = tmp_path / "applied.xidmap"
        main(["apply", str(v0), str(d1), "-o", str(applied),
              "--xidmap-out", str(xmap)])
        # diff v1->v2 via the CLI needs v1's xids; emulate the store by
        # diffing the applied file (same content as v1)
        main(["diff", str(applied), str(v2), "-o", str(d2)])
        combined = tmp_path / "combined.xml"
        assert main(
            ["aggregate", str(v0), str(d1), str(d2), "-o", str(combined)]
        ) == 0
        out = tmp_path / "final.xml"
        assert main(
            ["apply", str(v0), str(combined), "--verify", "-o", str(out)]
        ) == 0
        assert parse(out.read_text()).deep_equal(parse(v2.read_text()))


class TestGenerateSimulate:
    def test_generate_generic(self, tmp_path):
        out = tmp_path / "gen.xml"
        assert main(["generate", "--nodes", "50", "-o", str(out)]) == 0
        doc = parse(out.read_text())
        assert doc.subtree_size() >= 40

    def test_generate_catalog(self, tmp_path):
        out = tmp_path / "cat.xml"
        assert main(
            ["generate", "--kind", "catalog", "--nodes", "60", "-o", str(out)]
        ) == 0
        assert parse(out.read_text()).root.label == "catalog"

    def test_simulate_builds_the_perfect_delta_only_when_asked(
        self, tmp_path, monkeypatch
    ):
        import repro.core.apply as apply_module

        calls = []
        real = apply_module.build_delta

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(apply_module, "build_delta", counting)
        source = tmp_path / "doc.xml"
        main(["generate", "--nodes", "80", "--seed", "3", "-o", str(source)])
        command = ["simulate", str(source), "-o", str(tmp_path / "new.xml")]
        assert main(command) == 0
        assert calls == []
        delta = tmp_path / "perfect.xml"
        assert main(command + ["--delta-output", str(delta)]) == 0
        assert len(calls) == 1
        assert delta.exists()

    def test_simulate_roundtrip(self, tmp_path, capsys):
        source = tmp_path / "doc.xml"
        main(["generate", "--nodes", "80", "--seed", "3", "-o", str(source)])
        mutated = tmp_path / "mutated.xml"
        delta = tmp_path / "perfect.xml"
        assert main(
            [
                "simulate",
                str(source),
                "--seed",
                "4",
                "-o",
                str(mutated),
                "--delta-output",
                str(delta),
            ]
        ) == 0
        assert "simulated:" in capsys.readouterr().err
        # applying the perfect delta to the source yields the mutation
        applied = tmp_path / "applied.xml"
        assert main(
            ["apply", str(source), str(delta), "--verify", "-o", str(applied)]
        ) == 0
        assert parse(applied.read_text()).deep_equal(
            parse(mutated.read_text())
        )


class TestObservabilityFlags:
    def test_diff_trace_writes_jsonl(self, files, tmp_path):
        _, old, new = files
        trace = tmp_path / "run.jsonl"
        delta = tmp_path / "delta.xml"
        assert main(
            ["diff", str(old), str(new), "-o", str(delta),
             "--trace", str(trace)]
        ) == 0
        import json

        lines = trace.read_text().strip().splitlines()
        payloads = [json.loads(line) for line in lines]
        names = {payload["name"] for payload in payloads}
        assert "engine:buld" in names
        assert "stage:annotate" in names and "stage:build-delta" in names
        # per-stage spans sum close to the engine total (within 5%)
        engine = next(p for p in payloads if p["name"] == "engine:buld")
        stages = [p for p in payloads if p["name"].startswith("stage:")]
        assert sum(s["duration"] for s in stages) >= 0.95 * (
            engine["duration"] - 0.001  # tolerance for sub-ms runs
        )

    def test_stats_metrics_out_prometheus(self, files, tmp_path):
        _, old, new = files
        metrics = tmp_path / "metrics.prom"
        assert main(
            ["stats", str(old), str(new), "-o", "-",
             "--metrics-out", str(metrics)]
        ) == 0
        text = metrics.read_text()
        assert "# TYPE repro_stage_seconds histogram" in text
        assert 'repro_stage_seconds_count{stage="annotate"} 1' in text
        assert 'repro_diffs_total{engine="buld"} 1' in text

    def test_stats_metrics_out_json(self, files, tmp_path):
        import json

        _, old, new = files
        metrics = tmp_path / "metrics.json"
        assert main(
            ["stats", str(old), str(new), "-o", "-",
             "--metrics-out", str(metrics), "--metrics-format", "json"]
        ) == 0
        payload = json.loads(metrics.read_text())
        assert payload["repro_stage_seconds"]["kind"] == "histogram"

    def test_obs_render_prints_span_tree(self, files, tmp_path, capsys):
        _, old, new = files
        trace = tmp_path / "run.jsonl"
        assert main(
            ["stats", str(old), str(new), "-o", str(tmp_path / "s.txt"),
             "--trace", str(trace)]
        ) == 0
        assert main(["obs", "render", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "engine:buld" in out
        assert "└─ stage:build-delta" in out
        assert "ms" in out

    def test_obs_render_no_attrs(self, files, tmp_path, capsys):
        _, old, new = files
        trace = tmp_path / "run.jsonl"
        main(["stats", str(old), str(new), "-o", str(tmp_path / "s.txt"),
              "--trace", str(trace)])
        assert main(["obs", "render", str(trace), "--no-attrs"]) == 0
        assert "stage=" not in capsys.readouterr().out

    def test_obs_render_empty_trace_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["obs", "render", str(empty)]) == 1
        assert "empty" in capsys.readouterr().err

    def test_sitediff_trace(self, tmp_path, capsys):
        import json

        old_dir = tmp_path / "old"
        new_dir = tmp_path / "new"
        old_dir.mkdir()
        new_dir.mkdir()
        (old_dir / "a.xml").write_text("<p>one</p>")
        (new_dir / "a.xml").write_text("<p>two</p>")
        trace = tmp_path / "site.jsonl"
        assert main(
            ["sitediff", str(old_dir), str(new_dir),
             "-o", str(tmp_path / "site.txt"), "--trace", str(trace)]
        ) == 0
        names = [
            json.loads(line)["name"]
            for line in trace.read_text().strip().splitlines()
        ]
        assert "sitediff" in names and "sitediff.doc" in names

    def test_traced_delta_identical_to_plain(self, files, tmp_path):
        _, old, new = files
        plain = tmp_path / "plain.xml"
        traced = tmp_path / "traced.xml"
        assert main(["diff", str(old), str(new), "-o", str(plain)]) == 0
        assert main(
            ["diff", str(old), str(new), "-o", str(traced),
             "--trace", str(tmp_path / "t.jsonl")]
        ) == 0
        assert plain.read_text() == traced.read_text()


class TestExplainProvenance:
    def test_explain_why_adds_because_lines(self, files, capsys):
        _, old, new = files
        assert main(["explain", str(old), str(new), "--why"]) == 0
        out = capsys.readouterr().out
        assert "because" in out
        assert "[" in out  # the phase / cause tag

    def test_explain_json(self, files, capsys):
        import json

        _, old, new = files
        assert main(["explain", str(old), str(new), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        kinds = {op["kind"] for op in payload["operations"]}
        assert "update" in kinds
        assert all("because" not in op for op in payload["operations"])

    def test_explain_json_why(self, files, capsys):
        import json

        _, old, new = files
        assert main(["explain", str(old), str(new), "--json", "--why"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["operations"]
        assert all(op["because"] for op in payload["operations"])

    def test_explain_plain_unchanged(self, files, capsys):
        _, old, new = files
        assert main(["explain", str(old), str(new)]) == 0
        assert "because" not in capsys.readouterr().out


class TestAudit:
    def test_audit_passes_with_default_threshold(self, files, capsys):
        _, old, new = files
        assert main(["audit", str(old), str(new)]) == 0
        out = capsys.readouterr().out
        assert "matched pairs:" in out
        assert "unmatched weight:" in out

    def test_audit_fails_on_tight_threshold(self, files, capsys):
        _, old, new = files
        assert main(
            ["audit", str(old), str(new), "--max-unmatched", "0.0001"]
        ) == 1
        err = capsys.readouterr().err
        assert "audit:" in err
        assert "--max-unmatched" in err

    def test_audit_json_summary(self, files, capsys):
        import json

        _, old, new = files
        assert main(["audit", str(old), str(new), "--json", "--summary"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.provenance/1"
        assert payload["ok"] is True
        assert "nodes" not in payload

    def test_audit_json_includes_nodes_by_default(self, files, capsys):
        import json

        _, old, new = files
        assert main(["audit", str(old), str(new), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["nodes"]["old"]
        assert payload["nodes"]["new"]

    def test_audit_ground_truth_gate(self, tmp_path, capsys):
        old = tmp_path / "old.xml"
        new = tmp_path / "new.xml"
        perfect = tmp_path / "perfect.xml"
        assert main(
            ["generate", "--nodes", "120", "--seed", "5", "-o", str(old)]
        ) == 0
        assert main(
            ["simulate", str(old), "--seed", "6", "-o", str(new),
             "--delta-output", str(perfect)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["audit", str(old), str(new), "--ground-truth", str(perfect),
             "--json", "--summary"]
        ) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["ground_truth_size_ratio"] > 0
        # An absurdly tight size gate must flip the exit code.
        assert main(
            ["audit", str(old), str(new), "--ground-truth", str(perfect),
             "--max-size-ratio", "0.01"]
        ) == 1
        assert "--max-size-ratio" in capsys.readouterr().err

    def test_audit_malformed_xml_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        good = tmp_path / "good.xml"
        bad.write_text("<a><unclosed></a>")
        good.write_text("<a/>")
        assert main(["audit", str(bad), str(good)]) == 2
        assert "error" in capsys.readouterr().err


class TestObsRenderStdin:
    def test_render_reads_dash_as_stdin(self, files, tmp_path, capsys,
                                        monkeypatch):
        import io

        tmp_dir, old, new = files
        trace = tmp_path / "trace.jsonl"
        assert main(
            ["diff", str(old), str(new), "--trace", str(trace),
             "-o", str(tmp_path / "delta.xml")]
        ) == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(trace.read_text()))
        assert main(["obs", "render", "-"]) == 0
        out = capsys.readouterr().out
        assert "engine:buld" in out


class TestStoreCommands:
    def _seed(self, tmp_path, url):
        doc = tmp_path / "doc.xml"
        doc.write_text("<a><b>one</b></a>")
        assert main(["store", "commit", "doc-1", str(doc),
                     "--store", url]) == 0
        doc.write_text("<a><b>two</b><c>new</c></a>")
        assert main(["store", "commit", "doc-1", str(doc),
                     "--store", url]) == 0

    @pytest.mark.parametrize("scheme", ["file", "sqlite"])
    def test_commit_ls_log_cat_round_trip(self, tmp_path, capsys, scheme):
        path = tmp_path / ("s.sqlite" if scheme == "sqlite" else "s")
        url = f"{scheme}://{path}"
        self._seed(tmp_path, url)
        out = capsys.readouterr().out
        assert "created doc-1 version 1" in out
        assert "committed doc-1 version 2" in out

        # ls / log work on the bare path too (layout is sniffed)
        assert main(["store", "ls", "--store", str(path)]) == 0
        out = capsys.readouterr().out
        assert "doc-1  version=2" in out
        assert "summary: documents=1" in out

        assert main(["store", "log", "doc-1", "--store", url]) == 0
        out = capsys.readouterr().out
        assert "version 2  (current)" in out

        assert main(["store", "cat", "doc-1", "--store", url,
                     "--version", "1"]) == 0
        assert "<b>one</b>" in capsys.readouterr().out
        assert main(["store", "cat", "doc-1", "--store", url]) == 0
        assert "<c>new</c>" in capsys.readouterr().out

    def test_missing_store_is_an_error(self, tmp_path, capsys):
        assert main(["store", "ls", "--store",
                     f"sqlite://{tmp_path / 'nope.sqlite'}"]) == 1
        assert "does not exist" in capsys.readouterr().err

    def test_ls_sizes_shows_bytes(self, tmp_path, capsys):
        url = f"file://{tmp_path / 's'}"
        self._seed(tmp_path, url)
        capsys.readouterr()
        assert main(["store", "ls", "--store", url, "--sizes"]) == 0
        out = capsys.readouterr().out
        assert "doc-1  version=2 checkpoints=0 bytes=" in out
        assert "summary: documents=1 bytes=" in out

    @pytest.mark.parametrize("scheme", ["file", "sqlite"])
    def test_stats_text_and_json(self, tmp_path, capsys, scheme):
        path = tmp_path / ("s.sqlite" if scheme == "sqlite" else "s")
        url = f"{scheme}://{path}"
        self._seed(tmp_path, url)
        capsys.readouterr()

        assert main(["store", "stats", "--store", url]) == 0
        out = capsys.readouterr().out
        assert "documents: 1" in out
        assert "versions: 2 (deltas: 1)" in out
        assert "chain length: max=1" in out

        assert main(["store", "stats", "--store", url, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro.storewatch/3"
        assert report["documents"] == 1
        assert report["chain"]["histogram"] == {"1": 1}
        assert "dedup" not in report

    def test_stats_missing_store_is_an_error(self, tmp_path, capsys):
        assert main(["store", "stats", "--store",
                     f"sqlite://{tmp_path / 'nope.sqlite'}"]) == 1
        assert "does not exist" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "url, problem",
        [
            ("sqlite://{tmp}/s.sqlite?x=1", "takes no query parameters"),
            ("sqlite://", "has an empty path"),
        ],
        ids=["query", "empty-path"],
    )
    @pytest.mark.parametrize(
        "command",
        [["fsck", "{url}"], ["store", "ls", "--store", "{url}"]],
        ids=["fsck", "store-ls"],
    )
    def test_malformed_store_url_is_one_error_line(
        self, tmp_path, capsys, url, problem, command
    ):
        url = url.format(tmp=tmp_path)
        argv = [part.format(url=url) for part in command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: store URL {url!r} {problem}\n"
        assert os.listdir(tmp_path) == []

    def test_sitediff_commits_into_store(self, tmp_path, capsys):
        old_dir = tmp_path / "old"
        new_dir = tmp_path / "new"
        old_dir.mkdir()
        new_dir.mkdir()
        (old_dir / "a.xml").write_text("<a><b>x</b></a>")
        (new_dir / "a.xml").write_text("<a><b>y</b></a>")
        (new_dir / "b.xml").write_text("<a>fresh</a>")
        url = f"file://{tmp_path / 'site-store'}"
        # the store already tracks the old crawl of a.xml, so the
        # changed document appends version 2 while the new one creates.
        assert main(["store", "commit", "a.xml", str(old_dir / "a.xml"),
                     "--store", url]) == 0
        capsys.readouterr()
        assert main(["sitediff", str(old_dir), str(new_dir),
                     "--store", url]) == 0
        out = capsys.readouterr().out
        assert "committed 2 documents to " + url in out
        # the changed document landed as version 2, the added one as 1
        assert main(["store", "ls", "--store",
                     str(tmp_path / "site-store")]) == 0
        out = capsys.readouterr().out
        assert "a.xml  version=2" in out
        assert "b.xml  version=1" in out

    def test_fsck_reports_scheme(self, tmp_path, capsys):
        from repro.versioning import VersionStore, open_repository
        from repro.xmlkit import parse

        from tests.versioning.old_layout import to_old_layout

        root = tmp_path / "warehouse"
        repo = open_repository(root)
        store = VersionStore(repo)
        store.create("doc-1", parse("<a><b>x</b></a>"))
        # A head without checksums, as stores older than them hold.
        to_old_layout(repo.backend, "doc-1", manifest=False)
        repo.close()

        assert main(["fsck", f"file://{root}", "--repair"]) == 1
        out = capsys.readouterr().out
        assert "[file]" in out
        assert "missing-manifest" in out
        assert main(["fsck", str(root)]) == 0


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


@pytest.mark.parametrize(
    "make_argv, says",
    [
        pytest.param(lambda d: ["fsck", f"sqlite://{d / 'not-a-db'}"],
                     "not a database", id="fsck-sqlite-not-a-database"),
        pytest.param(lambda d: ["fsck", f"sqlite://{d / 'dir'}"],
                     "unable to open", id="fsck-sqlite-directory"),
        pytest.param(lambda d: ["fsck", f"file://{d / 'x.xml'}"],
                     "is not a directory", id="fsck-file-regular-file"),
        pytest.param(lambda d: ["fsck", f"sqlite://{d / 'no-data.db'}"],
                     "no such column: data", id="fsck-sqlite-kv-without-data"),
        pytest.param(lambda d: ["diff", str(d / "dir"), str(d / "x.xml")],
                     "Is a directory", id="diff-directory"),
        pytest.param(lambda d: ["apply", str(d / "x.xml"), str(d / "dir")],
                     "Is a directory", id="apply-directory"),
        pytest.param(lambda d: ["diff", str(d / "x.xml"), str(d / "x.xml"),
                                "-o", str(d / "dir")],
                     "Is a directory", id="diff-output-directory"),
    ],
)
def test_bad_path_is_one_error_line(tmp_path, make_argv, says):
    (tmp_path / "dir").mkdir()
    (tmp_path / "x.xml").write_text("<a/>")
    (tmp_path / "not-a-db").write_text("plain text, " * 20)
    # A database whose kv table lacks the data column: it opens, and
    # the first read of a stored value fails.
    with contextlib.closing(sqlite3.connect(tmp_path / "no-data.db")) as db:
        db.execute("CREATE TABLE kv (key TEXT PRIMARY KEY)")
        db.execute("INSERT INTO kv VALUES ('doc/meta.json')")
        db.commit()
    completed = subprocess.run(
        [sys.executable, "-m", "repro", *make_argv(tmp_path)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.path.abspath(SRC)),
    )
    assert completed.returncode == 1
    assert "Traceback" not in completed.stderr
    (line,) = completed.stderr.splitlines()
    assert line.startswith("error: ") and says in line

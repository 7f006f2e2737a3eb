"""The ``repro trace`` subcommand: determinism, schema, targets, errors."""

import json

import pytest

from repro.cli import main
from repro.obs.export import validate_chrome_trace


def test_trace_drone_export_is_byte_identical_across_runs(tmp_path, capsys):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert main(["trace", "drone", "--out", str(first)]) == 0
    assert main(["trace", "drone", "--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_trace_export_validates_against_chrome_schema(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(["trace", "drone", "--out", str(out)]) == 0
    assert "perfetto" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert validate_chrome_trace(payload) == []
    assert len(payload["traceEvents"]) > 50


def test_trace_rollup_total_matches_end_to_end_time(capsys):
    assert main(["trace", "drone", "--rollup"]) == 0
    out = capsys.readouterr().out
    assert "Where the virtual nanoseconds went" in out
    assert "end-to-end virtual time:" in out
    # The TOTAL row repeats the exact ns figure from the note line.
    total_ns = out.rsplit("end-to-end virtual time:", 1)[1].split()[0]
    total_row = next(
        line for line in out.splitlines() if line.startswith("TOTAL")
    )
    assert total_ns in total_row.split()


def test_trace_defaults_to_rollup_without_flags(capsys):
    assert main(["trace", "drone"]) == 0
    assert "Where the virtual nanoseconds went" in capsys.readouterr().out


def test_trace_serve_bench_target_has_serving_spans(tmp_path, capsys):
    out = tmp_path / "serve.json"
    assert main([
        "trace", "serve-bench", "--items", "1", "--out", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert validate_chrome_trace(payload) == []
    names = {e["name"] for e in payload["traceEvents"]}
    assert {"serve_request", "admission_wait", "batch",
            "pool_lease"} <= names
    waits = [e for e in payload["traceEvents"]
             if e["name"] == "admission_wait"]
    assert all(e["args"].get("out_of_band") for e in waits)
    # One Chrome row per tenant lane.
    meta_names = {
        e["args"]["name"] for e in payload["traceEvents"]
        if e["ph"] == "M"
    }
    assert {"tenant:tenant-0", "tenant:tenant-1"} <= meta_names


def test_trace_cve_target_records_restart(capsys):
    assert main(["trace", "CVE-2017-12597", "--rollup"]) == 0
    out = capsys.readouterr().out
    restart_row = next(
        (line for line in out.splitlines() if line.startswith("restart")),
        None,
    )
    assert restart_row is not None  # the exploit crashed an agent
    assert "3500000" in restart_row  # CostModel.process_restart_ns


def test_trace_unknown_target_exits_2(capsys):
    assert main(["trace", "not-a-target"]) == 2
    assert "unknown trace target" in capsys.readouterr().err


def test_numeric_target_runs_suite_app(capsys):
    assert main(["trace", "8", "--rollup"]) == 0
    assert "end-to-end virtual time:" in capsys.readouterr().out


@pytest.mark.parametrize("argv, flag", [
    (["trace", "drone", "--items", "-1"], "--items"),
    (["trace", "8", "--image-size", "0"], "--image-size"),
    (["trace", "serve-bench", "--items", "0"], "--items"),
])
def test_trace_rejects_non_positive_workload_flags(argv, flag, capsys):
    # Same >= 1 checks as `repro report` and `repro chaos`: a degenerate
    # workload is a usage error, not an empty trace.
    assert main(argv) == 2
    assert f"{flag} must be >= 1" in capsys.readouterr().err

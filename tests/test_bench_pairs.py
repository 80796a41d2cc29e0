"""Summary math of tools/bench_pairs.py on canned bench/run.py output."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _result(trials_per_s, peak_rss_mb):
    metrics = {"trials_per_s": trials_per_s, "peak_rss_mb": peak_rss_mb}
    return {"correct": True, "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}}


def test_parse_run_reads_the_last_line_and_the_env_line():
    out = "\n".join([
        'env {"nproc": 2, "commit": "abc"}',
        "workload unaware-elements: sweep-elements ...",
        "metric trials_per_s = 13.9 trials/s",
        json.dumps(_result(13.9, 64.5)),
        "",
    ])
    result, env = bench_pairs.parse_run(out)
    assert result["metrics"]["trials_per_s"]["value"] == 13.9
    assert env == {"nproc": 2, "commit": "abc"}
    with pytest.raises(ValueError):
        bench_pairs.parse_run("\n")


def test_quartiles_inclusive():
    assert bench_pairs.quartiles([1, 2, 3, 4, 5]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([4, 1, 3, 2]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([7]) == (7.0, 7.0, 7.0)


def test_summarize_counts_wins_in_each_direction():
    parent = [(10.0, 60.0), (12.0, 61.0), (11.0, 60.0), (13.0, 62.0), (14.0, 60.0)]
    change = [(20.0, 63.0), (21.0, 61.0), (11.0, 59.0), (25.0, 64.0), (12.0, 60.0)]
    pairs = [{"parent": _result(*p), "change": _result(*c)} for p, c in zip(parent, change)]
    s = bench_pairs.summarize(pairs, {"trials_per_s": "higher", "peak_rss_mb": "lower"})
    rate = s["trials_per_s"]
    assert (rate["pairs"], rate["wins"], rate["losses"]) == (5, 3, 1)  # one tie
    assert (rate["parent_q1"], rate["parent_median"], rate["parent_q3"]) == (11.0, 12.0, 13.0)
    assert (rate["change_q1"], rate["change_median"], rate["change_q3"]) == (12.0, 20.0, 21.0)
    assert rate["median_diff"] == 8.0 and rate["median_ratio"] == pytest.approx(20.0 / 12.0)
    assert rate["parent_iqr"] == 2.0 and rate["resolved"]
    rss = s["peak_rss_mb"]  # lower is better: 59 < 60 wins, 63 and 64 lose
    assert (rss["wins"], rss["losses"]) == (1, 2)
    assert rss["parent_iqr"] == 1.0 and rss["median_diff"] == 1.0 and not rss["resolved"]


def test_within_bound_is_the_relative_gate_in_each_direction():
    # medians: trials_per_s 12 -> 9, exactly 25% worse, which the bound allows;
    # peak_rss_mb 60 -> 66.5, 10.8% worse, past its 10% bound
    parent = [(11.0, 59.0), (12.0, 60.0), (13.0, 61.0)]
    change = [(8.0, 66.0), (9.0, 66.5), (10.0, 67.0)]
    pairs = [{"parent": _result(*p), "change": _result(*c)} for p, c in zip(parent, change)]
    better = {"trials_per_s": "higher", "peak_rss_mb": "lower"}
    s = bench_pairs.summarize(pairs, better, {"trials_per_s": 0.25, "peak_rss_mb": 0.1})
    assert s["trials_per_s"]["within_bound"] and not s["peak_rss_mb"]["within_bound"]
    s = bench_pairs.summarize(pairs, better, {"trials_per_s": 0.2, "peak_rss_mb": 0.11})
    assert not s["trials_per_s"]["within_bound"] and s["peak_rss_mb"]["within_bound"]
    # a better median is always within the bound
    flipped = [{"parent": p["change"], "change": p["parent"]} for p in pairs]
    s = bench_pairs.summarize(flipped, better, {"trials_per_s": 0.0, "peak_rss_mb": 0.0})
    assert s["trials_per_s"]["within_bound"] and s["peak_rss_mb"]["within_bound"]
    assert "within_bound" not in bench_pairs.summarize(pairs, better)["trials_per_s"]


def test_claim_met_needs_nine_tenths_of_the_pairs_and_a_resolved_gain():
    def summary(parent, change, better="higher"):
        pairs = [{"parent": _result(p, 60.0), "change": _result(c, 60.0)} for p, c in zip(parent, change)]
        return bench_pairs.summarize(pairs, {"trials_per_s": better})["trials_per_s"]

    parent = [10.0, 10.5, 11.0, 10.2, 10.8, 10.4, 10.6, 10.1, 10.9, 10.3]
    won = [p + 2.0 for p in parent]
    assert summary(parent, won)["claim_met"]  # 10 of 10, resolved
    nine = won[:9] + [parent[9]]  # a tie counts for neither side
    s = summary(parent, nine)
    assert (s["wins"], s["losses"], s["claim_met"]) == (9, 0, True)
    eight = won[:8] + [parent[8] - 1.0, parent[9]]
    s = summary(parent, eight)
    assert s["resolved"] and (s["wins"], s["claim_met"]) == (8, False)
    small = [p + 0.01 for p in parent]  # wins every pair, within the parent's spread
    s = summary(parent, small)
    assert s["wins"] == 10 and not s["resolved"] and not s["claim_met"]
    # the direction counts: a lower-is-better metric that rose claims nothing
    s = summary(parent, won, better="lower")
    assert s["resolved"] and not s["claim_met"]
    assert summary(won, parent, better="lower")["claim_met"]


def test_the_change_tree_must_be_named(tmp_path, capsys):
    # a change measured in place reads slower than a copy of it, so there is no default
    args = ["--parent", str(tmp_path), "--workload", "fixed-power", "--seeds", "1", "--out", str(tmp_path / "o.json")]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(args)
    assert exc.value.code == 2  # argparse's usage error
    assert "--change" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()

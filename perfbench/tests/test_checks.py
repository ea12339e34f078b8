"""The correctness gates: report tables, campaign lines, store counts."""

import json
from pathlib import Path

from checks import (
    EXHAUSTIVE_COLUMNS,
    check_report,
    check_same_report,
    check_store,
    half_width_99,
    sampled_cell_ok,
    serve_store_expectation,
)
from metrics import Tally

REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "reference" / "report.json")
    .read_text())
SAMPLES = 20_000


def render(cells: dict) -> str:
    """A report with the reference's Table 2 (or the given cells) and its
    Table 3, in the layout ``repro report`` prints."""
    columns = list(REFERENCE["table2"]["trio"])
    lines = ["# Report", "", "## Table 2 — SDC risk per error pattern", "",
             "| scheme | " + " | ".join(columns) + " |",
             "|" + "|".join("---" for _ in range(len(columns) + 1)) + "|"]
    for name, entry in REFERENCE["schemes"].items():
        row = [cells.get((name, column), REFERENCE["table2"][name][column]
                         ["cell"]) for column in columns]
        lines.append(f"| {entry['label']} | " + " | ".join(row) + " |")
    lines += ["", REFERENCE["table3"], "", "## Figure 9 — exascale", ""]
    return "\n".join(lines)


class TestReport:
    def test_reference_itself_passes(self):
        assert check_report(render({}), REFERENCE, SAMPLES) == []

    def test_wrong_exhaustive_cell_is_caught_and_counted(self):
        column = EXHAUSTIVE_COLUMNS[2]
        problems = check_report(render({("duet", column): "0.0100%"}),
                                REFERENCE, SAMPLES)
        assert len(problems) == 1 and "duet" in problems[0]
        tally = Tally()
        tally.record(not problems, "; ".join(problems))
        tally.record(True)
        assert tally.failed_frac == 0.5

    def test_table3_must_match(self):
        text = render({}).replace("1,760", "1,761")
        assert check_report(text, REFERENCE, SAMPLES) == [
            "Table 3 differs from the reference"]

    def test_sampled_cell_bound(self):
        ref = REFERENCE["table2"]["i-secded"]["3 Bits"]
        p = ref["sdc"]
        bound = 2 * (half_width_99(p, SAMPLES)
                     + half_width_99(p, ref["events"]))
        inside = f"{p + 0.9 * bound:.4%}"
        outside = f"{p + 1.2 * bound:.4%}"
        assert sampled_cell_ok(inside, ref, SAMPLES)[0]
        assert not sampled_cell_ok(outside, ref, SAMPLES)[0]

    def test_rare_sdc_cell_may_print_no_sdc(self):
        ref = REFERENCE["table2"]["trio"]["1 Beat"]
        assert 0 < ref["sdc"] < 1e-4
        assert sampled_cell_ok("D", ref, SAMPLES)[0]
        assert sampled_cell_ok("0.0050%", ref, SAMPLES)[0]
        assert not sampled_cell_ok("0.5000%", ref, SAMPLES)[0]

    def test_zero_reference_keeps_a_width(self):
        ref = REFERENCE["table2"]["duet"]["1 Beat"]
        assert ref["sdc"] == 0.0
        assert sampled_cell_ok("D", ref, SAMPLES)[0]
        # one miscorrection in 20,000 beat errors is within the width
        assert sampled_cell_ok("0.0050%", ref, SAMPLES)[0]
        assert not sampled_cell_ok("0.0500%", ref, SAMPLES)[0]
        assert not sampled_cell_ok("C/E", ref, SAMPLES)[0]


class TestSameReport:
    def test_summary_line_is_ignored(self):
        ours = "beam time 48s\n  SBSE: 64.5%\n\n[repro runs] abc: 0 hits"
        assert check_same_report(ours, "beam time 48s\n  SBSE: 64.5%") == []

    def test_any_other_difference_is_reported(self):
        problems = check_same_report("  SBSE: 64.5%", "  SBSE: 64.6%")
        assert problems and "64.5%" in problems[0]


def write_manifest(store: Path, run_id: str, hits: int, misses: int,
                   status: str = "completed") -> None:
    path = store / "runs" / run_id / "manifest.json"
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps({"run_id": run_id, "status": status,
                                "cache_hits": hits, "cache_misses": misses}))


class TestStore:
    def test_cold_store_passes(self, tmp_path):
        write_manifest(tmp_path, "a", 0, 63)
        assert check_store(tmp_path, hits=0, misses=63) == []

    def test_warm_store_fails_loudly(self, tmp_path):
        write_manifest(tmp_path, "a", 63, 0)
        problems = check_store(tmp_path, hits=0, misses=63)
        assert problems and "cold store gives 0/63" in problems[0]

    def test_leftover_runs_are_caught(self, tmp_path):
        write_manifest(tmp_path, "a", 0, 1)
        write_manifest(tmp_path, "b", 0, 1)
        assert check_store(tmp_path, hits=0, misses=1)

    def test_serve_expectation(self):
        # first job: 7 misses; a new seed: 4 hits + 3 misses; a repeat of
        # a finished seed: 7 hits
        assert serve_store_expectation(executed=1, distinct_seeds=1) == (0, 7)
        assert serve_store_expectation(executed=3, distinct_seeds=2) == \
            (11, 10)

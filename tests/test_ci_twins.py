"""Every shell step of the CI workflow after the tier-1 tests has a tier-1
twin: a test here that asserts what the step asserts, so that a change
which breaks a CI-only invariant fails the tier-1 run too."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

# Each CI step's name, as its `- name:` line gives it, to the node ids of
# its twins. A comment says where a twin covers only part of its step.
TWINS = {
    "Reports do not depend on the worker count": [
        "tests/test_harness.py::test_run_protocol_deterministic_and_parallel",
    ],
    # Part: the suite turns every RuntimeWarning into an error on these
    # trimmed and untrimmed protocol runs, which go through run_protocol on
    # fixture days, not through `pricelab evaluate` on the CI world's file.
    "The CV path raises no floating-point warning": [
        "tests/test_harness.py::test_run_protocol_deterministic_and_parallel",
        "tests/test_harness.py::test_run_protocol_gives_the_reports_of_a_brute_force_cv_grid",
    ],
    "No pricelab process imports scipy.optimize": [
        "tests/test_simplex.py::test_no_pricelab_process_imports_scipy_optimize",
    ],
    "Far price queries raise no floating-point warning": [
        "tests/test_cli.py::test_far_price_queries_raise_no_floating_point_warning",
    ],
    # Part: vg_calibrate on the step's four quotes, with warnings as errors;
    # the step's exit code 2 and one-line message come from the CLI.
    "VG calibration raises no floating-point warning": [
        "tests/test_variance_gamma.py::test_a_stalled_calibration_raises_no_floating_point_warning",
    ],
    "VG reports do not depend on warnings or the worker count": [
        "tests/test_harness.py::test_vg_reports_do_not_depend_on_warnings_or_the_worker_count",
    ],
    # Part: the fit's message, not the CLI's exit code and error line.
    "A one-maturity kernel fit names its label and coordinate": [
        "tests/test_estimators.py::test_nw_minimal_fits",
    ],
    # Part: the protocol on a calls-only day, not evaluate and price through
    # the CLI on the CI world's calls.
    "A day without ATM pairs reaches its reports": [
        "tests/test_harness.py::test_run_protocol_without_atm_pairs_prices_on_the_historical_curve",
    ],
    "Reports do not depend on the order of the CV labels": [
        "tests/test_shared_fit.py::test_the_order_of_the_cv_labels_changes_no_record",
    ],
    "Flags and a config file give the same reports": [
        "tests/test_cli.py::test_flags_and_a_config_file_give_the_same_reports",
    ],
    "Every subcommand reaches its output": [
        "tests/test_cli_properties.py::test_every_subcommand_takes_every_accepted_file",
        "tests/test_cli_properties.py::test_vg_takes_every_accepted_day",
    ],
    "Row order changes no output": [
        "tests/test_cli.py::test_row_order_changes_no_output",
    ],
    "Ingest is a fixed point and rejects a repeated column": [
        "tests/test_cli.py::test_ingest_is_a_fixed_point_and_rejects_a_repeated_column",
    ],
    # Part: the loader's line and message with rows split across blocks, not
    # ingest's and evaluate's exit code 2 at the CLI.
    "A bad row is a diagnosis, not a traceback": [
        "tests/test_market_data.py::test_blocks_keep_each_line_and_message",
    ],
    "A byte-order mark changes no output": [
        "tests/test_market_data.py::test_a_byte_order_mark_is_ignored",
        "tests/test_cli.py::test_price_reads_a_padded_header_or_a_byte_order_mark",
        "tests/test_cli.py::test_a_byte_order_mark_changes_no_report",
    ],
    "The README's command-line block runs": [
        "tests/test_readme.py::test_the_command_line_block_of_the_readme_runs",
    ],
    "Benchmark smoke run": [
        "tests/test_benchmark_smoke.py::test_the_benchmark_smoke_run_passes",
    ],
    "Demos": [
        "tests/test_demos.py::test_the_demo_exits_0",
    ],
}


def ci_steps_after_tier_1() -> list[str]:
    names = re.findall(r"^\s*- name: (.+?)\s*$", WORKFLOW.read_text(), re.MULTILINE)
    return names[names.index("Tier-1 tests") + 1:]


def resolves(node_id: str) -> bool:
    """Whether the node id names a file of the repository that defines a
    test function of that name at module level."""
    path, _, name = node_id.partition("::")
    file = ROOT / path
    return bool(name) and file.is_file() and re.search(
        rf"^def {re.escape(name)}\(", file.read_text(), re.MULTILINE) is not None


def test_every_ci_step_has_a_tier_1_twin():
    steps = ci_steps_after_tier_1()
    assert len(steps) == len(set(steps)), "two CI steps share a name"
    assert [step for step in steps if step not in TWINS] == [], "steps without a twin"
    assert [name for name in TWINS if name not in steps] == [], "twins of no step"


def test_every_twin_resolves():
    unresolved = [node for nodes in TWINS.values() for node in nodes if not resolves(node)]
    assert all(TWINS.values()) and unresolved == []

"""Committed mutants of `src/euphrates` and the tests that must catch them.

Each mutant replaces one piece of text in one source file. The runner
applies it to a temporary copy of `src/`, runs only the tests listed for it
against that copy, and calls the mutant killed when every listed test fails.
It exits 1 if any mutant survives. It is not part of the test suite (pytest
does not collect this file); run it from the repository root:

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py ew-rule    # the mutants whose name holds "ew-rule"
"""

import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/euphrates
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest ids, each of which must fail


NESTING = "tests/test_input_rules.py::test_deeply_nested_json_ends_in_one_config_error"
NOT_A_FRAME = "tests/test_motion.py::test_searches_reject_pixels_that_are_not_a_frame"
FLAG_RULE = "tests/test_cli.py::test_each_flag_sets_the_config_field_its_dest_names"
LONG_NAME = "tests/test_input_rules.py::test_a_path_name_too_long_to_use_reads_as_missing"
SECOND_SWEEP = "tests/test_cli.py::test_a_second_sweep_reads_the_files_as_they_are_then"
CELLS_READ = "tests/test_extrapolate.py::test_cells_read_marks_the_cells_of_positive_overlap"
MOTION_WORDING = "tests/test_cli.py::test_sweep_words_a_bad_motion_value_as_loading_its_config_does"
SWEPT_FIELD = "tests/test_cli.py::test_a_sweep_rejects_a_base_value_for_the_field_it_sweeps"
GOLDEN = "tests/test_golden_runs.py::test_outputs_match_their_pins"
SOURCES = "tests/test_cli.py::test_a_sweep_builds_one_motion_source_per_motion_params"
RING_BANDS = "tests/test_motion.py::test_tss_fields_in_ring_bands_equal_the_literal_ring_walk"

MUTANTS = [
    Mutant(
        "ew-rule-shrinks-at-tau-diff",
        "scheduler.py",
        "if diff > self.tau_diff:",
        "if diff >= self.tau_diff:",
        (
            "tests/test_scheduler.py::test_next_ew_counts_a_diff_equal_to_tau_diff_as_clean",
            "tests/test_scheduler.py::test_pipeline_equals_its_exact_oracle_at_the_ew_rule_edges[diff equals tau_diff]",
        ),
    ),
    Mutant(
        "ew-rule-keeps-streak-after-grow",
        "scheduler.py",
        "return min(self.ew_max, ew + 1), 0",
        "return min(self.ew_max, ew + 1), streak + 1",
        (
            "tests/test_scheduler.py::test_adaptive_update_grows_after_streak",
            "tests/test_scheduler.py::test_pipeline_equals_its_exact_oracle_at_the_ew_rule_edges[two grows]",
        ),
    ),
    Mutant(
        "decoding-lets-recursion-error-through",
        "config.py",
        '    except RecursionError:\n        reason = "JSON nests too deeply to decode"\n',
        "",
        tuple(f"{NESTING}[{command}-100000]" for command in ("simulate --config", "evaluate --trace")),
    ),
    Mutant(
        "search-takes-any-array",
        "motion.py",
        "(frame if isinstance(frame, Frame) else Frame(np.asarray(frame))).pixels",
        "frame.pixels if isinstance(frame, Frame) else np.asarray(frame)",
        tuple(f"{NOT_A_FRAME}[{search}-{pixels}]" for search in ("es field", "one MB") for pixels in ("int64", "float64")),
    ),
    Mutant(
        "flag-filter-ignores-dotted-dests",
        "cli.py",
        'if dest.split(".")[0] in cls.__dataclass_fields__',
        "if dest in cls.__dataclass_fields__",
        (f"{FLAG_RULE}[simulate]",),
    ),
    Mutant(
        "detections-check-raises-on-a-long-name",
        "cli.py",
        "if not os.path.isfile(det_path):",
        "if not det_path.is_file():",
        (f"{LONG_NAME}[detections]",),
    ),
    Mutant(
        "sequence-size-check-never-fires",
        "pixels.py",
        "(item.width, item.height) != (items[0].width, items[0].height)",
        "(item.width, item.height) != (item.width, item.height)",
        (
            "tests/test_pixels.py::test_sequence_mixed_dims_names_file",
            "tests/test_cli.py::test_simulate_rejects_mixed_mvm_fields",
        ),
    ),
    Mutant(
        "mvm-params-compared-on-the-first-field-only",
        "cli.py",
        "if fld.params != params:",
        'if path.name == "000001.mvm" and fld.params != params:',
        ("tests/test_cli.py::test_simulate_rejects_a_later_mvm_field_of_other_motion_params",),
    ),
    Mutant(
        "search-range-bound-past-the-wide-record",
        "motion.py",
        "if self.search_range > 127:",
        "if self.search_range > 255:",
        (
            "tests/test_motion.py::test_codec_rejects_a_search_range_the_wide_form_cannot_hold",
            "tests/test_cli.py::test_estimate_checks_the_metadata_layout_before_searching",
            "tests/test_cli.py::test_runs_from_frames_check_the_metadata_layout_before_searching",
        ),
    ),
    Mutant(
        "sweep-takes-a-base-value-for-the-swept-field",
        "cli.py",
        "if base != default:  # every run sets its own",
        "if False:",
        (
            *(f"{SWEPT_FIELD}[{axis}]" for axis in ("ew", "mb_size", "algorithm")),
            "tests/test_cli.py::test_an_ew_sweep_rejects_mode_and_other_sweeps_take_it_as_their_base",
        ),
    ),
    Mutant(
        "sweep-inputs-kept-for-the-process",
        "cli.py",
        "    inputs: dict = {}\n",
        '    inputs: dict = globals().setdefault("_SWEEP_INPUTS", {})  # a process-wide cache keyed by path\n',
        tuple(f"{SECOND_SWEEP}[{rewritten}]" for rewritten in ("frame", "detections")),
    ),
    Mutant(
        "match-window-ends-at-the-top-of-a",
        "metrics.py",
        "bisect_left(tops, a_corners[3])",
        "bisect_left(tops, a_corners[1])",
        ("tests/test_metrics.py::test_greedy_match_equals_the_pair_loop",),
    ),
    Mutant(
        "covered-cell-run-drops-its-last-column",
        "extrapolate.py",
        "return cells[run < width[s][:, None]]",
        "return cells[run < width[s][:, None] - 1]",
        ("tests/test_extrapolate.py::test_batched_motion_stats_equal_per_roi_stats_bit_for_bit",),
    ),
    Mutant(
        "cells-read-range-stop-unclamped",
        "extrapolate.py",
        "mask[max(int(r.y // L), 0):max(-int(-y2 // L), 0), max(int(r.x // L), 0):max(-int(-x2 // L), 0)]",
        "mask[max(int(r.y // L), 0):-int(-y2 // L), max(int(r.x // L), 0):-int(-x2 // L)]",
        (f"{CELLS_READ}[wholly above]", f"{CELLS_READ}[wholly left]"),
    ),
    # Only runs longer than the 12-frame golden scene of test_scheduler.py see it.
    Mutant(
        "moved-box-one-ulp-right-from-frame-12",
        "scheduler.py",
        "        return [(state, roi) for state, roi in moved if roi is not None]",
        '        return [(state, roi if t < 12 else Roi(__import__("math").nextafter(roi.x, float("inf")),'
        " roi.y, roi.w, roi.h, label=roi.label, score=roi.score)) for state, roi in moved if roi is not None]",
        tuple(f"{GOLDEN}[{name}]" for name in (
            "crowd-simulate-adaptive", "crowd-simulate-ew4", "crowd-simulate-frames-adaptive", "fast-sweep-ew",
        )),
    ),
    Mutant(
        "sweep-shares-one-motion-source-across-motion-params",
        "cli.py",
        'motion = _read_once(inputs, ("motion", cfg.frames_dir or cfg.metadata_dir, cfg.motion), source)',
        'motion = _read_once(inputs, ("motion", cfg.frames_dir or cfg.metadata_dir), source)',
        (
            "tests/test_cli.py::test_sweep_variant_outputs_equal_a_simulate_of_their_echo[mb_size-16,8]",
            *(f"{SOURCES}[{case}]" for case in ("mb_size-8,16,32-3", "algorithm-es,tss-2")),
        ),
    ),
    Mutant(
        "tss-ring-bands-all-start-at-candidate-0",
        "motion.py",
        "sources[y - iv[:, part], x - iu[:, part]]",
        "sources[y - iv[:, : part.stop - b], x - iu[:, : part.stop - b]]",
        tuple(f"{RING_BANDS}[{band}]" for band in (1, 2, 4)),
    ),
    Mutant(
        "sweep-drops-the-motion-wording",
        "cli.py",
        'raise ConfigError(f"motion: {e}") from None',
        "raise ConfigError(str(e)) from None",
        (f"{MOTION_WORDING}[mb_size=3]", f"{MOTION_WORDING}[algorithm=TSS]"),
    ),
]


def failed_tests(src: Path, tests: tuple[str, ...]) -> set[str]:
    """The ids among `tests` that fail when run against the package in `src`."""
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-o", f"pythonpath={src}", "-rf", *tests],
        cwd=ROOT, capture_output=True, text=True,
    )
    if result.returncode not in (0, 1):  # 0: all passed, 1: some failed
        sys.exit(f"pytest could not run {tests}:\n{result.stdout}{result.stderr}")
    return set(re.findall(r"^FAILED (.+?)(?: - .*)?$", result.stdout, re.M))


def run(mutant: Mutant) -> bool:
    """Whether every test listed for `mutant` fails with it applied."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(shutil.copytree(ROOT / "src", Path(tmp) / "src"))
        path = src / "euphrates" / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            sys.exit(f"{mutant.name}: {mutant.file} holds {mutant.old!r} {text.count(mutant.old)} times, not once")
        path.write_text(text.replace(mutant.old, mutant.new))
        failed = failed_tests(src, mutant.tests)
    survived = [t for t in mutant.tests if t not in failed]
    print(f"{'SURVIVED' if survived else 'killed'}: {mutant.name}")
    for test in survived:
        print(f"  passed: {test}")
    return not survived


def main(patterns: list[str]) -> int:
    chosen = [m for m in MUTANTS if not patterns or any(p in m.name for p in patterns)]
    if not chosen:
        sys.exit(f"no mutant matches {patterns}")
    killed = [run(m) for m in chosen]
    print(f"{sum(killed)} of {len(killed)} mutants killed")
    return 0 if all(killed) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

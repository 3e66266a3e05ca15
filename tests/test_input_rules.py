"""The command line's input rules on damaged JSON, JSONL, PGM and .mvm
inputs: exit 0, or exit 2 with exactly one `error <Class>: ` line."""

import json
import random
import re
import shutil

import pytest

from euphrates.cli import main


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Frames, their truth, .mvm fields estimated from them, a run config
    that sets every section, and the result trace of that run."""
    root = tmp_path_factory.mktemp("inputs")
    assert run(["synth", "--out", root / "frames", "--canvas", "64x48", "--object", "16x12", "--frames", 5,
                "--velocity", "2,1", "--start", "4,2", "--background", "noise"]) == 0
    assert run(["estimate", "--frames", root / "frames", "--out", root / "mv"]) == 0
    config = {
        "metadata_dir": str(root / "mv"), "detections": str(root / "frames" / "truth.jsonl"), "mode": "adaptive",
        "extrapolation": {"grid": [2, 2], "filter_threshold": 0.5}, "adaptive": {"tau_diff": 0.2, "k_up": 2},
        "provider": {"noise_sigma": 1.5}, "soc": {"preset": "tiny-yolo"}, "seed": 1,
    }
    (root / "run.json").write_text(json.dumps(config, indent=1))
    assert run(["simulate", "--config", root / "run.json", "--out", root / "sim"]) == 0
    return root


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error "), err
    return err


# ---------------------------------------------------------------------------
# JSON nested past the decoder's recursion limit


def nested(depth: int) -> str:
    return "[" * depth + "]" * depth


def commands(root, path):
    """The arguments of each command that reads `path` as a config or as a
    JSONL trace, by the command and its flag."""
    truth, trace = root / "frames" / "truth.jsonl", root / "sim" / "trace.jsonl"
    out = path.parent / "out"
    return {
        "synth --config": ["synth", "--config", path, "--out", out],
        "simulate --config": ["simulate", "--config", path, "--out", out],
        "simulate --detections": ["simulate", "--config", root / "run.json", "--detections", path, "--out", out],
        "evaluate --trace": ["evaluate", "--trace", path, "--truth", truth, "--out", out],
        "evaluate --truth": ["evaluate", "--trace", trace, "--truth", path, "--out", out],
        "sweep --config": ["sweep", "--config", path, "--axis", "ew", "--values", "1,2", "--out", out],
    }


@pytest.mark.parametrize("depth", [1000, 100000])
@pytest.mark.parametrize("command", ["synth --config", "simulate --config", "simulate --detections",
                                     "evaluate --trace", "evaluate --truth", "sweep --config"])
def test_deeply_nested_json_ends_in_one_config_error(inputs, tmp_path, capsys, command, depth):
    trace = "--config" not in command
    path = tmp_path / ("deep.jsonl" if trace else "deep.json")
    # A trace's frame line nests its boxes; a config is the nesting alone.
    path.write_text(f'{{"frame": 0, "boxes": [{nested(depth)}]}}\n' if trace else nested(depth))
    assert run(commands(inputs, path)[command]) == 2
    err = one_error_line(capsys)
    where = f"{path}:1" if trace else f"{path}"
    assert err.startswith(f"error ConfigError: {where}: "), err
    if depth == 100000:
        assert err == f"error ConfigError: {where}: JSON nests too deeply to decode\n"


def test_integer_past_the_digit_limit_is_invalid_json(inputs, tmp_path, capsys):
    # int() refuses more than 4300 digits by default, with a plain ValueError.
    path = tmp_path / "run.json"
    path.write_text('{"seed": ' + "9" * 5000 + "}")
    assert run(["simulate", "--config", path, "--out", tmp_path / "out"]) == 2
    assert one_error_line(capsys).startswith(f"error ConfigError: {path}: invalid JSON: Exceeds the limit")


# ---------------------------------------------------------------------------
# Path names the file system cannot use

LONG_NAME = "n" * 300  # past the 255-byte name limit of common file systems


def commands_reading(root, work, path):
    """The arguments of a command that reads `path`, by the input it names."""
    run_config = json.loads((root / "run.json").read_text())
    configs = {
        "detections": {**run_config, "detections": str(path)},
        "frames_dir": {**run_config, "metadata_dir": None, "frames_dir": str(path)},
        "metadata_dir": {**run_config, "metadata_dir": str(path)},
        "sweep truth": {**run_config, "truth": str(path)},
    }
    commands = {}
    for name, config in configs.items():
        config_path = work / f"{name}.json"
        config_path.write_text(json.dumps(config))
        commands[name] = ["simulate", "--config", config_path, "--out", work / "out"]
    commands["sweep truth"][0:1] = ["sweep", "--axis", "ew", "--values", "1,2"]
    commands["simulate --config"] = ["simulate", "--config", path, "--out", work / "out"]
    commands["estimate --frames"] = ["estimate", "--frames", path, "--out", work / "out"]
    commands["evaluate --trace"] = ["evaluate", "--trace", path, "--truth", root / "frames" / "truth.jsonl",
                                    "--out", work / "out"]
    return commands


@pytest.mark.parametrize("name", ["detections", "frames_dir", "metadata_dir", "sweep truth", "simulate --config",
                                  "estimate --frames", "evaluate --trace"])
def test_a_path_name_too_long_to_use_reads_as_missing(inputs, tmp_path, capsys, name):
    # Path.is_file() and Path.glob() raise OSError for such a name.
    errors = []
    for path in (tmp_path / "missing", tmp_path / LONG_NAME):
        assert run(commands_reading(inputs, tmp_path, path)[name]) == 2
        errors.append(one_error_line(capsys).replace(str(path), "<path>"))
    assert errors[0] == errors[1]


def test_an_output_path_name_too_long_to_use_is_bad_input(inputs, tmp_path, capsys):
    out = tmp_path / LONG_NAME
    assert run(["simulate", "--config", inputs / "run.json", "--out", out]) == 2
    assert one_error_line(capsys) == f"error ConfigError: output directory {out}: File name too long\n"


# ---------------------------------------------------------------------------
# Seeded byte mutations of each kind of input

FUZZ_CASES = 60  # per kind of input

TOKENS = [b"{", b"}", b"[", b"]", b",", b":", b'"', b"null", b"true", b"-", b".", b"e", b"\n", b"\r\n",
          b'"frame"', b'"boxes"', b'"kind"', b'"config"', b"\xff", b"\\u0000", b"\xe2\x80\xa8"]
EXTREMES = [b"1e309", b"-1e309", b"1e-400", b"5e-324", b"-0", b"0", b"-1", b"4294967296",
            b"18446744073709551616", b"9" * 5000, b"NaN", b"-Infinity", b"1.5"]
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def mutate(data: bytearray, rng: random.Random) -> str:
    """Apply one random mutation to `data` in place; a description of it."""
    i = rng.randrange(len(data) + 1)
    op = rng.choice(["flip", "cut", "truncate", "repeat", "token", "number"])
    if op == "flip" and data:
        i = min(i, len(data) - 1)
        mask = rng.randrange(1, 256)
        data[i] ^= mask
        return f"flip {i} ^ {mask}"
    if op == "cut":
        j = rng.randrange(i, min(len(data), i + 16) + 1)
        del data[i:j]
        return f"cut {i}:{j}"
    if op == "truncate":
        del data[i:]
        return f"truncate {i}"
    if op == "repeat":
        j, times = min(len(data), i + rng.randrange(1, 9)), rng.choice([1, 2, 1500])
        data[i:i] = data[i:j] * times
        return f"repeat {i}:{j} x{times}"
    numbers = list(NUMBER.finditer(data))
    if op == "number" and numbers:
        a, b = rng.choice(numbers).span()
        data[a:b] = value = rng.choice(EXTREMES)
        return f"number {a}:{b} = {value[:20]!r}"
    data[i:i] = token = rng.choice(TOKENS)
    return f"insert {i} {token!r}"


def fuzz_case(root, work, kind: str, rng: random.Random):
    """The command that reads one mutated `kind` input under `work`, and the
    mutations made."""
    config = json.loads((root / "run.json").read_text())
    target = work / "run.json"
    if kind == "pgm":
        config.pop("metadata_dir")
        config["frames_dir"] = str(shutil.copytree(root / "frames", work / "frames"))
        target = work / "frames" / f"{rng.randrange(5):06d}.pgm"
    elif kind == "mvm":
        config["metadata_dir"] = str(shutil.copytree(root / "mv", work / "mv"))
        target = work / "mv" / f"{rng.randrange(1, 5):06d}.mvm"
    elif kind == "trace":
        target = shutil.copy(root / "sim" / "trace.jsonl", work / "trace.jsonl")
    elif kind == "detections":
        target = shutil.copy(root / "frames" / "truth.jsonl", work / "truth.jsonl")
        config["detections"] = str(target)
    (work / "run.json").write_text(json.dumps(config, indent=1))
    data = bytearray(target.read_bytes())
    done = [mutate(data, rng) for _ in range(rng.randrange(1, 4))]
    target.write_bytes(bytes(data))
    if kind == "trace":
        return ["evaluate", "--trace", target, "--truth", root / "frames" / "truth.jsonl", "--out", work / "out"], done
    return ["simulate", "--config", work / "run.json", "--out", work / "out"], done


@pytest.mark.parametrize("kind", ["config", "detections", "trace", "pgm", "mvm"])
def test_mutated_inputs_exit_0_or_2_with_one_error_line(inputs, tmp_path, capsys, kind):
    rng = random.Random(f"input-rules-{kind}")
    for case in range(FUZZ_CASES):
        work = tmp_path / str(case)
        work.mkdir()
        args, done = fuzz_case(inputs, work, kind, rng)
        rc = run(args)
        err = capsys.readouterr().err
        assert rc in (0, 2), (case, done, rc, err)
        if rc != 0:
            assert err.count("\n") == 1 and re.match(r"error [A-Za-z]+: ", err), (case, done, err)
        else:
            assert not re.search(r"^error ", err, re.M), (case, done, err)

import csv
import dataclasses
import functools
import hashlib
import inspect
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aflow.forecast
from aflow import cli, datagen, forecast, graph_analysis, list_alignment, persistence, stats
from aflow.data_model import METADATA_HEADER, DataFormatError, NumericalError, serialize_snapshots


def run(argv, capsys=None):
    code = cli.main(argv)
    if capsys is None:
        return code, None
    return code, capsys.readouterr()


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def tree_digest(root: Path) -> dict[str, str]:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def generate_data(tmp_path, n_videos=16, density=0.12, seed=0, name="data"):
    data = tmp_path / name
    code = cli.main(
        [
            "generate",
            "--out",
            str(data),
            "--n-videos",
            str(n_videos),
            "--n-artists",
            "5",
            "--days",
            "63",
            "--edge-density",
            str(density),
            "--seed",
            str(seed),
        ]
    )
    assert code == 0
    return data


def test_resolve_settings_precedence(tmp_path, monkeypatch):
    config = tmp_path / "settings.cfg"
    config.write_text("trials = 500\nseed = 4  # comment\n\n", encoding="utf-8")
    parser = cli.build_parser()

    args = parser.parse_args(["simulate-persistence", "--out", "x", "--config", str(config)])
    settings = cli.resolve_settings(args)
    assert settings["trials"] == 500
    assert settings["seed"] == 4

    monkeypatch.setenv("AFLOW_TRIALS", "700")
    settings = cli.resolve_settings(args)
    assert settings["trials"] == 700

    args = parser.parse_args(
        ["simulate-persistence", "--out", "x", "--config", str(config), "--trials", "900"]
    )
    settings = cli.resolve_settings(args)
    assert settings["trials"] == 900
    assert settings["seed"] == 4
    assert settings["cutoff"] == 15  # untouched default


def test_config_file_problems_are_usage_errors(tmp_path, capsys):
    bad_key = tmp_path / "bad_key.cfg"
    bad_key.write_text("no_such_setting=1\n", encoding="utf-8")
    code, captured = run(
        ["simulate-persistence", "--out", str(tmp_path / "o"), "--config", str(bad_key)], capsys
    )
    assert code == 1
    record = json.loads(captured.err.strip())
    assert record["error"] == "usage"
    assert "unknown setting" in record["message"]

    bad_value = tmp_path / "bad_value.cfg"
    bad_value.write_text("trials=many\n", encoding="utf-8")
    code, captured = run(
        ["simulate-persistence", "--out", str(tmp_path / "o"), "--config", str(bad_value)], capsys
    )
    assert code == 1
    assert "expects a int" in json.loads(captured.err.strip())["message"]

    # A bad type or a bad choice names its file and line, like an unknown key.
    bad_type = tmp_path / "bad_type.cfg"
    bad_type.write_text("seed = 2\ntrials = many\n", encoding="utf-8")
    code, captured = run(
        ["simulate-persistence", "--out", str(tmp_path / "o"), "--config", str(bad_type)], capsys
    )
    assert code == 1
    assert usage_record(captured)["message"] == (
        f"{bad_type}:2: setting trials expects a int, got 'many'")

    bad_choice = tmp_path / "bad_choice.cfg"
    bad_choice.write_text("# settings\n\nmodel = bogus\n", encoding="utf-8")
    code, captured = run(["fit", "--data", "d", "--out", str(tmp_path / "o"), "--persistent", "p",
                          "--config", str(bad_choice)], capsys)
    assert code == 1
    assert usage_record(captured)["message"] == (
        f"{bad_choice}:3: setting model expects one of naive, snaive, ar, arnet, got 'bogus'")

    code, captured = run(
        ["simulate-persistence", "--out", str(tmp_path / "o"), "--config", str(tmp_path / "nope")],
        capsys,
    )
    assert code == 1


def usage_record(captured) -> dict:
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1, captured.err
    record = json.loads(lines[0])
    assert record["error"] == "usage"
    return record


def test_choices_hold_for_every_source(tmp_path, monkeypatch, capsys):
    data = generate_data(tmp_path)
    links = tmp_path / "links"
    assert cli.main(["persistent", "--data", str(data), "--out", str(links)]) == 0
    fit = ["fit", "--data", str(data), "--out", str(tmp_path / "fit"),
           "--persistent", str(links / "persistent_edges.csv")]
    capsys.readouterr()

    code, captured = run(fit + ["--neighbor-mode", "bogus"], capsys)
    assert code == 1
    usage_record(captured)

    monkeypatch.setenv("AFLOW_NEIGHBOR_MODE", "bogus")
    code, captured = run(fit, capsys)
    assert code == 1
    assert "neighbor_mode expects one of observed, forecast" in usage_record(captured)["message"]
    monkeypatch.delenv("AFLOW_NEIGHBOR_MODE")

    config = tmp_path / "bogus.cfg"
    config.write_text("model=bogus\n", encoding="utf-8")
    code, captured = run(fit + ["--config", str(config)], capsys)
    assert code == 1
    assert "model expects one of naive, snaive, ar, arnet" in usage_record(captured)["message"]
    assert not (tmp_path / "fit").exists()


@pytest.mark.parametrize("command", ["generate", "simulate-persistence", "correlate"])
def test_negative_seed_is_usage_error_from_every_source(tmp_path, monkeypatch, capsys, command):
    argv = [command, "--out", str(tmp_path / "out")]
    if command == "correlate":
        argv += ["--data", str(tmp_path / "data")]
    config = tmp_path / "seed.cfg"
    config.write_text("seed=-1\n", encoding="utf-8")
    for extra, env in (["--seed", "-1"], None), (["--config", str(config)], None), ([], "-1"):
        if env is not None:
            monkeypatch.setenv("AFLOW_SEED", env)
        code, captured = run(argv + extra, capsys)
        assert code == 1
        assert usage_record(captured)["message"] == "setting seed must be at least 0, got -1"
        assert "Traceback" not in captured.err + captured.out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["fit", "pipeline"])
def test_threads_below_one_is_usage_error_from_every_source(tmp_path, monkeypatch, capsys, command):
    argv = [command, "--data", str(tmp_path / "data"), "--out", str(tmp_path / "out")]
    if command == "fit":
        argv += ["--persistent", str(tmp_path / "persistent_edges.csv")]
    config = tmp_path / "threads.cfg"
    for value in ("0", "-3"):
        config.write_text(f"threads={value}\n", encoding="utf-8")
        for extra, env in (["--threads", value], None), (["--config", str(config)], None), ([], value):
            monkeypatch.delenv("AFLOW_THREADS", raising=False)
            if env is not None:
                monkeypatch.setenv("AFLOW_THREADS", env)
            code, captured = run(argv + extra, capsys)
            assert code == 1
            assert usage_record(captured)["message"] == f"setting threads must be at least 1, got {value}"
            assert "Traceback" not in captured.err + captured.out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flag", [
    ("analyze", "--cutoff"), ("display-prob", "--max-rel"), ("correlate", "--random-pairs"),
    ("simulate-persistence", "--trials"), ("pipeline", "--p"), ("generate", "--days"),
])
def test_an_integer_setting_below_its_bound_is_usage_error(tmp_path, capsys, command, flag):
    # --data names no directory, so a usage error shows the setting is checked before any read
    argv = [command, "--out", str(tmp_path / "out"), flag, "0"]
    if "data" in cli.COMMANDS[command].paths:
        argv += ["--data", str(tmp_path / "data")]
    code, captured = run(argv, capsys)
    assert code == 1
    key = flag[2:].replace("-", "_")
    assert usage_record(captured)["message"] == f"setting {key} must be at least 1, got 0"
    assert "Traceback" not in captured.err + captured.out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,key,value,message", [
    ("correlate", "alpha", "nan", "setting alpha must lie in (0, 1), got nan"),
    ("correlate", "alpha", "1.0", "setting alpha must lie in (0, 1), got 1.0"),
    ("correlate", "alpha", "0", "setting alpha must lie in (0, 1), got 0.0"),
    ("persistent", "target_min_views", "inf", "setting target_min_views must be finite, got inf"),
    ("pipeline", "source_view_frac", "nan", "setting source_view_frac must be finite, got nan"),
])
def test_bad_view_filter_and_alpha_are_usage_errors_from_every_source(
        tmp_path, monkeypatch, capsys, command, key, value, message):
    argv = [command, "--data", str(tmp_path / "data"), "--out", str(tmp_path / "out")]
    config = tmp_path / "bad.cfg"
    config.write_text(f"{key}={value}\n", encoding="utf-8")
    flag = "--" + key.replace("_", "-")
    for extra, env in ([flag, value], None), (["--config", str(config)], None), ([], value):
        if env is not None:
            monkeypatch.setenv(f"AFLOW_{key.upper()}", env)
        code, captured = run(argv + extra, capsys)
        assert code == 1
        assert usage_record(captured)["message"] == message
        assert "Traceback" not in captured.err + captured.out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("day", ["2030-01-01", "2018-13-01"])
def test_analyze_date_problems_are_usage_errors(tmp_path, capsys, day):
    data = generate_data(tmp_path)
    capsys.readouterr()
    code, captured = run(
        ["analyze", "--data", str(data), "--out", str(tmp_path / "a"), "--date", day], capsys
    )
    assert code == 1
    assert day in usage_record(captured)["message"]
    assert "Traceback" not in captured.err + captured.out


def test_analyze_date_follows_the_input_grammar(tmp_path, capsys):
    data = generate_data(tmp_path)
    capsys.readouterr()
    code, captured = run(
        ["analyze", "--data", str(data), "--out", str(tmp_path / "a"), "--date", "20181027"], capsys
    )
    assert code == 1
    assert usage_record(captured)["message"] == "argument --date: bad date '20181027'"
    assert not (tmp_path / "a").exists()


def test_manifests_record_only_the_settings_a_command_reads(tmp_path, monkeypatch):
    monkeypatch.setenv("AFLOW_CUTOFF", "12")  # read by persistent, not by fit or evaluate
    data = generate_data(tmp_path)
    links, fit, ev = tmp_path / "links", tmp_path / "fit", tmp_path / "eval"
    assert cli.main(["persistent", "--data", str(data), "--out", str(links)]) == 0
    assert cli.main(["fit", "--data", str(data), "--out", str(fit), "--model", "ar",
                     "--persistent", str(links / "persistent_edges.csv")]) == 0
    assert cli.main(["evaluate", "--forecasts", str(fit / "forecasts.csv"),
                     "--out", str(ev)]) == 0

    def config(out):
        return json.loads((out / "run_manifest.json").read_text())["config"]

    assert config(data) == {"days": 63, "edge_density": 0.12, "n_artists": 5, "n_videos": 16,
                            "noise_scale": 5.0, "presence_prob": 1.0, "seed": 0}
    assert config(links) == {"cutoff": 12, "source_view_frac": 0.01, "target_min_views": 100.0}
    assert config(fit) == {"horizon": 7, "m_star": 7, "model": "ar",
                           "neighbor_mode": "observed", "p": 7, "train_days": 56}
    assert config(ev) == {}


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """Each file a command may take, by its manifest key: a generated dataset and a pipeline run on it."""
    root = tmp_path_factory.mktemp("chain")
    data, out = generate_data(root), root / "pipeline"
    assert cli.main(["pipeline", "--data", str(data), "--out", str(out), "--threads", "1"]) == 0
    files = {name: data / name for name in ("snapshots.csv", "views.csv", "metadata.csv")}
    return {"generate": data, "pipeline": out, "data": data, **files,
            "persistent_edges.csv": out / "persistent_edges.csv",
            "models.json": out / "arnet" / "models.json", "forecasts.csv": out / "arnet" / "forecasts.csv"}


def chain_argv(chain, command, out):
    """``command``'s argv on small inputs: the ``chain`` files, and ``out`` for ``--out``."""
    argv = [command, *{"generate": ["--n-videos", "16", "--n-artists", "5", "--days", "63"],
                       "simulate-persistence": ["--trials", "10"],
                       "pipeline": ["--threads", "1"], "fit": ["--threads", "1"]}.get(command, [])]
    for key, flag in (("data", "data"), ("persistent_edges.csv", "persistent"),
                      ("models.json", "models"), ("forecasts.csv", "forecasts")):
        if flag in cli.COMMANDS[command].paths:
            argv += [f"--{flag}", str(chain[key])]
    return argv + (["--out", str(out)] if "out" in cli.COMMANDS[command].paths else [])


DATA = ["snapshots.csv", "views.csv", "metadata.csv"]


@pytest.mark.parametrize("command, inputs", [
    ("generate", []),
    ("simulate-persistence", []),
    ("analyze", DATA),
    ("display-prob", ["snapshots.csv"]),
    ("persistent", DATA),
    ("correlate", DATA),
    ("fit", DATA + ["persistent_edges.csv"]),
    ("evaluate", ["forecasts.csv"]),
    ("contribute", DATA + ["models.json"]),
    ("pipeline", DATA),
])
def test_manifests_hash_exactly_the_files_a_command_reads(chain, tmp_path, command, inputs):
    out = chain.get(command)  # generate and pipeline ran in the fixture
    if out is None:
        out = tmp_path / "out"
        assert cli.main(chain_argv(chain, command, out)) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["inputs"] == {
        name: hashlib.sha256(chain[name].read_bytes()).hexdigest() for name in inputs}


def test_each_stage_run_alone_writes_what_pipeline_writes(chain, tmp_path):
    data, out = str(chain["data"]), tmp_path / "stages"
    assert cli.main(["persistent", "--data", data, "--out", str(out)]) == 0
    for model in forecast.MODEL_NAMES:
        sub = out / model
        assert cli.main(["fit", "--data", data, "--persistent", str(out / "persistent_edges.csv"),
                         "--out", str(sub), "--model", model, "--threads", "1"]) == 0
        assert cli.main(["evaluate", "--forecasts", str(sub / "forecasts.csv"), "--out", str(sub)]) == 0
    assert cli.main(["contribute", "--data", data, "--models", str(out / "arnet" / "models.json"),
                     "--out", str(out / "arnet")]) == 0

    def artifacts(root):
        return {name: digest for name, digest in tree_digest(root).items()
                if not name.endswith("run_manifest.json")}

    assert artifacts(out) == artifacts(chain["pipeline"])


def test_contribute_ignores_the_key_order_of_beta(tmp_path):
    data = generate_data(tmp_path, n_videos=60, density=0.1)
    assert cli.main(["pipeline", "--data", str(data), "--out", str(tmp_path / "run"), "--threads", "1"]) == 0
    fitted = tmp_path / "run" / "arnet" / "models.json"
    payload = json.loads(fitted.read_text(encoding="utf-8"))
    assert max(len(entry["beta"]) for entry in payload["videos"].values()) >= 3
    for entry in payload["videos"].values():
        entry["beta"] = dict(reversed(list(entry["beta"].items())))
    flipped = tmp_path / "reversed.json"
    flipped.write_text(json.dumps(payload), encoding="utf-8")
    outs = tmp_path / "contrib", tmp_path / "contrib_reversed"
    for models, out in zip((fitted, flipped), outs):
        assert cli.main(["contribute", "--data", str(data), "--models", str(models), "--out", str(out)]) == 0
    for name in ("eta.csv", "artist_shift.csv", "contribution_summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("command", ["analyze", "persistent", "correlate", "pipeline"])
def test_a_command_builds_its_link_presence_once(chain, tmp_path, monkeypatch, command):
    calls = []

    def counted(*args):
        calls.append(args)
        return graph_analysis.daily_link_presence(*args)

    monkeypatch.setattr(cli, "daily_link_presence", counted)
    assert cli.main(chain_argv(chain, command, tmp_path / "out")) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["validate", "evaluate", "contribute"])
def test_commands_without_settings_take_no_config_flag(tmp_path, capsys, command):
    argv = [command, "--config", str(tmp_path / "c.cfg")]
    for path in cli.COMMANDS[command].paths:
        argv += [f"--{path}", str(tmp_path / path)]
    code, captured = run(argv, capsys)
    assert code == 1
    assert "--config" in usage_record(captured)["message"]


def _readme_settings_table() -> list[list[str]]:
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    start = lines.index("| setting | type | default | choices | read by |")
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip().strip("`") for cell in line.strip("|").split("|")])
    return rows


def test_readme_settings_table_matches_the_code():
    expected = [
        [s.name, s.type.__name__,
         "available cores" if s.name == "threads" else str(s.default),
         ", ".join(s.choices), ", ".join(s.commands)]
        for s in cli.SETTINGS.values()
    ]
    assert _readme_settings_table() == expected


# Every library parameter or config field a setting feeds, as (owner, name).
# random_pairs, model, p_grid and threads feed none that has a default.
LIBRARY_DEFAULTS = {
    "cutoff": [(graph_analysis.build_graph, "cutoff"), (graph_analysis.daily_link_presence, "cutoff")],
    "min_indegree": [(graph_analysis.indegree_change_ratios, "min_indegree")],
    "max_rel": [(list_alignment.display_probability_matrix, "max_rel")],
    "max_rec": [(list_alignment.origin_probability_matrix, "max_rec")],
    "target_min_views": [(persistence.apply_view_filters, "target_min")],
    "source_view_frac": [(persistence.apply_view_filters, "source_frac")],
    "alpha": [(stats.correlated_link_fractions, "alpha")],
    "p": [(forecast.ForecastConfig, "p"), (forecast.fit_ar, "p")],
    "m_star": [(forecast.ForecastConfig, "m_star"), (forecast.predict_seasonal_naive, "m_star")],
    "train_days": [(forecast.ForecastConfig, "train_days")],
    "horizon": [(forecast.ForecastConfig, "horizon")],
    "neighbor_mode": [(forecast.ForecastConfig, "neighbor_mode")],
    "seed": [(datagen.GenConfig, "seed"), (persistence.simulate_persistence_probability, "seed")],
    "days": [(datagen.GenConfig, "days"), (persistence.simulate_persistence_probability, "n_days")],
    "n_videos": [(datagen.GenConfig, "n_videos")],
    "n_artists": [(datagen.GenConfig, "n_artists")],
    "edge_density": [(datagen.GenConfig, "edge_density")],
    "presence_prob": [(datagen.GenConfig, "presence_prob")],
    "noise_scale": [(datagen.GenConfig, "noise_scale")],
    "trials": [(persistence.simulate_persistence_probability, "trials")],
}


def _library_default(owner, name):
    """A dataclass field's default, or a function parameter's."""
    if dataclasses.is_dataclass(owner):
        return {f.name: f.default for f in dataclasses.fields(owner)}[name]
    return inspect.signature(owner).parameters[name].default


@pytest.mark.parametrize("setting", sorted(LIBRARY_DEFAULTS))
def test_each_setting_default_is_the_library_default(setting):
    default = cli.SETTINGS[setting].default
    for owner, name in LIBRARY_DEFAULTS[setting]:
        value = _library_default(owner, name)
        assert (value, type(value)) == (default, type(default)), f"{owner.__qualname__}({name})"


def test_every_setting_with_a_library_default_is_pinned():
    unpinned = set(cli.SETTINGS) - set(LIBRARY_DEFAULTS)
    assert unpinned == {"random_pairs", "model", "p_grid", "threads"}
    # ForecastConfig holds the fit settings and nothing else, such as a solver limit
    read_by_fit = {name for name, s in cli.SETTINGS.items() if "fit" in s.commands}
    assert {f.name for f in dataclasses.fields(forecast.ForecastConfig)} == read_by_fit - {"model", "threads"}


def test_setting_choices_are_the_library_choices():
    choices = {name: s.choices for name, s in cli.SETTINGS.items() if s.choices}
    assert choices.keys() == {"model", "neighbor_mode"}
    assert choices["model"] is forecast.MODEL_NAMES
    assert choices["neighbor_mode"] is forecast.NEIGHBOR_MODES


def test_missing_required_flag_is_usage_error(tmp_path, capsys):
    code, captured = run(["analyze", "--data", str(tmp_path)], capsys)
    assert code == 1
    assert json.loads(captured.err.strip())["error"] == "usage"


def test_missing_data_directory_is_data_error(tmp_path, capsys):
    code, captured = run(["validate", "--data", str(tmp_path / "absent")], capsys)
    assert code == 2
    assert json.loads(captured.err.strip())["error"] == "data"


def test_numerical_failures_exit_three(tmp_path, monkeypatch, capsys):
    def boom(path):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(cli, "load_dataset", boom)
    code, captured = run(["validate", "--data", str(tmp_path)], capsys)
    assert code == 3
    record = json.loads(captured.err.strip())
    assert record["error"] == "numerical"
    assert record["message"] == "synthetic failure"


def test_running_out_of_memory_exits_four(tmp_path, monkeypatch, capsys):
    def boom(args, settings, data):
        raise MemoryError

    command = cli.COMMANDS["simulate-persistence"]
    monkeypatch.setitem(cli.COMMANDS, "simulate-persistence", command._replace(handler=boom))
    out = tmp_path / "out"
    code, captured = run(["simulate-persistence", "--out", str(out)], capsys)
    assert code == 4
    assert captured.err.count("\n") == 1
    assert json.loads(captured.err) == {"error": "memory", "type": "MemoryError", "message": ""}
    assert "Traceback" not in captured.err + captured.out
    assert not out.exists()


def test_generate_then_validate(tmp_path, capsys):
    data = generate_data(tmp_path)
    for name in ("snapshots.csv", "views.csv", "metadata.csv", "ground_truth.json", "run_manifest.json"):
        assert (data / name).is_file()
    capsys.readouterr()

    before = sorted(p.name for p in data.iterdir())
    code, captured = run(["validate", "--data", str(data)], capsys)
    assert code == 0
    summary = json.loads(captured.out.strip())
    assert summary["n_videos"] == 16
    assert summary["n_days"] == 63
    assert summary["n_external_targets"] == 0
    # validate is read-only
    assert sorted(p.name for p in data.iterdir()) == before


def test_generate_is_deterministic(tmp_path):
    d1 = generate_data(tmp_path, seed=5, name="d1")
    d2 = generate_data(tmp_path, seed=5, name="d2")
    assert tree_digest(d1) == tree_digest(d2)
    d3 = generate_data(tmp_path, seed=6, name="d3")
    assert tree_digest(d3) != tree_digest(d1)


def test_analyze_artifacts(tmp_path, capsys):
    data = generate_data(tmp_path)
    out = tmp_path / "analysis"
    code, _ = run(
        ["analyze", "--data", str(data), "--out", str(out), "--min-indegree", "1"], capsys
    )
    assert code == 0

    header, rows = read_csv(out / "bowtie.csv")
    assert header == ["date", "component", "n_nodes", "node_fraction", "view_fraction"]
    assert [r[1] for r in rows] == ["LSCC", "IN", "OUT", "Tendrils", "Disconnected"]
    assert sum(float(r[3]) for r in rows) == pytest.approx(1.0)
    assert sum(float(r[4]) for r in rows) == pytest.approx(1.0)
    assert sum(int(r[2]) for r in rows) == 16

    header, rows = read_csv(out / "ccdf.csv")
    assert header == ["indegree", "prob_ge"]
    assert rows[0] == ["0", "1.0"]

    header, rows = read_csv(out / "group_flow.csv")
    assert header == ["source_group", "bottom25", "q2", "q3", "top25"]
    assert len(rows) == 4

    header, rows = read_csv(out / "churn.csv")
    assert header == ["indegree", "count", "p10", "p25", "p50", "p75", "p90"]
    assert rows, "min-indegree 1 should produce churn rows"

    header, rows = read_csv(out / "link_freq.csv")
    assert header == ["days_present", "n_links"]
    assert rows

    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["subcommand"] == "analyze"
    assert set(manifest["inputs"]) == {"snapshots.csv", "views.csv", "metadata.csv"}
    assert "threads" not in manifest["config"]
    assert manifest["config"]["min_indegree"] == 1


def test_display_prob_artifacts(tmp_path, capsys):
    kernel = np.array([[0.5, 0.2, 0.1, 0.1], [0.3, 0.3, 0.1, 0.1], [0.1, 0.2, 0.3, 0.2]])
    net = datagen.generate_paired_lists(kernel, n_pairs=300, seed=1)
    data = tmp_path / "lists"
    data.mkdir()
    (data / "snapshots.csv").write_text(serialize_snapshots(net), encoding="utf-8")

    out = tmp_path / "alignment"
    code, _ = run(
        ["display-prob", "--data", str(data), "--out", str(out), "--max-rel", "3"], capsys
    )
    assert code == 0
    header, rows = read_csv(out / "display_prob.csv")
    assert header == ["rel_rank", "bin_label", "probability"]
    assert len(rows) == 3 * 4
    assert all(0.0 <= float(r[2]) <= 1.0 for r in rows)
    header, rows = read_csv(out / "origin_prob.csv")
    assert header == ["rec_position", "bin_label", "probability"]
    assert len(rows) == 15 * 4
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert set(manifest["inputs"]) == {"snapshots.csv"}


def test_persistent_artifacts_round_trip(tmp_path, capsys):
    data = generate_data(tmp_path)
    out = tmp_path / "links"
    code, _ = run(["persistent", "--data", str(data), "--out", str(out)], capsys)
    assert code == 0

    header, rows = read_csv(out / "persistent_edges.csv")
    assert header == ["source", "target", "reciprocal", "raw_presence_count"]
    assert rows, "full presence at density 0.12 must leave persistent links"
    assert all(r[2] in ("0", "1") for r in rows)
    assert all(r[3] == "63" for r in rows)

    homophily = json.loads((out / "homophily.json").read_text())
    assert homophily["n_edges"] == len(rows)
    assert homophily["n_reciprocal"] == 0  # generated graph is a DAG

    reloaded = cli.read_persistent_edges(out / "persistent_edges.csv")
    assert len(reloaded.edges) == len(rows)
    assert reloaded.pair_set == {(r[0], r[1]) for r in rows}


def test_artifacts_of_no_rows_hold_their_header_line_alone(tmp_path, capsys):
    data = generate_data(tmp_path)
    links, analysis = tmp_path / "links", tmp_path / "analysis"
    code, _ = run(["persistent", "--data", str(data), "--out", str(links), "--target-min-views", "1e12"], capsys)
    assert code == 0
    assert (links / "persistent_edges.csv").read_bytes() == b"source,target,reciprocal,raw_presence_count\n"
    homophily = json.loads((links / "homophily.json").read_text())
    assert homophily["n_edges"] == 0
    assert homophily["same_artist_fraction"] is None and homophily["shared_genre_fraction"] is None
    code, _ = run(["analyze", "--data", str(data), "--out", str(analysis), "--min-indegree", "100000"], capsys)
    assert code == 0
    assert (analysis / "churn.csv").read_bytes() == b"indegree,count,p10,p25,p50,p75,p90\n"


def test_simulate_persistence_artifact(tmp_path, capsys):
    out = tmp_path / "xi"
    code, _ = run(
        [
            "simulate-persistence",
            "--out",
            str(out),
            "--p-grid",
            "0.0,0.9,1.0",
            "--trials",
            "2000",
            "--seed",
            "0",
        ],
        capsys,
    )
    assert code == 0
    header, rows = read_csv(out / "xi_curve.csv")
    assert header == ["p", "xi", "trials"]
    xi = [float(r[1]) for r in rows]
    assert xi[0] == 0.0
    assert xi[2] == 1.0
    assert xi[0] <= xi[1] <= xi[2]
    assert all(r[2] == "2000" for r in rows)


def test_correlate_artifacts(tmp_path, capsys):
    data = generate_data(tmp_path)
    out = tmp_path / "corr"
    code, _ = run(
        ["correlate", "--data", str(data), "--out", str(out), "--random-pairs", "20"], capsys
    )
    assert code == 0
    header, rows = read_csv(out / "group_fractions.csv")
    assert header == ["group", "n_links", "n_significant", "fraction"]
    groups = {r[0]: r for r in rows}
    assert "persistent" in groups and "random" in groups
    assert int(groups["random"][1]) == 20
    for r in rows:
        assert 0.0 <= float(r[3]) <= 1.0
        assert int(r[2]) <= int(r[1])

    header, links = read_csv(out / "link_correlations.csv")
    assert header == ["group", "source", "target", "r", "p"]
    by_group = {}
    for row in links:
        by_group[row[0]] = by_group.get(row[0], 0) + 1
    for r in rows:
        assert by_group[r[0]] == int(r[1])


def test_correlate_takes_every_pair_a_small_corpus_has(tmp_path, capsys):
    # The criterion-10 dataset has fewer eligible never-linked pairs than the default 200.
    data = generate_data(tmp_path, n_videos=14, density=0.15, seed=3)
    out = tmp_path / "corr"
    code, captured = run(["correlate", "--data", str(data), "--out", str(out)], capsys)
    assert code == 0, captured.err
    warning = json.loads(captured.err.strip())
    assert warning["warning"] == "random_pairs_short" and warning["wanted"] == 200
    _, links = read_csv(out / "link_correlations.csv")
    random = [(r[1], r[2]) for r in links if r[0] == "random"]
    assert 0 < len(random) == warning["found"] < 200
    assert random == sorted(set(random))
    # Every eligible never-linked pair is there: asking for exactly that many
    # draws them all without a warning, and one more is short again.
    for wanted, short in ((len(random), False), (len(random) + 1, True)):
        code, captured = run(["correlate", "--data", str(data), "--out", str(tmp_path / "again"),
                              "--random-pairs", str(wanted)], capsys)
        assert code == 0
        assert ("random_pairs_short" in captured.err) == short
        _, again = read_csv(tmp_path / "again" / "link_correlations.csv")
        assert sorted((r[1], r[2]) for r in again if r[0] == "random") == random


def test_fit_without_persistent_artifact_is_data_error(tmp_path, capsys):
    data = generate_data(tmp_path)
    code, captured = run(
        [
            "fit",
            "--data",
            str(data),
            "--out",
            str(tmp_path / "fit"),
            "--persistent",
            str(tmp_path / "missing.csv"),
        ],
        capsys,
    )
    assert code == 2
    assert "run the persistent step first" in json.loads(captured.err.strip())["message"]


def test_fit_evaluate_contribute_chain(tmp_path, capsys):
    data = generate_data(tmp_path)
    links = tmp_path / "links"
    assert cli.main(["persistent", "--data", str(data), "--out", str(links)]) == 0
    persistent = links / "persistent_edges.csv"

    overall = {}
    for model in ("naive", "snaive", "ar", "arnet"):
        out = tmp_path / f"fit_{model}"
        code, _ = run(
            [
                "fit",
                "--data",
                str(data),
                "--out",
                str(out),
                "--persistent",
                str(persistent),
                "--model",
                model,
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads((out / "models.json").read_text())
        assert payload["model"] == model
        header, rows = read_csv(out / "forecasts.csv")
        assert header == ["video_id", "date", "y_true", "y_pred"]
        assert len(rows) % 7 == 0

        eval_dir = tmp_path / f"eval_{model}"
        code, _ = run(
            ["evaluate", "--forecasts", str(out / "forecasts.csv"), "--out", str(eval_dir)],
            capsys,
        )
        assert code == 0
        summary = json.loads((eval_dir / "eval_summary.json").read_text())
        assert 0.0 <= summary["overall_smape"] <= 200.0
        assert len(summary["per_horizon_smape"]) == 7
        overall[model] = summary["overall_smape"]
        header, rows = read_csv(eval_dir / "eval.csv")
        assert header == ["scope", "key", "smape"]

    contrib = tmp_path / "contrib"
    code, _ = run(
        [
            "contribute",
            "--data",
            str(data),
            "--out",
            str(contrib),
            "--models",
            str(tmp_path / "fit_arnet" / "models.json"),
        ],
        capsys,
    )
    assert code == 0
    header, rows = read_csv(contrib / "eta.csv")
    assert header == ["video_id", "eta"]
    assert all(0.0 <= float(r[1]) <= 1.0 for r in rows)
    header, rows = read_csv(contrib / "artist_shift.csv")
    assert header == [
        "artist_id",
        "total_with",
        "total_without",
        "pct_with",
        "pct_without",
        "pct_change",
        "outlier",
    ]
    assert abs(sum(float(r[5]) for r in rows)) < 1e-9
    summary = json.loads((contrib / "contribution_summary.json").read_text())
    assert 0.0 <= summary["mean_eta"] <= 1.0

    # the network model must not do worse than the naive baseline here
    assert overall["arnet"] <= overall["naive"]


def test_contribute_rejects_non_network_models(tmp_path, capsys):
    data = generate_data(tmp_path)
    links = tmp_path / "links"
    assert cli.main(["persistent", "--data", str(data), "--out", str(links)]) == 0
    out = tmp_path / "fit_ar"
    assert (
        cli.main(
            [
                "fit",
                "--data",
                str(data),
                "--out",
                str(out),
                "--persistent",
                str(links / "persistent_edges.csv"),
                "--model",
                "ar",
            ]
        )
        == 0
    )
    code, captured = run(
        [
            "contribute",
            "--data",
            str(data),
            "--out",
            str(tmp_path / "c"),
            "--models",
            str(out / "models.json"),
        ],
        capsys,
    )
    assert code == 2
    assert "network-model artifact" in json.loads(captured.err.strip())["message"]


DEFAULT_CONFIG = dataclasses.asdict(aflow.forecast.ForecastConfig())
PARTIAL_CONFIG = {k: v for k, v in DEFAULT_CONFIG.items() if k not in ("neighbor_mode", "horizon")}
ONE_MODEL = {"v00001": {"alpha": [0.1] * 7, "beta": {"v00002": 0.5}}}


@pytest.mark.parametrize(
    "payload, problem",
    [
        ({"model": "arnet"}, "'config' must map ForecastConfig fields"),
        ({"model": "arnet", "config": {"p": "7"}, "videos": {}}, "'config' must map ForecastConfig fields"),
        ({"model": "arnet", "config": DEFAULT_CONFIG, "videos": {"v00001": {"alpha": [0.1] * 7}}},
         "each video needs"),
        (["arnet"], "expected a JSON object, got list"),
        ({"model": "arnet", "config": DEFAULT_CONFIG,
          "videos": {"v00001": {"alpha": [0.1] * 7, "beta": {"zz": 0.5}}}},
         "zz is not a corpus video"),
        ({"model": "arnet", "config": DEFAULT_CONFIG,
          "videos": {"v00001": {"alpha": [0.1] * 7, "beta": {"v00002": 0.5, "v00001": 0.5}}}},
         "v00001 has a beta on itself"),
        ({"model": "arnet", "config": PARTIAL_CONFIG, "videos": {}},
         "'config' lacks the ForecastConfig fields horizon, neighbor_mode"),
        ({"model": "arnet", "config": DEFAULT_CONFIG,
          "videos": {"v00001": {"alpha": [-3.0] + [0.1] * 6, "beta": {"v00002": 0.5}}}},
         "v00001 has alpha -3.0, outside [0, inf)"),
        ({"model": "arnet", "config": DEFAULT_CONFIG,
          "videos": {"v00001": {"alpha": [math.nan] + [0.1] * 6, "beta": {"v00002": 0.5}}}},
         "v00001 has alpha nan, outside [0, inf)"),
        ({"model": "arnet", "config": DEFAULT_CONFIG,
          "videos": {"v00001": {"alpha": [0.1] * 7, "beta": {"v00002": 5}}}},
         "v00001 has beta 5, outside [0, 1]"),
        ({"model": "arnet", "config": DEFAULT_CONFIG,
          "videos": {"v00001": {"alpha": [0.1] * 7, "beta": {"v00002": math.inf}}}},
         "v00001 has beta inf, outside [0, 1]"),
        # a JSON integer too large for a float
        pytest.param({"model": "arnet", "config": DEFAULT_CONFIG,
                      "videos": {"v00001": {"alpha": [10**400] + [0.1] * 6, "beta": {"v00002": 0.5}}}},
                     "v00001 has alpha 1" + "0" * 400 + ", outside [0, inf)", id="alpha-10^400"),
        pytest.param({"model": "arnet", "config": DEFAULT_CONFIG,
                      "videos": {"v00001": {"alpha": [0.1] * 7, "beta": {"v00002": 10**400}}}},
                     "v00001 has beta 1" + "0" * 400 + ", outside [0, 1]", id="beta-10^400"),
        # the solver limits that models.json held before they became constants
        pytest.param({"model": "arnet", "config": {**DEFAULT_CONFIG, "grad_tol": 1e-06, "max_iter": 500},
                      "videos": ONE_MODEL},
                     "'config' holds keys that are not ForecastConfig fields: grad_tol, max_iter; refit",
                     id="solver-limits-of-an-older-fit"),
        # video ids follow the input files' id rule; the first bad one in file order is reported
        pytest.param({"model": "arnet", "config": DEFAULT_CONFIG,
                      "videos": {"": {"alpha": [0.1] * 7, "beta": {"v00002": 0.5}}}},
                     "empty video id", id="empty-video-id"),
        pytest.param({"model": "arnet", "config": DEFAULT_CONFIG,
                      "videos": {"v00001": {"alpha": [0.1] * 7, "beta": {"a\nb": 0.5}},
                                 "": {"alpha": [0.1] * 7, "beta": {}}}},
                     "video id 'a\\nb' holds a NUL or line break", id="line-break-in-a-beta-key"),
    ],
)
def test_contribute_reports_a_malformed_models_file(tmp_path, capsys, payload, problem):
    data = generate_data(tmp_path)
    models = tmp_path / "models.json"
    models.write_text(json.dumps(payload), encoding="utf-8")
    code, captured = run(
        ["contribute", "--data", str(data), "--out", str(tmp_path / "c"), "--models", str(models)],
        capsys,
    )
    assert code == 2
    message = json.loads(captured.err)["message"]  # one JSON record and nothing else
    assert message.startswith(f"{models}: ") and problem in message
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("key, value", [pytest.param("horizon", 10**9, id="horizon-10^9"),
                                        pytest.param("train_days", 10**400, id="train_days-10^400")])
def test_contribute_rejects_a_split_past_the_window(tmp_path, capsys, key, value):
    data = generate_data(tmp_path)
    config = {**DEFAULT_CONFIG, key: value}
    models = tmp_path / "models.json"
    models.write_text(json.dumps({"model": "arnet", "config": config, "videos": ONE_MODEL}),
                      encoding="utf-8")
    code, captured = run(
        ["contribute", "--data", str(data), "--out", str(tmp_path / "c"), "--models", str(models)],
        capsys,
    )
    assert code == 2
    assert one_data_error(captured) == (
        f"window of 63 days cannot hold {config['train_days']} training days "
        f"plus a {config['horizon']}-day horizon")
    assert not (tmp_path / "c").exists()


def test_bad_artifact_cells_name_the_file_and_line(tmp_path, capsys):
    data = generate_data(tmp_path)
    edges = tmp_path / "persistent_edges.csv"
    edges.write_text("source,target,reciprocal,raw_presence_count\n"
                     "v00000,v00001,0,63\nv00001,v00002,x,63\n", encoding="utf-8")
    code, captured = run(["fit", "--data", str(data), "--out", str(tmp_path / "fit"),
                          "--persistent", str(edges)], capsys)
    assert code == 2
    assert json.loads(captured.err)["message"] == f"{edges}: line 3: bad reciprocal flag 'x'"
    assert not (tmp_path / "fit").exists()

    forecasts = tmp_path / "forecasts.csv"
    forecasts.write_text("video_id,date,y_true,y_pred\nv00000,2018-13-01,1.0,2.0\n", encoding="utf-8")
    code, captured = run(["evaluate", "--out", str(tmp_path / "eval"), "--forecasts", str(forecasts)], capsys)
    assert code == 2
    assert json.loads(captured.err)["message"] == f"{forecasts}: line 2: bad date '2018-13-01'"
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("row, problem", [
    ("v00000,v00001,2,63", "bad reciprocal flag '2'"),
    ("v00000,v00001,+1,63", "bad reciprocal flag '+1'"),
    ("v00000,v00001,1,+5", "bad presence count '+5'"),
    ("v00000,v00001,1, 5", "bad presence count ' 5'"),
    (",v00001,0,5", "empty video id"),
    ('v00000,"a\nb",0,5', "video id 'a\\nb' holds a NUL or line break"),
])
def test_persistent_edges_cells_follow_the_input_grammar(tmp_path, capsys, row, problem):
    data = generate_data(tmp_path)
    edges = tmp_path / "persistent_edges.csv"
    edges.write_text(f"source,target,reciprocal,raw_presence_count\n{row}\n", encoding="utf-8")
    code, captured = run(["fit", "--data", str(data), "--out", str(tmp_path / "fit"),
                          "--persistent", str(edges)], capsys)
    assert code == 2
    assert one_data_error(captured) == f"{edges}: line 2: {problem}"


@pytest.mark.parametrize("rows, problem", [
    pytest.param([",,0,5"], "line 2: empty video id", id="empty-self-loop"),
    pytest.param(["v00000,v00001,0,5", ",v00001,0,5", ",v00001,0,5"], "line 3: empty video id",
                 id="empty-repeated-edge"),
    pytest.param(['"a\nb","a\nb",0,5'], "line 2: video id 'a\\nb' holds a NUL or line break",
                 id="line-break-self-loop"),
])
def test_a_bad_persistent_edges_id_is_no_self_loop_or_repeated_edge(tmp_path, capsys, rows, problem):
    data = generate_data(tmp_path)
    edges = tmp_path / "persistent_edges.csv"
    edges.write_text("\n".join(["source,target,reciprocal,raw_presence_count", *rows, ""]), encoding="utf-8")
    code, captured = run(["fit", "--data", str(data), "--out", str(tmp_path / "fit"),
                          "--persistent", str(edges)], capsys)
    assert code == 2
    assert one_data_error(captured) == f"{edges}: {problem}"
    assert not (tmp_path / "fit").exists()


def test_a_bad_forecasts_id_is_no_repeated_row(tmp_path, capsys):
    forecasts = tmp_path / "forecasts.csv"
    forecasts.write_text("video_id,date,y_true,y_pred\n,2018-09-01,1.0,2.0\n,2018-09-01,1.0,2.0\n",
                         encoding="utf-8")
    code, captured = run(["evaluate", "--out", str(tmp_path / "eval"), "--forecasts", str(forecasts)],
                         capsys)
    assert code == 2
    assert one_data_error(captured) == f"{forecasts}: line 2: empty video id"


def test_artifact_readers_report_a_bad_id_before_a_later_bad_cell(tmp_path, capsys):
    data = generate_data(tmp_path)
    edges = tmp_path / "persistent_edges.csv"
    edges.write_text("source,target,reciprocal,raw_presence_count\n"
                     ",v00001,0,5\nv00001,v00002,x,5\n", encoding="utf-8")
    code, captured = run(["fit", "--data", str(data), "--out", str(tmp_path / "fit"),
                          "--persistent", str(edges)], capsys)
    assert code == 2
    assert one_data_error(captured) == f"{edges}: line 2: empty video id"

    forecasts = tmp_path / "forecasts.csv"
    forecasts.write_text("video_id,date,y_true,y_pred\n"
                         ",2018-09-01,1.0,2.0\nv00000,2018-13-01,1.0,2.0\n", encoding="utf-8")
    code, captured = run(["evaluate", "--out", str(tmp_path / "eval"), "--forecasts", str(forecasts)],
                         capsys)
    assert code == 2
    assert one_data_error(captured) == f"{forecasts}: line 2: empty video id"


def test_forecast_dates_follow_the_input_grammar(tmp_path, capsys):
    # Python 3.11's date.fromisoformat reads 20181027 as 2018-10-27; the input files may not
    forecasts = tmp_path / "forecasts.csv"
    forecasts.write_text("video_id,date,y_true,y_pred\nv00000,20181027,1.0,2.0\n", encoding="utf-8")
    code, captured = run(["evaluate", "--out", str(tmp_path / "eval"), "--forecasts", str(forecasts)],
                         capsys)
    assert code == 2
    assert one_data_error(captured) == f"{forecasts}: line 2: bad date '20181027'"
    assert not (tmp_path / "eval").exists()


def one_data_error(captured) -> str:
    """The message of the one JSON record on stderr, which must be a data error."""
    record = json.loads(captured.err)  # one JSON record and nothing else
    assert record["error"] == "data"
    return record["message"]


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_generate_rejects_a_non_finite_noise_scale(tmp_path, capsys, value):
    code, captured = run(["generate", "--out", str(tmp_path / "g"), "--noise-scale", value], capsys)
    assert code == 1
    assert usage_record(captured)["message"] == "noise_scale must hold only finite values"


@pytest.mark.parametrize("flags, config", [
    (["--n-videos", "20", "--noise-scale", "1e308"], {}),
    ([], {"alpha_profile": (1e200,) * 7}),
])
def test_generate_reports_overflowing_views_as_one_record(tmp_path, monkeypatch, capsys, flags, config):
    monkeypatch.setattr(cli, "GenConfig", functools.partial(datagen.GenConfig, **config))
    code, captured = run(["generate", "--out", str(tmp_path / "g"), *flags], capsys)
    assert code == 3
    record = json.loads(captured.err)  # one JSON record and nothing else
    assert record["error"] == "numerical"
    assert record["message"].startswith("generated views overflow")
    assert not (tmp_path / "g").exists()


@pytest.mark.parametrize("argv, message", [
    (["generate", "--edge-density", "1.5"], "edge density outside [0, 1]"),
    (["generate", "--presence-prob", "-0.1"], "presence probability outside [0, 1]"),
    (["generate", "--noise-scale", "-1"], "amplitude and noise scale must be non-negative"),
    (["simulate-persistence", "--p-grid", "0.5,1.5"], "p_grid value 1.5 lies outside [0, 1]"),
    (["pipeline", "--train-days", "3", "--p", "7"], "training window shorter than the lag order allows"),
    (["fit", "--train-days", "3", "--p", "7"], "training window shorter than the lag order allows"),
    (["pipeline", "--train-days", "10"], "training window shorter than the lag order allows"),
    (["pipeline", "--m-star", "60"], "training window shorter than the season length m_star"),
])
def test_a_setting_the_library_rejects_is_usage_error(tmp_path, capsys, argv, message):
    # --data and --persistent name no file, so a usage error shows the setting is checked before any read
    out = tmp_path / "out"
    paths = cli.COMMANDS[argv[0]].paths
    argv = [*argv, "--out", str(out)]
    if "data" in paths:
        argv += ["--data", str(tmp_path / "data")]
    if "persistent" in paths:
        argv += ["--persistent", str(tmp_path / "persistent_edges.csv")]
    code, captured = run(argv, capsys)
    assert code == 1
    assert usage_record(captured)["message"] == message
    assert not out.exists()


@pytest.mark.parametrize("row, problem", [
    ("v,2018-13-01,1.0,2.0", "bad date '2018-13-01'"),
    ('"c\n' + "x" * csv.field_size_limit() + '",2018-09-01,1.0,2.0',
     f"field larger than field limit ({csv.field_size_limit()})"),
])
def test_a_row_after_a_multiline_cell_is_reported_at_its_first_line(tmp_path, capsys, monkeypatch,
                                                                    row, problem):
    # no artifact cell may hold a line break, and a row's ids are checked first, so the id rule
    # is switched off to let the two-line id on line 2 through
    monkeypatch.setattr(cli, "_id_problem", lambda text: None)
    forecasts = tmp_path / "forecasts.csv"
    forecasts.write_text(f'video_id,date,y_true,y_pred\n"a\nb",2018-09-01,1.0,2.0\n{row}\n', encoding="utf-8")
    code, captured = run(["evaluate", "--out", str(tmp_path / "eval"), "--forecasts", str(forecasts)],
                         capsys)
    assert code == 2
    assert one_data_error(captured) == f"{forecasts}: line 4: {problem}"


@pytest.mark.parametrize("vid, problem", [
    pytest.param("", "empty video id", id="empty"),
    pytest.param('"a\rb"', "video id 'a\\rb' holds a NUL or line break", id="cr"),
])
def test_forecasts_ids_follow_the_input_id_rule(tmp_path, capsys, vid, problem):
    forecasts = tmp_path / "forecasts.csv"
    forecasts.write_bytes(
        f"video_id,date,y_true,y_pred\nv,2018-09-01,1.0,2.0\n{vid},2018-09-01,1.0,2.0\n".encode())
    code, captured = run(["evaluate", "--out", str(tmp_path / "eval"), "--forecasts", str(forecasts)],
                         capsys)
    assert code == 2
    assert one_data_error(captured) == f"{forecasts}: line 3: {problem}"
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("flags, day", [(["--presence-prob", "0"], "2018-09-01"),
                                        (["--presence-prob", "0.05", "--edge-density", "0.05"], "2018-09-02")])
def test_generate_rejects_a_window_day_without_snapshots(tmp_path, capsys, flags, day):
    # A reader takes the window from the snapshot days, so no file may be written.
    out = tmp_path / "g"
    code, captured = run(["generate", "--out", str(out), "--n-videos", "30", *flags], capsys)
    assert code == 2
    assert one_data_error(captured) == f"window day {day} has no snapshot row, so the files would not load back"
    assert not out.exists()


@pytest.mark.parametrize("name", ["snapshots.csv", "views.csv", "metadata.csv"])
def test_data_errors_name_their_file(tmp_path, capsys, name):
    data = generate_data(tmp_path)
    lines = (data / name).read_text(encoding="utf-8").splitlines(keepends=True)
    fields = lines[2].split(",")
    fields[{"snapshots.csv": 0, "views.csv": 1, "metadata.csv": 2}[name]] = "2018-13-01"
    lines[2] = ",".join(fields)
    (data / name).write_text("".join(lines), encoding="utf-8")
    commands = [["validate", "--data", str(data)]]
    if name == "snapshots.csv":
        commands.append(["display-prob", "--data", str(data), "--out", str(tmp_path / "dp")])
    for argv in commands:
        code, captured = run(argv, capsys)
        assert code == 2
        assert one_data_error(captured) == f"{data / name}: line 3: bad date '2018-13-01'"


# Each CSV a command reads, and the command that reads it.
CSV_READERS = {"snapshots.csv": "validate", "views.csv": "validate", "metadata.csv": "validate",
               "persistent_edges.csv": "fit", "forecasts.csv": "evaluate"}


@pytest.mark.parametrize("case", ["header", "empty", "extra field", "missing field", "0xFF byte", "oversized field"])
@pytest.mark.parametrize("name", CSV_READERS)
def test_every_csv_a_command_reads_fails_in_one_form(chain, tmp_path, capsys, name, case):
    files = {**chain, "data": tmp_path / "data"}
    shutil.copytree(chain["data"], files["data"])
    path = files[name] = files["data"] / name if name in DATA else tmp_path / name
    lines = chain[name].read_bytes().splitlines(keepends=True)
    n_fields = len(next(csv.reader([lines[2].decode()])))
    if case == "header":
        lines[0] = b"wrong,header\n"
    elif case == "empty":
        lines = []
    elif case == "extra field":
        lines[2] = lines[2].rstrip(b"\n") + b",x\n"
    elif case == "missing field":
        lines[2] = lines[2].rstrip(b"\n").rsplit(b",", 1)[0] + b"\n"
    elif case == "0xFF byte":
        lines[2] = b"\xff" + lines[2]
    else:
        lines[2] = b"x" * (csv.field_size_limit() + 1) + lines[2]
    path.write_bytes(b"".join(lines))
    argv = chain_argv(files, CSV_READERS[name], tmp_path / "out")
    code, captured = run(argv + (["--model", "naive"] if name == "persistent_edges.csv" else []), capsys)
    assert code == 2
    assert "Traceback" not in captured.err + captured.out
    message = one_data_error(captured)
    # the input files' messages, after the one location form
    expected = f"{path}: " + {
        "header": "line 1: expected header ", "empty": "empty file, expected a header row",
        "extra field": f"line 3: expected {n_fields} fields, got {n_fields + 1}",
        "missing field": f"line 3: expected {n_fields} fields, got {n_fields - 1}",
        "0xFF byte": "not UTF-8 text: ", "oversized field": "line 3: field larger than field limit"}[case]
    assert message == expected if case in ("extra field", "missing field") else message.startswith(expected)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", [b"{not json", b'{"model": "\xff"}'])
def test_a_models_file_that_is_not_json_text_fails_in_one_form(chain, tmp_path, capsys, text):
    models = tmp_path / "models.json"
    models.write_bytes(text)
    code, captured = run(chain_argv({**chain, "models.json": models}, "contribute", tmp_path / "out"), capsys)
    assert code == 2
    assert one_data_error(captured).startswith(f"{models}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["self-loop", "repeated edge"])
def test_fit_rejects_a_self_loop_or_a_repeated_persistent_edge(tmp_path, capsys, case):
    data = generate_data(tmp_path)
    assert cli.main(["persistent", "--data", str(data), "--out", str(tmp_path / "p")]) == 0
    edges = tmp_path / "p" / "persistent_edges.csv"
    header, rows = read_csv(edges)
    extra = [rows[0][0], rows[0][0], "0", "63"] if case == "self-loop" else rows[0]
    with open(edges, "a", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerow(extra)
    code, captured = run(["fit", "--data", str(data), "--out", str(tmp_path / "f"),
                          "--persistent", str(edges)], capsys)
    assert code == 2
    line = len(rows) + 2
    problem = (f"self-loop on {rows[0][0]}" if case == "self-loop"
               else f"repeated edge {rows[0][0]} -> {rows[0][1]} (first at line 2)")
    assert one_data_error(captured) == f"{edges}: line {line}: {problem}"
    assert not (tmp_path / "f").exists()


@pytest.mark.parametrize("model", ["arnet", "ar"])
def test_fit_rejects_persistent_edges_outside_the_corpus(tmp_path, capsys, model):
    data = generate_data(tmp_path)
    assert cli.main(["persistent", "--data", str(data), "--out", str(tmp_path / "p")]) == 0
    edges = tmp_path / "p" / "persistent_edges.csv"
    header, rows = read_csv(edges)
    with open(edges, "a", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerow(["zz_unknown", rows[0][1], "0", "63"])
    code, captured = run(["fit", "--data", str(data), "--out", str(tmp_path / "f"),
                          "--persistent", str(edges), "--model", model], capsys)
    assert code == 2
    assert one_data_error(captured) == f"{edges}: zz_unknown is not a corpus video"
    assert not (tmp_path / "f").exists()


@pytest.mark.parametrize("count", [-5, 0, 64, 999999])
def test_fit_rejects_a_presence_count_outside_the_window(tmp_path, capsys, count):
    data = generate_data(tmp_path)
    edges = tmp_path / "persistent_edges.csv"
    edges.write_text("source,target,reciprocal,raw_presence_count\n"
                     f"v00000,v00001,0,63\nv00001,v00002,0,{count}\n", encoding="utf-8")
    code, captured = run(["fit", "--data", str(data), "--out", str(tmp_path / "f"),
                          "--persistent", str(edges), "--model", "ar"], capsys)
    assert code == 2
    assert one_data_error(captured) == (
        f"{edges}: v00001 -> v00002 has presence count {count}, outside 1..63")
    assert not (tmp_path / "f").exists()


@pytest.mark.parametrize("case", ["nan y_true", "inf y_pred", "repeated row",
                                  " 5 y_true", "5  y_pred", "1_0 y_true", "+5 y_pred",
                                  "-100.0 y_true", "-0.0 y_pred"])
def test_forecast_readers_reject_non_finite_and_repeated_rows(tmp_path, capsys, case):
    data = generate_data(tmp_path)
    assert cli.main(["pipeline", "--data", str(data), "--out", str(tmp_path / "p")]) == 0
    fitted = tmp_path / "p" / "arnet"
    header, rows = read_csv(fitted / "forecasts.csv")
    if case == "repeated row":
        rows.append(list(rows[0]))
        problem = f"{len(rows) + 1}: repeated row for {rows[0][0]} on {rows[0][1]}"
    else:
        text, column = case.rsplit(" ", 1)
        rows[3][header.index(column)] = text
        problem = f"5: bad {column} {text!r}"
    forecasts = tmp_path / "forecasts.csv"
    with open(forecasts, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows([header] + rows)
    code, captured = run(["evaluate", "--out", str(tmp_path / "e"), "--forecasts", str(forecasts)], capsys)
    assert code == 2
    assert one_data_error(captured) == f"{forecasts}: line {problem}"
    assert not (tmp_path / "e").exists()


def test_programming_errors_are_not_reported_as_data_errors(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("a bug, not bad data")

    monkeypatch.setattr(cli, "evaluate_forecasts", broken)
    forecasts = tmp_path / "forecasts.csv"
    forecasts.write_text("video_id,date,y_true,y_pred\nv00000,2018-09-01,1.0,2.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="a bug"):
        cli.main(["evaluate", "--out", str(tmp_path / "eval"), "--forecasts", str(forecasts)])


def test_pipeline_is_thread_count_invariant(tmp_path, capsys):
    data = generate_data(tmp_path, n_videos=14, density=0.15, seed=3)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    code, _ = run(
        ["pipeline", "--data", str(data), "--out", str(out1), "--threads", "1"], capsys
    )
    assert code == 0
    code, _ = run(
        ["pipeline", "--data", str(data), "--out", str(out2), "--threads", "4"], capsys
    )
    assert code == 0

    d1, d2 = tree_digest(out1), tree_digest(out2)
    assert d1 == d2
    expected = {"persistent_edges.csv", "homophily.json", "run_manifest.json"}
    assert expected <= set(d1)
    for model in ("naive", "snaive", "ar", "arnet"):
        assert f"{model}/forecasts.csv" in d1
        assert f"{model}/eval_summary.json" in d1
    assert "arnet/eta.csv" in d1
    assert "arnet/contribution_summary.json" in d1
    assert "arnet/fit_diagnostics.csv" in d1
    header, rows = read_csv(out1 / "arnet" / "fit_diagnostics.csv")
    assert header == ["video_id", "converged", "nit", "nfev", "objective", "n_params",
                      "n_rows", "message", "start_objective"]
    # the solver only ever descends from the start point
    assert all(float(r[4]) <= float(r[8]) for r in rows)
    fitted = json.loads((out1 / "arnet" / "models.json").read_text())["videos"]
    assert [r[0] for r in rows] == sorted(fitted)


def test_artifacts_do_not_depend_on_the_hash_seed(tmp_path):
    """Criterion 10's dataset through analyze, correlate and pipeline in two fresh interpreters with
    other str hashes: a set of ids iterated into a file would pass the in-process checks, not this."""
    data = generate_data(tmp_path, n_videos=14, density=0.15, seed=3)
    digests = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"hash-seed-{hash_seed}"
        runs = [[command, "--data", str(data), "--out", str(out / command), *flags]
                for command, flags in (("analyze", []), ("correlate", []), ("pipeline", ["--threads", "1"]))]
        script = f"import aflow.cli\nfor argv in {runs!r}:\n    assert aflow.cli.main(argv) == 0\n"
        env = dict(os.environ, PYTHONPATH=str(Path(aflow.__file__).resolve().parents[1]), PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(tree_digest(out))
    assert digests[0] == digests[1]
    assert {f"{command}/run_manifest.json" for command in ("analyze", "correlate", "pipeline")} <= set(digests[0])


@pytest.mark.parametrize("flags, problem", [
    (["--p", "0"], "setting p must be at least 1, got 0"),
    (["--train-days", "60"], "window of 63 days cannot hold 60 training days plus a 7-day horizon"),
])
def test_pipeline_checks_its_forecast_settings_before_writing(tmp_path, capsys, flags, problem):
    data = generate_data(tmp_path)
    out = tmp_path / "p"
    code, captured = run(["pipeline", "--data", str(data), "--out", str(out), *flags], capsys)
    assert code == (1 if problem.startswith("setting ") else 2)  # a bad setting is a usage error
    assert json.loads(captured.err)["message"] == problem  # one JSON record and nothing else
    assert not out.exists()


@pytest.mark.parametrize("command, problem", [
    ("pipeline", "no persistent links found; cannot run the forecast stage"),
    ("correlate", "no persistent links found; nothing to correlate"),
])
def test_a_command_without_persistent_links_writes_nothing(tmp_path, capsys, command, problem):
    data, out = generate_data(tmp_path), tmp_path / "out"
    code, captured = run([command, "--data", str(data), "--out", str(out), "--target-min-views", "1e12"],
                         capsys)
    assert code == 2
    assert one_data_error(captured) == problem
    assert not out.exists()


def test_analyze_computes_every_result_before_writing(tmp_path, capsys):
    # one day of snapshots is enough for the bow-tie but not for churn
    data, out = tmp_path / "data", tmp_path / "a"
    assert cli.main(["generate", "--out", str(data), "--days", "1", "--n-videos", "20"]) == 0
    capsys.readouterr()
    code, captured = run(["analyze", "--data", str(data), "--out", str(out)], capsys)
    assert code == 2
    assert one_data_error(captured) == "need at least two snapshots to measure change"
    assert not out.exists()


def test_fit_diagnostics_report_non_converged_fits(tmp_path, monkeypatch, capsys):
    data = generate_data(tmp_path, n_videos=14, density=0.15, seed=3)
    links = tmp_path / "links"
    assert cli.main(["persistent", "--data", str(data), "--out", str(links)]) == 0
    monkeypatch.setattr(forecast, "MAX_ITER", 1)
    out = tmp_path / "fit"
    code, captured = run(
        ["fit", "--data", str(data), "--out", str(out), "--model", "arnet",
         "--persistent", str(links / "persistent_edges.csv"), "--threads", "2"],
        capsys,
    )
    assert code == 0
    _, rows = read_csv(out / "fit_diagnostics.csv")
    assert rows and any(r[1] == "0" for r in rows)
    assert all(int(r[2]) <= 1 for r in rows)
    warning = json.loads(captured.err.strip())
    assert warning["warning"] == "not_converged"
    assert warning["fits"] == sum(r[1] == "0" for r in rows)


def test_fit_diagnostics_report_underdetermined_fits(tmp_path, capsys):
    data = generate_data(tmp_path, n_videos=14, density=0.15, seed=3)
    links = tmp_path / "links"
    assert cli.main(["persistent", "--data", str(data), "--out", str(links)]) == 0
    out = tmp_path / "fit"
    code, captured = run(
        ["fit", "--data", str(data), "--out", str(out), "--model", "arnet", "--train-days", "15",
         "--persistent", str(links / "persistent_edges.csv"), "--threads", "1"],
        capsys,
    )
    assert code == 0
    _, rows = read_csv(out / "fit_diagnostics.csv")
    underdetermined = sum(int(r[5]) >= int(r[6]) for r in rows)
    assert underdetermined > 0
    warnings = {w["warning"]: w for w in map(json.loads, captured.err.strip().splitlines())}
    assert warnings["underdetermined"] == {
        "warning": "underdetermined", "fits": underdetermined, "of": len(rows),
        "details": str(out / "fit_diagnostics.csv"),
    }


@pytest.mark.parametrize("error, code", [(DataFormatError, 2), (NumericalError, 3)])
def test_worker_errors_keep_the_error_contract(tmp_path, monkeypatch, capfd, error, code):
    data = generate_data(tmp_path, n_videos=14, density=0.15, seed=3)
    links = tmp_path / "links"
    assert cli.main(["persistent", "--data", str(data), "--out", str(links)]) == 0
    _, edges = read_csv(links / "persistent_edges.csv")
    bad = min(row[1] for row in edges)
    fit_arnet_batch = aflow.forecast.fit_arnet_batch

    def fail_one(targets, *args, **kwargs):
        if bad in targets:
            raise error(f"synthetic failure for {bad}")
        return fit_arnet_batch(targets, *args, **kwargs)

    # Forked workers inherit the patch.
    monkeypatch.setattr(aflow.forecast, "fit_arnet_batch", fail_one)
    capfd.readouterr()

    assert cli.main(["pipeline", "--data", str(data), "--out", str(tmp_path / "run"),
                     "--threads", "2"]) == code
    captured = capfd.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1, captured.err
    record = json.loads(lines[0])
    assert record["type"] == error.__name__
    assert record["message"] == f"synthetic failure for {bad}"
    assert "Traceback" not in captured.err + captured.out


def test_threads_default_to_available_cores(monkeypatch):
    monkeypatch.delenv("AFLOW_THREADS", raising=False)
    args = cli.build_parser().parse_args(["pipeline", "--data", "d", "--out", "o"])
    expected = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert cli.resolve_settings(args)["threads"] == expected


def test_generate_has_no_threads_flag(tmp_path, capsys):
    code, captured = run(["generate", "--out", str(tmp_path / "g"), "--threads", "2"], capsys)
    assert code == 1
    assert json.loads(captured.err.strip())["error"] == "usage"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_importing_the_cli_caps_blas_threads():
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(aflow.__file__).resolve().parents[1])
    script = (
        "import os, aflow.cli\n"
        "status = open('/proc/self/status').read().splitlines()\n"
        "print(next(l.split()[1] for l in status if l.startswith('Threads:')))\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "1"]

    env["OPENBLAS_NUM_THREADS"] = "2"
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[1] == "2"  # a value the user set wins


def test_importing_the_cli_leaves_out_scipy_stats():
    env = dict(os.environ, PYTHONPATH=str(Path(aflow.__file__).resolve().parents[1]))
    script = "import sys, aflow.cli\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"  # no scipy module loads, though scipy is installed


def test_importing_the_cli_leaves_out_the_process_pool():
    """Only the fit's worker pool needs these; importing them cost about 20 ms per command."""
    env = dict(os.environ, PYTHONPATH=str(Path(aflow.__file__).resolve().parents[1]))
    script = ("import sys, aflow.cli\n"
              "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_no_subcommand_needs_scipy(chain, tmp_path, command):
    """Each subcommand runs in a fresh interpreter in which any scipy import fails and any warning is an error."""
    argv = chain_argv(chain, command, tmp_path / "out")
    env = dict(os.environ, PYTHONPATH=str(Path(aflow.__file__).resolve().parents[1]))
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None  # importing scipy or any submodule now raises\n"
        "import aflow.cli\n"
        f"code = aflow.cli.main({argv!r})\n"
        "print(code, sorted(m for m, mod in sys.modules.items()"
        " if m.split('.')[0] == 'scipy' and mod is not None))\n"
    )
    proc = subprocess.run([sys.executable, "-W", "error", "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []", proc.stderr


def test_console_script_entry_point(tmp_path):
    exe = shutil.which("aflow")
    if exe is None:
        pytest.skip("console script not on PATH")
    data = generate_data(tmp_path)
    proc = subprocess.run(
        [exe, "validate", "--data", str(data)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout.strip())["n_videos"] == 16


def _input_error_case(chain, tmp_path, case, out):
    """(argv, exit code, error kind, message) of one input-error case; writes the file it needs."""
    if case.startswith("--p-grid"):
        message = {"--p-grid x": "could not parse p_grid 'x'", "--p-grid ,": "p_grid is empty"}[case]
        return chain_argv(chain, "simulate-persistence", out) + case.split(), 1, "usage", message
    if case == "config line without =":
        config = tmp_path / "run.cfg"
        config.write_text("trials = 10\ndays\n", encoding="utf-8")
        argv = chain_argv(chain, "simulate-persistence", out) + ["--config", str(config)]
        return argv, 1, "usage", f"{config}:2: expected key=value"
    if case == "no fitted videos":
        models = tmp_path / "models.json"
        models.write_text(json.dumps({"model": "arnet", "config": DEFAULT_CONFIG, "videos": {}}))
        argv = chain_argv({**chain, "models.json": models}, "contribute", out)
        return argv, 2, "data", f"{models}: no fitted videos"
    if case == "header-only metadata":
        data = tmp_path / "data"
        shutil.copytree(chain["data"], data)
        (data / "metadata.csv").write_text(",".join(METADATA_HEADER) + "\n", encoding="utf-8")
        message = f"{data / 'metadata.csv'}: metadata file holds no rows"
        return chain_argv({**chain, "data": data}, "persistent", out), 2, "data", message
    if case == "4,301-digit position":  # past int()'s default digit limit, and the byte split's
        data = tmp_path / "data"
        shutil.copytree(chain["data"], data)
        lines = (data / "snapshots.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        fields = lines[2].split(",")
        fields[3] = "1" * 4301
        lines[2] = ",".join(fields)
        (data / "snapshots.csv").write_text("".join(lines), encoding="utf-8")
        message = f"{data / 'snapshots.csv'}: line 3: bad position {fields[3]!r}"
        return chain_argv({**chain, "data": data}, "validate", out), 2, "data", message
    if case.startswith("missing "):
        key, command, what = {"missing forecasts": ("forecasts.csv", "evaluate", "forecasts artifact not found"),
                              "missing models": ("models.json", "contribute", "models artifact not found")}[case]
        missing = tmp_path / key
        return chain_argv({**chain, key: missing}, command, out), 2, "data", f"{missing}: {what}"
    forecasts = tmp_path / "forecasts.csv"
    rows, message = {"header-only forecasts": ([], "no forecast rows"),
                     "forecast dates differ": (["v00000,2018-10-27,1.0,2.0", "v00001,2018-10-28,1.0,2.0"],
                                               "horizon dates differ for v00001")}[case]
    forecasts.write_text("\n".join(["video_id,date,y_true,y_pred", *rows]) + "\n", encoding="utf-8")
    return chain_argv({**chain, "forecasts.csv": forecasts}, "evaluate", out), 2, "data", f"{forecasts}: {message}"


@pytest.mark.parametrize("case", ["config line without =", "--p-grid x", "--p-grid ,", "header-only forecasts",
                                  "forecast dates differ", "no fitted videos", "header-only metadata",
                                  "4,301-digit position", "missing forecasts", "missing models"])
def test_input_errors_fail_in_one_record(chain, tmp_path, capsys, case):
    out = tmp_path / "out"
    argv, expected_code, error, message = _input_error_case(chain, tmp_path, case, out)
    code, captured = run(argv, capsys)
    assert code == expected_code
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    record = json.loads(lines[0])
    assert (record["error"], record["message"]) == (error, message)
    assert not out.exists()

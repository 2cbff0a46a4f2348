import json
import re
from dataclasses import replace

import numpy as np
import pytest

from msignn import build_graph, errors, load_dataset, save_dataset
from msignn.cli import EXIT_DATA, EXIT_OK, OUT_DIR_ENV, main

from test_rejections import former_tests


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_chains_dir(tmp_path, capsys, length):
    """Write a default chains dataset of the given length; return its directory."""
    data = tmp_path / "data"
    assert run(capsys, "gen-chains", "--length", str(length), "--out", str(data))[0] == EXIT_OK
    return str(data)


def test_gen_chains_writes_dataset(tmp_path, capsys):
    out = tmp_path / "chains"
    code, stdout, _ = run(capsys, "gen-chains", "--length", "10", "--out", str(out))
    assert code == EXIT_OK
    assert "400 nodes" in stdout
    for name in ("edges.tsv", "features.csv", "labels.csv", "masks.json", "config.json"):
        assert (out / name).exists()
    assert len((out / "edges.tsv").read_text().strip().split("\n")) == 360


def test_gen_rerun_is_byte_identical(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run(capsys, "gen-chains", "--length", "7", "--seed", "3", "--out", str(out_a))
    run(capsys, "gen-chains", "--length", "7", "--seed", "3", "--out", str(out_b))
    for name in ("edges.tsv", "features.csv", "labels.csv", "masks.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_gen_colors(tmp_path, capsys):
    out = tmp_path / "colors"
    code, stdout, _ = run(capsys, "gen-colors", "--chains", "5", "--length", "8",
                          "--out", str(out))
    assert code == EXIT_OK
    assert "40 nodes" in stdout
    assert (out / "edges.tsv").exists()


def test_train_und_eval_round_trip(tmp_path, capsys):
    data_dir = tmp_path / "data"
    run(capsys, "gen-chains", "--length", "5", "--out", str(data_dir))
    out = tmp_path / "run"
    code, stdout, _ = run(capsys, "train", "--data", str(data_dir),
                          "--epochs", "5", "--hidden", "4", "--out", str(out))
    assert code == EXIT_OK
    for name in ("checkpoint.json", "history.csv", "metrics.json", "config.json"):
        assert (out / name).exists()
    train_metrics = json.loads((out / "metrics.json").read_text())

    code, stdout, _ = run(capsys, "eval", "--checkpoint", str(out / "checkpoint.json"),
                          "--data", str(data_dir))
    assert code == EXIT_OK
    eval_metrics = json.loads(stdout)
    for split in ("train", "val", "test"):
        assert eval_metrics[split] == train_metrics[split]

    # eval twice: identical output
    code2, stdout2, _ = run(capsys, "eval", "--checkpoint", str(out / "checkpoint.json"),
                            "--data", str(data_dir))
    assert stdout2 == stdout


def test_train_epochs_zero_untrained_checkpoint(tmp_path, capsys):
    out = tmp_path / "run"
    code, _, _ = run(capsys, "train", "--data", gen_chains_dir(tmp_path, capsys, 3),
                     "--epochs", "0", "--hidden", "4", "--out", str(out))
    assert code == EXIT_OK
    history = (out / "history.csv").read_text().strip().split("\n")
    assert len(history) == 1  # header only
    payload = json.loads((out / "checkpoint.json").read_text())
    assert payload["config"]["hidden_dim"] == 4


def test_a_ten_node_dataset_trains(tmp_path, capsys):
    # 5% of 10 nodes rounds to none; the split still gives train a node
    data = tmp_path / "data"
    assert run(capsys, "gen-colors", "--chains", "2", "--length", "5",
               "--out", str(data))[0] == EXIT_OK
    assert json.loads((data / "masks.json").read_text())["train"]
    code, _, err = run(capsys, "train", "--data", str(data), "--epochs", "2",
                       "--hidden", "4", "--out", str(tmp_path / "x"))
    assert code == EXIT_OK, err


@pytest.mark.parametrize("argv, n", [
    (["gen-chains", "--classes", "1", "--chains-per-class", "1", "--length", "2"], 2),
    (["gen-colors", "--chains", "1", "--length", "1"], 1),
], ids=["chains", "colors"])
def test_gen_rejects_a_dataset_too_small_to_split(tmp_path, capsys, argv, n):
    out = tmp_path / "x"
    code, _, err = run(capsys, *argv, "--out", str(out))
    assert code == EXIT_DATA
    assert f"got n={n}" in err
    assert not out.exists()


def test_gen_colors_without_a_strict_majority_is_data_error(tmp_path, capsys):
    # Two colored nodes among 1000 colors: a chain's two draws rarely agree.
    out = tmp_path / "x"
    code, stdout, err = run(capsys, "gen-colors", "--colors", "1000", "--length", "7",
                            "--fraction", "0.3", "--out", str(out))
    assert code == EXIT_DATA and stdout == ""
    assert re.fullmatch(r"error: no strict majority color for chain \d+ after \d+ "
                        r"resamples\n", err), err
    assert not out.exists()


def test_every_library_error_has_an_exit_code():
    # main maps a ValueError to exit 4 and a DivergenceError to exit 5.
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and c.__module__ == errors.__name__]
    assert len(classes) >= 2
    for cls in classes:
        assert issubclass(cls, ValueError) or cls is errors.DivergenceError, cls.__name__


def test_train_rerun_byte_identical(tmp_path, capsys):
    args = ["train", "--data", gen_chains_dir(tmp_path, capsys, 4), "--epochs", "3",
            "--hidden", "4", "--seed", "11"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run(capsys, *args, "--out", str(out_a))
    run(capsys, *args, "--out", str(out_b))
    assert (out_a / "checkpoint.json").read_bytes() == (out_b / "checkpoint.json").read_bytes()
    assert (out_a / "metrics.json").read_bytes() == (out_b / "metrics.json").read_bytes()

    def strip_seconds(path):
        rows = path.read_text().strip().split("\n")
        return ["," .join(r.split(",")[:-1]) for r in rows]

    # wall-time column is measured, everything else must match exactly
    assert strip_seconds(out_a / "history.csv") == strip_seconds(out_b / "history.csv")


def test_probe_range_outputs_and_determinism(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["probe-range", "--gammas", "0.3,0.5", "--scales", "1", "--length", "20",
            "--theta", "1e-6", "--seed", "2"]
    code, stdout, _ = run(capsys, *args, "--out", str(out_a))
    assert code == EXIT_OK
    assert (out_a / "curve_g0.3_m1.csv").exists()
    assert (out_a / "curve_g0.5_m1.csv").exists()
    summary = (out_a / "summary.csv").read_text().strip().split("\n")
    assert summary[0] == "gamma,m,theta,empirical_range,range_bound,file"
    assert len(summary) == 3

    run(capsys, *args, "--out", str(out_b))
    for name in ("curve_g0.3_m1.csv", "curve_g0.5_m1.csv", "summary.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


@pytest.mark.parametrize("gammas, theta, named", [
    ("0.5,0", "1e-6", "gamma must lie in (0, 1), got 0"),
    ("0.3", "0", "theta must lie in (0, 1), got 0"),
], ids=["gamma-zero", "theta-zero"])
def test_probe_range_checks_every_bound_before_writing(tmp_path, capsys, gammas, theta,
                                                      named):
    out = tmp_path / "x"
    code, _, err = run(capsys, "probe-range", "--gammas", gammas, "--theta", theta,
                       "--scales", "1", "--length", "10", "--out", str(out))
    assert code == EXIT_DATA
    assert named in err
    assert not list(out.glob("curve_*.csv"))
    assert not (out / "summary.csv").exists()


@pytest.mark.parametrize("flag, values, named", [
    ("--gammas", "0.5,0.7,0.5", "gamma 0.5 is listed twice"),
    ("--scales", "2,1,2", "scale 2 is listed twice"),
], ids=["gamma", "scale"])
def test_probe_range_rejects_a_repeated_value(tmp_path, capsys, flag, values, named):
    out = tmp_path / "x"
    code, _, err = run(capsys, "probe-range", flag, values, "--length", "10",
                       "--out", str(out))
    assert code == EXIT_DATA
    assert named in err
    assert not list(out.glob("curve_*.csv"))


def test_probe_range_names_gammas_that_print_alike_apart(tmp_path, capsys):
    out = tmp_path / "x"
    code, _, _ = run(capsys, "probe-range", "--gammas", "0.3,0.30000001", "--length", "10",
                     "--out", str(out))
    assert code == EXIT_OK
    rows = [r.split(",") for r in (out / "summary.csv").read_text().strip().split("\n")[1:]]
    assert [(r[0], r[-1]) for r in rows] == [
        ("0.3", "curve_g0.3_m1.csv"), ("0.30000001", "curve_g0.30000001_m1.csv")]
    for r in rows:
        assert (out / r[-1]).exists()


def test_probe_theta_changes_only_summary(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    base = ["probe-range", "--gammas", "0.5", "--scales", "1", "--length", "15"]
    run(capsys, *base, "--theta", "1e-4", "--out", str(out_a))
    run(capsys, *base, "--theta", "1e-9", "--out", str(out_b))
    assert (out_a / "curve_g0.5_m1.csv").read_bytes() == \
        (out_b / "curve_g0.5_m1.csv").read_bytes()
    assert (out_a / "summary.csv").read_bytes() != (out_b / "summary.csv").read_bytes()


def test_bound_prints_reference_values(capsys):
    code, stdout, _ = run(capsys, "bound", "--gamma", "0.5", "--theta", "1e-6")
    assert code == EXIT_OK and stdout.strip() == "20"
    code, stdout, _ = run(capsys, "bound", "--gamma", "0.5", "--theta", "1e-6",
                          "--m", "4")
    assert stdout.strip() == "83"
    code, stdout, _ = run(capsys, "bound", "--gamma", "0.9", "--theta", "1e-6")
    assert stdout.strip() == "152"


def test_env_var_supplies_out_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / "envout"))
    code, _, _ = run(capsys, "gen-chains", "--length", "3")
    assert code == EXIT_OK
    assert (tmp_path / "envout" / "edges.tsv").exists()


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"length": 6, "seed": 9}))
    out = tmp_path / "out"
    code, _, _ = run(capsys, "gen-chains", "--config", str(cfg_path),
                     "--length", "4", "--out", str(out))
    assert code == EXIT_OK
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["length"] == 4   # flag overrides file
    assert echoed["seed"] == 9     # file overrides default


def test_a_multi_hot_model_trains_saves_and_scores_only_multi_hot_labels(tmp_path, capsys):
    classes, multi_hot = tmp_path / "classes", tmp_path / "multi-hot"
    run(capsys, "gen-colors", "--chains", "4", "--length", "6", "--out", str(classes))
    ds = load_dataset(classes)
    g = ds.graph
    save_dataset(replace(ds, graph=build_graph(g.adjacency, g.features,
                                               np.eye(3)[:, g.labels])), multi_hot)
    out = tmp_path / "run"
    code, stdout, _ = run(capsys, "train", "--data", str(multi_hot), "--epochs", "2",
                          "--hidden", "4", "--out", str(out))
    assert code == EXIT_OK and json.loads(stdout)["metric"] == "micro_f1"
    ckpt = str(out / "checkpoint.json")
    code, stdout2, _ = run(capsys, "eval", "--checkpoint", ckpt, "--data", str(multi_hot))
    assert code == EXIT_OK and json.loads(stdout2)["test"] == json.loads(stdout)["test"]
    code, _, err = run(capsys, "eval", "--checkpoint", ckpt, "--data", str(classes))
    assert code == EXIT_DATA
    assert "the data has class labels, but the model predicts multi-hot labels" in err


def test_eval_names_a_multi_hot_checkpoint_that_predates_its_label_kind(tmp_path, capsys):
    classes, multi_hot = tmp_path / "classes", tmp_path / "multi-hot"
    run(capsys, "gen-colors", "--chains", "4", "--length", "6", "--out", str(classes))
    ds = load_dataset(classes)
    g = ds.graph
    save_dataset(replace(ds, graph=build_graph(g.adjacency, g.features,
                                               np.eye(3)[:, g.labels])), multi_hot)
    out = tmp_path / "run"
    run(capsys, "train", "--data", str(multi_hot), "--epochs", "0", "--hidden", "4",
        "--out", str(out))
    ckpt = out / "checkpoint.json"
    payload = json.loads(ckpt.read_text())
    del payload["config"]["multilabel"]  # as written before the field was recorded
    ckpt.write_text(json.dumps(payload))
    code, _, err = run(capsys, "eval", "--checkpoint", str(ckpt), "--data", str(multi_hot))
    assert code == EXIT_DATA
    assert "predates its \"multilabel\" field" in err
    code, stdout, _ = run(capsys, "eval", "--checkpoint", str(ckpt), "--data", str(classes))
    assert code == EXIT_OK and json.loads(stdout)["metric"] == "accuracy"


def test_config_file_out_key_only_where_out_is_a_flag(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"out": str(tmp_path / "from_file"),
                                    "gamma": 0.5, "theta": 1e-6}))
    code, _, err = run(capsys, "bound", "--config", str(cfg_path))
    assert code == EXIT_DATA and "unknown key 'out'" in err

    cfg_path.write_text(json.dumps({"out": str(tmp_path / "from_file")}))
    code, _, err = run(capsys, "eval", "--config", str(cfg_path))
    assert code == EXIT_DATA and "unknown key 'out'" in err

    code, _, _ = run(capsys, "train", "--config", str(cfg_path),
                     "--data", gen_chains_dir(tmp_path, capsys, 3),
                     "--epochs", "0", "--hidden", "4")
    assert code == EXIT_OK
    assert (tmp_path / "from_file" / "config.json").exists()


def test_config_echo_key_sets(tmp_path, capsys):
    commands = {
        "gen-chains": (["--length", "3"],
                       ["chains_per_class", "classes", "command", "length", "seed"]),
        "gen-colors": (["--chains", "2", "--length", "4"],
                       ["chains", "colors", "command", "fraction", "length", "seed"]),
        "train": (["--data", gen_chains_dir(tmp_path, capsys, 3), "--epochs", "0",
                   "--hidden", "4"],
                  ["command", "data", "dropout", "encoder_bias", "encoder_layers",
                   "epochs", "eps_f", "gamma", "hidden", "lr", "max_iters", "patience",
                   "scales", "seed", "tol", "wd"]),
        "probe-range": (["--gammas", "0.5", "--length", "5"],
                        ["command", "gammas", "hidden", "length", "scales", "seed",
                         "theta"]),
    }
    for command, (args, keys) in commands.items():
        out = tmp_path / command
        code, _, _ = run(capsys, command, *args, "--out", str(out))
        assert code == EXIT_OK
        echoed = json.loads((out / "config.json").read_text())
        assert sorted(echoed) == keys
        assert echoed["command"] == command


def test_encoder_bias_flag_overrides_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"encoder_bias": False}))
    base = ["train", "--config", str(cfg_path),
            "--data", gen_chains_dir(tmp_path, capsys, 3), "--epochs", "0", "--hidden", "4"]
    for extra, expected in (([], False), (["--encoder-bias"], True)):
        out = tmp_path / f"run{len(extra)}"
        code, _, _ = run(capsys, *base, *extra, "--out", str(out))
        assert code == EXIT_OK
        assert json.loads((out / "config.json").read_text())["encoder_bias"] is expected


def test_config_values_of_each_flag_type_are_accepted(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg = {"hidden": 4, "lr": 1, "dropout": 0.25, "encoder_bias": False, "scales": "1,2",
           "epochs": 1}
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    code, _, _ = run(capsys, "train", "--config", str(cfg_path),
                     "--data", gen_chains_dir(tmp_path, capsys, 3), "--out", str(out))
    assert code == EXIT_OK
    echoed = json.loads((out / "config.json").read_text())
    assert {k: echoed[k] for k in cfg} == cfg


# Its tests of one rule each are rows now; test_rejections.FORMER names them.
globals().update(former_tests(__name__))

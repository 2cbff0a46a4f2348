import json
import re
from dataclasses import replace

import numpy as np
import pytest

from msignn import (build_graph, errors, init_model, load_dataset, save_checkpoint,
                    save_dataset)
from msignn.cli import (EXIT_DATA, EXIT_DIVERGED, EXIT_IO, EXIT_OK, EXIT_USAGE, OUT_DIR_ENV,
                        main)


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


def test_train_rejects_duplicate_scales(tmp_path, capsys):
    code, _, err = run(capsys, "train", "--data", gen_chains_dir(tmp_path, capsys, 3),
                       "--scales", "1,1", "--epochs", "1",
                       "--out", str(tmp_path / "x"))
    assert code == EXIT_DATA
    assert "distinct" in err


@pytest.mark.parametrize("command, flag, named", [
    ("train", "--encoder-layers", "at least one layer, got 0"),
    ("train", "--hidden", "got 0 x"),
    ("probe-range", "--hidden", "got 0 x"),
])
def test_zero_model_size_is_data_error(tmp_path, capsys, command, flag, named):
    data = ["--data", gen_chains_dir(tmp_path, capsys, 3)] if command == "train" else []
    code, _, err = run(capsys, command, *data, flag, "0", "--out", str(tmp_path / "x"))
    assert code == EXIT_DATA
    assert named in err


def test_train_names_a_negative_encoder_layer_count(tmp_path, capsys):
    code, _, err = run(capsys, "train", "--data", gen_chains_dir(tmp_path, capsys, 3),
                       "--encoder-layers", "-1", "--out", str(tmp_path / "x"))
    assert code == EXIT_DATA
    assert "at least one layer, got -1" in err


@pytest.mark.parametrize("flag, value, named", [
    ("--patience", "-3", "patience must be >= 0"),
    ("--wd", "-1", "weight_decay must be >= 0"),
    ("--wd", "inf", "weight_decay must be >= 0 and finite, got inf"),
    ("--tol", "nan", "tol must be positive and finite, got nan"),
    ("--lr", "nan", "lr must be positive and finite, got nan"),
    ("--eps-f", "inf", "eps_f must be positive and finite, got inf"),
])
def test_train_rejects_negative_settings(tmp_path, capsys, flag, value, named):
    code, _, err = run(capsys, "train", "--data", gen_chains_dir(tmp_path, capsys, 3),
                       "--epochs", "3", flag, value, "--out", str(tmp_path / "x"))
    assert code == EXIT_DATA
    assert named in err


def test_train_names_an_empty_train_split(tmp_path, capsys):
    data = gen_chains_dir(tmp_path, capsys, 3)
    sidecar_path = tmp_path / "data" / "masks.json"
    sidecar = json.loads(sidecar_path.read_text())
    sidecar["train"] = []
    sidecar_path.write_text(json.dumps(sidecar))
    code, _, err = run(capsys, "train", "--data", data, "--epochs", "2",
                       "--out", str(tmp_path / "x"))
    assert code == EXIT_DATA
    assert "train split selects no nodes" in err


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


def test_train_without_data_is_data_error(tmp_path, capsys):
    code, _, err = run(capsys, "train", "--epochs", "0", "--out", str(tmp_path / "x"))
    assert code == EXIT_DATA
    assert "train needs --data DIR" in err


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


def test_bound_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "bound", "--gamma", "1.5", "--theta", "1e-6")
    assert code == EXIT_DATA


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE


def test_missing_out_dir_is_data_error(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(OUT_DIR_ENV, raising=False)
    code, _, err = run(capsys, "gen-chains", "--length", "3")
    assert code == EXIT_DATA
    assert OUT_DIR_ENV in err


def test_env_var_supplies_out_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / "envout"))
    code, _, _ = run(capsys, "gen-chains", "--length", "3")
    assert code == EXIT_OK
    assert (tmp_path / "envout" / "edges.tsv").exists()


def test_io_error_exit_code(tmp_path, capsys):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    code, _, err = run(capsys, "gen-chains", "--length", "3", "--out",
                       str(target / "sub"))
    assert code == EXIT_IO


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


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"lenght": 6}))
    code, _, err = run(capsys, "gen-chains", "--config", str(cfg_path),
                       "--out", str(tmp_path / "o"))
    assert code == EXIT_DATA
    assert f"{cfg_path}: unknown key 'lenght'" in err


def test_eval_on_mismatched_features_is_data_error(tmp_path, capsys):
    chains = tmp_path / "chains"
    colors = tmp_path / "colors"
    run(capsys, "gen-chains", "--length", "4", "--out", str(chains))
    run(capsys, "gen-colors", "--chains", "4", "--length", "4", "--out", str(colors))
    out = tmp_path / "run"
    run(capsys, "train", "--data", str(chains), "--epochs", "1", "--hidden", "4",
        "--out", str(out))
    code, _, err = run(capsys, "eval", "--checkpoint", str(out / "checkpoint.json"),
                       "--data", str(colors))
    assert code == EXIT_DATA


@pytest.mark.parametrize("keys, value, code, message", [
    (("config", "hidden_dim"), 10**7, EXIT_DATA,
     "error: {ckpt}: parameter 'attention.b_a' has shape (4,), expected (10000000,)\n"),
    (("params", "scales.0.f", 0, 0), 1e200, EXIT_DIVERGED,
     "error: divergence: forward solve: g(F) is not finite; check F for NaN, Inf or "
     "entries whose Gram matrix F^T F overflows\n"),
], ids=["oversized", "diverging"])
def test_eval_on_an_edited_checkpoint(tmp_path, capsys, keys, value, code, message):
    # exit 4 before anything of the edited size is allocated; exit 5 once F^T F overflows
    data, out = gen_chains_dir(tmp_path, capsys, 4), tmp_path / "run"
    run(capsys, "train", "--data", data, "--epochs", "1", "--hidden", "4", "--out", str(out))
    ckpt = out / "checkpoint.json"
    payload = json.loads(ckpt.read_text())
    *parents, last = keys
    node = payload
    for key in parents:
        node = node[key]
    node[last] = value
    ckpt.write_text(json.dumps(payload))
    exit_code, _, err = run(capsys, "eval", "--checkpoint", str(ckpt), "--data", data)
    assert (exit_code, err) == (code, message.format(ckpt=ckpt))


def test_eval_rejects_a_graph_task_checkpoint(tmp_path, capsys):
    data = gen_chains_dir(tmp_path, capsys, 4)
    feature_dim = load_dataset(data).graph.feature_dim
    ckpt = tmp_path / "graph.json"
    save_checkpoint(init_model(np.random.default_rng(0), feature_dim, 4, 2, task="graph"),
                    ckpt)
    code, _, err = run(capsys, "eval", "--checkpoint", str(ckpt), "--data", data)
    assert code == EXIT_DATA
    assert str(ckpt) in err and "graph-task" in err


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


def test_eval_on_malformed_dataset_is_data_error(tmp_path, capsys):
    data = tmp_path / "data"
    run(capsys, "gen-chains", "--length", "3", "--out", str(data))
    out = tmp_path / "run"
    run(capsys, "train", "--data", str(data), "--epochs", "0", "--hidden", "4",
        "--out", str(out))
    sidecar_path = data / "masks.json"
    sidecar = json.loads(sidecar_path.read_text())

    def eval_err():
        code, _, err = run(capsys, "eval", "--checkpoint", str(out / "checkpoint.json"),
                           "--data", str(data))
        assert code == EXIT_DATA
        return err

    overlapping = dict(sidecar, test=sidecar["test"] + sidecar["val"][:1])
    sidecar_path.write_text(json.dumps(overlapping))
    assert "val and test masks overlap" in eval_err()

    sidecar_path.write_text(json.dumps(dict(sidecar, multilabel=True)))
    (data / "labels.csv").write_text("1,0,1\n0,1\n")
    assert "labels.csv:2" in eval_err()


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


@pytest.mark.parametrize("key, value", [("encoder_dims", 5), ("hidden_dim", "16")])
def test_eval_on_a_malformed_checkpoint_value_is_data_error(tmp_path, capsys, key, value):
    data = gen_chains_dir(tmp_path, capsys, 3)
    out = tmp_path / "run"
    run(capsys, "train", "--data", data, "--epochs", "0", "--hidden", "4", "--out", str(out))
    ckpt = out / "checkpoint.json"
    payload = json.loads(ckpt.read_text())
    payload["config"][key] = value
    ckpt.write_text(json.dumps(payload))
    code, _, err = run(capsys, "eval", "--checkpoint", str(ckpt), "--data", data)
    assert code == EXIT_DATA
    assert str(ckpt) in err and f"config.{key}" in err


@pytest.mark.parametrize("command, key, value", [
    ("train", "hidden", 2.5), ("train", "epochs", 1.5), ("train", "hidden", "4"),
    ("train", "encoder_bias", "false"), ("train", "gamma", True), ("train", "scales", 1),
    ("gen-colors", "fraction", "0.5"), ("bound", "gamma", None),
])
def test_config_value_of_the_wrong_json_type_is_data_error(tmp_path, capsys, command,
                                                           key, value):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({key: value}))
    code, _, err = run(capsys, command, "--config", str(cfg_path))
    assert code == EXIT_DATA
    assert f"{cfg_path}: {key} must be a " in err


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


@pytest.mark.parametrize("text", ["5", '"abc"', "[]"])
def test_eval_on_a_sidecar_that_is_not_an_object_is_data_error(tmp_path, capsys, text):
    data = gen_chains_dir(tmp_path, capsys, 3)
    out = tmp_path / "run"
    run(capsys, "train", "--data", data, "--epochs", "0", "--hidden", "4", "--out", str(out))
    sidecar = tmp_path / "data" / "masks.json"
    sidecar.write_text(text)
    code, _, err = run(capsys, "eval", "--checkpoint", str(out / "checkpoint.json"),
                       "--data", data)
    assert code == EXIT_DATA
    assert f"{sidecar}: top level must be a JSON object, got {text}" in err


# Each JSON file the CLI reads, and the keys of a number in it.
JSON_FILES = {
    "checkpoint": ("run/checkpoint.json", ("config", "dropout")),
    "sidecar": ("data/masks.json", ("train", 0)),
    "config": ("cfg.json", ("tol",)),
}
MALFORMED = {"invalid-json": "invalid JSON", "not-an-object": "top level must be a JSON object",
             "nan": "got NaN", "unknown-key": "unknown key 'bogus'"}


@pytest.mark.parametrize("malformed", MALFORMED)
@pytest.mark.parametrize("which", JSON_FILES)
def test_every_json_file_rejects_the_same_malformed_input(tmp_path, capsys, which,
                                                          malformed):
    data = gen_chains_dir(tmp_path, capsys, 3)
    ckpt = tmp_path / "run" / "checkpoint.json"
    run(capsys, "train", "--data", data, "--epochs", "0", "--hidden", "4",
        "--out", str(ckpt.parent))
    (tmp_path / "cfg.json").write_text(json.dumps({"tol": 1e-6}))
    name, (*parents, last) = JSON_FILES[which]
    path = tmp_path / name
    payload = json.loads(path.read_text())
    with_nan = json.loads(path.read_text())
    node = with_nan
    for key in parents:
        node = node[key]
    node[last] = float("nan")
    path.write_text({"invalid-json": "{", "not-an-object": "[1, 2]",
                     "nan": json.dumps(with_nan),
                     "unknown-key": json.dumps({"bogus": 1, **payload})}[malformed])
    if which == "config":
        argv = ["train", "--config", str(path), "--data", data, "--epochs", "0",
                "--out", str(tmp_path / "again")]
    else:
        argv = ["eval", "--checkpoint", str(ckpt), "--data", data]
    code, _, err = run(capsys, *argv)
    assert code == EXIT_DATA
    assert f"{path}: " in err and MALFORMED[malformed] in err


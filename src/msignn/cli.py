"""Command-line interface.

Subcommands: gen-chains, gen-colors, train, eval, probe-range, bound.
``gen-chains`` and ``gen-colors`` write a dataset directory; ``train`` and
``eval`` read one (``--data DIR``). Every command is deterministic given its
flags and seed; those that write an output directory echo their effective
configuration to it. Each flag declares its default on its own argument.
A JSON config file (``--config``) can supply any flag of its subcommand,
keys mirroring flag names with underscores: its values replace the
subcommand's defaults and the command line is parsed again, so explicit
flags override file values. ``jsonio.read_json`` checks the file: a key
that is not a flag of the subcommand is rejected, and a value must have
its flag's JSON kind (integer for an int flag, finite number for a float
flag, boolean for ``--encoder-bias``, string for the rest).

Exit codes: 0 success, 2 usage, 3 I/O failure, 4 parse/validation failure,
5 numerical divergence. The MSIGNN_OUT_DIR environment variable supplies
the default output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import datasets, probe, train
from .equilibrium import ScaleModule, SolverConfig
from .errors import DivergenceError
from .jsonio import read_json, write_json
from .model import init_model, load_checkpoint, save_checkpoint

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DATA = 4
EXIT_DIVERGED = 5

OUT_DIR_ENV = "MSIGNN_OUT_DIR"


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        handler = {
            "gen-chains": _cmd_gen,
            "gen-colors": _cmd_gen,
            "train": _cmd_train,
            "eval": _cmd_eval,
            "probe-range": _cmd_probe_range,
            "bound": _cmd_bound,
        }[args.command]
        return handler({k: v for k, v in vars(args).items() if k != "config"})
    except SystemExit as exc:  # argparse reports usage errors itself
        return EXIT_USAGE if exc.code else EXIT_OK
    except DivergenceError as exc:
        print(f"error: divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def _parse(argv):
    """Parse ``argv`` with precedence defaults < config file < explicit flags.

    A config file's values become its subcommand's defaults, and ``argv``
    is parsed again on top of them.
    """
    parser = argparse.ArgumentParser(prog="msignn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_out=True):
        p.add_argument("--config", help="JSON config file; flags override its values")
        if with_out:
            p.add_argument("--out", help=f"output directory (default: ${OUT_DIR_ENV})")

    p = sub.add_parser("gen-chains", help="generate the directed-chains dataset")
    common(p)
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--chains-per-class", type=int, default=20)
    p.add_argument("--length", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("gen-colors", help="generate the color-counting dataset")
    common(p)
    p.add_argument("--colors", type=int, default=3)
    p.add_argument("--chains", type=int, default=30)
    p.add_argument("--length", type=int, default=30)
    p.add_argument("--fraction", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train", help="train a model on a dataset")
    common(p)
    p.add_argument("--data", help="dataset directory produced by gen-*")
    p.add_argument("--scales", default="1",
                   help="comma-separated scale exponents, e.g. '1,2'")
    p.add_argument("--gamma", type=float, default=0.8)
    p.add_argument("--hidden", type=int, default=16)
    p.add_argument("--encoder-layers", type=int, default=2)
    p.add_argument("--dropout", type=float, default=0.0)
    p.add_argument("--encoder-bias", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--eps-f", type=float, default=1e-5)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--wd", type=float, default=0.0)
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--patience", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-iters", type=int, default=300)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    common(p, with_out=False)
    p.add_argument("--checkpoint")
    p.add_argument("--data")

    p = sub.add_parser("probe-range", help="measure decay curves on a directed chain")
    common(p)
    p.add_argument("--gammas", default="0.3,0.5,0.7,0.9",
                   help="comma-separated contraction factors")
    p.add_argument("--scales", default="1", help="comma-separated scale exponents")
    p.add_argument("--length", type=int, default=60)
    p.add_argument("--theta", type=float, default=1e-8)
    p.add_argument("--hidden", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("bound", help="print the closed-form theta-effective range bound")
    common(p, with_out=False)
    p.add_argument("--gamma", type=float)
    p.add_argument("--theta", type=float)
    p.add_argument("--m", type=int, default=1)

    args = parser.parse_args(argv)
    if args.config:  # every flag is an optional key of its flag's JSON kind
        subparser = sub.choices[args.command]
        kinds = {int: "integer", float: "number"}
        schema = {f"{a.dest}?": "boolean" if isinstance(a, argparse.BooleanOptionalAction)
                  else kinds.get(a.type, "string")
                  for a in subparser._actions if a.dest not in ("help", "config")}
        subparser.set_defaults(**read_json(args.config, schema))
        args = parser.parse_args(argv)
    return args


def _out_dir(cfg) -> Path:
    out = cfg.get("out") or os.environ.get(OUT_DIR_ENV)
    if not out:
        raise ValueError(f"no output directory: pass --out or set ${OUT_DIR_ENV}")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _echo_config(cfg, out: Path) -> None:
    write_json(out / "config.json", {k: v for k, v in cfg.items() if k != "out"})


def _parse_list(text, cast, what) -> list:
    """Comma-separated values, each converted by ``cast``; blanks are skipped."""
    try:
        values = [cast(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"bad {what} list: {text!r}") from exc
    if not values:
        raise ValueError(f"empty {what} list")
    return values


# -- commands ---------------------------------------------------------------


def _cmd_gen(cfg) -> int:
    if cfg["command"] == "gen-chains":
        kind, data = "chains", datasets.gen_chains(datasets.ChainsSpec(
            num_classes=cfg["classes"], chains_per_class=cfg["chains_per_class"],
            length=cfg["length"], seed=cfg["seed"]))
    else:
        kind, data = "color-counting", datasets.gen_color_counting(datasets.ColorCountingSpec(
            num_colors=cfg["colors"], num_chains=cfg["chains"], length=cfg["length"],
            colored_fraction=cfg["fraction"], seed=cfg["seed"]))
    n = data.graph.n
    if n < datasets.SPLIT_MIN_NODES:
        raise ValueError(f"a generated dataset needs at least {datasets.SPLIT_MIN_NODES} "
                         f"nodes to split into train, val and test, got n={n}")
    out = _out_dir(cfg)
    datasets.save_dataset(data, out)
    _echo_config(cfg, out)
    print(f"wrote {kind} dataset ({n} nodes) to {out}")
    return EXIT_OK


def _cmd_train(cfg) -> int:
    if not cfg.get("data"):
        raise ValueError("train needs --data DIR")
    out = _out_dir(cfg)
    data = datasets.load_dataset(cfg["data"])
    scales = _parse_list(cfg["scales"], int, "scale")
    solver = SolverConfig(tol=cfg["tol"], max_iters=cfg["max_iters"])
    rng = np.random.default_rng(cfg["seed"])
    graph = data.graph
    model = init_model(rng, feature_dim=graph.feature_dim, hidden_dim=cfg["hidden"],
                       num_classes=graph.num_classes, scale_exponents=scales,
                       gamma=cfg["gamma"], eps_f=cfg["eps_f"],
                       encoder_layers=cfg["encoder_layers"], dropout=cfg["dropout"],
                       encoder_bias=cfg["encoder_bias"], solver_cfg=solver)
    tcfg = train.TrainConfig(epochs=cfg["epochs"], lr=cfg["lr"], weight_decay=cfg["wd"],
                             seed=cfg["seed"], patience=cfg["patience"])
    history = train.train_loop(model, data, tcfg)
    train.history_to_csv(history, out / "history.csv")
    save_checkpoint(model, out / "checkpoint.json")
    metrics = _node_metrics(model, data)
    metrics["epochs_run"] = len(history)
    write_json(out / "metrics.json", metrics)
    _echo_config(cfg, out)
    print(json.dumps(metrics, sort_keys=True))
    return EXIT_OK


def _node_metrics(model, data) -> dict:
    graph = data.graph
    scores = train.evaluate(model, graph, graph.labels,
                            (data.train_mask, data.val_mask, data.test_mask))
    return {"task": model.task, "metric": "micro_f1" if graph.multilabel else "accuracy",
            **dict(zip(("train", "val", "test"), scores))}


def _cmd_eval(cfg) -> int:
    if not cfg.get("checkpoint") or not cfg.get("data"):
        raise ValueError("eval needs --checkpoint FILE and --data DIR")
    model = load_checkpoint(cfg["checkpoint"])
    if model.task != "node":
        raise ValueError(f"{cfg['checkpoint']}: checkpoint of a {model.task}-task model; "
                         "eval scores node-task models on a dataset's node masks")
    data = datasets.load_dataset(cfg["data"])
    metrics = _node_metrics(model, data)
    print(json.dumps(metrics, sort_keys=True))
    return EXIT_OK


def _cmd_probe_range(cfg) -> int:
    out = _out_dir(cfg)
    gammas = _parse_list(cfg["gammas"], float, "gamma")
    scales = _parse_list(cfg["scales"], int, "scale")
    for values, what in ((gammas, "gamma"), (scales, "scale")):
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:  # its curve would overwrite the first one's
            raise ValueError(f"{what} {repeated[0]!r} is listed twice")
    length = cfg["length"]
    theta = cfg["theta"]

    graph = datasets.gen_chains(datasets.ChainsSpec(
        num_classes=1, chains_per_class=1, length=length, seed=cfg["seed"])).graph
    model = init_model(np.random.default_rng(cfg["seed"]), graph.feature_dim,
                       cfg["hidden"], 1)
    solver = SolverConfig(tol=1e-15, max_iters=length + 50)

    def encode(x):
        return model.encoder.forward(x)[0]

    # Every bound is checked before the first curve is written.
    bounds = {(gamma, m): probe.range_bound(gamma, theta, m)
              for gamma in gammas for m in scales}
    summary = []
    for gamma in gammas:
        for m in scales:
            module = ScaleModule(f_weight=model.scales[0].f_weight, gamma=gamma, scale_m=m)
            curve = probe.measure_decay(module, graph, encode, p=0, cfg=solver)
            name = f"curve_g{gamma!r}_m{m}.csv"
            probe.write_curve_csv(curve, out / name)
            summary.append({
                "gamma": gamma,
                "m": m,
                "theta": theta,
                "empirical_range": probe.empirical_range(curve, theta),
                "range_bound": bounds[gamma, m],
                "file": name,
            })
    with open(out / "summary.csv", "w", encoding="utf-8") as fh:
        fh.write("gamma,m,theta,empirical_range,range_bound,file\n")
        for row in summary:
            fh.write(f"{row['gamma']!r},{row['m']},{row['theta']!r},"
                     f"{row['empirical_range']},{row['range_bound']},{row['file']}\n")
    _echo_config(cfg, out)
    for row in summary:
        print(f"gamma={row['gamma']!r} m={row['m']}: empirical range "
              f"{row['empirical_range']}, bound {row['range_bound']}")
    return EXIT_OK


def _cmd_bound(cfg) -> int:
    if cfg.get("gamma") is None or cfg.get("theta") is None:
        raise ValueError("bound needs --gamma and --theta")
    print(probe.range_bound(cfg["gamma"], cfg["theta"], cfg["m"]))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

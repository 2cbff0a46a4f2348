"""One benchmark run: timed replicates, the correctness gate, the traced replay.

``run.py`` sets the BLAS thread count and puts the repository's ``src/`` on
the import path before this module loads numpy and msignn.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import platform
import resource
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy

import msignn
from tracing import (AUDIT, RESIDUAL_SLACK, SETUP, TRAIN_LOOP, Tracer, assign_epochs,
                     forward_residual, self_times)

OUT_DIR = Path(".perfbench_out")
TAIL_BEYOND = 10
SCALE_EXPONENTS = (1, 4, 8)   # the scales of the workloads BENCHMARK.json judges
SOLVES = ("equilibrium.forward_solve", "equilibrium.adjoint_solve")


class Bench:
    """One run of one workload; ``run()`` returns the result and the run record."""

    def __init__(self, wl, seed: int, seconds: float, trace: bool, epochs: int | None):
        self.wl = wl
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.epochs = epochs or wl.epochs
        count = 1 if trace else max(1, round(seconds / wl.replicate_s))
        self.seeds = [int(np.random.SeedSequence([seed, r]).generate_state(1)[0])
                      for r in range(count)]
        self.checks: dict[str, bool] = {}

    def check(self, name: str, ok) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    # -- one replicate ---------------------------------------------------

    def replicate(self, seed: int, setups: int, predict_calls: int, tracer=None) -> dict:
        """Set up ``setups`` times, then train and predict once; the checks come later."""
        call = tracer.call if tracer else (lambda _name, fn, *a: fn(*a))
        setup_s = []
        for _ in range(setups):
            prob = None
            gc.collect()     # each sample starts without the previous one's garbage
            t0 = time.perf_counter()
            prob = call(SETUP, self.wl.setup, seed)
            setup_s.append(time.perf_counter() - t0)
        cfg = msignn.TrainConfig(epochs=self.epochs, lr=self.wl.lr, seed=seed,
                                 patience=self.epochs)
        gc.collect()
        t0 = time.perf_counter()
        history = call(TRAIN_LOOP, msignn.train_loop, prob.model, prob.data, cfg)
        train_s = time.perf_counter() - t0
        predict_s, preds = [], []
        for _ in range(predict_calls):
            t0 = time.perf_counter()
            preds.append(prob.model.predict(prob.predict_input()))
            predict_s.append(time.perf_counter() - t0)
        return {"seed": seed, "problem": prob, "history": history, "setup_s": setup_s,
                "train_s": train_s, "predict_s": predict_s, "preds": preds}

    def verify(self, rep: dict) -> None:
        """The correctness gate for one trained replicate."""
        prob, history = rep["problem"], rep["history"]
        losses = [row["train_loss"] for row in history]
        self.check("epochs_complete", len(history) == self.epochs)
        self.check("final_loss_finite", all(math.isfinite(x) for x in losses))
        self.check("loss_fell", losses[-1] < losses[0])
        cap = prob.model.solver_cfg.max_iters
        self.check("history_iters_below_cap", all(
            int(k) < cap for row in history for k in row["iters_per_scale"].split(";")))
        data = prob.predict_input()
        g = getattr(data, "merged", data)
        trace = prob.model.forward(data)
        for mod, res in zip(prob.model.scales, trace.scale_results):
            residual = forward_residual(mod, res.z_star, trace.injected, g.s)
            self.check("forward_residual",
                       residual <= RESIDUAL_SLACK * prob.model.solver_cfg.tol)
        n_out = trace.logits.shape[1]
        for p in rep["preds"]:
            self.check("predict_valid", p.shape == (n_out,) and p.min() >= 0
                       and p.max() < prob.model.num_classes
                       and np.array_equal(p, rep["preds"][0]))

    # -- the whole run ---------------------------------------------------

    def run(self) -> tuple[dict, dict]:
        """Returns the result object and the run record."""
        reps = []
        for seed in self.seeds:
            rep = self.replicate(seed, self.wl.setups, self.wl.predict_calls)
            self.verify(rep)
            rep["problem"] = rep["preds"] = None     # free before the next replicate
            reps.append(rep)
        setups = [t for r in reps for t in r["setup_s"]]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        tracer = Tracer()
        with tracer:
            replay = self.replicate(self.seeds[0], 1, 0, tracer)
        self.check("replay_identical", fingerprint(replay["history"])
                   == fingerprint(reps[0]["history"]))
        spans = tracer.spans
        loop_idx = next(i for i, s in enumerate(spans) if s.name == TRAIN_LOOP)
        epoch_ids = assign_epochs(spans, loop_idx,
                                  [row["seconds"] for row in replay["history"]])
        solves = [s for s in spans if s.epoch >= 0 and s.name in SOLVES]
        attempted = len(solves)
        failed = sum(not s.info["converged"] for s in solves)

        epoch_samples = [row["seconds"] for r in reps for row in r["history"]]
        tail, tail_pct = tail_value(epoch_samples)
        if self.trace:
            metrics = layer_metrics(spans, epoch_ids, replay, reps[0])
            write_spans(spans, OUT_DIR / f"{self.wl.name}-seed{self.seed}.spans.jsonl")
        else:
            metrics = {
                # The fastest set-up, replicate and predict call: on a shared host
                # the run's medians followed the neighbours' load (README.md).
                "setup_s": (min(setups), "s"),
                "epoch_s": (min(r["train_s"] / len(r["history"]) for r in reps), "s"),
                "epoch_s.tail": (tail, "s"),
                "predict_s": (min(t for r in reps for t in r["predict_s"]), "s"),
                "final_train_loss": (statistics.fmean(r["history"][-1]["train_loss"]
                                                      for r in reps), "nats"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "converged_share": (1.0 - failed / attempted, "ratio"),
            }
        result = {"correct": all(self.checks.values()), "attempted": attempted,
                  "failed": failed,
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
        record = {
            "run": {"workload": self.wl.name, "seed": self.seed, "seconds": self.seconds,
                    "trace": int(self.trace), "python": platform.python_version(),
                    "numpy": np.__version__, "scipy": scipy.__version__},
            "config": {**self.wl.config, "lr": self.wl.lr, "epochs": self.epochs,
                       "replicates": len(reps), "setups": self.wl.setups,
                       "predict_calls": self.wl.predict_calls},
            "replicates": [{"seed": r["seed"],
                            **dict(zip(("final_train_loss", "history_digest"),
                                       fingerprint(r["history"]))),
                            "setup_s": r["setup_s"], "train_s": r["train_s"],
                            "epoch_seconds": [row["seconds"] for row in r["history"]],
                            "predict_s": r["predict_s"]} for r in reps],
            "setup_samples": setups,
            "epoch_s.tail": {"percentile": tail_pct, "samples": len(epoch_samples)},
            "solves": {"attempted": attempted, "unconverged": failed,
                       "unconverged_share": failed / attempted},
            "checks": dict(self.checks),
        }
        return result, record


def layer_metrics(spans, epoch_ids, replay: dict, untraced: dict) -> dict:
    """Per-layer metrics of the traced replay; per epoch unless the name says otherwise."""
    n_epochs = len(epoch_ids)
    own = self_times(spans)
    # Totals leave out the residual audits nested in them: that is the benchmark's work.
    audited = [0.0] * len(spans)
    for s in spans:
        if s.name == AUDIT:
            p = s.parent
            while p >= 0:
                audited[p] += s.end - s.start
                p = spans[p].parent
    total, calls, own_total = defaultdict(float), defaultdict(int), defaultdict(float)
    setup_total, setup_calls = defaultdict(float), defaultdict(int)
    in_setup = [False] * len(spans)
    for i, s in enumerate(spans):
        p = s.parent
        in_setup[i] = s.name == SETUP or (0 <= p < i and in_setup[p])
        if in_setup[i]:
            setup_total[s.name] += s.end - s.start
            setup_calls[s.name] += 1
        if s.epoch >= 0:
            total[s.name] += s.end - s.start - audited[i]
            calls[s.name] += 1
            own_total[s.name] += own[i]

    def per_epoch(table, name):
        return table[name] / n_epochs

    m = {
        "numerics.as_csr.calls": (per_epoch(calls, "numerics.as_csr"), "count"),
        "numerics.as_csr.s": (per_epoch(total, "numerics.as_csr"), "s"),
        "numerics.spmm_right.calls": (per_epoch(calls, "numerics.spmm_right"), "count"),
        "numerics.spmm_right.s": (total["numerics.spmm_right"]      # per call
                                  / max(1, calls["numerics.spmm_right"]), "s"),
    }
    for m_exp in SCALE_EXPONENTS:
        for kind in SOLVES:
            mine = [s for s in spans if s.epoch >= 0 and s.name == kind
                    and s.info["m"] == m_exp]
            key = f"{kind}.m{m_exp}"
            m[f"{key}.s"] = (sum(s.end - s.start for s in mine) / n_epochs, "s")
            if kind == "equilibrium.forward_solve":
                m[f"{key}.iters"] = (statistics.fmean(s.info["iters"] for s in mine)
                                     if mine else 0.0, "count")
            m[f"{key}.residual"] = (max((s.info["residual"] for s in mine), default=0.0),
                                    "ratio")
    m.update({
        "equilibrium.weight_gradient.s": (per_epoch(total, "equilibrium.weight_gradient"), "s"),
        "model.forward.self_s": (per_epoch(own_total, "model.forward"), "s"),
        "model.backward.self_s": (per_epoch(own_total, "model.backward"), "s"),
        "model.encoder.s": (per_epoch(total, "model.encoder.forward")
                            + per_epoch(total, "model.encoder.backward"), "s"),
        "model.predict.s": (per_epoch(total, "model.predict"), "s"),
        "model.sum_pool.s": (per_epoch(total, "model.sum_pool"), "s"),
        "graph.batch.calls": (per_epoch(calls, "graph.batch"), "count"),
        "graph.batch.s": (per_epoch(total, "graph.batch"), "s"),
        "graph.build_graph.calls": (setup_calls["graph.build_graph"], "count"),   # per set-up
        "graph.build_graph.s": (setup_total["graph.build_graph"], "s"),           # per set-up
        "datasets.generate.s": (setup_total["datasets.generate"], "s"),           # per set-up
        "train.loss.s": (per_epoch(total, "train.loss"), "s"),
        "train.adam_step.s": (per_epoch(total, "train.adam_step"), "s"),
    })
    seconds = [row["seconds"] for row in replay["history"]]
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    covered = [covered[e] for e in epoch_ids]
    m["train.epoch.self_s"] = (statistics.fmean(s - c for s, c in zip(seconds, covered)), "s")
    m["trace.coverage"] = (min(c / s for s, c in zip(seconds, covered)), "ratio")
    m["trace.audit_s"] = (per_epoch(total, AUDIT), "s")
    m["trace.overhead_s"] = (replay["train_s"] / n_epochs
                             - untraced["train_s"] / len(untraced["history"]), "s")
    return m


def fingerprint(history: list[dict]) -> tuple[str, str]:
    """(repr of the final train loss, sha256 of the history without wall times)."""
    rows = [{k: v for k, v in row.items() if k != "seconds"} for row in history]
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    return repr(history[-1]["train_loss"]), digest


def tail_value(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and that percentile."""
    ordered = sorted(samples)
    k = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def write_spans(spans, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                 "parent": s.parent, "epoch": s.epoch, **s.info}) + "\n")


def git_commit(root: Path) -> str:
    """HEAD's commit read from .git, or "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"

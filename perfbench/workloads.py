"""The four benchmark workloads: inputs, one operation each, and checks.

Every operation is one ``pinchopt.cli.main(argv)`` call on scenario files
generated here from the workload seed. Inputs use the reference setup
(28 GHz, 40 dBm over -90 dBm, mu^2 = -90 dB, 30 m x 10 m region, 10 m
waveguide height, eps_t = 1e-3), written out explicitly in every file.
Tolerances live in each file's ``tolerances`` section, never in flags.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

REFERENCE = {"fc_hz": 28e9, "p_dbm": 40.0, "noise_dbm": -90.0, "mu_sq_db": -90.0,
             "beta": 0.01, "guide_index": 1.4}
REGION = {"dx": 30.0, "dy": 10.0, "dv": 10.0}
EPS_T = 1e-3
EPSILON = 0.1


@dataclass
class Op:
    """One operation: a CLI call plus what the oracle needs to check it."""

    key: str
    argv: list
    doc: dict
    units: int = 1  # drops per call, for the sweep
    out_path: Path | None = None
    extra: dict = field(default_factory=dict)


def _doc(rng, n_users, epsilon=None, **defaults):
    xs = rng.uniform(0.0, REGION["dx"], n_users).tolist()
    ys = rng.uniform(-0.5 * REGION["dy"], 0.5 * REGION["dy"], n_users).tolist()
    doc = {
        "schema": 1,
        "region": dict(REGION),
        "defaults": {**REFERENCE, **defaults},
        "users": [{"x": x, "y": y} for x, y in zip(xs, ys)],
        "tolerances": {"eps_t": EPS_T},
    }
    if epsilon is not None:
        doc["outage"] = {"epsilon": epsilon}
    return doc


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _eta_scaled(doc: dict) -> dict:
    """The scenario with eta * 1.5: eta scales as 1 / fc^2."""
    wrong = json.loads(json.dumps(doc))
    wrong["defaults"]["fc_hz"] = doc["defaults"]["fc_hz"] / math.sqrt(1.5)
    return wrong


def _beta_halved(doc: dict) -> dict:
    """The scenario with beta / 2. An outage optimum limited by NLoS
    fading does not move with eta, but always rises with the LoS
    probability, because Q1(a, b) > Q1(0, b) = e^{-b^2/2} for a > 0."""
    wrong = json.loads(json.dumps(doc))
    wrong["defaults"]["beta"] = 0.5 * doc["defaults"]["beta"]
    return wrong


def _csv_rows(text: str) -> list:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[1:]


class SolveDrops:
    """`pinchopt solve` on random user drops, one class per user count."""

    reference_loops = 1  # reference-loop runs between ops, see run.py

    def __init__(self, metric, user_counts, pool):
        self.metric = metric
        self.classes = [f"m{m}" for m in user_counts]
        self._counts = dict(zip(self.classes, user_counts))
        self._pool = pool
        self._wrong = ("beta/2", _beta_halved) if metric == "outage" else ("eta*1.5", _eta_scaled)

    def build(self, rng, work: Path) -> dict:
        epsilon = EPSILON if self.metric == "outage" else None
        pools = {}
        for cls, m in self._counts.items():
            pools[cls] = []
            for i in range(self._pool):
                doc = _doc(rng, m, epsilon)
                path = _write(work / f"{cls}_{i}.json", doc)
                pools[cls].append(Op(f"{cls}/{i}", self._argv(path), doc))
        return pools

    def _argv(self, path):
        return ["solve", path, "--metric", self.metric, "--workers", "1"]

    def warmup_op(self, pools) -> Op:
        return pools[self.classes[0]][0]

    def check(self, op: Op, output: str):
        answer = json.loads(output)["pinching"]
        return self._check_answer(op.doc, answer["t_star"], answer["x_star"])

    def _check_answer(self, doc, t_star, x_star):
        return oracle.check_solution(oracle.users_from_doc(doc), self.metric,
                                     t_star, x_star, EPS_T)

    def controls(self, op: Op, output: str, work: Path, execute):
        """Verdicts on known-wrong answers derived from op: [(name, (ok, reason))]."""
        answer = json.loads(output)["pinching"]
        name, wrong_doc = self._wrong
        path = _write(work / "control.json", wrong_doc(op.doc))
        return [
            ("t_star*(1+10*eps_t)",
             self._check_answer(op.doc, answer["t_star"] * (1.0 + 10.0 * EPS_T),
                                answer["x_star"])),
            (name, self.check(op, execute(Op("control", self._argv(path), op.doc)))),
        ]


class OutageSweep:
    """`pinchopt sweep --metric outage --axis m=8:8:1`; one op is one drop.

    A call has the CLI's default of 100 drops and takes tens of seconds,
    so a run holds one or two calls. The host's speed changes within a
    second, which a call averages over, so the reference loop around each
    call is timed for about as long (1.5 s on a 2-core x86_64 host).
    """

    classes = ["m8"]
    users = 8
    reference_loops = 1000

    def __init__(self, drops, pool):
        self.drops = drops
        self._pool = pool
        self._optima = {}

    def build(self, rng, work: Path) -> dict:
        ops = []
        for i in range(self._pool):
            doc = _doc(rng, 1, EPSILON)
            seed = int(rng.integers(0, 2**31))
            path = _write(work / f"sweep_{i}.json", doc)
            out = work / f"sweep_{i}.csv"
            ops.append(Op(f"sweep/{i}", self._argv(path, seed, out), doc, self.drops, out,
                          {"seed": seed}))
        return {"m8": ops}

    def _argv(self, path, seed, out, drops=None):
        return ["sweep", path, "--metric", "outage", "--axis", f"m={self.users}:{self.users}:1",
                "--drops", str(drops or self.drops), "--seed", str(seed), "--out", str(out),
                "--workers", "1"]

    def warmup_op(self, pools) -> Op:
        """One drop: the first op's first drop."""
        op = pools["m8"][0]
        return Op("warmup", self._argv(op.argv[1], op.extra["seed"], op.out_path, 1),
                  op.doc, 1, op.out_path)

    def drop_positions(self, seed):
        """User positions of each drop, drawn as the sweep documents it:
        Philox(SeedSequence(0, spawn_key=(seed, point, drop))), x then y."""
        out = []
        for drop in range(self.drops):
            seq = np.random.SeedSequence(entropy=0, spawn_key=(seed, 0, drop))
            rng = np.random.Generator(np.random.Philox(seq))
            xs = rng.uniform(0.0, REGION["dx"], self.users)
            ys = rng.uniform(-0.5 * REGION["dy"], 0.5 * REGION["dy"], self.users)
            out.append(np.stack([xs, ys], axis=-1))
        return np.array(out)

    def prepare(self, ops):
        """Compute every listed op's per-drop optima in one vectorised pass."""
        todo = [op for op in ops if op.key not in self._optima]
        if not todo:
            return
        users = oracle.stack_users([
            oracle.users_from_doc(op.doc, self.drop_positions(op.extra["seed"])) for op in todo])
        optima = oracle.optimum_outage(users).reshape(len(todo), self.drops)
        for op, row in zip(todo, optima):
            self._optima[op.key] = row

    def _mean_t_star(self, output):
        (row,) = _csv_rows(output)
        return float(row[7])  # SWEEP_COLUMNS: ..., drops, t_star, ...

    def check(self, op: Op, output: str, scale=1.0, drops=None):
        """Check the row's mean t_star; drops < self.drops checks a prefix."""
        self.prepare([op])
        return oracle.check_sweep_mean(self._optima[op.key][:drops],
                                       self._mean_t_star(output) * scale, EPS_T)

    def controls(self, op: Op, output: str, work: Path, execute):
        # The first drop of op's seed alone, solved with the wrong channel.
        path = _write(work / "control.json", _beta_halved(op.doc))
        wrong = execute(Op("control", self._argv(path, op.extra["seed"], op.out_path, 1),
                           op.doc, 1, op.out_path))
        return [
            ("t_star*(1+10*eps_t)", self.check(op, output, 1.0 + 10.0 * EPS_T)),
            ("beta/2", self.check(op, wrong, drops=1)),
        ]


class McCcdf:
    """`pinchopt ccdf` on single-user links: analytic and Monte-Carlo CCDF."""

    classes = ["link"]
    reference_loops = 1
    samples = 200_000
    t_points = 40
    mu_sq_db_range = (-90.0, -70.0)
    beta_range = (1e-3, 1e-2)

    def __init__(self, pool):
        self._pool = pool

    def build(self, rng, work: Path) -> dict:
        ops = []
        for i in range(self._pool):
            doc = _doc(rng, 1, beta=float(rng.uniform(*self.beta_range)),
                       mu_sq_db=float(rng.uniform(*self.mu_sq_db_range)))
            x_pin = float(rng.uniform(0.0, REGION["dx"]))
            seed = int(rng.integers(0, 2**31))
            path = _write(work / f"link_{i}.json", doc)
            out = work / f"link_{i}.csv"
            ops.append(Op(f"link/{i}", self._argv(path, x_pin, seed, out), doc, 1, out,
                          {"x_pin": x_pin}))
        return {"link": ops}

    def warmup_op(self, pools) -> Op:
        return pools["link"][0]

    def _argv(self, path, x_pin, seed, out):
        return ["ccdf", path, "--x-pin", repr(x_pin), "--samples", str(self.samples),
                "--t-points", str(self.t_points), "--seed", str(seed), "--out", str(out),
                "--workers", "1"]

    @staticmethod
    def _table(output):
        return np.array([[float(v) for v in row] for row in _csv_rows(output)])

    def check(self, op: Op, output: str, shift=0, mc_output=None):
        """Check op's table; mc_output, if given, supplies the Monte-Carlo column."""
        table = self._table(output)
        mc = self._table(mc_output)[:, 2] if mc_output is not None else table[:, 2]
        ts = table[shift:, 0]
        rows = slice(0, len(table) - shift)
        users = oracle.users_from_doc(op.doc)
        user = op.doc["users"][0]
        y = (user["x"] - op.extra["x_pin"]) ** 2 + user["y"] ** 2 + REGION["dv"] ** 2
        return oracle.check_ccdf_rows(users, y, ts, table[rows, 1], mc[rows], self.samples)

    def controls(self, op: Op, output: str, work: Path, execute):
        # The second control keeps op's correct analytic column, so only
        # the Monte-Carlo check can reject it; --t-max keeps op's thresholds,
        # which would otherwise scale with eta.
        argv = list(op.argv) + ["--t-max", repr(float(self._table(output)[-1, 0]))]
        argv[1] = _write(work / "control.json", _eta_scaled(op.doc))
        wrong = execute(Op("control", argv, op.doc, 1, op.out_path))
        return [
            ("rows shifted by one threshold", self.check(op, output, shift=1)),
            ("Monte-Carlo column at eta*1.5", self.check(op, output, mc_output=wrong)),
        ]


WORKLOADS = {
    "maxmin-drops": lambda: SolveDrops("avg-snr", (2, 8, 32, 128), pool=64),
    "outage-drops": lambda: SolveDrops("outage", (2, 8, 32), pool=16),
    "outage-sweep": lambda: OutageSweep(drops=100, pool=4),
    "mc-ccdf": lambda: McCcdf(pool=64),
}

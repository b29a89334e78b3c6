"""The three benchmark workloads: inputs, request bodies, checks, counts, digest.

Every thermocone call that a timed request makes goes through `api`, a dict
from "<module>.<function>" to a public function of the package.  The tracer
wraps those entries from outside, and the self-tests swap one for a double.
Checks, counts and digests read only the recorded outputs, or call public
functions after the timed section.

Inputs come from the seed alone.  The shape of each work list (how many
requests of each kind and dimension) is fixed, so runs on different seeds
measure the same amount of work and only the numbers differ.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import thermocone as tc

CHUNK_ROWS = 16384  # rows per Monte-Carlo chunk, the unit of the ms_per_chunk metrics

LAYER_FUNCTIONS = (
    "core.compare",
    "catalysis.catalysable_future_member",
    "catalysis.catalytic_condition",
    "catalysis.dim_bound",
    "catalysis.qubit_window",
    "catalysis.alpha_free_energy_check",
    "catalysis.search_qubit_catalyst",
    "catalysis.c_plus_vertices",
    "cones.future_cone_vertices",
    "cooling.optimal_cooling",
    "cooling.critical_hot_betas",
    "embedding.oracle_report",
    "volume.mc_volume",
    "volume.isovolume_grid",
    "entanglement.unitary_entanglable",
    "entanglement.in_TN",
    "entanglement.in_CN",
    "entanglement.volume_ratio_CN_TN",
    "cli.run",
)

COUNT_NAMES = (
    "cones.orders_enumerated",
    "cones.vertices_kept",
    "catalysis.c_plus_vertices.orders_enumerated",
    "catalysis.c_plus_vertices.vertices_kept",
    "catalysis.search_qubit_catalyst.grid_points",
    "catalysis.search_qubit_catalyst.hits",
    "embedding.oracle_report.inconclusive",
    "volume.samples",
    "volume.chunks",
    "cooling.critical_hot_betas.no_root",
)

ALPHAS = (0.0, 0.5, 1.0, 2.0, math.inf)


def public_api() -> dict:
    """The public functions the workloads call, keyed by layer-qualified name."""
    api = {}
    for name in LAYER_FUNCTIONS:
        module, fn = name.split(".")
        api[name] = getattr(importlib.import_module(f"thermocone.{module}"), fn)
    return api


def sig12(x: float):
    """A float at 12 significant digits, as the CLI prints it."""
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return float(f"{x:.12g}")


def _vec(v) -> list:
    return [sig12(x) for x in np.asarray(v, dtype=float)]


def _vertices(cv) -> list:
    return [[list(pi), _vec(v.probs)] for pi, v in cv]


def _hits(est) -> int:
    return int(round(est.value * est.samples))


def _chunks(samples: int) -> int:
    return -(-samples // CHUNK_ROWS)


def _interleaved(reqs: list, rng) -> list:
    """The work list in a seeded random order.

    Host speed drifts within a run; spreading every kind and dimension over the
    whole pass makes each latency percentile sample the whole run, not the
    few seconds in which one kind would otherwise run back to back.
    """
    return [reqs[i] for i in rng.permutation(len(reqs))]


def _each(check, reqs, outs) -> list[str]:
    """Per-request check messages, skipping requests that raised."""
    return [f"request {i} ({req.kind}): {msg}" for i, (req, out) in enumerate(zip(reqs, outs))
            if "error" not in out for msg in check(req, out)]


@dataclass
class Request:
    kind: str
    args: dict = field(default_factory=dict)

    def doc(self) -> list:
        """JSON-able form of the inputs, for the input fingerprint."""
        out = {}
        for k, v in sorted(self.args.items()):
            if isinstance(v, tc.EnergySpectrum):
                v = [list(v.energies), v.beta]
            elif isinstance(v, np.ndarray):
                v = v.tolist()
            out[k] = v
        return [self.kind, out]


@dataclass(frozen=True)
class McCall:
    """One estimator call on a fixed state, replayed chunk by chunk in the traced run."""

    p: np.ndarray
    spec: object
    seed: int
    samples: int


class PairStream:
    """Many small calls at d <= 5 on fresh samples: per-call overhead shows here."""

    name = "pair_stream"
    plan = {"requests": 48, "dims": (3, 4, 5), "grid": 200, "max_denominator": 1000,
            "mc_samples": 20_000, "cn_samples": 20_000}

    def __init__(self, plan=None):
        self.plan = {**self.plan, **(plan or {})}

    def build(self, seed: int, workdir: Path) -> list[Request]:
        rng = np.random.default_rng([seed, 1])
        dims = self.plan["dims"]
        reqs = []
        pairs = 0
        for i in range(self.plan["requests"]):
            if i % 4 == 3:
                beta = float(rng.uniform(0.0, 2.0))
                gibbs = tc.TwoQubitConfig(beta).spectrum().gibbs
                mix = float(rng.uniform())
                p = (1.0 - mix) * gibbs + mix * rng.dirichlet(np.ones(4))
                reqs.append(Request("qubits", {"p": p, "beta": beta, "seed": int(rng.integers(2**31))}))
                continue
            d = dims[pairs % len(dims)]
            spec = tc.EnergySpectrum(tuple(np.sort(rng.uniform(0.0, 2.0, d))), 2.0 * (1.0 - rng.random()))
            for attempt in itertools.count():
                p = rng.dirichlet(np.ones(d))
                if pairs % 2 and attempt < 20:
                    # criterion 7's construction: near a catalysable-future vertex,
                    # so that some grid searches find a catalyst to check.  Near
                    # beta = 0 such targets are all comparable, hence the fallback.
                    v = tc.c_plus_vertex(p, spec, rng.permutation(d)).probs
                    q = 0.9 * v + 0.1 * spec.gibbs
                else:
                    q = rng.dirichlet(np.ones(d))
                if tc.compare(p, q, spec) is tc.Relation.INCOMPARABLE:
                    break
            path = workdir / f"pair{i}.json"
            path.write_text(json.dumps({"energies": list(spec.energies), "beta": spec.beta,
                                        "state": p.tolist(), "target": q.tolist()}))
            reqs.append(Request("pair", {"p": p, "q": q, "spec": spec, "path": str(path),
                                         "seed": int(rng.integers(2**31))}))
            pairs += 1
        return _interleaved(reqs, rng)

    def warmup(self, reqs: list[Request]) -> list[Request]:
        return [next(r for r in reqs if r.kind == kind) for kind in ("pair", "qubits")]

    def execute(self, api: dict, req: Request, out: dict) -> None:
        a = req.args
        if req.kind == "qubits":
            cfg = tc.TwoQubitConfig(a["beta"])
            out["entanglable"] = api["entanglement.unitary_entanglable"](a["p"])
            out["in_TN"] = api["entanglement.in_TN"](a["p"], cfg)
            out["in_CN"] = api["entanglement.in_CN"](a["p"], cfg, self.plan["cn_samples"], a["seed"])
            return
        p, q, spec = a["p"], a["q"], a["spec"]
        out["relation"] = api["core.compare"](p, q, spec)
        out["member"] = api["catalysis.catalysable_future_member"](q, p, spec)
        out["condition"] = api["catalysis.catalytic_condition"](p, q, spec)
        out["dim_bound"] = api["catalysis.dim_bound"](p, q, spec)
        out["windows"] = api["catalysis.qubit_window"](p, q, spec, 0.5)
        out["hits"] = api["catalysis.search_qubit_catalyst"](p, q, spec, 0.5, self.plan["grid"])
        out["oracle"] = api["embedding.oracle_report"](p, q, spec, self.plan["max_denominator"])
        out["future"] = api["cones.future_cone_vertices"](p, spec)
        out["c_plus"] = api["catalysis.c_plus_vertices"](p, spec)
        out["cooling"] = api["cooling.optimal_cooling"](p, spec, catalytic=True)
        out["volume"] = api["volume.mc_volume"](p, spec, "C+", self.plan["mc_samples"], a["seed"])
        out["free_energy"] = api["catalysis.alpha_free_energy_check"](p, q, spec, ALPHAS)
        try:
            out["critical"] = api["cooling.critical_hot_betas"](spec.d, spec.beta)
        except tc.NoRootError:
            out["critical"] = None  # an expected outcome; the CLI prints it as NaN
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = api["cli.run"](["dimbound", "--input", a["path"]])
        out["cli"] = (rc, buf.getvalue())

    def check(self, reqs: list[Request], outs: list[dict]) -> list[str]:
        return _each(self._check, reqs, outs)

    def _check(self, req: Request, out: dict) -> list[str]:
        bad = []
        if req.kind == "qubits":
            if out["in_CN"] and not out["in_TN"]:
                bad.append("in_CN holds but in_TN does not")
            if out["in_TN"] and out["entanglable"]:
                bad.append("in_TN holds for a unitarily entanglable state")
            return bad
        relation = out["relation"]
        if relation is not tc.Relation.INCOMPARABLE:
            bad.append(f"compare gave {relation.value} on a pair drawn incomparable")
        rep = out["oracle"]
        majorizes = relation in (tc.Relation.MAJORIZES, tc.Relation.EQUIVALENT)
        if not rep.inconclusive and rep.embedded != majorizes:
            bad.append("oracle_report.embedded disagrees with compare")
        if out["hits"]:
            if not (out["condition"] and out["member"]):
                bad.append("a catalyst was found for a pair failing the catalytic condition or C+ membership")
            low, high = out["windows"]
            if not all(low.contains(t, 1e-9) or high.contains(t, 1e-9) for t in out["hits"]):
                bad.append("a catalyst hit lies outside the qubit windows")
        cool = out["cooling"]
        if not cool.q_c_catalytic <= cool.q_c:
            bad.append("catalytic cooling bound above the non-catalytic optimum")
        db = out["dim_bound"]
        expected = {"a": sig12(db.a), "b": sig12(db.b), "k_star": sig12(db.k_star),
                    "L_interval": [sig12(x) for x in db.L_interval], "L_prime": list(db.L_prime)}
        rc, text = out["cli"]
        if rc != 0 or json.loads(text) != expected:
            bad.append(f"cli dimbound (exit {rc}) differs from the library's dim_bound")
        return bad

    def counts(self, req: Request, out: dict) -> Counter:
        c = Counter()
        if req.kind == "pair":
            d = req.args["spec"].d
            c["cones.orders_enumerated"] += math.factorial(d)
            c["cones.vertices_kept"] += len(out["future"])
            c["catalysis.c_plus_vertices.orders_enumerated"] += math.factorial(d)
            c["catalysis.c_plus_vertices.vertices_kept"] += len(out["c_plus"])
            c["catalysis.search_qubit_catalyst.grid_points"] += self.plan["grid"] - 1
            c["catalysis.search_qubit_catalyst.hits"] += len(out["hits"])
            c["embedding.oracle_report.inconclusive"] += int(out["oracle"].inconclusive)
            c["volume.samples"] += self.plan["mc_samples"]
            c["volume.chunks"] += _chunks(self.plan["mc_samples"])
            c["volume.mc_volume.chunks"] += _chunks(self.plan["mc_samples"])
            c["cooling.critical_hot_betas.no_root"] += int(out["critical"] is None)
        return c

    def digest(self, req: Request, out: dict) -> list:
        if req.kind == "qubits":
            return [out["entanglable"], out["in_TN"], out["in_CN"]]
        db, rep, cool, est = out["dim_bound"], out["oracle"], out["cooling"], out["volume"]
        return [
            out["relation"].value, out["member"], out["condition"],
            [sig12(db.a), sig12(db.b), sig12(db.k_star), _vec(db.L_interval), list(db.L_prime)],
            [[sig12(w.lo), sig12(w.hi)] for w in out["windows"]],
            _vec(out["hits"]),
            [rep.thermo, rep.embedded, sig12(rep.margin), sig12(rep.threshold), rep.inconclusive,
             rep.rational.denominator, list(rep.rational.numerators)],
            _vertices(out["future"]), _vertices(out["c_plus"]),
            [sig12(cool.q_c), list(cool.order), _vec(cool.target.probs),
             sig12(cool.q_c_catalytic), list(cool.order_catalytic), _vec(cool.target_catalytic.probs)],
            _hits(est), out["free_energy"],
            None if out["critical"] is None else _vec(out["critical"]),
            list(out["cli"]),
        ]

    def mc_calls(self, reqs: list[Request]) -> list[McCall]:
        return [McCall(r.args["p"], r.args["spec"], r.args["seed"], self.plan["mc_samples"])
                for r in reqs if r.kind == "pair"]


class FigureScan:
    """The paper's sampled figures: nearly all time in volume, _batch and entanglement.

    A request is one estimator call: one region of a state's five-region
    sweep, one isovolume map, or one CN/TN volume ratio.
    """

    name = "figure_scan"
    plan = {"sweep_dims": (3, 4, 6), "states_per_dim": 2, "sweep_samples": 100_000,
            "iso_betas": (0.2, 1.0, 5.0), "iso_resolution": 10, "iso_samples": 20_000,
            "ratio_betas": (0.0, 0.25, 0.5, 1.0), "ratio_samples": 100_000}
    REGIONS = ("T+", "T-", "T0", "C+", "C-")

    def __init__(self, plan=None):
        self.plan = {**self.plan, **(plan or {})}

    def build(self, seed: int, workdir: Path) -> list[Request]:
        rng = np.random.default_rng([seed, 2])
        reqs = []
        for d in self.plan["sweep_dims"]:
            for _ in range(self.plan["states_per_dim"]):
                spec = tc.EnergySpectrum(tuple(np.sort(rng.uniform(0.0, 2.0, d))), float(rng.uniform(0.05, 2.0)))
                state = {"p": rng.dirichlet(np.ones(d)), "spec": spec, "seed": int(rng.integers(2**31)),
                         "state": len(reqs) // len(self.REGIONS)}
                # the five regions of one state share its seed, as in demo 04
                reqs.extend(Request("region", {**state, "region": r}) for r in self.REGIONS)
        for beta in self.plan["iso_betas"]:
            reqs.append(Request("isovolume", {"spec": tc.EnergySpectrum((0.0, 1.0, 2.0), beta),
                                              "seed": int(rng.integers(2**31))}))
        for beta in self.plan["ratio_betas"]:
            reqs.append(Request("ratio", {"beta": beta, "seed": int(rng.integers(2**31))}))
        return _interleaved(reqs, rng)

    def warmup(self, reqs: list[Request]) -> list[Request]:
        # one small call of each kind: the full calls cost seconds and would
        # fill set-up with the work the timed section measures
        region = next(r for r in reqs if r.kind == "region")
        return [Request("region", {**region.args, "samples": 1000}),
                Request("isovolume", {"spec": tc.EnergySpectrum((0.0, 1.0, 2.0), 1.0), "seed": 0,
                                      "resolution": 2, "samples": 1000}),
                Request("ratio", {"beta": 0.5, "seed": 0, "samples": 10_000})]

    def execute(self, api: dict, req: Request, out: dict) -> None:
        a = req.args
        if req.kind == "region":
            out["estimate"] = api["volume.mc_volume"](
                a["p"], a["spec"], a["region"], a.get("samples", self.plan["sweep_samples"]), a["seed"])
        elif req.kind == "isovolume":
            out["table"] = api["volume.isovolume_grid"](
                a["spec"], a.get("resolution", self.plan["iso_resolution"]),
                a.get("samples", self.plan["iso_samples"]), a["seed"])
        else:
            out["ratio"] = api["entanglement.volume_ratio_CN_TN"](
                a["beta"], a.get("samples", self.plan["ratio_samples"]), a["seed"])

    def check(self, reqs: list[Request], outs: list[dict]) -> list[str]:
        bad = []
        sweeps: dict[int, dict] = {}
        for req, out in zip(reqs, outs):
            if "error" in out:
                continue
            a = req.args
            if req.kind == "region":
                sweeps.setdefault(a["state"], {"args": a})[a["region"]] = out["estimate"]
            elif req.kind == "isovolume":
                values = out["table"][:, 2]
                res = self.plan["iso_resolution"]
                if values.size != (res + 1) * (res + 2) // 2 or not np.all((values >= 0.0) & (values <= 1.0)):
                    bad.append(f"isovolume at beta={a['spec'].beta}: values outside [0, 1] or grid incomplete")
            else:
                v_tn, v_cn, ratio = out["ratio"]
                if v_cn.value > v_tn.value:
                    bad.append(f"ratio at beta={a['beta']}: V_CN above V_TN")
                if a["beta"] == 0.0 and abs(ratio - 0.88) > 0.03:
                    bad.append(f"beta=0 volume ratio {ratio:.4f} outside criterion 3's 0.88 +/- 0.03")
        n = self.plan["sweep_samples"]
        for sid, sweep in sweeps.items():
            if len(sweep) <= len(self.REGIONS):
                continue  # a region call raised, which is already a failure
            a = sweep["args"]
            hits = {r: _hits(sweep[r]) for r in self.REGIONS}
            if hits["T+"] + hits["T-"] + hits["T0"] < n:
                bad.append(f"state {sid}: T+, T- and T0 do not cover the simplex")
            if hits["C+"] + hits["C-"] > hits["T0"]:
                bad.append(f"state {sid}: C+ and C- exceed T0")
            if a["spec"].d == 3:
                exact = (tc.exact_area_d3([v.probs for _, v in tc.c_plus_vertices(a["p"], a["spec"])])
                         - tc.exact_area_d3([v.probs for _, v in tc.future_cone_vertices(a["p"], a["spec"])]))
                est = sweep["C+"]
                # 3/n is the rule-of-three floor for regions too small to get a hit
                if abs(est.value - exact) > 4.0 * est.stderr + 3.0 / n:
                    bad.append(f"state {sid}: C+ estimate {est.value:.6f} off the exact area {exact:.6f}")
        return bad

    def counts(self, req: Request, out: dict) -> Counter:
        c = Counter()
        if req.kind == "region":
            n = self.plan["sweep_samples"]
            c["volume.samples"] += n
            c["volume.chunks"] += _chunks(n)
            c["volume.mc_volume.chunks"] += _chunks(n)
        elif req.kind == "isovolume":
            points = len(out["table"])
            n = max(self.plan["iso_samples"], 1000)
            c["volume.samples"] += points * n
            c["volume.chunks"] += points * _chunks(n)
        else:
            n = self.plan["ratio_samples"]
            c["volume.samples"] += n
            c["volume.chunks"] += _chunks(n)
            c["entanglement.volume_ratio_CN_TN.chunks"] += _chunks(n)
        return c

    def digest(self, req: Request, out: dict) -> list:
        if req.kind == "region":
            return _hits(out["estimate"])
        if req.kind == "isovolume":
            return [_vec(row) for row in out["table"]]
        v_tn, v_cn, ratio = out["ratio"]
        return [_hits(v_tn), _hits(v_cn), sig12(ratio)]

    def mc_calls(self, reqs: list[Request]) -> list[McCall]:
        return [McCall(r.args["p"], r.args["spec"], r.args["seed"], self.plan["sweep_samples"])
                for r in reqs if r.kind == "region" and r.args["region"] == "T+"]


class ConeHighD:
    """Extreme points at d = 6 and 7: d! enumeration fills the time, no sampling.

    Every state is analysed in full: future-cone vertices, catalysable-future
    vertices and catalytic optimal cooling.  States at d = 8 are left out: one
    takes 12 s, twice a whole pass, so a single request would set the run's
    throughput and the host's speed during those seconds would set the result.
    """

    name = "cone_highd"
    plan = {"dims": (7,) * 3 + (6,) * 9, "subsample": 24}
    SPECTRA = ("equidistant", "random", "degenerate")

    def __init__(self, plan=None):
        self.plan = {**self.plan, **(plan or {})}

    def build(self, seed: int, workdir: Path) -> list[Request]:
        rng = np.random.default_rng([seed, 3])
        reqs = []
        for i, d in enumerate(self.plan["dims"]):
            kind = self.SPECTRA[i % len(self.SPECTRA)]
            if kind == "equidistant":
                energies = np.arange(d) * float(rng.uniform(0.2, 0.4))
            elif kind == "degenerate":  # paired levels: many orders give the same vertex
                energies = np.repeat(np.sort(rng.uniform(0.0, 2.0, (d + 1) // 2)), 2)[:d]
            else:
                energies = np.sort(rng.uniform(0.0, 2.0, d))
            spec = tc.EnergySpectrum(tuple(energies), float(rng.uniform(0.1, 2.0)))
            reqs.append(Request("state", {"p": rng.dirichlet(np.ones(d)), "spec": spec,
                                          "seed": int(rng.integers(2**31))}))
        return _interleaved(reqs, rng)

    def warmup(self, reqs: list[Request]) -> list[Request]:
        # a d = 4 state warms every call path; a d = 8 one would take seconds
        rng = np.random.default_rng(0)
        spec = tc.EnergySpectrum((0.0, 0.5, 1.0, 1.5), 1.0)
        return [Request("state", {"p": rng.dirichlet(np.ones(4)), "spec": spec, "seed": 0})]

    def execute(self, api: dict, req: Request, out: dict) -> None:
        p, spec = req.args["p"], req.args["spec"]
        out["future"] = api["cones.future_cone_vertices"](p, spec)
        out["c_plus"] = api["catalysis.c_plus_vertices"](p, spec)
        out["cooling"] = api["cooling.optimal_cooling"](p, spec, catalytic=True)

    def check(self, reqs: list[Request], outs: list[dict]) -> list[str]:
        return _each(self._check, reqs, outs)

    def _check(self, req: Request, out: dict) -> list[str]:
        bad = []
        p, spec, d = req.args["p"], req.args["spec"], req.args["spec"].d
        future, c_plus, cool = out["future"].vertices, out["c_plus"].vertices, out["cooling"]
        orders = list(future)
        rng = np.random.default_rng(req.args["seed"])
        picked = rng.choice(len(orders), size=min(self.plan["subsample"], len(orders)), replace=False)
        if not all(tc.thermo_majorizes(p, future[orders[k]], spec) for k in picked):
            bad.append("a future-cone vertex is not thermomajorised by its state")
        if len(future) > math.factorial(d):
            bad.append("more future vertices than orders")
        half = math.ceil(d / 2)
        if len(c_plus) > half * math.comb(d, half):
            bad.append("more C+ vertices than criterion 7's bound")
        if cool.order not in future or not np.array_equal(cool.target.probs, future[cool.order].probs):
            bad.append("cooling target is not an enumerated future vertex")
        candidates = [cv[cool.order_catalytic].probs for cv in (future, c_plus) if cool.order_catalytic in cv]
        if not any(np.array_equal(cool.target_catalytic.probs, v) for v in candidates):
            bad.append("catalytic cooling target is not an enumerated vertex")
        if not cool.q_c_catalytic <= cool.q_c:
            bad.append("catalytic cooling bound above the non-catalytic optimum")
        return bad

    def counts(self, req: Request, out: dict) -> Counter:
        d = req.args["spec"].d
        return Counter({
            "cones.orders_enumerated": math.factorial(d),
            "cones.vertices_kept": len(out["future"]),
            "catalysis.c_plus_vertices.orders_enumerated": math.factorial(d),
            "catalysis.c_plus_vertices.vertices_kept": len(out["c_plus"]),
        })

    def digest(self, req: Request, out: dict) -> list:
        cool = out["cooling"]
        return [_vertices(out["future"]), _vertices(out["c_plus"]),
                [sig12(cool.q_c), list(cool.order), _vec(cool.target.probs),
                 sig12(cool.q_c_catalytic), list(cool.order_catalytic), _vec(cool.target_catalytic.probs)]]

    def mc_calls(self, reqs: list[Request]) -> list[McCall]:
        # no sampling in this workload: the kernel replay uses its states with
        # their own seeds, two chunks each
        return [McCall(r.args["p"], r.args["spec"], r.args["seed"], 2 * CHUNK_ROWS) for r in reqs]


WORKLOADS = {w.name: w for w in (PairStream, FigureScan, ConeHighD)}

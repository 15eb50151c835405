"""The three benchmark workloads.

Each is a closed loop with one caller: op i starts when op i - 1 returns.
A workload builds its seeded inputs in :meth:`setup`, and splits an op in
three parts so that the timed part holds only the calls a user makes:

* ``core(i, tr)``: the op itself, the only part that is timed;
* ``check(i, done, tr)``: the correctness gate, untimed;
* ``beside(i, done, tr)``: traced run only; further public calls on the
  same inputs (``riemann_sum_right``, ``abel_sum``, ``gap_bound``,
  ``adaptive_quadrature``, ``bisect_all``, in-process ``cli.main``) so that
  every layer gets a number of its own.

``bound-large`` and ``refine-oracles`` are the workloads of BENCHMARK.json.
``cli-small`` is run by hand; see bench/README.md for why it is not there.

``core`` returns a :class:`Done` with the op's rendered outputs, which are
hashed, and the number of breakpoints it certified.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import monobound as mb
from monobound import cli, transform
from monobound.bounds import DEFAULT_QUAD_TOL

import checks

#: Sizes per scale; ``tiny`` is for the self-test only.
SCALES = {
    "full": {
        "large_n": 10**6, "large_variants": 2,
        "chain_n": 10**4, "chain_depth": 6, "table_knots": 4096, "table_n": 1000,
        "maj_n": 10**4, "maj_transfers": 15000, "small_ops": 400, "small_n": (10, 1000),
        "rounds": 4, "cli_n": (1000, 300, 30), "cli_depth": (1, 3, 6),
    },
    "tiny": {
        "large_n": 2000, "large_variants": 1,
        "chain_n": 200, "chain_depth": 3, "table_knots": 64, "table_n": 100,
        "maj_n": 200, "maj_transfers": 200, "small_ops": 10, "small_n": (10, 100),
        "rounds": 2, "cli_n": (100, 30, 10), "cli_depth": (1, 2, 3),
    },
}

KINDS = ("near_uniform", "lognormal", "geometric")
#: Functions whose substitution identity is checked against each density.
PIT_SPECS = ("power:k=2", "exp:lambda=1", "recip", "trig")
PIT_TOL = 1e-10
CHILD_TIMEOUT_S = 120.0


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, stream])


def weight_array(rng: np.random.Generator, kind: str, n: int) -> np.ndarray:
    """Positive float64 weights of one shape; normalised by the op, not here."""
    if kind == "near_uniform":
        return rng.uniform(0.9, 1.1, n)
    if kind == "lognormal":
        return rng.lognormal(0.0, 2.0, n)
    decay = 10.0 ** -rng.uniform(4.0, 8.0)
    return decay ** (np.arange(n) / n) * rng.uniform(0.5, 1.5, n)


def block_schedule(seed: int, stream: int, width: int):
    """Endless sequence in blocks of ``width``, each a seeded permutation."""
    rng = rng_for(seed, stream)
    out: list[int] = []

    def at(i: int) -> int:
        while len(out) <= i:
            out.extend(int(k) for k in rng.permutation(width))
        return out[i]

    return at


def square(t: float) -> float:
    return t * t


def digest_arrays(h, arrays) -> None:
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())


@dataclass
class Done:
    outputs: list[str]
    points: int
    data: dict = field(default_factory=dict)


@dataclass
class Certified:
    arr: np.ndarray
    g: mb.MonotoneFunction
    p: mb.CumulativePartition
    report: mb.BoundReport
    left: float
    text: str


def certify(arr: np.ndarray, g, tr) -> Certified:
    """from_weights -> cumulative -> bound_report -> left sum -> render."""
    with tr.span("partitions.from_weights"):
        w = mb.from_weights(arr, normalize=True)
    with tr.span("partitions.cumulative"):
        p = mb.cumulative(w)
    tr.count("partitions.points", p.n + 1)
    with tr.span("bounds.bound_report"):
        report = mb.bound_report(g, p)
    tr.count("bounds.evaluations", report.evaluation_count)
    tr.count("bounds.n", report.n)
    with tr.span("bounds.riemann_left"):
        left = mb.riemann_sum_left(g, p)
    with tr.span("jsonio.render"):
        text = mb.render_json(report.to_dict())
    tr.count("jsonio.bytes", len(text))
    return Certified(arr, g, p, report, left, text)


def reference_tn(g, arr: np.ndarray, tr) -> float:
    with tr.span("baseline.numpy_tn"):
        return checks.numpy_tn(g, arr)


def check_certified(c: Certified, g_plain, tr) -> list[tuple[str, str]]:
    ref = reference_tn(g_plain, c.arr, tr)
    return checks.check_report(g_plain, c.arr, c.report, c.left, c.text, ref)


def beside_certified(c: Certified, tr) -> None:
    """The routes bound_report runs internally, called one by one."""
    with tr.span("bounds.riemann_right"):
        mb.riemann_sum_right(c.g, c.p)
    with tr.span("bounds.abel"):
        mb.abel_sum(c.g, c.p)
    with tr.span("bounds.gap_bound"):
        mb.gap_bound(c.g, c.p)
    if c.g.closed_form_integral is None:
        with tr.span("quadrature"):
            q = mb.adaptive_quadrature(c.g._fn, 0.0, 1.0, tol=DEFAULT_QUAD_TOL, breakpoints=c.g.kinks)
        tr.count("quadrature.evaluations", q.evaluations)


class Workload:
    """Seeded inputs plus the three parts of an op; see the module docstring."""

    name = ""
    #: Ops in the traced run; also the ops whose outputs are hashed.
    trace_ops = 1

    def __init__(self, seed: int, scale: str, workdir: Path):
        self.seed = seed
        self.size = SCALES[scale]
        self.workdir = workdir
        self.specs = cli.CATALOG_SPECS
        self.fns = [cli.parse_fn_spec(s) for s in self.specs]

    def setup(self) -> None:
        raise NotImplementedError

    def inputs_digest(self) -> str:
        raise NotImplementedError

    def beside(self, i: int, done: Done, tr) -> list[tuple[str, str]]:
        return []

    def close(self) -> None:
        pass


class BoundLarge(Workload):
    """One 10^6-weight array per op; the O(n) layers do nearly all the work."""

    name = "bound-large"
    trace_ops = 3

    def setup(self) -> None:
        rng = rng_for(self.seed, 0)
        n, variants = self.size["large_n"], self.size["large_variants"]
        self.pool = [[weight_array(rng, kind, n) for _ in range(variants)] for kind in KINDS]
        self.largest_n = n
        self.kind_at = block_schedule(self.seed, 1, len(KINDS))

    def array(self, i: int) -> np.ndarray:
        variants = self.pool[self.kind_at(i)]
        return variants[(i // len(KINDS)) % len(variants)]

    def inputs_digest(self) -> str:
        h = hashlib.sha256()
        digest_arrays(h, (a for variants in self.pool for a in variants))
        h.update(repr([self.kind_at(i) for i in range(12)]).encode())
        return h.hexdigest()

    def core(self, i: int, tr) -> Done:
        c = certify(self.array(i), tr.wrap(self.fns[i % len(self.fns)]), tr)
        return Done([c.text], c.p.n + 1, {"certified": c})

    def check(self, i: int, done: Done, tr) -> list[tuple[str, str]]:
        return check_certified(done.data["certified"], self.fns[i % len(self.fns)], tr)

    def beside(self, i: int, done: Done, tr) -> list[tuple[str, str]]:
        beside_certified(done.data["certified"], tr)
        return []


@dataclass
class Round:
    chain_arr: np.ndarray
    table_g: mb.MonotoneFunction
    table_arr: np.ndarray
    densities: list[tuple[str, object]]
    maj_seed: int
    small: list[np.ndarray]


class RefineOracles(Workload):
    """One round of five families that use the layers differently from bound-large."""

    name = "refine-oracles"
    trace_ops = 3

    def setup(self) -> None:
        rng = rng_for(self.seed, 2)
        s = self.size
        self.rounds = []
        for r in range(s["rounds"]):
            knots = s["table_knots"]
            xs = np.linspace(0.0, 1.0, knots)
            xs[1:-1] += rng.uniform(-0.4, 0.4, knots - 2) / (knots - 1)
            ys = np.sort(rng.uniform(0.0, 2.0, knots))[::-1]
            c0 = float(rng.uniform(0.2, 1.8))
            dens_knots = list(zip(np.linspace(0.0, 1.0, 9).tolist(), rng.uniform(0.2, 2.0, 9).tolist()))
            lo, hi = s["small_n"]
            self.rounds.append(Round(
                chain_arr=weight_array(rng, KINDS[r % 3], s["chain_n"]),
                table_g=mb.tabulated(list(zip(xs.tolist(), ys.tolist()))),
                table_arr=weight_array(rng, "near_uniform", s["table_n"]),
                densities=[
                    ("poly", [c0, 2.0 * (1.0 - c0)]),
                    ("tri", float(rng.uniform(0.1, 0.9))),
                    ("table", dens_knots),
                ],
                maj_seed=int(rng.integers(2**31)),
                small=[weight_array(rng, KINDS[k % 3], int(rng.integers(lo, hi + 1)))
                       for k in range(s["small_ops"])],
            ))
        self.pit_fns = [cli.parse_fn_spec(spec) for spec in PIT_SPECS]
        self.largest_n = s["chain_n"]

    def inputs_digest(self) -> str:
        h = hashlib.sha256()
        for rd in self.rounds:
            digest_arrays(h, [rd.chain_arr, rd.table_arr, rd.table_g.values(np.linspace(0, 1, 17)), *rd.small])
            h.update(repr((rd.densities, rd.maj_seed)).encode())
        return h.hexdigest()

    def core(self, i: int, tr) -> Done:
        rd = self.rounds[i % len(self.rounds)]
        s = self.size
        g = tr.wrap(self.fns[i % len(self.fns)])
        depth = s["chain_depth"]

        with tr.span("partitions.from_weights"):
            w = mb.from_weights(rd.chain_arr, normalize=True)
        with tr.span("partitions.cumulative"):
            p = mb.cumulative(w)
        tr.count("partitions.points", p.n + 1)
        with tr.span("bounds.refinement_chain"):
            chain = mb.refinement_chain(g, p, depth)
        points = sum(p.n * 2**k + 1 for k in range(depth + 1))

        table = certify(rd.table_arr, tr.wrap(rd.table_g), tr)
        points += table.p.n + 1

        pit = []
        for kind, param in rd.densities:
            with tr.span("transform.density"):
                if kind == "poly":
                    f = transform.polynomial_density(param)
                elif kind == "tri":
                    f = transform.triangular_density(param)
                else:
                    f = transform.tabulated_density(param)
            for h in self.pit_fns:
                with tr.span("transform.pit"):
                    pit.append(transform.pit_identity_check(f, tr.wrap(h), tol=PIT_TOL))

        with tr.span("majorization.generate"):
            x, y = mb.generate_majorized_pair(s["maj_n"], s["maj_transfers"], rd.maj_seed)
        with tr.span("majorization.is_majorized"):
            verdict = mb.is_majorized(x, y)
        with tr.span("majorization.karamata"):
            karamata = mb.karamata_check(square, x, y)

        small = []
        for k, arr in enumerate(rd.small):
            small.append(certify(arr, tr.wrap(self.fns[(i + k) % len(self.fns)]), tr))
            points += len(arr) + 1

        extra = json.dumps({
            "chain": [repr(v) for v in chain],
            "pit": [[repr(r.lhs), repr(r.rhs), r.passed] for r in pit],
            "majorization": verdict.relation,
            "karamata": [repr(karamata.margin), karamata.holds],
        })
        outputs = [table.text, *(c.text for c in small), extra]
        data = {"p": p, "chain": chain, "table": table, "pit": pit,
                "verdict": verdict, "karamata": karamata, "small": small}
        return Done(outputs, points, data)

    def check(self, i: int, done: Done, tr) -> list[tuple[str, str]]:
        rd = self.rounds[i % len(self.rounds)]
        d = done.data
        g = self.fns[i % len(self.fns)]
        problems = checks.check_chain(g, rd.chain_arr, d["chain"], self.size["chain_depth"],
                                      reference_tn(g, rd.chain_arr, tr))
        problems += check_certified(d["table"], rd.table_g, tr)
        problems += [("transform", f"PIT residual {r.residual!r} exceeds {r.tol!r}")
                     for r in d["pit"] if not r.passed]
        if d["verdict"].relation not in checks.MAJORIZED_RELATIONS:
            problems.append(("majorization", f"relation {d['verdict'].relation!r}"))
        if not d["karamata"].holds:
            problems.append(("majorization", f"Karamata margin {d['karamata'].margin!r}"))
        for k, c in enumerate(d["small"]):
            problems += check_certified(c, self.fns[(i + k) % len(self.fns)], tr)
        return problems

    def beside(self, i: int, done: Done, tr) -> list[tuple[str, str]]:
        q = done.data["p"]
        for _ in range(self.size["chain_depth"]):
            with tr.span("partitions.bisect_all"):
                q = mb.bisect_all(q)
            tr.count("partitions.points", q.n + 1)
        beside_certified(done.data["table"], tr)
        for c in done.data["small"]:
            beside_certified(c, tr)
        return self.beside_cli(i, tr)

    def beside_cli(self, i: int, tr) -> list[tuple[str, str]]:
        """``bound`` and ``catalog`` through in-process ``cli.main``, stdout captured."""
        n = self.size["small_n"][1]
        spec = self.specs[i % len(self.specs)]
        runs = [(["bound", "--uniform", str(n), "--fn", spec, "--json"],
                 {"g": cli.parse_fn_spec(spec), "arr": np.ones(n)}),
                (["catalog", "--json"], {"rows": len(self.specs)})]
        problems = []
        for argv, expect in runs:
            buf = io.StringIO()
            with tr.span("cli.main"), contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            if code != 0:
                problems.append(("cli", f"in-process {argv[0]} exited {code}"))
                continue
            problems += checks.check_cli_payload(argv[0], json.loads(buf.getvalue()), expect)
        return problems


@dataclass
class Invocation:
    command: str
    argv: list[str]
    points: int
    expect: dict


COMMANDS = ("bound", "enclose", "abel", "transform-check", "majorize", "karamata", "refine", "catalog")


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


class CliSmall(Workload):
    """One ``python -m monobound <cmd> ... --json`` child per op, n <= 1000."""

    name = "cli-small"
    trace_ops = 16
    variants = 3

    def __init__(self, seed: int, scale: str, workdir: Path, src: Path):
        super().__init__(seed, scale, workdir)
        self.env = child_env(src)

    def setup(self) -> None:
        rng = rng_for(self.seed, 3)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.files: dict[str, str] = {}
        self.invocations = {c: [self._invocation(c, v, rng) for v in range(self.variants)]
                            for c in COMMANDS}
        self.command_at = block_schedule(self.seed, 4, len(COMMANDS))
        self.largest_n = max(self.size["cli_n"])

    def _write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text)
        self.files[name] = text
        return str(path)

    def _weights(self, command: str, v: int, rng) -> tuple[list[str], np.ndarray]:
        n = self.size["cli_n"][v]
        if v == 2:
            return ["--uniform", str(n)], np.ones(n)
        raw = weight_array(rng, KINDS[v], n)
        a = raw / raw.sum()
        if v == 0:
            path = self._write(f"{command}-w.csv", "\n".join(repr(float(t)) for t in a) + "\n")
        else:
            path = self._write(f"{command}-w.json", json.dumps([float(t) for t in a]))
        return ["--weights", path], a

    def _invocation(self, command: str, v: int, rng) -> Invocation:
        spec = self.specs[int(rng.integers(len(self.specs)))]
        tag = f"{command}-{v}"
        if command in ("bound", "enclose", "abel", "refine"):
            wargs, arr = self._weights(tag, v, rng)
            argv = [command, *wargs, "--fn", spec]
            expect = {"g": cli.parse_fn_spec(spec), "arr": arr}
            points = len(arr) + 1
            if command == "refine":
                depth = self.size["cli_depth"][v]
                argv += ["--depth", str(depth)]
                expect["depth"] = depth
                points = sum(len(arr) * 2**k + 1 for k in range(depth + 1))
            return Invocation(command, argv + ["--json"], points, expect)
        if command == "transform-check":
            if v == 0:
                c0 = float(rng.uniform(0.2, 1.8))
                density = f"poly:{c0!r},{2.0 * (1.0 - c0)!r}"
            elif v == 1:
                density = f"tri:peak={float(rng.uniform(0.1, 0.9))!r}"
            else:
                ys = rng.uniform(0.2, 2.0, 9)
                rows = "\n".join(f"{x!r},{y!r}" for x, y in zip(np.linspace(0, 1, 9).tolist(), ys.tolist()))
                density = "table:@" + self._write(f"{tag}-density.csv", rows + "\n")
            return Invocation(command, [command, "--density", density, "--fn", spec, "--json"], 0, {})
        if command in ("majorize", "karamata"):
            n = self.size["cli_n"][v]
            x, y = mb.generate_majorized_pair(n, n, int(rng.integers(2**31)))
            xp = self._write(f"{tag}-x.json", json.dumps(list(x.entries)))
            yp = self._write(f"{tag}-y.json", json.dumps(list(y.entries)))
            argv = [command, "--x", xp, "--y", yp]
            if command == "karamata":
                argv += ["--fn", ("square", "expt", "recip")[v]]
            return Invocation(command, argv + ["--json"], 0, {})
        return Invocation(command, [command, "--json"], 0, {"rows": len(self.specs)})

    def invocation(self, i: int) -> Invocation:
        """Op i's command and variant.

        Variants rotate across commands, so bound, enclose and abel cover all
        three sizes in every block, and refine's depths give its variants
        similar point counts: a run's breakpoint total does not hinge on
        which variant its last, partial block has.
        """
        c = self.command_at(i)
        return self.invocations[COMMANDS[c]][(i // len(COMMANDS) + c) % self.variants]

    def inputs_digest(self) -> str:
        h = hashlib.sha256()
        h.update(json.dumps(self.files, sort_keys=True).encode())
        h.update(repr([self.invocation(i).argv for i in range(16)]).encode())
        return h.hexdigest()

    def core(self, i: int, tr) -> Done:
        inv = self.invocation(i)
        with tr.span("cli.child"):
            proc = subprocess.run([sys.executable, "-m", "monobound", *inv.argv], env=self.env,
                                  cwd=self.workdir, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        return Done([proc.stdout], inv.points, {"proc": proc})

    def check(self, i: int, done: Done, tr) -> list[tuple[str, str]]:
        inv = self.invocation(i)
        proc = done.data["proc"]
        if proc.returncode != 0:
            return [("cli", f"{inv.command} exited {proc.returncode}: {proc.stderr.strip()[:300]}")]
        try:
            payload = json.loads(proc.stdout)
        except json.JSONDecodeError as exc:
            return [("cli", f"{inv.command} printed unparseable JSON: {exc}")]
        done.data["payload"] = payload
        return checks.check_cli_payload(inv.command, payload, inv.expect)

    def beside(self, i: int, done: Done, tr) -> list[tuple[str, str]]:
        """The same command in-process, and the child's JSON rendered again."""
        inv = self.invocation(i)
        stdout = done.data["proc"].stdout
        buf = io.StringIO()
        with tr.span("cli.main"), contextlib.redirect_stdout(buf):
            code = cli.main(inv.argv)
        problems = []
        if code != 0 or buf.getvalue() != stdout:
            problems.append(("cli", f"in-process {inv.command} differs from the child (exit {code})"))
        if "payload" in done.data:
            with tr.span("jsonio.render"):
                text = mb.render_json(done.data["payload"])
            tr.count("jsonio.bytes", len(text))
            if text + "\n" != stdout:
                problems.append(("jsonio", f"{inv.command}: re-rendered JSON differs from the child's"))
        return problems

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.workdir.parent.rmdir()


def import_seconds(src: Path) -> float:
    """``import monobound`` timed inside a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import monobound; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], env=child_env(src), check=True,
                         capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return float(out.stdout)


def cli_probes(src: Path, repeats: int = 3) -> dict:
    """Interpreter start and ``import monobound`` cost, from child processes."""
    env = child_env(src)

    def median_run(code: str) -> float:
        times = []
        for _ in range(repeats):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, timeout=CHILD_TIMEOUT_S)
            times.append(perf_counter() - start)
        return statistics.median(times)

    interpreter = median_run("pass")
    return {"cli.interpreter_s": interpreter,
            "cli.import_s": median_run("import monobound") - interpreter}


def make(name: str, seed: int, scale: str, workdir: Path, src: Path) -> Workload:
    if name == "cli-small":
        return CliSmall(seed, scale, workdir, src)
    return {"bound-large": BoundLarge, "refine-oracles": RefineOracles}[name](seed, scale, workdir)


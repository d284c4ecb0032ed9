"""ferrofem benchmark: a closed loop with one client over the public CLI.

Usage (from the repository root)::

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--out FILE]

One run is one fresh process. It calls ``cli.main`` in its own process pass
after pass, each pass starting when the previous one has finished, while the
median pass so far still fits in ``--seconds`` seconds of passes. Between
passes, spread over that window, it times the set-up (interpreter start,
``import ferrofem`` and one N=4 solve) in separate child processes. Every
output of every pass is checked; a nonzero exit, a traceback or a failed check
fails the pass. The seed makes the workload's inputs; the program sees only
the generated config.

With ``--trace 0`` the last line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of ``spans.py``: the run then alternates
untraced and traced passes, and reports the median difference of each pair
as the tracing overhead, beside the wrapper cost times the span count.
``--workload all`` runs every benchmark workload in its own child process
and exits nonzero if any output check failed. ``--out`` also writes the
full record (every pass, work sizes per level, layer times per level) as
JSON.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import gc
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
WORK = ROOT / ".perfbench_work"

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one BLAS thread: on a shared 2-core host two threads made `check` ~20%
# slower and its run-to-run spread three times wider; the solves are
# single-threaded SuperLU either way
BLAS_THREADS = 1

SETUP_PROBES = 10
MIN_PAIRS = 10  # fewer untraced/traced pairs leave the measured overhead to host noise
WARMUP_CONFIG = "levels = 4\n"
CURL_TOL = 1e-12  # acceptance criterion 2
MIN_ORDER_L1 = 1.9  # acceptance criterion 3

# why each workload is here; the harness passes only the generated config
WORKLOADS = {
    "l0-study": "default l0 study without N=128; the monolithic saddle solve is ~93% of it",
    "l1-nonlinear": "Taylor-Hood, 8 Picard and 6 Oseen sweeps, rho from the seed: the "
                    "saddle solve on nonsymmetric P1-pressure systems plus the fixed points",
    "check": "property battery; bypasses the saddle solve (3%), dominated by inf-sup "
             "eigenproblems and small assemblies",
}
# reference record only, not a benchmark workload: the full default study,
# N = 4..128 (~150 s a pass)
REFERENCE_WORKLOADS = ("full-study",)


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark at all."""


class Terminated(BaseException):
    """SIGTERM arrived; unwinds past the pass loop so clean-up runs."""


def _terminate(signum, frame):
    raise Terminated(signum)


def cap_threads() -> int:
    """Cap BLAS/OpenMP threads at BLAS_THREADS and the cores this process may use."""
    cap = min(BLAS_THREADS, NPROC)
    for var in THREAD_VARS:
        try:
            cap = min(cap, int(os.environ[var]))
        except (KeyError, ValueError):
            pass
    for var in THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def environment(cap: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": NPROC,
        "blas_threads": cap,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def acceptance_constants() -> dict:
    """REFERENCE_L0 and REL_TOL as the acceptance suite freezes them."""
    tree = ast.parse(ACCEPTANCE.read_text())
    found = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in ("REFERENCE_L0", "REL_TOL")):
            found[node.targets[0].id] = ast.literal_eval(node.value)
    if len(found) != 2:
        raise SetupError(f"{ACCEPTANCE} no longer defines REFERENCE_L0 and REL_TOL")
    return found


# ---------------------------------------------------------------------------
# workloads: inputs from the seed, and the checks on every output
# ---------------------------------------------------------------------------


class StudyWorkload:
    """``ferrofem run`` on one generated config."""

    def __init__(self, name, pair, levels, config, work: Path):
        self.pair = pair
        self.levels = levels
        self.config = config
        self.csv = work / f"{name}.csv"
        self.json = work / f"{name}.json"
        cfg = work / f"{name}.cfg"
        cfg.write_text(config)
        self.argv = ["run", "--config", str(cfg), "--out-csv", str(self.csv),
                     "--out-json", str(self.json)]
        self.reference = acceptance_constants() if pair == "l0" else None

    def check(self, rc, out, err) -> list:
        problems = _exit_problems(rc, err)
        try:
            doc = json.loads(self.json.read_text())
            csv_lines = self.csv.read_text().strip().split("\n")
            self.json.unlink()
            self.csv.unlink()
        except (OSError, ValueError) as exc:
            return problems + [f"unreadable output: {exc}"]
        self.last_doc = doc
        try:
            return problems + self._check_doc(doc, csv_lines)
        except (KeyError, TypeError, IndexError) as exc:
            return problems + [f"malformed output: {exc!r}"]

    def _check_doc(self, doc, csv_lines) -> list:
        problems = []
        rows = doc["rows"]
        if [row["N"] for row in rows] != list(self.levels):
            return [f"levels {[row['N'] for row in rows]} != {self.levels}"]
        if len(csv_lines) != 1 + len(rows) + 2:
            problems.append(f"CSV has {len(csv_lines)} lines")
        for row in rows:
            if not row["curl_inf"] <= CURL_TOL:
                problems.append(f"N={row['N']}: curl_inf {row['curl_inf']:.2e}")
        if self.reference is not None:
            refs, tols = self.reference["REFERENCE_L0"], self.reference["REL_TOL"]
            for i, row in enumerate(rows):  # reference rows are N = 4, 8, ...
                for col, ref in refs.items():
                    dev = abs(row["errors"][col] - ref[i]) / ref[i]
                    if not dev <= tols[col]:
                        problems.append(f"N={row['N']} {col}: {100 * dev:.1f}% off reference")
        else:
            for col, order in doc.get("orders_lsq", {}).items():
                if not order >= MIN_ORDER_L1:
                    problems.append(f"order_lsq {col} = {order:.3f}")
            if not doc.get("orders_lsq"):
                problems.append("no order_lsq row")
        return problems

    def sizes(self) -> list:
        """Free dofs per space and solve counts of every level solved."""
        from ferrofem import driver, fespace, mesh2d

        records = []
        try:
            fams = driver.PAIRS[self.pair]
            for row in self.last_doc["rows"]:
                mesh = mesh2d.build_uniform_square(row["N"])
                free = [fespace.build_space(mesh, fam, components=c).n_free
                        for fam, c in zip(fams, (1, 1, 2, 1))]
                res = row["diagnostics"]["solve_residuals"]
                records.append({
                    "N": row["N"], "phi_free": free[0], "edge_free": free[1],
                    "u_free": free[2], "p_free": free[3],
                    "spd_solves": len(res["potential"]) + len(res["recovery"]),
                    "saddle_solves": len(res["flow"]),
                })
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            records.append({"unavailable": repr(exc)})
        return records


class CheckWorkload:
    """``ferrofem check --seed K``: the full property battery."""

    def __init__(self, seed):
        self.config = f"--seed {seed}"
        self.argv = ["check", "--seed", str(seed)]
        self.n_properties = None

    def check(self, rc, out, err) -> list:
        problems = _exit_problems(rc, err)
        lines = out.strip().split("\n")
        passed = sum(line.startswith("PASS ") for line in lines)
        problems += [line for line in lines if line.startswith("FAIL ")]
        if not passed or lines[-1] != f"all {passed} properties passed":
            problems.append(f"summary line {lines[-1]!r} after {passed} PASS lines")
        self.n_properties = passed
        return problems

    def sizes(self) -> list:
        return [{"properties": self.n_properties}]


def _exit_problems(rc, err) -> list:
    problems = [] if rc == 0 else [f"exit code {rc}"]
    if "Traceback" in err:
        problems.append("traceback: " + err.strip().split("\n")[-1])
    return problems


def make_workload(name: str, seed: int, work: Path):
    rng = random.Random(seed)
    if name == "l0-study":  # fixed: the reference study ignores the seed
        return StudyWorkload(name, "l0", (4, 8, 16, 32, 64), "levels = 4,8,16,32,64\n", work)
    if name == "full-study":
        return StudyWorkload(name, "l0", (4, 8, 16, 32, 64, 128), "", work)
    if name == "l1-nonlinear":
        rho = rng.uniform(5.0, 15.0)
        config = (f"pair = l1\nlevels = 4,8,16,32\ngamma = 4\neta = 0.5\n"
                  f"picard_iters = 8\noseen_iters = 6\nrho = {rho!r}\n")
        return StudyWorkload(name, "l1", (4, 8, 16, 32), config, work)
    if name == "check":
        return CheckWorkload(rng.randrange(1, 1_000_000))
    raise ValueError(name)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def call_main(cli, argv):
    """One pass through the public entry point: (wall s, exit code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # a traceback fails the pass; the loop goes on
        rc = None
        err.write(traceback.format_exc())
    return time.perf_counter() - t0, rc, out.getvalue(), err.getvalue()


def warmup_argv(work: Path) -> list:
    """``cli.main`` arguments of the N=4 warm-up solve."""
    cfg = work / "warmup.cfg"
    cfg.write_text(WARMUP_CONFIG)
    return ["run", "--config", str(cfg), "--out-csv", str(work / "warmup.csv"),
            "--out-json", str(work / "warmup.json")]


def setup_probe(work: Path):
    """A callable timing one fresh interpreter that imports ferrofem and solves N=4."""
    argv = warmup_argv(work)
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); from ferrofem import cli; "
            f"sys.exit(cli.main({argv!r}))")

    def probe() -> float:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed ({proc.returncode}): {proc.stderr[-500:]}")
        return wall

    return probe


def tail(values):
    """Highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples beyond)``; with ten samples or
    fewer that is the maximum with the count beyond it.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def measure(workload, cli, seconds: float, trace: bool, probe=None):
    """Closed loop of passes; alternates untraced/traced passes when tracing.

    With a ``probe``, SETUP_PROBES set-up probes run between passes, spread
    over the window; their time is not counted in it.
    """
    import spans

    tracer = spans.Tracer()
    passes, layer_runs, absent, levels, setup = [], [], set(), None, []
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start - sum(setup)
        while probe is not None and len(setup) < min(SETUP_PROBES,
                                                     1 + SETUP_PROBES * elapsed / seconds):
            setup.append(probe())
        n_traced = sum(p["traced"] for p in passes)
        must = not passes or (trace and (n_traced == 0 or n_traced == len(passes)))
        if not must:
            # start no pass that the median pass so far says would end late
            typical = statistics.median(p["wall_s"] for p in passes)
            if elapsed + typical > seconds:
                break
        traced = trace and n_traced < len(passes) - n_traced
        if traced:
            with tracer.installed():
                wall, rc, out, err = call_main(cli, workload.argv)
            pass_spans = tracer.take()
            values, missing = spans.layer_metrics(pass_spans, tracer.wrapped)
            values["trace.spans"] = len(pass_spans)
            layer_runs.append(values)
            absent.update(missing)
            if levels is None:
                levels = spans.by_level(pass_spans)
            del pass_spans
        else:
            wall, rc, out, err = call_main(cli, workload.argv)
        problems = workload.check(rc, out, err)
        passes.append({"wall_s": wall, "traced": traced, "problems": problems})
        if problems:
            print(f"FAILED pass {len(passes)}: {'; '.join(problems[:5])}", file=sys.stderr)
    while probe is not None and len(setup) < SETUP_PROBES:
        setup.append(probe())
    return passes, layer_runs, sorted(absent), levels, setup


def run_one(name: str, seed: int, seconds: float, trace: bool, out_path) -> int:
    cap = cap_threads()
    work = WORK / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        sys.path.insert(0, str(SRC))
        from ferrofem import cli

        workload = make_workload(name, seed, work)
        _, rc, _, err = call_main(cli, warmup_argv(work))
        if rc != 0:
            raise SetupError(f"warm-up solve failed ({rc}): {err[-500:]}")
        probe = None if trace else setup_probe(work)
        passes, layer_runs, absent, levels, setup = measure(workload, cli, seconds, trace,
                                                            probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        sizes = workload.sizes()
        env = environment(cap)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    failed = sum(bool(p["problems"]) for p in passes)
    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    traced = [p["wall_s"] for p in passes if p["traced"]]
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {name} seed={seed} input: {workload.config.strip()!r}")
    print(f"passes {len(passes)} ({len(traced)} traced), failed {failed}")
    for rec in sizes:
        print("size " + " ".join(f"{k}={v}" for k, v in rec.items()))

    if trace:
        import spans

        metrics = {}
        for metric, unit, _better, _needs, _value in spans.LAYER_METRICS:
            vals = [run[metric] for run in layer_runs if metric in run]
            if vals:
                metrics[metric] = {"value": statistics.median(vals), "unit": unit}
        # passes alternate untraced, traced: each traced pass pairs with the one before
        pairs = [p["wall_s"] - q["wall_s"] for q, p in zip(passes[::2], passes[1::2])]
        n_spans = statistics.median(run["trace.spans"] for run in layer_runs)
        metrics["trace.traced_wall_s"] = {"value": statistics.median(traced), "unit": "s"}
        metrics["trace.overhead_s"] = {"value": statistics.median(pairs), "unit": "s"}
        metrics["trace.pairs"] = {"value": len(pairs), "unit": "count"}
        metrics["trace.spans"] = {"value": n_spans, "unit": "count"}
        metrics["trace.wrapper_s"] = {"value": n_spans * spans.wrapper_cost(), "unit": "s"}
        if len(pairs) < MIN_PAIRS:
            print(f"trace.overhead_s unresolved: {len(pairs)} pairs < {MIN_PAIRS}, so host "
                  "drift between passes outweighs it; trace.wrapper_s estimates it")
        if absent:
            print("absent (function missing or its result changed shape): "
                  + ", ".join(absent))
    else:
        tail_value, pct, beyond = tail(untraced)
        metrics = {
            "wall_s": {"value": statistics.median(untraced), "unit": "s"},
            "wall_s_tail": {"value": tail_value, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print(f"wall_s_tail is p{pct:.1f} of {len(untraced)} passes, {beyond} beyond it")
    for key, m in metrics.items():
        print(f"metric {key} = {m['value']:.6g} {m['unit']}")
    # in the JSON only as `failed` and `attempted`: it is 0, and a bound relative to 0 is undefined
    print(f"metric fail_frac = {failed / len(passes):.4g} ratio")

    if out_path:
        record = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "input": workload.config, "env": env, "setup_s": setup, "passes": passes,
            "sizes": sizes, "metrics": metrics, "absent": absent, "by_level": levels,
        }
        Path(out_path).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": len(passes),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every benchmark workload in its own fresh process."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        try:
            result = json.loads(proc.stdout.strip().split("\n")[-1])
        except (ValueError, IndexError):
            totals["correct"] = False
            worst = max(worst, 1)
            continue
        totals["correct"] &= result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            totals["metrics"][f"{name}.{key}"] = m
    print(json.dumps(totals))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS, *REFERENCE_WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the full record here")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        if not (SRC / "ferrofem" / "__init__.py").is_file():
            raise SetupError(f"no ferrofem sources under {SRC}")
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.out)
    except (SetupError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Terminated:
        print("perfbench: terminated", file=sys.stderr)
        return 128 + signal.SIGTERM


if __name__ == "__main__":
    sys.exit(main())

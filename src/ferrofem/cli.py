"""Batch front end: flat-file configuration, study execution, table emission.

Commands
--------
run    --config FILE [--out-csv PATH] [--out-json PATH]
table  --config FILE            (CSV on stdout)
check  [--seed K]               (property battery, one line per check)

The config format is one ``key = value`` per line with ``#`` comments; an
empty file reproduces the default convergence study (lowest-order pair on
levels 4..128 with unit material parameters).
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
from dataclasses import asdict, dataclass

from . import driver, verify
from .material import MaterialParams

DEFAULT_LEVELS = (4, 8, 16, 32, 64, 128)

CSV_HEADER = "N,h,err_phi_h1,err_H_hcurl,err_M_l2,err_u_h1h,err_p_l2,curl_inf"

_ERROR_COLS = verify.ERROR_COLUMNS


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    pair: str = "l0"
    levels: tuple = DEFAULT_LEVELS
    mu0: float = 1.0
    Ms: float = 1.0
    gamma: float | None = None
    chi0: float | None = None
    rho: float = 1.0
    eta: float = 1.0
    picard_iters: int = 2
    oseen_iters: int = 2

    def material_params(self) -> MaterialParams:
        return MaterialParams(mu0=self.mu0, Ms=self.Ms, gamma=self.gamma, chi0=self.chi0,
                              rho=self.rho, eta=self.eta)


def _parse_levels(text: str):
    try:
        levels = tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"invalid levels {text!r}: {exc}") from exc
    if any(n < 2 for n in levels):
        # N = 1 leaves the potential without a free dof
        raise ConfigError("levels must be at least 2")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigError("levels must be ascending")
    return levels


_PARSERS = {
    "pair": str,
    "levels": _parse_levels,
    "mu0": float,
    "Ms": float,
    "gamma": float,
    "chi0": float,
    "rho": float,
    "eta": float,
    "picard_iters": int,
    "oseen_iters": int,
}


def parse_config(text: str) -> RunConfig:
    """Parse the flat ``key = value`` config format with line-numbered errors."""
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        parser = _PARSERS.get(key)
        if parser is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            setattr(cfg, key, parser(value))
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(
                f"line {lineno}: invalid value {value!r} for {key!r}: {exc}"
            ) from exc
    if cfg.pair not in driver.PAIRS:
        names = " or ".join(map(repr, driver.PAIRS))
        raise ConfigError(f"pair must be {names}, got {cfg.pair!r}")
    for name in ("picard_iters", "oseen_iters"):
        if getattr(cfg, name) < 1:
            raise ConfigError(f"{name} must be >= 1")
    try:
        cfg.material_params()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def format_csv(report: verify.StudyReport, failed_at: int | None = None) -> str:
    """Render the study as the plot-ready CSV table with order footers."""
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for row in report.rows:
        cols = [str(row.n), _fmt(row.h)]
        cols += [_fmt(row.errors[c]) for c in _ERROR_COLS]
        cols.append(f"{row.curl_inf:.3e}")  # 4 significant digits
        out.write(",".join(cols) + "\n")
    if report.orders_lsq:
        # a column without orders leaves its cells empty, as curl_inf does
        pairwise = [report.orders_pairwise[c] for c in _ERROR_COLS]
        pairwise = ["" if pw is None else _fmt(pw[-1]) for pw in pairwise]
        out.write("order_pairwise,," + ",".join(pairwise) + ",\n")
        lsq = ["" if report.orders_lsq[c] is None else _fmt(report.orders_lsq[c])
               for c in _ERROR_COLS]
        out.write("order_lsq,," + ",".join(lsq) + ",\n")
    if failed_at is not None:
        out.write(f"# FAILED at N={failed_at}\n")
    return out.getvalue()


def report_to_json(config: RunConfig, report: verify.StudyReport,
                   failed_at: int | None = None) -> dict:
    doc = {
        "pair": config.pair,
        "levels": [row.n for row in report.rows],
        "params": asdict(config.material_params()),
        "picard_iters": config.picard_iters,
        "oseen_iters": config.oseen_iters,
        "rows": [
            {
                "N": row.n,
                "h": row.h,
                "errors": {c: row.errors[c] for c in _ERROR_COLS},
                "curl_inf": row.curl_inf,
                "diagnostics": row.diagnostics,
                "timings": row.timings,
            }
            for row in report.rows
        ],
        "orders_pairwise": report.orders_pairwise,
        "orders_lsq": report.orders_lsq,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if failed_at is not None:
        doc["failed_at"] = failed_at
    return doc


def _run_study(config: RunConfig):
    """Run the study; returns ``(report, failed_at)``, the level that failed or None."""
    try:
        report = verify.run_convergence_study(
            config.pair,
            list(config.levels),
            params=config.material_params(),
            picard_iters=config.picard_iters,
            oseen_iters=config.oseen_iters,
        )
    except verify.StudyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.report, exc.failed_level
    return report, None


def cmd_run(config: RunConfig, out_csv: str, out_json: str) -> int:
    """Execute the study and write the CSV/JSON reports. Exit 0 on success."""
    report, failed_at = _run_study(config)
    csv_text = format_csv(report, failed_at)
    with open(out_csv, "w") as fh:
        fh.write(csv_text)
    with open(out_json, "w") as fh:
        json.dump(report_to_json(config, report, failed_at), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0 if failed_at is None else 1


def cmd_table(config: RunConfig) -> int:
    """Execute the study and print the CSV table to stdout."""
    report, failed_at = _run_study(config)
    sys.stdout.write(format_csv(report, failed_at))
    return 0 if failed_at is None else 1


def cmd_check(seed: int = 42) -> int:
    """Run the property battery; one PASS/FAIL line per invariant."""
    results = verify.run_property_battery(seed=seed)
    n_fail = 0
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        print(f"{tag} {res.name}: {res.detail}")
        n_fail += not res.passed
    if n_fail:
        first = next(r.name for r in results if not r.passed)
        print(f"{n_fail} properties failed (first: {first})", file=sys.stderr)
        return 1
    print(f"all {len(results)} properties passed")
    return 0


def _load_config(path: str) -> RunConfig:
    if path is None:
        return RunConfig()
    with open(path) as fh:
        return parse_config(fh.read())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ferrofem",
        description="Ferrofluid-flow mixed finite element convergence harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a study and write CSV/JSON reports")
    p_run.add_argument("--config", default=None, help="flat key = value config file")
    p_run.add_argument("--out-csv", default="study.csv")
    p_run.add_argument("--out-json", default="study.json")

    p_table = sub.add_parser("table", help="run a study and print the CSV table")
    p_table.add_argument("--config", default=None)

    p_check = sub.add_parser("check", help="run the property battery")
    p_check.add_argument("--seed", type=int, default=42)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(_load_config(args.config), args.out_csv, args.out_json)
        if args.command == "table":
            return cmd_table(_load_config(args.config))
        if args.command == "check":
            return cmd_check(seed=args.seed)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())

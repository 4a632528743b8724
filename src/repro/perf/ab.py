"""Paired A/B benchmark: the working tree against a git revision.

    python -m repro bench HEAD^                 # every BENCHMARK.json workload
    python -m repro bench main paper-fig12      # one workload

``BASE`` is materialised under ``.perfbench/ab/<sha>/`` with ``git
archive <sha> | tar -x`` (``.git`` and the working tree are never
touched), then each workload runs :data:`PAIRS` pairs of each tree's own
``perfbench/run.py --seed 0 --seconds <run_seconds> --trace 0``, the
base first on even pairs and the change first on odd ones, so host
drift falls on both sides alike.  For every end-to-end metric of
``BENCHMARK.json`` the report gives both medians, the base runs'
interquartile spread, the median per-pair ratio (change / base), the
pairs the change won and one verdict, read from the change's side:

* ``worse``: the change's median is worse than the base's by more than
  the metric's ``bound``;
* ``unresolved``: the base runs' interquartile spread exceeds the bound
  (as a fraction of their median) and not every change run beats every
  base run;
* ``gain``: the change won at least nine tenths of the pairs (ties
  count for neither side) and the medians differ, in its favour, by
  more than the base runs' interquartile spread;
* ``same``: none of these.

The last line of standard output is the table as one JSON object.  Exit
status: 3 on any ``worse`` verdict, 2 when a run fails or reports
``correct: false``, 0 otherwise.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Sequence

#: The checkout this package was imported from: the change's tree.
ROOT = Path(__file__).resolve().parents[3]
#: Pairs per workload: the fewest at which the gain rule (nine tenths
#: of the pairs won) can be met with one pair lost.
PAIRS = 10
SIDES = ("base", "change")

#: ``run(tree, workload)`` -> the JSON object on the last line of one
#: perfbench run in ``tree``.
RunFn = Callable[[Path, str], dict]


class RunFailed(RuntimeError):
    """A perfbench run exited non-zero, did not end with a JSON line, or
    reported ``correct: false``."""


def load_benchmark() -> dict:
    """The change's ``BENCHMARK.json``: its workloads, metrics, bounds,
    command and run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def materialise(rev: str, root: Path = ROOT) -> Path:
    """The tree of commit ``rev`` under ``root/.perfbench/ab/<sha>/``,
    extracted on first use.  The archive is unpacked under a temporary
    name and renamed into place, so an interrupted extraction is never
    reused; ``.git`` and the working tree are only read."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
            cwd=root, check=True, capture_output=True,
            text=True).stdout.strip()
    except subprocess.CalledProcessError:
        raise ValueError(f"unknown revision {rev!r}") from None
    dest = root / ".perfbench" / "ab" / sha
    if dest.is_dir():
        return dest
    dest.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{sha}.", dir=dest.parent))
    try:
        with subprocess.Popen(["git", "archive", sha], cwd=root,
                              stdout=subprocess.PIPE) as archive:
            subprocess.run(["tar", "-x", "-C", str(tmp)],
                           stdin=archive.stdout, check=True)
        if archive.returncode:
            raise subprocess.CalledProcessError(archive.returncode,
                                                ["git", "archive", sha])
        tmp.rename(dest)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return dest


def perfbench_run(tree: Path, workload: str) -> dict:
    """One untraced ``BENCHMARK.json`` run of ``workload`` in ``tree``."""
    bench = load_benchmark()
    command = [*bench["command"], "--workload", workload, "--seed", "0",
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        raise RunFailed(f"exit {proc.returncode}: "
                        f"{proc.stderr.strip()[-400:] or 'no output'}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        raise RunFailed(
            f"last line is not JSON: {lines[-1][:200]!r}") from None


def measure(trees: Dict[str, Path], workloads: Sequence[str],
            run: RunFn) -> Dict[str, Dict[str, List[dict]]]:
    """``{workload: {side: [metrics of pair 0, 1, ...]}}``, each metrics
    dict mapping a name to its value.  Raises :class:`RunFailed` naming
    the workload, side and pair of the first run that failed."""
    runs = {}
    for workload in workloads:
        runs[workload] = {side: [] for side in SIDES}
        for pair in range(PAIRS):
            for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
                where = f"{workload}: {side} run of pair {pair}"
                try:
                    result = run(trees[side], workload)
                except RunFailed as exc:
                    raise RunFailed(f"{where} failed: {exc}") from None
                if result.get("correct") is not True:
                    raise RunFailed(f"{where} reported correct: "
                                    f"{json.dumps(result.get('correct'))}")
                runs[workload][side].append({
                    name: m["value"] for name, m in result["metrics"].items()})
                print(f"  {where}: ok", flush=True)
    return runs


def verdict(base: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> dict:
    """Medians, the base runs' interquartile spread, pairs won, the
    verdict, the per-pair ratios and the runs for one metric;
    ``base[i]`` and ``change[i]`` are pair ``i``'s runs."""
    sign = 1 if better == "higher" else -1
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    q1, _, q3 = statistics.quantiles(base, n=4)
    spread = q3 - q1
    won = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    beats_every_base_run = (min(change) > max(base) if sign > 0
                            else max(change) < min(base))
    if sign * (base_median - change_median) > bound * base_median:
        outcome = "worse"
    elif spread > bound * base_median and not beats_every_base_run:
        outcome = "unresolved"
    elif (10 * won >= 9 * len(base)
          and sign * (change_median - base_median) > spread):
        outcome = "gain"
    else:
        outcome = "same"
    ratios = [c / b for b, c in zip(base, change)]
    return {"base": base_median, "change": change_median, "spread": spread,
            "ratio": statistics.median(ratios), "won": won,
            "pairs": len(base), "verdict": outcome, "ratios": ratios,
            "runs": {"base": list(base), "change": list(change)}}


def tabulate(runs: Dict[str, Dict[str, List[dict]]],
             metrics: List[dict]) -> dict:
    """``{workload: {metric: verdict(...)}}`` over ``BENCHMARK.json``'s
    end-to-end metrics."""
    return {workload: {
        m["name"]: verdict([r[m["name"]] for r in sides["base"]],
                           [r[m["name"]] for r in sides["change"]],
                           m["better"], m["bound"])
        for m in metrics} for workload, sides in runs.items()}


def format_table(table: dict) -> str:
    """One aligned row per workload and metric of :func:`tabulate`."""
    header = (f"{'workload':<14} {'metric':<15} {'base':>11} {'change':>11} "
              f"{'spread':>9} {'ratio':>7} {'won':>6}  verdict")
    lines = [header, "-" * len(header)]
    for workload, rows in table.items():
        for name, row in rows.items():
            lines.append(
                f"{workload:<14} {name:<15} {row['base']:>11.5g} "
                f"{row['change']:>11.5g} {row['spread']:>9.3g} "
                f"{row['ratio']:>7.3f} "
                f"{row['won']:>3}/{row['pairs']:<2}  {row['verdict']}")
    return "\n".join(lines)


def run_ab(trees: Dict[str, Path], workloads: Sequence[str],
           run: RunFn = perfbench_run) -> int:
    """Run the pairs, print the table and its JSON line; returns the
    exit status."""
    try:
        runs = measure(trees, workloads, run)
    except RunFailed as exc:
        print(f"repro bench: {exc}", file=sys.stderr)
        return 2
    table = tabulate(runs, load_benchmark()["end_to_end"])
    print(format_table(table))
    print(json.dumps({"base": trees["base"].name, "pairs": PAIRS,
                      "workloads": table}), flush=True)
    worse = any(row["verdict"] == "worse"
                for rows in table.values() for row in rows.values())
    return 3 if worse else 0


def bench(base: str, workloads: Sequence[str] = ()) -> int:
    """``repro bench BASE [WORKLOAD ...]``; returns the exit status."""
    workloads = (list(workloads)
                 or [w["name"] for w in load_benchmark()["workloads"]])
    try:
        trees = {"base": materialise(base), "change": ROOT}
    except ValueError as exc:
        raise SystemExit(f"repro bench: {exc}")
    print(f"repro bench: {base} ({trees['base'].name[:12]}) vs the working "
          f"tree, {PAIRS} pairs of {', '.join(workloads)}", flush=True)
    return run_ab(trees, workloads)

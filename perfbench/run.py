"""teamdiv benchmark: whole-command wall time, CPU time and peak RSS, plus a
traced run with per-stage timings and counts.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run it from the repository root; the program is imported from ``src/``.

Each workload's corpus is generated from the seed by ``corpusgen`` (never by
``teamdiv.synth``) once, outside every timed span. Then, in a closed loop
with one job at a time, the driver runs the real CLI entry point
``teamdiv.cli.main`` in a fresh process with ``--jobs 1`` as many times as
fit in ``--seconds`` (at least once), checks every run's outputs, and
reports, over the commands of the run:

- ``wall_s``: mean wall time of one command, from spawn to exit;
- ``cpu_s``: mean user plus system CPU seconds of that process;
- ``peak_rss_mb``: median of its maximum resident set size;
- ``setup_s``: median time for a fresh interpreter to import ``teamdiv.cli``,
  sampled before and after the commands.

The host's speed drifts by tens of percent over seconds to minutes, so the
times are averaged over the whole measured span of a run: a median of the
few commands that fit in a run follows one stretch of that drift.

With ``--trace 1`` it also runs ``trace_child.py``, which calls the same
public functions in the same order with a span around each call, and
reports the per-layer metrics instead. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--workload all`` runs every workload traced and prints all
metrics, named ``<workload>:<metric>``.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import corpusgen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

SETUP_REPEATS = 4  # at each end of the loop
COMMAND_TIMEOUT_S = 150
CLI = "import sys; from teamdiv.cli import main; sys.exit(main())"


@dataclass(frozen=True)
class Workload:
    command: str
    spec: corpusgen.WorldSpec
    why: str


# Sizes follow the repository's roadmap (n_authors = 3.5 * n, 400 topics, 40
# expertise clusters), except that the big-team world has half as many
# authors per paper: each author then joins more teams, windows are richer and
# more vectors reach top_k, so the per-pair work outweighs ingest.
WORKLOADS = {
    "analyze-100k": Workload(
        "analyze",
        corpusgen.WorldSpec(n_papers=100_000, n_authors=350_000),
        "north-star size: load, profiles and metrics each take a large share, so a gain "
        "in any one layer shows here, diluted",
    ),
    "analyze-bigteams-20k": Workload(
        "analyze",
        corpusgen.WorldSpec(
            n_papers=20_000, n_authors=35_000, team_sizes={s: 0.2 for s in range(8, 13)}
        ),
        "teams of 8-12 (about 45 pairs per paper): the diversity layer does most of the "
        "work and ingest is small",
    ),
    "validate-dirty-100k": Workload(
        "validate",
        corpusgen.WorldSpec(n_papers=100_000, n_authors=350_000, dirty_every=200),
        "the analyze-100k corpus with planted bad lines: ingest used the way validate uses "
        "it, never reaching expertise or diversity",
    ),
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER = {
    "corpus.load_s": "s",
    "corpus.records": "count",
    "corpus.records_per_s": "1/s",
    "corpus.load_peak_rss_mb": "MB",
    "corpus.select_s": "s",
    "corpus.selected": "count",
    "corpus.validate_s": "s",
    "corpus.problems": "count",
    "expertise.background_s": "s",
    "expertise.profiles_s": "s",
    "expertise.profiles": "count",
    "expertise.profiles_empty": "count",
    "expertise.profiles_truncated": "count",
    "expertise.window_papers": "count",
    "expertise.profiles_peak_rss_mb": "MB",
    "diversity.metrics_s": "s",
    "diversity.pairs": "count",
    "diversity.pairs_per_s": "1/s",
    "diversity.max_zero": "count",
    "diversity.max_one": "count",
    "diversity.max_interior": "count",
    "diversity.max_none": "count",
    "diversity.excluded_authors": "count",
    "diversity.cat_low": "count",
    "diversity.cat_moderate": "count",
    "diversity.cat_high": "count",
    "diversity.cat_very_high": "count",
    "diversity.metrics_peak_rss_mb": "MB",
    "report.aggregate_s": "s",
    "report.render_s": "s",
    "report.output_bytes": "bytes",
    "runtime.gc_s": "s",
    "runtime.gc_collections": "count",
    "trace.overhead_s": "s",
}

class RunFailed(Exception):
    """One operation of the benchmark produced a wrong or missing result."""


# What reading a missing or malformed output raises.
MALFORMED = (OSError, ValueError, IndexError, KeyError, AttributeError)


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def spawn(args: list[str], log: Path, timeout: int = COMMAND_TIMEOUT_S):
    """Run a process to completion; return (exit code, wall s, cpu s, peak RSS MB).

    Standard output and error go to `log`. The process is killed if it
    outlives `timeout` or if this process is interrupted.
    """
    env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{HERE}")
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(log), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(timeout)
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        signal.alarm(0)
    except BaseException as exc:
        signal.alarm(0)
        with contextlib.suppress(ProcessLookupError, ChildProcessError):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if isinstance(exc, _Timeout):
            raise RunFailed(f"{args[:2]} did not finish within {timeout} s") from None
        raise
    finally:
        signal.signal(signal.SIGALRM, previous)
    return (
        os.waitstatus_to_exitcode(status),
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024,
    )


def tree_digest(out_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        digest.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))[1:]


def check_analyze(out_dir: Path, planted: corpusgen.Planted) -> dict:
    """Check the rendered report against what the generator planted."""
    report = (out_dir / "report.md").read_text(encoding="utf-8")
    if f"Papers analysed: {planted.analysis_size}\n" not in report:
        raise RunFailed(f"report.md does not show {planted.analysis_size} papers analysed")
    section = report.split("## Citation buckets", 1)[1].split("\n## ", 1)[0]
    shown = [int(m) for m in re.findall(r"^\| [A-Z]+ \| [^|]+ \| [^|]* \| (\d+) \|$", section, re.M)]
    if shown != planted.bucket_counts:
        raise RunFailed(f"report.md bucket counts {shown} != planted {planted.bucket_counts}")
    counts = [int(row[3]) for row in _csv_rows(out_dir / "tables" / "table1.csv")]
    if counts != planted.bucket_counts:
        raise RunFailed(f"table1 bucket counts {counts} != planted {planted.bucket_counts}")
    rows = _csv_rows(out_dir / "tables" / "table2.csv")
    zeros = [int(row[1]) for row in rows]
    ones = [int(row[2]) for row in rows]
    # every paper of a recurring group has max distance exactly 0
    if any(z < g for z, g in zip(zeros, planted.group_bucket_counts)):
        raise RunFailed(f"table2 exact-0 counts {zeros} below planted group papers "
                        f"{planted.group_bucket_counts}")
    interior = int(re.search(r"interior values: (\d+)", report).group(1))
    coverage = {
        "max_zero": sum(zeros),
        "max_one": sum(ones),
        "max_interior": interior,
        "max_none": planted.analysis_size - sum(zeros) - sum(ones) - interior,
    }
    rows = _csv_rows(out_dir / "tables" / "table3.csv")
    for i, category in enumerate(("low", "moderate", "high", "very_high")):
        coverage[f"cat_{category}"] = sum(int(row[1 + i]) for row in rows)
    return {"digest": tree_digest(out_dir), "coverage": coverage}


PROBLEM = re.compile(r"record (\d+): (.*)")


def check_validate(log: Path, planted: corpusgen.Planted) -> dict:
    """The reported problems must be exactly the planted bad lines, with their reasons."""
    lines = log.read_text(encoding="utf-8").splitlines()
    reported = {}
    for line in lines:
        match = PROBLEM.match(line)
        if match:
            reported[int(match.group(1))] = match.group(2)
    if set(reported) != set(planted.bad_lines):
        missing = sorted(set(planted.bad_lines) - set(reported))[:5]
        extra = sorted(set(reported) - set(planted.bad_lines))[:5]
        raise RunFailed(f"problem lines differ: missing {missing}, unexpected {extra}")
    reasons = dict(corpusgen.BAD_KINDS)
    for lineno, kind in planted.bad_lines.items():
        if reasons[kind] not in reported[lineno]:
            raise RunFailed(f"line {lineno}: expected {reasons[kind]!r}, got {reported[lineno]!r}")
    if not lines or lines[-1] != f"{len(planted.bad_lines)} problem(s) found":
        raise RunFailed("missing or wrong problem total")
    return {"digest": hashlib.sha256("\n".join(lines).encode()).hexdigest(), "coverage": {}}


def run_command(workload: Workload, corpus: Path, work: Path, planted, index: int):
    out_dir = work / f"out-{index}"
    log = work / f"cli-{index}.log"
    args = ["-c", CLI, workload.command, str(corpus)]
    if workload.command == "analyze":
        args += ["--output", str(out_dir), "--jobs", "1"]
    code, wall, cpu, rss = spawn(args, log)
    expected = 0 if workload.command == "analyze" else 1
    if code != expected:
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise RunFailed(f"exit code {code}, expected {expected}:\n{tail}")
    try:
        if workload.command == "analyze":
            result = check_analyze(out_dir, planted)
        else:
            result = check_validate(log, planted)
    except MALFORMED as exc:
        raise RunFailed(f"missing or malformed output: {exc!r}") from None
    shutil.rmtree(out_dir, ignore_errors=True)
    log.unlink()
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss, **result}


def measure_setup(work: Path) -> list[float]:
    log = work / "setup.log"
    args = ["-c", "import teamdiv.cli"]
    code = spawn(args, log)[0]  # warm-up; also leaves compiled bytecode behind
    if code != 0:
        raise RunFailed("cannot import teamdiv.cli:\n" + log.read_text(errors="replace")[-2000:])
    return [spawn(args, log)[1] for _ in range(SETUP_REPEATS)]


def run_traced(workload: Workload, corpus: Path, work: Path, planted, seed: int,
               wall_mean: float, setup_s: float, digest: str | None) -> tuple[dict, dict]:
    out_dir = work / "out-traced"
    result_path = work / "trace.json"
    log = work / "trace.log"
    code = spawn([str(HERE / "trace_child.py"), workload.command, str(corpus), str(out_dir),
                  str(result_path), str(seed)], log)[0]
    if code != 0:
        raise RunFailed("traced run failed:\n" + log.read_text(errors="replace")[-3000:])
    trace = json.loads(result_path.read_text(encoding="utf-8"))
    counts = trace["counts"]
    metrics = {name: 0 for name in PER_LAYER}
    metrics.update({k: v for k, v in counts.items() if k in PER_LAYER})
    # each span fills the metric named after it, with an "_s" suffix
    for span in trace["spans"]:
        metrics[f"{span['name']}_s"] += span["end"] - span["start"]
    if metrics["corpus.load_s"]:
        metrics["corpus.records_per_s"] = metrics["corpus.records"] / metrics["corpus.load_s"]
    if metrics["diversity.metrics_s"]:
        metrics["diversity.pairs_per_s"] = metrics["diversity.pairs"] / metrics["diversity.metrics_s"]
    stage_total = sum(s["end"] - s["start"] for s in trace["spans"] if s["parent"] is None)
    metrics["trace.overhead_s"] = stage_total + setup_s - wall_mean
    details = {"spans": trace["spans"], "stage_total": stage_total, "oracle": counts.get("oracle")}
    if workload.command == "analyze":
        oracle = counts["oracle"]
        if oracle["mismatches"]:
            raise RunFailed("spot oracle mismatches: " + "; ".join(oracle["mismatches"][:10]))
        traced_digest = check_analyze(out_dir, planted)["digest"]
        if digest is not None and traced_digest != digest:
            raise RunFailed("traced output tree differs from the untraced one")
    elif metrics["corpus.problems"] != len(planted.bad_lines):
        raise RunFailed(f"traced validate found {metrics['corpus.problems']} problems, "
                        f"planted {len(planted.bad_lines)}")
    return metrics, details


def environment(seed: int) -> dict:
    sha, dirty = "unknown (not a git checkout)", None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
        status = subprocess.run(git + ["status", "--porcelain"], capture_output=True, text=True).stdout
        dirty = bool(status.strip())
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    attempted = failed = 0
    runs: list[dict] = []
    try:
        corpus = work / "corpus.jsonl"
        start = time.perf_counter()
        planted = corpusgen.generate(workload.spec, seed, corpus)
        print(f"[{name}] corpus: {planted.lines} lines, {planted.records} records, "
              f"{planted.analysis_size} planted analysis papers, {len(planted.bad_lines)} planted "
              f"bad lines; built in {time.perf_counter() - start:.1f} s")
        setup = measure_setup(work)
        # Closed loop, one command at a time: the first always runs, and each
        # further one only if it should end within `seconds`, judging by the last.
        start = time.perf_counter()
        last = 0.0
        while attempted == 0 or time.perf_counter() - start + last <= seconds:
            attempted += 1
            began = time.perf_counter()
            try:
                runs.append(run_command(workload, corpus, work, planted, attempted))
            except RunFailed as exc:
                failed += 1
                print(f"[{name}] run {attempted} FAILED: {exc}")
            last = time.perf_counter() - began
        setup_s = statistics.median(setup + measure_setup(work))
        digests = {r["digest"] for r in runs}
        if len(digests) > 1:
            print(f"[{name}] FAILED: output digests differ across runs: {sorted(digests)}")
            failed, runs = attempted, []
        metrics = {}
        if runs:
            for key in ("wall_s", "cpu_s"):
                metrics[key] = statistics.fmean(r[key] for r in runs)
            metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in runs)
            print(f"[{name}] output digest sha256:{runs[0]['digest']}")
            if runs[0]["coverage"]:
                print(f"[{name}] coverage: " + json.dumps(runs[0]["coverage"], sort_keys=True))
        metrics["setup_s"] = setup_s
        for r in runs:
            print(f"[{name}] command: wall {r['wall_s']:.3f} s, cpu {r['cpu_s']:.3f} s, "
                  f"peak RSS {r['peak_rss_mb']:.1f} MB")
        layer = {}
        if trace:
            attempted += 1
            try:
                if not runs:
                    raise RunFailed("no successful untraced run to compare against")
                layer, details = run_traced(workload, corpus, work, planted, seed,
                                            metrics["wall_s"], setup_s, runs[0]["digest"])
                report_trace(name, layer, details, metrics["wall_s"])
            except (RunFailed, *MALFORMED) as exc:
                failed += 1
                print(f"[{name}] traced run FAILED: {exc!r}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    return {"attempted": attempted, "failed": failed, "end_to_end": metrics, "per_layer": layer}


def report_trace(name: str, layer: dict, details: dict, wall_mean: float) -> None:
    for span in details["spans"]:
        indent = "  " if span["parent"] else ""
        print(f"[{name}] span {indent}{span['name']}: {span['end'] - span['start']:.3f} s")
    total = details["stage_total"]
    for span in details["spans"]:
        if span["parent"] is None:
            print(f"[{name}] share of stage total {total:.3f} s: {span['name']} "
                  f"{100 * (span['end'] - span['start']) / total:.1f}%")
    overhead = layer["trace.overhead_s"]
    print(f"[{name}] trace overhead {overhead:.3f} s = {100 * overhead / wall_mean:.2f}% "
          f"of the untraced mean wall_s {wall_mean:.3f} s")
    coverage = {k: layer[k] for k in PER_LAYER
                if k.startswith(("diversity.max_", "diversity.cat_"))
                or k in ("expertise.profiles_empty", "expertise.profiles_truncated")}
    print(f"[{name}] coverage: " + json.dumps(coverage))
    if details["oracle"]:
        print(f"[{name}] spot oracle: " + json.dumps(details["oracle"]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "teamdiv" / "cli.py").is_file():
        print(f"error: {SRC / 'teamdiv' / 'cli.py'} not found; run from a teamdiv checkout",
              file=sys.stderr)
        return 2
    print("env: " + json.dumps(environment(args.seed)))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = args.trace == 1 or args.workload == "all"
    attempted = failed = 0
    metrics = {}
    for name in names:
        print(f"[{name}] {WORKLOADS[name].why}")
        result = run_workload(name, args.seed, args.seconds, trace)
        attempted += result["attempted"]
        failed += result["failed"]
        units = {**END_TO_END, **PER_LAYER}
        shown = {**result["end_to_end"], **result["per_layer"]}
        for key, value in shown.items():
            print(f"[{name}] {key} = {value:.6g} {units[key]}")
        chosen = shown if args.workload == "all" else (
            result["per_layer"] if trace else result["end_to_end"])
        prefix = f"{name}:" if args.workload == "all" else ""
        metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in chosen.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line driver: validate, analyze, synth, tables-check.

Flag values override the values of a --config or --params file, which override
the defaults.
Exit codes: 0 success, 1 analysis or check failure, 2 I/O or usage error, or
a forked worker that died (such as by a signal) before it sent its results.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from .corpus import (
    AnalysisConfig,
    CorpusValidationError,
    load_corpus,
    validate_jsonl,
    write_corpus_jsonl,
)
from .diversity import write_metrics_csv
from .expertise import write_profiles
from .reference import run_reference_checks
from .report import ALL_FORMATS, EmptyAnalysisSetError, _corr_text, render, run_analysis

OUTPUT_ENV_VAR = "TEAMDIV_OUTPUT"

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_IO = 2


def _default_output() -> str:
    return os.environ.get(OUTPUT_ENV_VAR, "teamdiv-out")


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON config file mirroring the analysis settings")
    parser.add_argument("--output", metavar="DIR", default=None,
                        help=f"output directory (default: ${OUTPUT_ENV_VAR} or ./teamdiv-out)")
    parser.add_argument("--format", default="all",
                        help="comma-separated render formats: csv,markdown,svg (default: all)")
    parser.add_argument("--lenient", action="store_true",
                        help="skip and count invalid lines instead of aborting on the first")
    parser.add_argument("--jobs", type=int, choices=[1],
                        help="accepted and ignored: analyze picks its own worker count; accepts "
                             "only 1, kept so that existing scripts passing --jobs 1 still run")


def _add_config_overrides(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--window-years", type=int, default=None)
    parser.add_argument("--top-k", type=int, default=None)
    parser.add_argument("--edge-threshold", type=float, default=None)
    parser.add_argument("--year-range", type=int, nargs=2, default=None, metavar=("START", "END"))
    parser.add_argument("--min-citations", type=int, default=None)
    parser.add_argument("--min-authors", type=int, default=None)
    parser.add_argument("--inclusive-threshold", action="store_true", default=None,
                        help="use <= instead of < at the edge threshold")


def _read_json(path: str) -> object:
    """Decode a JSON side file; any failure to read or decode it is a ValueError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


def _read_settings(cls: type, path: str | None, args: argparse.Namespace):
    """Build ``cls`` from its defaults, overlaid by the JSON side file at ``path``,
    overlaid by every flag given whose dest names one of its fields."""
    settings = _read_json(path) if path else {}
    if isinstance(settings, dict):  # from_dict rejects any other JSON value
        names = {f.name for f in fields(cls)}
        settings.update((k, v) for k, v in vars(args).items() if k in names and v is not None)
    return cls.from_dict(settings)


def _parse_formats(value: str) -> tuple[str, ...]:
    if value == "all":
        return ALL_FORMATS
    formats = tuple(part.strip() for part in value.split(",") if part.strip())
    unknown = set(formats) - set(ALL_FORMATS)
    if unknown:
        raise ValueError(f"unknown formats: {sorted(unknown)}")
    if not formats:
        raise ValueError(
            f"--format {value!r} names no format (choose from {','.join(ALL_FORMATS)} or all)"
        )
    return formats


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        problems = validate_jsonl(args.corpus)
    except ChildProcessError:
        raise  # the worker's end, not a read error: main reports it
    except OSError as exc:
        print(f"error: cannot read {args.corpus}: {exc}", file=sys.stderr)
        return EXIT_IO
    if problems:
        for problem in problems:
            print(problem)
        print(f"{len(problems)} problem(s) found")
        return EXIT_FAILURE
    print("corpus is valid")
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    # Nothing the pipeline builds per record forms a reference cycle, so the
    # cyclic collector's passes over the growing corpus would free nothing.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _analyze(args)
    finally:
        if was_enabled:
            gc.enable()


def _analyze(args: argparse.Namespace) -> int:
    try:
        formats = _parse_formats(args.format)
        config = _read_settings(AnalysisConfig, args.config, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        corpus = load_corpus(args.corpus, strict=not args.lenient)
    except OSError as exc:
        print(f"error: cannot read {args.corpus}: {exc}", file=sys.stderr)
        return EXIT_IO
    except CorpusValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    print(f"records skipped: {corpus.skipped}")

    # The profile dump is sorted by (author, year), so scoring keeps every
    # vector it builds in this dict, and so scores in this process; without
    # it, each year's are dropped once scored, and a worker may score some years.
    # An empty selection raises EmptyAnalysisSetError, which main reports.
    profiles = {} if args.dump_profiles else None
    report = run_analysis(corpus, config, profiles=profiles)

    out_dir = Path(args.output or _default_output())
    try:
        render(report, out_dir, formats=formats)
        if args.dump_profiles:
            write_profiles(args.dump_profiles, profiles)
        if args.dump_metrics:
            write_metrics_csv(args.dump_metrics, report.metrics)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO

    nonempty = sum(1 for s in report.buckets if s.n_papers > 0)
    print(f"papers analysed: {len(report.metrics)} across {nonempty} buckets")
    print(f"ratio vs median correlation: {_corr_text(report.ratio_correlation)}")
    significant_adjacent = sum(1 for t in report.adjacent_tests if t.result.significant)
    print(
        f"adjacent-bucket chi-square: {significant_adjacent}/{len(report.adjacent_tests)} "
        f"significant at p < 0.05"
    )
    for warning in report.warnings:
        print(f"warning: {warning}")
    print(f"report written to {out_dir}")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    # Imported here so that numpy, which only generation uses, loads for synth alone.
    from .synth import SynthParams, generate_corpus, write_params

    try:
        params = _read_settings(SynthParams, args.params, args)
        papers = generate_corpus(params)
    except ValueError as exc:  # a bad params value, more clusters than authors, or a value numpy rejects
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    out_dir = Path(args.output or _default_output())
    corpus_path = out_dir / "corpus.jsonl"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_corpus_jsonl(papers, corpus_path)
        write_params(params, out_dir / "params.json")
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {len(papers)} records ({params.n_papers} analysis papers) to {corpus_path}")
    return EXIT_OK


def cmd_tables_check(args: argparse.Namespace) -> int:
    checks = run_reference_checks()
    failures = 0
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: {check.detail}")
        if not check.passed:
            failures += 1
    if failures:
        print(f"{failures}/{len(checks)} checks failed")
        return EXIT_FAILURE
    print(f"all {len(checks)} checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teamdiv",
        description="Team expertise-diversity metrics and their association with citations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a JSONL corpus against the schema")
    p_validate.add_argument("corpus", help="path to a JSONL corpus")
    p_validate.set_defaults(func=cmd_validate)

    p_analyze = sub.add_parser("analyze", help="run the full analysis and write a report")
    p_analyze.add_argument("corpus", help="path to a JSONL corpus")
    _add_common_flags(p_analyze)
    _add_config_overrides(p_analyze)
    p_analyze.add_argument("--dump-profiles", metavar="PATH", default=None,
                           help="also write author expertise profiles as JSONL")
    p_analyze.add_argument("--dump-metrics", metavar="PATH", default=None,
                           help="also write per-paper metrics as CSV")
    p_analyze.set_defaults(func=cmd_analyze)

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus")
    p_synth.add_argument("--params", metavar="PATH", help="JSON file of generation parameters")
    p_synth.add_argument("--seed", type=int, default=None)
    p_synth.add_argument("--papers", dest="n_papers", metavar="PAPERS", type=int, default=None,
                         help="number of analysis papers")
    p_synth.add_argument("--authors", dest="n_authors", metavar="AUTHORS", type=int, default=None)
    p_synth.add_argument("--topics", dest="n_topics", metavar="TOPICS", type=int, default=None)
    p_synth.add_argument("--clusters", dest="n_expertise_clusters", metavar="CLUSTERS", type=int,
                         default=None, help="number of expertise clusters")
    p_synth.add_argument("--mix", dest="cluster_mix", metavar="MIX", type=float, default=None,
                         help="probability an author publishes outside their home cluster")
    p_synth.add_argument("--coupling", type=float, default=None,
                         help="diversity-citation coupling in [-1, 1]")
    p_synth.add_argument("--citation-noise", type=float, default=None,
                         help="negative-binomial dispersion of citation counts")
    p_synth.add_argument("--output", metavar="DIR", default=None)
    p_synth.set_defaults(func=cmd_synth)

    p_check = sub.add_parser("tables-check", help="replay the embedded reference-table checks")
    p_check.set_defaults(func=cmd_tables_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EmptyAnalysisSetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except ChildProcessError as exc:  # from fork.in_two_processes
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

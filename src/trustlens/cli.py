"""Command-line surface: run sweeps, assess a candidate against a CSV log,
and normalize auction-style datasets into the log format.

Exit codes: 0 success, 2 usage/config/parse error, 3 insufficient knowledge.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from pathlib import Path

from . import engine, lda, sim
from .core import Transaction, read_log_csv
from .errors import ConfigError, InsufficientKnowledge, TrustlensError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INSUFFICIENT = 3

SEED_ENV_VAR = "TRUSTLENS_SEED"
MAX_RANGE_STEPS = 10_000  # bound on (stop - start) / step of a range flag


def _parse_values(text: str, name: str) -> list[float]:
    """Comma list (`0.2,0.4`) or inclusive range (`0.1:0.9:0.1`)."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"{name} range must be start:stop:step, got {text!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise ConfigError(f"{name} range has non-numeric parts: {text!r}") from None
        if not all(math.isfinite(x) for x in (start, stop, step)):
            raise ConfigError(f"{name} range start, stop and step must be finite, got {text!r}")
        if step <= 0:
            raise ConfigError(f"{name} range step must be positive, got {step}")
        steps = (stop - start) / step
        if not steps < MAX_RANGE_STEPS:
            raise ConfigError(f"{name} range spans {MAX_RANGE_STEPS} steps or more: {text!r}")
        count = int(round(steps))
        values = [round(start + k * step, 9) for k in range(count + 1)]
        values = [v for v in values if v <= stop + 1e-9]
    else:
        try:
            values = [float(p) for p in text.split(",") if p.strip() != ""]
        except ValueError:
            raise ConfigError(f"{name} list has non-numeric parts: {text!r}") from None
    if not values:
        raise ConfigError(f"{name} produced no values from {text!r}")
    return values


def _check_unit_interval(values: list[float], name: str) -> None:
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise ConfigError(f"{name} out of [0,1]: {v}")


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trustlens",
        description="Transaction trust assessment and synthetic experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser(
        "simulate",
        help="sweep the separability/malicious-fraction grid and write a results CSV",
        description=(
            "Value flags accept comma lists (0.2,0.4) or start:stop:step ranges "
            "(0.1:0.9:0.1, inclusive)."
        ),
    )
    p_sim.add_argument("--theta", default="0.2,0.4,0.6,0.8", help="separability values")
    p_sim.add_argument("--pm", default="0.1:0.9:0.1", help="malicious-fraction values")
    p_sim.add_argument(
        "--models",
        default=",".join(sim.DEFAULT_MODELS),
        help=f"comma list from {', '.join(sim.MODELS)}",
    )
    p_sim.add_argument("--seed", type=int, default=None, help=f"base seed (falls back to ${SEED_ENV_VAR}, then 0)")
    p_sim.add_argument("--out", required=True, help="results CSV path")
    p_sim.add_argument("--agents", type=int, default=200, help="population size per run")
    p_sim.add_argument("--transactions", type=int, default=1000, help="evaluated rounds per run")
    p_sim.add_argument("--repeats", type=int, default=10, help="seeded repeats per cell")
    p_sim.add_argument("--warmup", type=int, default=10, help="logged transactions per agent before evaluation")
    p_sim.add_argument("--providers", type=int, default=60, help="knowledge-provider list size")
    p_sim.add_argument("--fanout", type=int, default=None, help="providers queried per request (default: all)")
    p_sim.add_argument("--quiet", action="store_true", help="skip the summary table")
    p_sim.set_defaults(func=cmd_simulate)

    p_assess = sub.add_parser("assess", help="assess one candidate transaction against a CSV log")
    p_assess.add_argument("--log", required=True, help="transaction log CSV")
    p_assess.add_argument("--candidate", required=True, help="comma list of candidate feature values")
    p_assess.add_argument("--context", required=True, help="candidate context tag")
    p_assess.add_argument("--counterparty", default="unknown", help="candidate counterparty id")
    p_assess.add_argument(
        "--min-class", type=int, default=lda.DEFAULT_MIN_CLASS_COUNT, help="per-class history threshold"
    )
    p_assess.set_defaults(func=cmd_assess)

    p_ingest = sub.add_parser(
        "ingest",
        help="normalize an auction-style CSV into the transaction-log format",
        description=(
            "--map is a comma list of source-column assignments, e.g. "
            "id=tid,counterparty=seller,context=category,outcome=feedback,"
            "features=price,features=sold. Repeat features= once per feature "
            "column, in order."
        ),
    )
    p_ingest.add_argument("--in", dest="input", required=True, help="source CSV")
    p_ingest.add_argument("--out", required=True, help="normalized log CSV")
    p_ingest.add_argument("--map", dest="mapping", required=True, help="column mapping")
    p_ingest.set_defaults(func=cmd_ingest)

    return parser


def _check_output_path(path: str) -> None:
    """Reject an output file that cannot be created, before any work is done."""
    out = Path(path)
    if out.is_dir():
        raise ConfigError(f"output path {path!r} is a directory")
    if not out.parent.is_dir():
        raise ConfigError(f"output directory {str(out.parent)!r} does not exist")


def cmd_simulate(args: argparse.Namespace) -> int:
    thetas = _parse_values(args.theta, "theta")
    pms = _parse_values(args.pm, "pm")
    _check_unit_interval(thetas, "theta")
    _check_unit_interval(pms, "pm")
    models = [m.strip() for m in args.models.split(",") if m.strip()]
    seed = args.seed if args.seed is not None else _default_seed()

    base = sim.SimConfig(
        n_agents=args.agents,
        n_transactions=args.transactions,
        seed=seed,
        warmup=args.warmup,
        provider_list_size=args.providers,
        request_fanout=args.fanout,
    )
    base.validate()
    _check_output_path(args.out)
    rows = sim.sweep(base, thetas, pms, models=models, repeats=args.repeats)
    sim.write_results_csv(rows, args.out)

    if not args.quiet:
        print(f"{'model':<10} {'theta':>6} {'p_m':>5} {'fp':>9} {'fn':>9} {'overall':>9}")
        for row in rows:
            print(
                f"{row.model:<10} {row.theta:>6.2f} {row.p_m:>5.2f} "
                f"{row.fp_rate:>9.4f} {row.fn_rate:>9.4f} {row.overall:>9.4f}"
            )
        print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_assess(args: argparse.Namespace) -> int:
    try:
        features = tuple(float(x) for x in args.candidate.split(","))
    except ValueError:
        raise ConfigError(f"candidate features must be numeric: {args.candidate!r}") from None
    if not all(math.isfinite(x) for x in features):
        raise ConfigError("candidate features must be finite")
    if args.min_class < 1:
        raise ConfigError("--min-class must be >= 1")
    log = read_log_csv(args.log, context=args.context)

    candidate = Transaction("candidate", args.counterparty, args.context, features, None)
    try:
        assessment = engine.assess(log, candidate, min_class_count=args.min_class)
    except InsufficientKnowledge as exc:
        print(f"insufficient knowledge: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT

    for prediction in assessment.predictions:
        print(
            f"{prediction.algorithm}: {prediction.label.name.lower()} "
            f"(confidence={prediction.confidence:.4f})"
        )
    chosen = assessment.chosen
    n_s, n_u = assessment.class_counts
    print(
        f"chosen: {chosen.algorithm} -> {chosen.label.name.lower()} "
        f"(confidence={chosen.confidence:.4f}; source={assessment.knowledge_source}; "
        f"history {n_s} successful / {n_u} unsuccessful)"
    )
    return EXIT_OK


def _parse_mapping(text: str) -> dict:
    mapping: dict[str, object] = {"features": []}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"--map entries must be key=column, got {part!r}")
        key, column = part.split("=", 1)
        key, column = key.strip(), column.strip()
        if key == "features":
            mapping["features"].append(column)
        elif key in ("id", "counterparty", "context", "outcome"):
            mapping[key] = column
        else:
            raise ConfigError(f"unknown --map key {key!r}")
    for required in ("id", "counterparty", "context", "outcome"):
        if required not in mapping:
            raise ConfigError(f"--map is missing {required}=<column>")
    if not mapping["features"]:
        raise ConfigError("--map needs at least one features=<column> entry")
    return mapping


_POSITIVE_OUTCOMES = {"1", "true", "positive", "pos", "success", "successful", "s", "yes"}
_NEGATIVE_OUTCOMES = {"0", "false", "negative", "neg", "failure", "unsuccessful", "u", "no", "-1"}


def cmd_ingest(args: argparse.Namespace) -> int:
    mapping = _parse_mapping(args.mapping)
    feature_columns: list[str] = mapping["features"]
    in_path = Path(args.input)
    _check_output_path(args.out)

    try:
        with in_path.open(newline="", encoding="utf-8-sig") as fh:  # a leading BOM is dropped
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise ConfigError(f"{in_path} has no header row")
            missing = [
                column
                for column in [mapping["id"], mapping["counterparty"], mapping["context"], mapping["outcome"]]
                + feature_columns
                if column not in reader.fieldnames
            ]
            if missing:
                raise ConfigError(
                    f"unmappable schema: column(s) {', '.join(repr(c) for c in missing)} "
                    f"not found in header (row 1)"
                )

            kept_rows: list[list[str]] = []
            dropped = 0
            outcome_counts = {"successful": 0, "unsuccessful": 0}
            context_counts: dict[str, int] = {}
            seen_ids: set[str] = set()
            total = 0
            for row in reader:
                total += 1
                outcome_text = (row[mapping["outcome"]] or "").strip().lower()
                if outcome_text in _POSITIVE_OUTCOMES:
                    outcome = "1"
                elif outcome_text in _NEGATIVE_OUTCOMES:
                    outcome = "0"
                else:
                    dropped += 1
                    continue
                features = []
                valid = True
                for column in feature_columns:
                    cell = (row[column] or "").strip()
                    try:
                        value = float(cell)
                    except ValueError:
                        valid = False
                        break
                    if not math.isfinite(value):
                        valid = False
                        break
                    features.append(repr(value))
                if not valid:
                    dropped += 1
                    continue
                tid = (row[mapping["id"]] or "").strip()
                if not tid or tid in seen_ids:
                    dropped += 1
                    continue
                seen_ids.add(tid)
                context = (row[mapping["context"]] or "").strip()
                counterparty = (row[mapping["counterparty"]] or "").strip()
                key = "successful" if outcome == "1" else "unsuccessful"
                outcome_counts[key] += 1
                context_counts[context] = context_counts.get(context, 0) + 1
                kept_rows.append([tid, counterparty, context, outcome] + features)
    except csv.Error as exc:  # e.g. an oversized field; DictReader's own line_num lags
        raise ConfigError(f"{in_path} line {reader.reader.line_num}: unreadable CSV: {exc}") from None

    with Path(args.out).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["id", "counterparty", "context", "outcome"]
            + [f"f{i}" for i in range(1, len(feature_columns) + 1)]
        )
        writer.writerows(kept_rows)

    kept = len(kept_rows)
    print(f"rows read:    {total}")
    print(f"rows kept:    {kept}")
    print(f"rows dropped: {dropped} (unparseable outcome, non-finite/missing features, or bad id)")
    if kept:
        pct_s = 100.0 * outcome_counts["successful"] / kept
        pct_u = 100.0 * outcome_counts["unsuccessful"] / kept
        print(
            f"outcomes: successful {outcome_counts['successful']} ({pct_s:.1f}%), "
            f"unsuccessful {outcome_counts['unsuccessful']} ({pct_u:.1f}%)"
        )
        contexts = ", ".join(f"{k}={v}" for k, v in sorted(context_counts.items()))
        print(f"contexts: {contexts}")
    print(f"wrote {kept} rows to {args.out}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TrustlensError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())

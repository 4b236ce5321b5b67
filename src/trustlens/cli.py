"""Command-line surface: run sweeps, assess a candidate against a CSV log,
and normalize auction-style datasets into the log format.

Exit codes: 0 success, 2 usage/config/parse error, 3 insufficient knowledge.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from pathlib import Path

from . import engine, lda, sim
from .core import Transaction, index_path, log_writer, read_log_csv, write_indexed_log
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


def _utf8_argument(value: str, flag: str) -> str:
    """``value`` as UTF-8, if it holds the surrogate escapes of bytes the locale could not decode."""
    try:
        return os.fsencode(value).decode("utf-8") if any("\udc80" <= c <= "\udcff" for c in value) else value
    except UnicodeDecodeError:
        raise ConfigError(f"{flag} is not UTF-8 text: {value!r}") from None


# command -> (help, description, its arguments as (flag, add_argument keywords))
_COMMANDS = {
    "simulate": (
        "sweep the separability/malicious-fraction grid and write a results CSV",
        "Value flags accept comma lists (0.2,0.4) or start:stop:step ranges (0.1:0.9:0.1, inclusive).",
        (
            ("--theta", dict(default="0.2,0.4,0.6,0.8", help="separability values")),
            ("--pm", dict(default="0.1:0.9:0.1", help="malicious-fraction values")),
            ("--models", dict(default=",".join(sim.DEFAULT_MODELS), help=f"comma list from {', '.join(sim.MODELS)}")),
            ("--seed", dict(type=int, help=f"base seed (falls back to ${SEED_ENV_VAR}, then 0)")),
            ("--out", dict(required=True, help="results CSV path")),
            ("--agents", dict(type=int, default=200, help="population size per run")),
            ("--transactions", dict(type=int, default=1000, help="evaluated rounds per run")),
            ("--repeats", dict(type=int, default=10, help="seeded repeats per cell")),
            ("--warmup", dict(type=int, default=10, help="logged transactions per agent before evaluation")),
            ("--providers", dict(type=int, default=60, help="knowledge-provider list size")),
            ("--fanout", dict(type=int, help="providers queried per request (default: all)")),
            ("--quiet", dict(action="store_true", help="skip the summary table")),
        ),
    ),
    "assess": (
        "assess one candidate transaction against a CSV log",
        None,
        (
            ("--log", dict(required=True, help="transaction log CSV")),
            ("--candidate", dict(required=True, help="comma list of candidate feature values")),
            ("--context", dict(required=True, help="candidate context tag")),
            ("--counterparty", dict(default="unknown", help="candidate counterparty id")),
            ("--min-class", dict(type=int, default=lda.DEFAULT_MIN_CLASS_COUNT, help="per-class history threshold")),
        ),
    ),
    "ingest": (
        "normalize an auction-style CSV into the transaction-log format",
        "--map is a comma list of source-column assignments, e.g. "
        "id=tid,counterparty=seller,context=category,outcome=feedback,"
        "features=price,features=sold. Repeat features= once per feature column, in order.",
        (
            ("--in", dict(dest="input", required=True, help="source CSV")),
            ("--out", dict(required=True, help="normalized log CSV")),
            ("--map", dict(dest="mapping", required=True, help="column mapping")),
        ),
    ),
}


def _add_command(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """``parser`` with command ``name``'s arguments; its ``cmd_*`` is looked up now, so a wrapper put there runs."""
    for flag, keywords in _COMMANDS[name][2]:
        parser.add_argument(flag, **keywords)
    parser.set_defaults(command=name, func=globals()[f"cmd_{name}"])
    return parser


def _build_parser() -> argparse.ArgumentParser:
    """The whole tree: every command as a subparser."""
    description = "Transaction trust assessment and synthetic experiments."
    parser = argparse.ArgumentParser(prog="trustlens", description=description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, description, _) in _COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_text, description=description), name)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """What ``_build_parser().parse_args(argv)`` gives, building only the
    parser of the command ``argv`` names, when it names one."""
    if not argv or argv[0] not in _COMMANDS:
        return _build_parser().parse_args(argv)
    name = argv[0]
    parser = argparse.ArgumentParser(prog=f"trustlens {name}", description=_COMMANDS[name][1])
    args, extras = _add_command(parser, name).parse_known_args(argv[1:])
    if extras:  # reported by the whole tree, as its parse_args does
        _build_parser().error(f"unrecognized arguments: {' '.join(extras)}")
    return args


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
    context = _utf8_argument(args.context, "--context")
    counterparty = _utf8_argument(args.counterparty, "--counterparty")
    log = read_log_csv(args.log, context=context)

    candidate = Transaction("candidate", counterparty, context, features, None)
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
    mapping = _parse_mapping(_utf8_argument(args.mapping, "--map"))
    feature_columns: list[str] = mapping["features"]
    in_path = Path(args.input)
    _check_output_path(args.out)
    _check_output_path(str(index_path(args.out)))

    try:
        with in_path.open(newline="", encoding="utf-8-sig") as fh:  # a leading BOM is dropped
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ConfigError(f"{in_path} has no header row")
            index = {name: i for i, name in enumerate(header)}  # a repeated name: its last column
            columns = [mapping[key] for key in ("id", "counterparty", "context", "outcome")] + feature_columns
            missing = [column for column in columns if column not in index]
            if missing:
                raise ConfigError(
                    f"unmappable schema: column(s) {', '.join(repr(c) for c in missing)} "
                    f"not found in header (row 1)"
                )
            i_id, i_counterparty, i_context, i_outcome, *feature_indices = (index[c] for c in columns)

            lines: list[str] = []  # the log's header, then its records, each checked
            writerow = log_writer(lines, len(feature_columns))
            dropped = 0
            n_successful = 0
            contexts: dict[str, list[int]] = {}  # context -> its records' positions in lines
            seen_ids: set[str] = set()
            for row in reader:
                if not row:
                    continue
                if len(row) < len(header):  # a short row's missing cells read as empty
                    row += [""] * (len(header) - len(row))
                outcome_text = row[i_outcome].strip().lower()
                if outcome_text in _POSITIVE_OUTCOMES:
                    outcome = "1"
                elif outcome_text in _NEGATIVE_OUTCOMES:
                    outcome = "0"
                else:
                    dropped += 1
                    continue
                features = []
                valid = True
                for i in feature_indices:
                    try:
                        value = float(row[i].strip())
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
                tid = row[i_id].strip()
                if not tid or tid in seen_ids:
                    dropped += 1
                    continue
                seen_ids.add(tid)
                context = row[i_context].strip()
                counterparty = row[i_counterparty].strip()
                n_successful += outcome == "1"
                contexts.setdefault(context, []).append(len(lines))
                writerow([tid, counterparty, context, outcome] + features)
    except csv.Error as exc:  # e.g. an oversized field
        raise ConfigError(f"{in_path} line {reader.line_num}: unreadable CSV: {exc}") from None

    write_indexed_log(args.out, lines, contexts)

    kept = len(lines) - 1
    print(f"rows read:    {kept + dropped}")
    print(f"rows kept:    {kept}")
    print(f"rows dropped: {dropped} (unparseable outcome, non-finite/missing features, or bad id)")
    if kept:
        n_unsuccessful = kept - n_successful
        print(
            f"outcomes: successful {n_successful} ({100.0 * n_successful / kept:.1f}%), "
            f"unsuccessful {n_unsuccessful} ({100.0 * n_unsuccessful / kept:.1f}%)"
        )
        summary = ", ".join(f"{k}={len(v)}" for k, v in sorted(contexts.items()))
        print(f"contexts: {summary}")
    print(f"wrote {kept} rows to {args.out}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    if isinstance(sys.stdout, io.TextIOWrapper):  # a context an ASCII locale cannot print is escaped
        sys.stdout.reconfigure(errors="backslashreplace")
    try:
        return args.func(args)
    except (TrustlensError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())

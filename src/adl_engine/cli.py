"""Command-line front door: `adl-engine <subcommand> --config <path> ...`.

The engine is one ordered table of stages, `STAGES`: ingest, recognize,
affect, cluster, train, recommend, evaluate.  A stage reads its inputs from
the invocation's value store and returns its one-line summary with one
writer per artifact it names; the stage loop in `main` writes each artifact
into the configured output directory before the next stage runs, then
drops each store value that no later stage of the run reads.
`pipeline` runs every stage on one store, so each value passes to later
stages in memory.  A stage subcommand runs its one entry; an input that no
stage of the run made is loaded from the previous stage's file in the
output directory, or from the file its flag names.  Outputs carry no
timestamps or machine state: identical inputs and config produce
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from contextlib import contextmanager
from functools import partial
from operator import attrgetter, countOf, ne
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple, Sequence, TextIO

from . import affect as affect_mod
from . import definitions as defs_mod
from . import evaluation as eval_mod
from . import ingestion as ingest_mod
from . import recognition as recog_mod
from . import recommender as recom_mod
from . import temporal as temporal_mod
from . import InputError
from .config import PARAMS, ConfigError, RunConfig, load_config, with_overrides
from .tables import FieldLookup, Memo, csv_field, read_csv_columns, timed_heads, write_table

_timed_of = attrgetter("activity", "start", "end")
_activity_of, _completed_of, _emotion_of = map(
    attrgetter, ("activity", "completed", "emotion")
)

# an input at fault; any other exception is a bug and keeps its traceback
_RECOVERABLE = (InputError, OSError)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _log(level: str, message: str, traceback: bool = False) -> None:
    """Write ``LEVEL adl_engine: message`` to stderr when ``ADL_ENGINE_LOG`` is
    ``level`` (``info`` or ``debug``, in any case) or, for an ``info`` line,
    ``debug``; any other value writes nothing.  With ``traceback`` the
    exception being handled follows on the next lines.
    """
    chosen = os.environ.get("ADL_ENGINE_LOG", "").lower()
    if chosen != level and chosen != "debug":
        return
    if traceback:
        from traceback import format_exc  # only a failed run's debug line needs it

        message += "\n" + format_exc().removesuffix("\n")
    print(f"{level.upper()} adl_engine: {message}", file=sys.stderr)


@contextmanager
def _open_write(path: Path) -> Iterator[TextIO]:
    """A text stream whose content replaces ``path`` when the block completes.

    It writes to a temporary file beside ``path``, which ``os.replace`` then
    moves over ``path``; when the block raises, the temporary file is removed
    and ``path`` keeps its previous content.  The directory of ``path`` is
    made here, so a run that fails before its first artifact leaves none.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_name(f".{path.name}.tmp")
    try:
        with open(temporary, "w", newline="") as stream:
            yield stream
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def _parse_file(path: str | Path, parse: Callable[[TextIO], Any]) -> Any:
    """`parse` applied to the opened file; a ValueError it raises is an
    InputError naming the file."""
    try:
        with open(path) as stream:
            return parse(stream)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Value store and input loaders
# ---------------------------------------------------------------------------

class Store(dict):
    """Values of one invocation, by name; a missing input is loaded on first use.

    ``later`` names the values that a later stage of the run, or the summary
    line of `pipeline`, reads.
    """

    __slots__ = ("config", "args", "out", "later")

    def __init__(self, config: RunConfig, args: argparse.Namespace) -> None:
        super().__init__()
        self.config = config
        self.args = args
        self.out = Path(config.out_dir)
        self.later: set[str] = set()

    def __missing__(self, key: str) -> Any:
        source = _INPUTS[key]
        given = source.option and getattr(self.args, source.option, None)
        default = source.default and self.out / source.default
        value = self[key] = source.read(self, Path(given) if given else default)
        return value


def _read_definitions(
    store: Store, _path: None
) -> dict[str, defs_mod.ComplexActivityDefinition]:
    """The definitions of every configured file, which must break no catalogue rule."""
    if not store.config.definitions:
        raise ConfigError("config key 'definitions': at least one file is required")
    return defs_mod.load_definitions(*store.config.definitions)


def _read_records(store: Store, path: Path) -> list[ingest_mod.OccurrenceRecord]:
    """Saved occurrences, each naming a defined activity and only ids it defines."""
    defs = store["defs"]
    return _parse_file(path, lambda stream: ingest_mod.read_occurrences(stream, defs))


def _read_verdicts(store: Store, path: Path) -> list[recog_mod.ScoredOccurrence]:
    """Saved verdicts, which must pair up with the occurrences row for row."""
    verdicts = _parse_file(path, recog_mod.read_verdicts)
    records = store["records"]
    if len(verdicts) != len(records) or any(
        map(ne, map(_timed_of, verdicts), map(_timed_of, records))
    ):
        raise InputError(
            f"{path}: rows do not match the occurrences row for row; re-run recognize"
        )
    return verdicts


def _read_annotations(store: Store, path: Path) -> list[affect_mod.AffectAnnotation]:
    """Saved annotations, each of which must name a defined activity."""
    defs = store["defs"]
    return _parse_file(path, lambda stream: affect_mod.read_annotated(stream, defs))


def _read_model(store: Store, path: Path) -> recom_mod.RecommenderModel:
    """A saved model, each of whose activities must be defined."""
    model = _parse_file(path, recom_mod.read_model)
    defs = store["defs"]
    for name in model.activities:
        if name not in defs:
            raise InputError(f"{path}: model activity {name!r} is not defined")
    return model


def _read_features(
    store: Store, path: Path
) -> list[tuple[str, recom_mod.FeatureVector]]:
    """Feature rows, each with its true next activity ("" when unknown).

    Columns are read by name; ``previous_activity`` and ``activity`` may be
    absent.  A row's fields are checked in order: the time bucket, emotion,
    ux and day kind, then that the bucket is not negative and is one of the
    model's `time_buckets`, then that the previous activity (none when empty
    or ``none``) and the true activity (when not empty) name defined
    activities.
    """
    model = store["model"]
    names = {name: name for name in store["defs"]}
    previous_of = {**names, "": None, recom_mod.NO_PREVIOUS: None}
    true_of = FieldLookup({**names, "": ""}, "unknown true activity")

    def vector(key: tuple[str, ...]) -> recom_mod.FeatureVector:
        bucket, previous_text, emotion_text, ux_text, day_text = key
        previous_name = previous_text.strip()
        features = recom_mod.FeatureVector(  # checks the bucket is not negative
            int(bucket), previous_of.get(previous_name),
            affect_mod.parse_emotion(emotion_text.strip()),
            affect_mod.parse_ux(ux_text.strip()),
            recom_mod.parse_day_kind(day_text.strip()),
        )
        if features.time_bucket >= model.time_buckets:
            raise ValueError(
                f"time_bucket must be < {model.time_buckets} for the model's "
                f"bucket_width {model.bucket_width}, got {features.time_bucket}"
            )
        if previous_name not in previous_of:
            raise ValueError(f"unknown previous activity {previous_name!r}")
        return features

    # rows repeat few distinct feature texts, so each is parsed, and its
    # vector built, once
    vectors = Memo(vector)

    def columns(
        time_bucket: Sequence[str], emotion: Sequence[str], ux: Sequence[str],
        day_kind: Sequence[str], previous: Sequence[str], activity: Sequence[str],
    ) -> list[tuple[str, recom_mod.FeatureVector]]:
        features = list(map(
            vectors.__getitem__, zip(time_bucket, previous, emotion, ux, day_kind)
        ))
        return list(zip(map(true_of.__getitem__, map(str.strip, activity)), features))

    return _parse_file(path, lambda stream: read_csv_columns(
        stream, ("time_bucket", "emotion", "ux", "day_kind"),
        ("previous_activity", "activity"), columns,
    ))


def _read_predictions(store: Store, path: Path) -> list[tuple[str, str]]:
    """(predicted, true) activity pairs from a predictions CSV, its
    ``activity`` and ``prediction`` columns read by name.

    The true label must be present, then name a defined activity, and so
    must the predicted one.
    """
    names = {name: name for name in store["defs"]}
    true_of = FieldLookup(names, "unknown true activity")
    predicted_of = FieldLookup(names, "unknown predicted activity")

    def columns(
        activity: Sequence[str], prediction: Sequence[str]
    ) -> list[tuple[str, str]]:
        true_labels = list(map(str.strip, activity))
        if not all(true_labels):
            raise ValueError("missing true activity label")
        true_labels = list(map(true_of.__getitem__, true_labels))
        return list(zip(map(predicted_of.__getitem__, map(str.strip, prediction)),
                        true_labels))

    return _parse_file(path, lambda stream: read_csv_columns(
        stream, ("activity", "prediction"), (), columns,
    ))


class _Input(NamedTuple):
    """How a stage input is loaded when no earlier stage of the run made it."""

    read: Callable[[Store, Path | None], Any]
    default: str | None = None  # file name in the output directory
    option: str | None = None  # --<option> names the file instead
    help: str = ""  # of --<option>; the parser appends ``default``


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

StageResult = tuple[str, list[Callable[[TextIO], None]]]  # line, a writer per artifact


def _ingest(store: Store) -> StageResult:
    config = store.config
    defs = store["defs"]
    if not config.datasets:
        raise ConfigError("config key 'datasets': at least one entry is required")
    per_file: list[list[ingest_mod.OccurrenceRecord]] = []
    for spec in config.datasets:
        if spec.kind == "power-trace":
            activity = config.channel_map.get(spec.channel)
            if activity not in defs:
                raise ConfigError(
                    f"config key 'channel_map': channel {spec.channel!r} "
                    + ("has no activity mapping" if activity is None
                       else f"maps to undefined activity {activity!r}")
                )
            defn = defs[activity]
            records = _parse_file(
                spec.path,
                lambda stream: ingest_mod.trace_occurrences(
                    ingest_mod.power_trace_blocks(stream, spec.channel, config.on_watts),
                    defn, config.gap_tolerance,
                ),
            )
        else:
            records = _parse_file(
                spec.path, lambda stream: ingest_mod.parse_adl_log(stream, defs)
            )
        _log("info", f"ingested {len(records)} occurrences from {spec.path}")
        per_file.append(records)
    records = store["records"] = ingest_mod.merge_sorted(per_file)
    # when later stages write the same rows, their heads are formatted once
    heads = store["heads"] = timed_heads(records) if "heads" in store.later else None
    return (f"wrote {len(records)} occurrences to {{path}}",
            [partial(ingest_mod.write_occurrences, records, heads=heads)])


def _recognize(store: Store) -> StageResult:
    verdicts = store["verdicts"] = recog_mod.score_occurrences(
        store["defs"], store["records"], store.config.lam
    )
    completed = countOf(map(_completed_of, verdicts), True)
    return (f"wrote {len(verdicts)} verdicts ({completed} completed) to {{path}}",
            [partial(recog_mod.write_verdicts, verdicts, heads=store["heads"])])


def _affect(store: Store) -> StageResult:
    config = store.config
    # every record names a defined activity: its loader or its parser checked
    records = store["records"]
    items = zip(
        map(store["defs"].__getitem__, map(_activity_of, records)), records, store["verdicts"]
    )
    # no UX labels exist to learn from, so UX follows the sign of the emotion
    ux_model = affect_mod.UXModel(
        window=config.window, epsilon=config.epsilon, bucket_width=config.bucket_width
    )
    annotations = store["annotations"] = affect_mod.annotate(items, ux_model)
    positive = countOf(map(_emotion_of, annotations), affect_mod.EmotionLabel.POSITIVE)
    return (f"wrote {len(annotations)} annotations ({positive} positive) to {{path}}",
            [partial(affect_mod.write_annotated, annotations, heads=store["heads"])])


def _cluster(store: Store) -> StageResult:
    rows = temporal_mod.cluster_report(store["records"])
    return (f"wrote {len(rows)} cluster rows to {{path}}",
            [partial(temporal_mod.write_clusters, rows)])


def _train(store: Store) -> StageResult:
    """Fit on the training split; the held-out split feeds `recommend`."""
    config = store.config
    transitions = recom_mod.extract_transitions(
        store["annotations"], config.bucket_width
    )
    train_part, test_part = eval_mod.split_chronological(
        transitions, config.train_fraction
    )
    if not transitions:
        raise InputError("train needs at least one transition")
    if not (train_part and test_part):
        raise ConfigError(
            f"config key 'train_fraction': {config.train_fraction!r} splits "
            f"{len(transitions)} transitions into {len(train_part)} for training "
            f"and {len(test_part)} held out; each part needs at least one"
        )
    model = store["model"] = recom_mod.train(
        train_part,
        alpha=config.alpha,
        bucket_width=config.bucket_width,
        activities=list(store["defs"]),
    )
    store["features"] = [(label, features) for features, label in test_part]
    return (f"trained on {len(train_part)} of {len(transitions)} transitions, "
            "wrote {path}", [partial(recom_mod.write_model, model)])


def _recommend(store: Store) -> StageResult:
    model = store["model"]

    def predict(features: recom_mod.FeatureVector) -> tuple[str, str]:
        vector = recom_mod.predict_confidences(model, features)
        predicted = recom_mod.recommend(vector)
        return predicted, ",".join([
            csv_field(predicted), *[repr(vector[name]) for name in model.activities],
        ]) + "\n"

    # feature rows repeat few distinct vectors, so each is predicted, and its
    # prediction and confidences formatted, once
    memo = Memo(predict)
    rows = store["features"]
    known = [memo[features] for _, features in rows]
    pairs = [(predicted, label) for (label, _), (predicted, _) in zip(rows, known)]
    header = ["activity", "prediction"] + [
        f"confidence({name})" for name in model.activities
    ]
    lines = (f"{csv_field(label)},{tail}" for (label, _), (_, tail) in zip(rows, known))
    store["predictions"] = pairs
    return (f"wrote {len(pairs)} predictions to {{path}}",
            [partial(write_table, header=header, lines=lines)])


def _evaluate(store: Store) -> StageResult:
    labels = tuple(sorted(store["defs"]))
    if not store["predictions"]:  # read from a file that holds no rows
        raise InputError("no predictions to evaluate")
    cm = eval_mod.build_confusion(store["predictions"], labels)
    report = eval_mod.build_report(cm)
    return (
        f"accuracy: {report.accuracy * 100:.2f}% over {report.grand_total} pairs",
        [partial(eval_mod.write_confusion, cm),
         partial(eval_mod.write_report_csv, report),
         partial(eval_mod.write_report_json, report)],
    )


class Stage(NamedTuple):
    """One pipeline step: the store values it reads, the artifacts it makes,
    and what it does.  `run` returns the summary line, whose ``{path}`` the
    loop in `main` fills with the first artifact's path, and one writer per
    artifact; it looks writers up on their modules when it runs, so a writer
    replaced there after import is the one called."""

    name: str
    help: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    run: Callable[[Store], StageResult]


STAGES = (
    Stage("ingest", "parse datasets into occurrence records", ("defs",),
          ("occurrences.csv",), _ingest),
    Stage("recognize", "score occurrences against their definitions",
          ("defs", "records", "heads"), ("verdicts.csv",), _recognize),
    Stage("affect", "attach emotion and UX labels to occurrences",
          ("defs", "records", "verdicts", "heads"), ("annotated.csv",), _affect),
    Stage("cluster", "lay out occurrences on the day clock", ("records",),
          ("clusters.csv",), _cluster),
    Stage("train", "fit the next-activity model on the training split",
          ("defs", "annotations"), ("model.json",), _train),
    Stage("recommend", "predict confidence vectors for feature rows",
          ("model", "features"), ("predictions.csv",), _recommend),
    Stage("evaluate", "score saved predictions into a metrics report",
          ("defs", "predictions"), ("confusion.csv", "report.csv", "report.json"),
          _evaluate),
)


# the store values the summary line of `pipeline` reads after the last stage
_SUMMARY_INPUTS = ("records", "model", "features")

# each stage's first artifact, which a later stage subcommand reads back
_FILE_OF = {stage.name: stage.outputs[0] for stage in STAGES}
_INPUTS = {
    "defs": _Input(_read_definitions),
    "records": _Input(
        _read_records, _FILE_OF["ingest"], "occurrences", "occurrence CSV"
    ),
    "verdicts": _Input(_read_verdicts, _FILE_OF["recognize"]),
    "heads": _Input(lambda store, path: None),  # each writer formats its own
    "annotations": _Input(
        _read_annotations, _FILE_OF["affect"], "annotated", "annotated CSV"
    ),
    "model": _Input(_read_model, _FILE_OF["train"], "model", "model JSON"),
    "features": _Input(
        _read_features, None, "features",
        "feature rows CSV "
        "(time_bucket,[previous_activity,]emotion,ux,day_kind[,activity])",
    ),
    "predictions": _Input(
        _read_predictions, _FILE_OF["recommend"], "predictions", "predictions CSV"
    ),
}


# ---------------------------------------------------------------------------
# validate: the one subcommand outside the stage table
# ---------------------------------------------------------------------------

def _cmd_validate(config: RunConfig | None, args: argparse.Namespace) -> int:
    paths = tuple(args.files) if args.files else (config.definitions if config else ())
    if not paths:
        print("error: no definition files given (positional or via --config)",
              file=sys.stderr)
        return 2
    # the rules the stages apply, through the same function
    passed, faults, total = defs_mod.check_definitions(paths)
    for fault in faults:
        print(f"FAIL {fault}")
    print(f"{len(passed)} of {total} definitions passed")
    return 2 if faults else 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adl-engine",
        description=(
            "Activity recognition, affect inference, and next-activity "
            "recommendation over smart-home event data."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags every subcommand takes, declared once
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to the JSON run configuration")
    for param in PARAMS:
        common.add_argument(param.flag, type=param.type, dest=param.name, help=param.help)

    p_validate = sub.add_parser("validate", help="check definition files", parents=[common])
    p_validate.add_argument("files", nargs="*", help="definition JSON files")

    for stage in STAGES:
        p = sub.add_parser(stage.name, help=stage.help, parents=[common])
        for key in stage.inputs:
            source = _INPUTS[key]
            if source.option:
                default = f" (default: <out>/{source.default})" if source.default else ""
                p.add_argument(f"--{source.option}", required=source.default is None,
                               help=source.help + default)
    sub.add_parser("pipeline", help="run every stage end to end", parents=[common])

    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig | None:
    if args.config is None:
        return None
    overrides = {p.name: getattr(args, p.name) for p in PARAMS}
    return with_overrides(load_config(args.config), **overrides)


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; returns its exit code.

    It runs with the cyclic garbage collector off: the stages' per-row
    values hold no reference cycles, so its passes would find nothing to
    free.  The collector is switched back on afterwards if it was on before.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        config = _resolve_config(args)
        if args.command == "validate":
            return _cmd_validate(config, args)
        if config is None:
            parser.error(f"{args.command} requires --config")
        store = Store(config, args)
        run = [stage for stage in STAGES if args.command in (stage.name, "pipeline")]
        for i, stage in enumerate(run):
            store.later = {key for after in run[i + 1:] for key in after.inputs}
            if args.command == "pipeline":
                store.later.update(_SUMMARY_INPUTS)
            line, writers = stage.run(store)
            paths = [store.out / name for name in stage.outputs]
            for path, write in zip(paths, writers):
                with _open_write(path) as stream:
                    write(stream)
            print(line.format(path=paths[0]))
            writers = write = None  # the next stage runs without these values
            for key in store.keys() - store.later:  # nor those no later stage reads
                del store[key]
        if args.command == "pipeline":
            trained = store["model"].n_transitions
            tested = len(store["features"])
            print(
                f"pipeline: {len(store['records'])} occurrences, "
                f"{trained + tested} transitions ({trained} train / {tested} test)"
            )
    except _RECOVERABLE as exc:
        _log("debug", "command failed", traceback=True)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()
    return 0


if __name__ == "__main__":
    sys.exit(main())

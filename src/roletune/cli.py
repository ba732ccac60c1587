"""Command-line pipeline: synthesize corpora, train adapters, evaluate, chat.

One executable, five subcommands:

- data-synth: write a synthetic dialogue corpus from a recipe file
- train: fit role adapters on a corpus in one of the three modes
- eval: score a trained checkpoint against a test corpus
- chat-sim: run an interactive or self-play chat and save the transcript
- compare: train midi and concat from one init and tabulate their per-round
  consistency side by side with the gold reference

Every run writes a manifest (resolved config, seed, input hashes) before any
work starts and fills in output hashes when it finishes, so any result can be
re-derived from its manifest alone. Config files, recipes and manifests are
read by one schema, the config dataclasses' own fields, which refuses unknown
keys, mistyped values and non-finite numbers. Exit codes: 0 success, 1
runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import platform
import sys
from dataclasses import fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    ByteTokenizer,
    DialogueSample,
    SynthSpec,
    default_synth_spec,
    load_corpus,
    save_corpus,
    synth_generate,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import CapacityError, CheckpointError, ConfigError, CorpusError
from .evaluate import evaluate_corpus, gold_curve
from .generate import GenerationConfig, extend_memory, generate_response, prime_memory, self_chat
from .metrics import ConsistencyOracle
from .model import ModelConfig, RoleAdapters, Transformer
from .training import TrainConfig, train

logger = logging.getLogger("roletune")

USAGE_ERROR = 2
RUNTIME_ERROR = 1


# ---------------------------------------------------------------------------
# small deterministic-output helpers
# ---------------------------------------------------------------------------

def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_json(path: Path, obj) -> None:
    """Byte-stable JSON: sorted keys, fixed layout, trailing newline."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, sort_keys=True, indent=2)
        f.write("\n")


def write_rows(path: Path, header: list[str], rows: list[list]) -> None:
    """Tiny deterministic CSV writer (no quoting needs arise here)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(str(c) for c in row) + "\n")


def fmt(x: float) -> str:
    return f"{x:.6f}"


# ---------------------------------------------------------------------------
# run manifests
# ---------------------------------------------------------------------------

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    """What a run's numbers depend on besides its inputs, under the names the
    benchmark reports them: the Python and numpy versions, the BLAS numpy
    was built against, the BLAS thread variables as set (None when unset),
    and the CPUs present and usable."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
        "cpu_count": os.cpu_count(),
        "cpus_usable": (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                        else os.cpu_count()),
    }


class RunManifest:
    """Everything needed to reproduce a run: resolved configuration, seed,
    input files with content hashes, the environment it ran in, and (once
    finished) output hashes."""

    def __init__(self, command: str, seed: int, mode, config: dict,
                 inputs: dict[str, Path], out_dir: Path,
                 filename: str = "manifest.json"):
        self.data = {
            "version": __version__,
            "command": command,
            "seed": seed,
            "mode": mode,
            "config": config,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "finished_utc": None,
            "environment": environment(),
            "inputs": {
                name: {"path": str(p), "sha256": sha256_file(p)}
                for name, p in inputs.items()
            },
            "outputs": {},
        }
        self.path = out_dir / filename
        write_json(self.path, self.data)  # before any work begins

    def finish(self, outputs: dict[str, Path]) -> None:
        self.data["outputs"] = {
            name: {"path": str(p), "sha256": sha256_file(p)}
            for name, p in outputs.items()
        }
        self.data["finished_utc"] = datetime.now(timezone.utc).isoformat()
        write_json(self.path, self.data)


def load_manifest(path: Path) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            manifest = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read manifest {path}: {e}") from e
    if not isinstance(manifest, dict):
        raise ConfigError(f"manifest {path} must hold a JSON object")
    return manifest


# ---------------------------------------------------------------------------
# configuration resolution: defaults < config file < explicit flags
#
# Every config a run builds from JSON (config file sections, a corpus recipe,
# a compare manifest's config sections) goes through the config class's own
# `from_dict`, whose schema is the dataclass fields (`config.Config`): an
# unknown key, a mistyped or non-finite value, or an out-of-range one exits 1
# with an error naming the file, the section and the key. A flag given sets
# the field of its name in each section that has one.
# ---------------------------------------------------------------------------

def load_config_file(path: Path) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    sections = {}
    for name in ("train", "model", "generation"):
        section = raw.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"config file {path}: section {name!r} must be a JSON object")
        sections[name] = dict(section)
    for key, value in raw.items():
        if key not in sections:  # other top-level keys mirror TrainConfig fields
            sections["train"].setdefault(key, value)
    return sections


CONFIG_SECTIONS = (("train", TrainConfig), ("model", ModelConfig),
                   ("generation", GenerationConfig))


def resolve_configs(args) -> dict:
    """Merge config file and flags into one resolved snapshot; flags win."""
    sections = {"train": {}, "model": {}, "generation": {}}
    where = "flags"
    if getattr(args, "config", None):
        sections = load_config_file(Path(args.config))
        where = f"config file {args.config}"
    for name, cls in CONFIG_SECTIONS:
        for field in fields(cls):
            value = getattr(args, field.name, None)
            if value is not None:
                sections[name][field.name] = value
    cfgs = {name: cls.from_dict(sections[name], f"{where}: section {name!r}")
            for name, cls in CONFIG_SECTIONS}
    cfgs["snapshot"] = {name: cfgs[name].to_dict() for name, _ in CONFIG_SECTIONS}
    return cfgs


def load_spec_file(path: Path | None, with_targets: bool) -> SynthSpec:
    if path is None:
        return default_synth_spec(with_targets=with_targets)
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read corpus spec {path}: {e}") from e
    return SynthSpec.from_dict(raw, f"corpus spec {path}")


def resolve_oracle(arg: str | None) -> ConsistencyOracle | None:
    """--oracle accepts 'default' or a corpus-recipe JSON path."""
    if arg is None:
        return None
    if arg == "default":
        return ConsistencyOracle(default_synth_spec())
    return ConsistencyOracle(load_spec_file(Path(arg), with_targets=False))


def require_file(path: Path, what: str) -> None:
    if not path.is_file():
        raise UsageError(f"{what} not found: {path}")


class UsageError(Exception):
    """Bad arguments or missing input files (exit code 2)."""


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_data_synth(args) -> int:
    out = Path(args.out)
    spec = load_spec_file(Path(args.spec_file) if args.spec_file else None,
                          args.with_targets)
    if args.n == 0:
        logger.warning("n=0 requested: writing an empty corpus to %s", out)
    inputs = {"spec_file": Path(args.spec_file)} if args.spec_file else {}
    manifest = RunManifest("data-synth", args.seed, None,
                           {"n": args.n, "corpus_spec": spec.to_dict()},
                           inputs, out.parent,
                           filename=f"{out.name}.manifest.json")
    samples = synth_generate(args.seed, args.n, spec)
    save_corpus(samples, out)
    manifest.finish({"corpus": out})
    logger.info("wrote %d dialogues to %s", len(samples), out)
    return 0


def train_artifacts(samples: list[DialogueSample], cfgs: dict, out_dir: Path,
                    mode: str | None = None) -> dict[str, Path]:
    """Train one leg and write checkpoint + loss log under out_dir."""
    train_cfg = cfgs["train"] if mode is None else replace(cfgs["train"], mode=mode)
    result = train(samples, train_cfg, model_config=cfgs["model"])
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt = out_dir / "checkpoint.rtck"
    save_checkpoint(ckpt, result.model, result.adapters,
                    extra={"mode": train_cfg.mode, "seed": train_cfg.seed,
                           "train_config": train_cfg.to_dict()})
    log_path = out_dir / "loss_log.jsonl"
    with open(log_path, "w", encoding="utf-8") as f:
        for record in result.loss_log:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    return {"checkpoint": ckpt, "loss_log": log_path}


def cmd_train(args) -> int:
    corpus = Path(args.corpus)
    require_file(corpus, "corpus")
    out_dir = Path(args.out)
    cfgs = resolve_configs(args)
    manifest = RunManifest("train", cfgs["train"].seed, cfgs["train"].mode,
                           cfgs["snapshot"], {"corpus": corpus}, out_dir)
    samples = load_corpus(corpus)
    outputs = train_artifacts(samples, cfgs, out_dir)
    manifest.finish(outputs)
    logger.info("trained %s on %d dialogues -> %s",
                cfgs["train"].mode, len(samples), outputs["checkpoint"])
    return 0


def curve_rows(curves: dict[str, list[float]]) -> list[list]:
    """Long-form plot table: one row per (round, mode), rounds 1-based."""
    rows = []
    for mode in curves:
        for t, score in enumerate(curves[mode]):
            rows.append([t + 1, fmt(score), mode])
    return rows


def cmd_eval(args) -> int:
    ckpt_path = Path(args.checkpoint)
    corpus = Path(args.corpus)
    require_file(ckpt_path, "checkpoint")
    require_file(corpus, "test corpus")
    out_dir = Path(args.out)
    cfgs = resolve_configs(args)
    oracle = resolve_oracle(args.oracle)
    manifest = RunManifest("eval", cfgs["generation"].seed, None,
                           {**cfgs["snapshot"], "oracle": args.oracle},
                           {"checkpoint": ckpt_path, "corpus": corpus}, out_dir)
    model, adapters, extra = load_checkpoint(ckpt_path)
    samples = load_corpus(corpus)
    max_rounds = cfgs["train"].max_rounds
    result = evaluate_corpus(model, adapters, samples, cfgs["generation"],
                             oracle=oracle, max_rounds=max_rounds)
    report_path = out_dir / "report.json"
    write_json(report_path, result.report.to_dict())
    outputs = {"report": report_path}
    if oracle is not None:
        mode = extra.get("mode", "model")
        curves = {mode: result.report.consistency,
                  "gold": gold_curve(samples, oracle,
                                     max_rounds=max_rounds)[0].tolist()}
        curve_path = out_dir / "curve.csv"
        write_rows(curve_path, ["round", "score", "mode"], curve_rows(curves))
        outputs["curve"] = curve_path
    manifest.finish(outputs)
    logger.info("evaluated %d dialogues -> %s", len(samples), report_path)
    return 0


def merged_adapters(agent_ckpt, user_ckpt):
    """Agent deltas from one checkpoint, user deltas from another, over the
    agent checkpoint's base. Requires matching shapes, hyperparameters, regime."""
    model, adapters, extra = load_checkpoint(agent_ckpt)
    if user_ckpt is None:
        return model, adapters, extra
    user_model, user_adapters, _ = load_checkpoint(user_ckpt)
    if user_model.config != model.config:
        raise CheckpointError(
            f"user checkpoint model config {user_model.config.to_dict()} does not "
            f"match agent checkpoint {model.config.to_dict()}")
    if (user_adapters.rank, user_adapters.alpha) != (adapters.rank, adapters.alpha):
        raise CheckpointError("user checkpoint adapter rank/alpha do not match agent checkpoint")
    if user_adapters.regime != adapters.regime:
        raise ConfigError(f"user checkpoint was trained under {user_adapters.regime}, "
                          f"agent checkpoint under {adapters.regime}")
    adapters.deltas["user"] = user_adapters.deltas["user"]
    return model, adapters, extra


def cmd_chat_sim(args) -> int:
    agent_ckpt = Path(args.agent_ckpt)
    require_file(agent_ckpt, "agent checkpoint")
    out = Path(args.out)
    cfgs = resolve_configs(args)
    gen_cfg = cfgs["generation"]
    user_source = args.user
    user_ckpt = None
    if user_source not in (None, "stdin"):
        user_ckpt = Path(user_source)
        require_file(user_ckpt, "user checkpoint")
    inputs = {"agent_checkpoint": agent_ckpt}
    if user_ckpt is not None:
        inputs["user_checkpoint"] = user_ckpt
    manifest = RunManifest(
        "chat-sim", gen_cfg.seed, None,
        {**cfgs["snapshot"], "instruction": args.instruction,
         "rounds": args.rounds, "user": user_source or "self"},
        inputs, out.parent, filename=f"{out.name}.manifest.json")

    exhausted = False
    model, adapters, _ = merged_adapters(agent_ckpt, user_ckpt)
    tokenizer = ByteTokenizer()
    if user_source == "stdin":
        rounds: list[tuple[str, str]] = []
        try:
            memory = prime_memory(model, adapters, tokenizer, args.instruction, [])
            for _ in range(args.rounds):
                try:
                    user_text = input("user> ")
                except EOFError:
                    logger.warning("stdin closed after %d rounds", len(rounds))
                    break
                memory = extend_memory(model, adapters, tokenizer, memory,
                                       "user", user_text)
                reply, memory = generate_response(model, adapters, tokenizer,
                                                  memory, "agent", gen_cfg)
                print(f"agent> {reply.text}")
                rounds.append((user_text, reply.text))
                if reply.exhausted:
                    exhausted = True
                    break
        except CapacityError as e:
            logger.error("context capacity exhausted: %s", e)
            exhausted = True
        sample = DialogueSample(args.instruction, rounds, None)
    else:
        sample, exhausted = self_chat(model, adapters, tokenizer,
                                      args.instruction, args.rounds, gen_cfg)
    save_corpus([sample], out)
    manifest.finish({"transcript": out})
    if exhausted:
        logger.error("chat stopped early at %d/%d rounds (context capacity); "
                     "partial transcript written to %s",
                     len(sample.rounds), args.rounds, out)
        return RUNTIME_ERROR
    logger.info("wrote %d-round transcript to %s", len(sample.rounds), out)
    return 0


def cmd_compare(args) -> int:
    if args.from_manifest:
        previous = load_manifest(Path(args.from_manifest))
        if previous.get("command") != "compare":
            raise ConfigError(f"{args.from_manifest} is not a compare manifest")
        where = f"manifest {args.from_manifest}"
        inputs, snap = previous.get("inputs"), previous.get("config")
        oracle_arg = previous.get("oracle_arg", "default")
        if not (isinstance(inputs, dict) and "corpus" in inputs and isinstance(snap, dict)
                and isinstance(oracle_arg, str)):
            raise ConfigError(f"{where}: needs an 'inputs' object with a 'corpus' entry, "
                              f"a 'config' object and a string 'oracle_arg'")
        cfgs = {name: cls.from_dict(snap.get(name), f"{where}: config section {name!r}")
                for name, cls in CONFIG_SECTIONS}
        cfgs["snapshot"] = snap
        for name, entry in inputs.items():
            if not (isinstance(entry, dict) and isinstance(entry.get("path"), str)
                    and isinstance(entry.get("sha256"), str)):
                raise ConfigError(f"{where}: input {name!r} needs a 'path' and a 'sha256' string")
            p = Path(entry["path"])
            require_file(p, name)
            actual = sha256_file(p)
            if actual != entry["sha256"]:
                raise ConfigError(
                    f"{name} at {p} has changed since the manifest was written "
                    f"(sha256 {actual} != {entry['sha256']}); cannot reproduce")
        corpus = Path(inputs["corpus"]["path"])
        test_corpus = Path(inputs["test_corpus"]["path"]) if "test_corpus" in inputs else None
    else:
        if args.corpus is None:
            raise UsageError("compare needs a corpus (or --from-manifest)")
        corpus = Path(args.corpus)
        test_corpus = Path(args.test_corpus) if args.test_corpus else None
        cfgs = resolve_configs(args)
        oracle_arg = args.oracle or "default"
    require_file(corpus, "corpus")
    if test_corpus is not None:
        require_file(test_corpus, "test corpus")
    out_dir = Path(args.out)
    oracle = resolve_oracle(oracle_arg)

    inputs = {"corpus": corpus}
    if test_corpus is not None:
        inputs["test_corpus"] = test_corpus
    manifest = RunManifest("compare", cfgs["train"].seed, ["midi", "concat"],
                           cfgs["snapshot"], inputs, out_dir)
    manifest.data["oracle_arg"] = oracle_arg
    write_json(manifest.path, manifest.data)

    train_samples = load_corpus(corpus)
    eval_samples = load_corpus(test_corpus) if test_corpus else train_samples

    max_rounds = cfgs["train"].max_rounds
    outputs: dict[str, Path] = {}
    curves: dict[str, list[float]] = {}
    for mode in ("midi", "concat"):
        leg_dir = out_dir / mode
        artifacts = train_artifacts(train_samples, cfgs, leg_dir, mode=mode)
        model, adapters, _ = load_checkpoint(artifacts["checkpoint"])
        result = evaluate_corpus(model, adapters, eval_samples,
                                 cfgs["generation"], oracle=oracle,
                                 max_rounds=max_rounds)
        report_path = leg_dir / "report.json"
        write_json(report_path, result.report.to_dict())
        curves[mode] = result.report.consistency
        for name, p in artifacts.items():
            outputs[f"{mode}_{name}"] = p
        outputs[f"{mode}_report"] = report_path
        logger.info("%s leg done: consistency %s", mode,
                    [round(v, 3) for v in curves[mode]])
    curves["gold"] = gold_curve(eval_samples, oracle,
                                max_rounds=max_rounds)[0].tolist()

    n_rounds = max(len(c) for c in curves.values())
    table = []
    for t in range(n_rounds):
        row = [t + 1]
        for mode in ("midi", "concat", "gold"):
            c = curves[mode]
            row.append(fmt(c[t]) if t < len(c) else "")
        table.append(row)
    table_path = out_dir / "compare_table.csv"
    write_rows(table_path, ["round", "midi", "concat", "gold"], table)
    long_path = out_dir / "curve_long.csv"
    write_rows(long_path, ["round", "score", "mode"], curve_rows(curves))
    outputs["compare_table"] = table_path
    outputs["curve_long"] = long_path
    manifest.finish(outputs)
    logger.info("wrote comparison table to %s", table_path)
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def non_negative_int(text: str) -> int:
    """argparse type of a seed, dialogue count or round count: an int >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def add_common_flags(p: argparse.ArgumentParser, train=False, gen=False):
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--seed", type=non_negative_int, default=None)
    if train:
        p.add_argument("--mode", choices=("midi", "concat", "split"), default=None)
        p.add_argument("--beta", type=float, default=None)
        p.add_argument("--lr", type=float, default=None)
    if train or gen:
        p.add_argument("--max-rounds", type=int, default=None, dest="max_rounds")
    if gen:
        p.add_argument("--top-p", type=float, default=None, dest="top_p")
        p.add_argument("--top-k", type=int, default=None, dest="top_k")
        p.add_argument("--max-new-tokens", type=int, default=None,
                       dest="max_new_tokens")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roletune",
        description="Round-by-round dialogue tuning with role-separated adapters",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("data-synth", help="write a synthetic dialogue corpus")
    p.add_argument("--n", type=non_negative_int, required=True, help="number of dialogues")
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--spec-file", help="corpus recipe JSON", dest="spec_file")
    p.add_argument("--with-targets", action="store_true", dest="with_targets",
                   help="plant a target topic per dialogue (default recipe only)")
    p.add_argument("--out", required=True, help="corpus output path (JSONL)")
    p.set_defaults(func=cmd_data_synth)

    p = sub.add_parser("train", help="fit role adapters on a corpus")
    p.add_argument("corpus", help="training corpus (JSONL)")
    p.add_argument("--out", required=True, help="output directory")
    add_common_flags(p, train=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a test corpus")
    p.add_argument("checkpoint")
    p.add_argument("corpus", help="test corpus (JSONL)")
    p.add_argument("--oracle", default=None,
                   help="'default' or a corpus-recipe JSON for consistency scoring")
    p.add_argument("--out", required=True, help="output directory")
    add_common_flags(p, gen=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("chat-sim", help="interactive or self-play chat")
    p.add_argument("agent_ckpt", help="agent checkpoint")
    p.add_argument("--user", default=None,
                   help="'stdin' for typed turns, a checkpoint path for its "
                        "user adapters, default: agent checkpoint's own")
    p.add_argument("--instruction", required=True)
    p.add_argument("--rounds", type=non_negative_int, default=3)
    p.add_argument("--out", required=True, help="transcript path (corpus JSONL)")
    add_common_flags(p, gen=True)
    p.set_defaults(func=cmd_chat_sim)

    p = sub.add_parser("compare", help="midi vs concat from one init, side by side")
    p.add_argument("corpus", nargs="?", help="training corpus (JSONL)")
    p.add_argument("--test-corpus", default=None, dest="test_corpus",
                   help="held-out corpus to evaluate on (default: training corpus)")
    p.add_argument("--oracle", default=None,
                   help="'default' or a corpus-recipe JSON (default: default)")
    p.add_argument("--from-manifest", default=None, dest="from_manifest",
                   help="re-run a previous comparison from its manifest")
    p.add_argument("--out", required=True, help="output directory")
    add_common_flags(p, train=True, gen=True)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse already printed the message
        return int(e.code or 0)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except (ConfigError, CorpusError, CheckpointError, CapacityError,
            RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())

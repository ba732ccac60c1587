"""End-to-end tests of the command-line pipeline."""

import io
import json
import os
import platform
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import roletune.cli as cli
from roletune.cli import main
from roletune.checkpoint import load_checkpoint, save_checkpoint
from roletune.data import ByteTokenizer, default_synth_spec, load_corpus
from roletune.errors import ConfigError
from roletune.model import ModelConfig, RoleAdapters, Transformer

TINY_MODEL = {"d_model": 16, "n_layers": 2, "n_heads": 2, "d_ff": 32,
              "vocab_size": ByteTokenizer.vocab_size, "max_positions": 256}


def write_config(path: Path, **over) -> Path:
    cfg = {
        "model": TINY_MODEL,
        "train": {"epochs": 1, "batch_size": 4, "lr": 1e-3, "seed": 0},
        "generation": {"max_new_tokens": 6, "top_k": 1, "seed": 0},
    }
    for key, value in over.items():
        cfg[key] = {**cfg.get(key, {}), **value}
    path.write_text(json.dumps(cfg))
    return path


def write_spec(path: Path, **over) -> Path:
    spec = default_synth_spec().to_dict()
    spec.update({"rounds_min": 2, "rounds_max": 2,
                 "user_words": [1, 2], "agent_words": [1, 2]})
    spec.update(over)
    path.write_text(json.dumps(spec))
    return path


def assert_environment(manifest: dict):
    env = manifest["environment"]
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    assert isinstance(env["blas"], str) and env["blas"] != "unknown"
    assert env["blas_env"] == {name: os.environ.get(name) for name in
                                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    assert env["cpu_count"] == os.cpu_count()
    assert 1 <= env["cpus_usable"] <= env["cpu_count"]


@pytest.fixture
def corpus(tmp_path):
    spec = write_spec(tmp_path / "spec.json")
    out = tmp_path / "corpus.jsonl"
    assert main(["data-synth", "--n", "6", "--seed", "3",
                 "--spec-file", str(spec), "--out", str(out)]) == 0
    return out


class TestDataSynth:
    def test_deterministic_bytes(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json")
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert main(["data-synth", "--n", "5", "--seed", "7",
                         "--spec-file", str(spec), "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_dialogues_warns_but_succeeds(self, tmp_path, caplog):
        out = tmp_path / "empty.jsonl"
        assert main(["data-synth", "--n", "0", "--out", str(out)]) == 0
        assert out.exists() and load_corpus(out) == []
        assert any("empty corpus" in r.message for r in caplog.records)

    def test_output_reingests(self, corpus):
        samples = load_corpus(corpus)
        assert len(samples) == 6
        assert all(len(s.rounds) == 2 for s in samples)

    def test_manifest_written_with_hashes(self, corpus):
        manifest = json.loads((corpus.parent / "corpus.jsonl.manifest.json").read_text())
        assert manifest["command"] == "data-synth"
        assert manifest["outputs"]["corpus"]["sha256"]
        assert manifest["inputs"]["spec_file"]["sha256"]
        assert manifest["config"]["corpus_spec"]["rounds_max"] == 2
        assert_environment(manifest)


    @pytest.mark.parametrize("recipe, message", [
        ({"n_layers": 1}, "unknown key 'n_layers'"),
        ({"user_vocab": ["hi"], "agent_vocab": ["ka"]}, "required positional argument: 'markers'"),
        ({**default_synth_spec().to_dict(), "rounds_min": "2"}, "rounds_min is '2', not int"),
        ([1], "must be a JSON object, not list"),
        ({**default_synth_spec().to_dict(), "user_vocab": [1, 2]},
         "user_vocab is [1, 2], not tuple[str, ...]"),
        ({**default_synth_spec().to_dict(), "user_words": [2.5, 4]},
         "user_words is [2.5, 4], not tuple[int, int]"),
    ], ids=["unknown-key", "missing-key", "string-round-count", "not-an-object",
            "numeric-vocab", "fractional-word-count"])
    def test_malformed_recipe_exits_one(self, tmp_path, capsys, recipe, message):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(recipe))
        assert main(["data-synth", "--n", "2", "--spec-file", str(spec),
                     "--out", str(tmp_path / "c.jsonl")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: corpus spec ") and message in err


class TestTrain:
    def test_artifacts_and_manifest(self, tmp_path, corpus):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "run"
        assert main(["train", str(corpus), "--config", str(cfg),
                     "--mode", "midi", "--out", str(out)]) == 0
        model, adapters, extra = load_checkpoint(out / "checkpoint.rtck")
        assert model.config.d_model == 16
        assert extra["mode"] == "midi"
        log = [json.loads(line) for line in
               (out / "loss_log.jsonl").read_text().splitlines()]
        assert len(log) == 2  # 6 dialogues / batch 4, one epoch
        assert set(log[0]) == {"step", "L_s", "L_u", "L_total", "lr"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["train"]["mode"] == "midi"
        assert manifest["outputs"]["checkpoint"]["sha256"]

    def test_manifest_records_blas_threads_as_set(self, tmp_path, corpus, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "run"
        assert main(["train", str(corpus), "--config", str(write_config(tmp_path / "cfg.json")),
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert_environment(manifest)
        assert manifest["environment"]["blas_env"]["OPENBLAS_NUM_THREADS"] == "1"
        assert manifest["environment"]["blas_env"]["MKL_NUM_THREADS"] is None

    def test_missing_corpus_exits_two(self, tmp_path):
        code = main(["train", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "run")])
        assert code == 2

    def test_flags_override_config_file(self, tmp_path, corpus):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "run"
        assert main(["train", str(corpus), "--config", str(cfg),
                     "--lr", "5e-4", "--mode", "concat",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["train"]["lr"] == 5e-4
        assert manifest["config"]["train"]["mode"] == "concat"

    def test_config_snapshot_round_trips(self, tmp_path, corpus):
        from roletune.training import TrainConfig

        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "run"
        assert main(["train", str(corpus), "--config", str(cfg),
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        snap = manifest["config"]["train"]
        assert TrainConfig.from_dict(snap).to_dict() == snap

    def test_concat_and_split_agree_on_single_round_corpus(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json", rounds_min=1, rounds_max=1)
        corpus = tmp_path / "one.jsonl"
        assert main(["data-synth", "--n", "6", "--seed", "1",
                     "--spec-file", str(spec), "--out", str(corpus)]) == 0
        cfg = write_config(tmp_path / "cfg.json")
        logs = {}
        for mode in ("concat", "split"):
            out = tmp_path / mode
            assert main(["train", str(corpus), "--config", str(cfg),
                         "--mode", mode, "--out", str(out)]) == 0
            logs[mode] = (out / "loss_log.jsonl").read_text()
        assert logs["concat"] == logs["split"]

    def test_divergence_exits_one(self, tmp_path, corpus, monkeypatch, capsys):
        def boom(*a, **k):
            raise RuntimeError("training diverged at step 0: non-finite loss")

        monkeypatch.setattr(cli, "train", boom)
        out = tmp_path / "run"
        code = main(["train", str(corpus), "--out", str(out)])
        assert code == 1
        assert "diverged" in capsys.readouterr().err
        # the manifest was still written before work began
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == {}


def trained_checkpoint(tmp_path, corpus, mode="midi"):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / f"run-{mode}"
    assert main(["train", str(corpus), "--config", str(cfg),
                 "--mode", mode, "--out", str(out)]) == 0
    return out / "checkpoint.rtck", cfg


class TestEval:
    def test_report_and_curve(self, tmp_path, corpus):
        ckpt, cfg = trained_checkpoint(tmp_path, corpus)
        spec_path = tmp_path / "spec.json"  # written by the corpus fixture
        out = tmp_path / "eval"
        assert main(["eval", str(ckpt), str(corpus), "--config", str(cfg),
                     "--oracle", str(spec_path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["n_dialogues"] == 6
        assert len(report["consistency"]) == 2
        lines = (out / "curve.csv").read_text().splitlines()
        assert lines[0] == "round,score,mode"
        modes = {line.split(",")[2] for line in lines[1:]}
        assert modes == {"midi", "gold"}
        assert len(lines) == 1 + 2 * 2  # two rounds x two modes

    def test_gold_rows_are_one(self, tmp_path, corpus):
        ckpt, cfg = trained_checkpoint(tmp_path, corpus)
        out = tmp_path / "eval"
        assert main(["eval", str(ckpt), str(corpus), "--config", str(cfg),
                     "--oracle", str(tmp_path / "spec.json"),
                     "--out", str(out)]) == 0
        for line in (out / "curve.csv").read_text().splitlines()[1:]:
            _, score, mode = line.split(",")
            if mode == "gold":
                assert float(score) == 1.0

    def test_without_oracle_no_curve(self, tmp_path, corpus):
        ckpt, cfg = trained_checkpoint(tmp_path, corpus)
        out = tmp_path / "eval"
        assert main(["eval", str(ckpt), str(corpus), "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert not (out / "curve.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert "consistency" not in report

    def test_deterministic_reports(self, tmp_path, corpus):
        ckpt, cfg = trained_checkpoint(tmp_path, corpus)
        blobs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            assert main(["eval", str(ckpt), str(corpus), "--config", str(cfg),
                         "--oracle", "default", "--out", str(out)]) == 0
            blobs.append((out / "report.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_corrupt_checkpoint_exits_one(self, tmp_path, corpus):
        bad = tmp_path / "bad.rtck"
        bad.write_bytes(b"JUNKDATA")
        code = main(["eval", str(bad), str(corpus),
                     "--out", str(tmp_path / "eval")])
        assert code == 1


class TestChatSim:
    def test_self_play_transcript(self, tmp_path, corpus):
        ckpt, cfg = trained_checkpoint(tmp_path, corpus)
        out = tmp_path / "chat.jsonl"
        code = main(["chat-sim", str(ckpt), "--instruction", "persona xe",
                     "--rounds", "2", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        [sample] = load_corpus(out)
        assert sample.instruction == "persona xe"
        assert len(sample.rounds) == 2

    def test_stdin_turns_echoed_verbatim(self, tmp_path, corpus, monkeypatch):
        ckpt, cfg = trained_checkpoint(tmp_path, corpus)
        out = tmp_path / "chat.jsonl"
        monkeypatch.setattr("sys.stdin", io.StringIO("hi go\nup at\n"))
        code = main(["chat-sim", str(ckpt), "--user", "stdin",
                     "--instruction", "persona xe", "--rounds", "2",
                     "--config", str(cfg), "--out", str(out)])
        assert code == 0
        [sample] = load_corpus(out)
        assert [u for u, _ in sample.rounds] == ["hi go", "up at"]

    def test_transcript_feeds_eval(self, tmp_path, corpus):
        ckpt, cfg = trained_checkpoint(tmp_path, corpus)
        out = tmp_path / "chat.jsonl"
        assert main(["chat-sim", str(ckpt), "--instruction", "persona xe",
                     "--rounds", "2", "--config", str(cfg),
                     "--out", str(out)]) == 0
        eval_out = tmp_path / "eval"
        assert main(["eval", str(ckpt), str(out), "--config", str(cfg),
                     "--out", str(eval_out)]) == 0
        assert (eval_out / "report.json").exists()

    def test_capacity_overflow_partial_transcript_and_exit_one(self, tmp_path):
        config = ModelConfig(**{**TINY_MODEL, "max_positions": 32})
        model = Transformer.create(config, seed=0)
        adapters = RoleAdapters(config, rank=2, alpha=4.0, seed=0)
        ckpt = tmp_path / "tiny.rtck"
        save_checkpoint(ckpt, model, adapters)
        out = tmp_path / "chat.jsonl"
        code = main(["chat-sim", str(ckpt), "--instruction", "persona xe",
                     "--rounds", "8", "--max-new-tokens", "12",
                     "--out", str(out)])
        assert code == 1
        [sample] = load_corpus(out)  # partial transcript still valid
        assert len(sample.rounds) < 8

    def test_separate_user_checkpoint(self, tmp_path, corpus):
        agent_ckpt, cfg = trained_checkpoint(tmp_path, corpus, mode="midi")
        user_ckpt, _ = trained_checkpoint(tmp_path, corpus, mode="concat")
        out = tmp_path / "chat.jsonl"
        code = main(["chat-sim", str(agent_ckpt), "--user", str(user_ckpt),
                     "--instruction", "persona xe", "--rounds", "1",
                     "--config", str(cfg), "--out", str(out)])
        assert code == 0
        [sample] = load_corpus(out)
        assert len(sample.rounds) == 1


    def test_user_checkpoint_from_another_regime_rejected(self, tmp_path):
        config = ModelConfig(**TINY_MODEL)
        model = Transformer.create(config, seed=0)
        paths = []
        for name, strict in (("agent", False), ("user", True)):
            adapters = RoleAdapters(config, rank=2, alpha=4.0, seed=0)
            adapters.regime["strict_cross_round"] = strict
            paths.append(tmp_path / f"{name}.rtck")
            save_checkpoint(paths[-1], model, adapters)
        with pytest.raises(ConfigError, match="trained under"):
            cli.merged_adapters(*paths)
        out = tmp_path / "chat.jsonl"
        assert main(["chat-sim", str(paths[0]), "--user", str(paths[1]),
                     "--instruction", "persona xe", "--rounds", "1",
                     "--out", str(out)]) == 1


class TestCompare:
    def run_compare(self, tmp_path, corpus, out_name="cmp"):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / out_name
        code = main(["compare", str(corpus), "--config", str(cfg),
                     "--oracle", str(tmp_path / "spec.json"),
                     "--out", str(out)])
        return code, out

    def test_table_layout(self, tmp_path, corpus):
        code, out = self.run_compare(tmp_path, corpus)
        assert code == 0
        lines = (out / "compare_table.csv").read_text().splitlines()
        assert lines[0] == "round,midi,concat,gold"
        assert len(lines) == 3  # two rounds
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 4
            assert float(cells[3]) == 1.0  # gold reference row
        long_lines = (out / "curve_long.csv").read_text().splitlines()
        assert long_lines[0] == "round,score,mode"
        assert {l.split(",")[2] for l in long_lines[1:]} == {"midi", "concat", "gold"}

    def test_legs_share_agent_initialization(self, tmp_path, corpus):
        code, out = self.run_compare(tmp_path, corpus)
        assert code == 0
        midi = load_checkpoint(out / "midi" / "checkpoint.rtck")
        concat = load_checkpoint(out / "concat" / "checkpoint.rtck")
        np.testing.assert_array_equal(
            midi[0].base.params["embed"].data,
            concat[0].base.params["embed"].data)

    def test_rerun_from_manifest_reproduces_reports_byte_identically(
            self, tmp_path, corpus):
        code, out = self.run_compare(tmp_path, corpus)
        assert code == 0
        originals = {
            name: (out / name).read_bytes()
            for name in ("compare_table.csv", "curve_long.csv",
                         "midi/report.json", "concat/report.json")
        }
        # destroy the intermediate artifacts, keep only the manifest
        for leg in ("midi", "concat"):
            (out / leg / "checkpoint.rtck").unlink()
        redo = tmp_path / "redo"
        assert main(["compare", "--from-manifest", str(out / "manifest.json"),
                     "--out", str(redo)]) == 0
        for name, blob in originals.items():
            assert (redo / name).read_bytes() == blob, name

    def test_from_manifest_detects_changed_corpus(self, tmp_path, corpus):
        code, out = self.run_compare(tmp_path, corpus)
        assert code == 0
        corpus.write_text(corpus.read_text() + "\n")
        redo = tmp_path / "redo"
        code = main(["compare", "--from-manifest", str(out / "manifest.json"),
                     "--out", str(redo)])
        assert code == 1

    @pytest.mark.parametrize("manifest, message", [
        ({"command": "compare"}, "needs an 'inputs' object with a 'corpus' entry"),
        ([1], "must hold a JSON object"),
        ({"command": "compare", "inputs": {"corpus": {"path": "c.jsonl"}},
          "config": {"train": {}, "model": {}, "generation": {}}},
         "input 'corpus' needs a 'path' and a 'sha256' string"),
        ({"command": "compare", "inputs": {"corpus": {"path": "c.jsonl", "sha256": "0"}},
          "config": {"train": {"epochs": "2"}}}, "config section 'train': epochs is '2'"),
    ], ids=["no-inputs", "not-an-object", "input-without-hash", "string-epochs"])
    def test_malformed_manifest_exits_one(self, tmp_path, capsys, manifest, message):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        assert main(["compare", "--from-manifest", str(path),
                     "--out", str(tmp_path / "redo")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_compare_without_corpus_is_usage_error(self, tmp_path):
        assert main(["compare", "--out", str(tmp_path / "x")]) == 2


class TestParsing:
    def test_unknown_command_exits_two(self):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag_exits_two(self):
        assert main(["data-synth", "--n", "3"]) == 2  # no --out

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize("config, message", [
        ({"learning_rate": 1e-3}, "unknown key 'learning_rate'"),
        ({"train": {"epochs": 1, "bogus": 1}}, "section 'train': unknown key 'bogus'"),
        ({"train": [1, 2]}, "section 'train' must be a JSON object"),
        ({"model": {"d_model": "64"}}, "section 'model': d_model is '64', not int"),
        ({"train": {"epochs": True}}, "section 'train': epochs is True, not int"),
        ({"train": {"lr": float("nan")}}, "section 'train': lr is nan, not float"),
        ({"generation": {"temperature": float("nan")}},
         "section 'generation': temperature is nan, not float"),
        ({"generation": {"temperature": float("inf")}},
         "section 'generation': temperature is inf, not float"),
    ], ids=["unknown-top-level-key", "unknown-train-key", "train-not-an-object",
            "string-model-size", "boolean-epochs", "nan-lr", "nan-temperature",
            "infinite-temperature"])
    def test_unknown_config_key_rejected(self, tmp_path, corpus, capsys, config, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        code = main(["train", str(corpus), "--config", str(bad),
                     "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config file ") and message in err

    def test_top_level_train_fields_accepted(self, tmp_path, corpus):
        cfg = tmp_path / "flat.json"
        cfg.write_text(json.dumps({"lr": 1e-3, "epochs": 1, "batch_size": 6,
                                   "model": TINY_MODEL}))
        out = tmp_path / "run"
        assert main(["train", str(corpus), "--config", str(cfg),
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["train"]["batch_size"] == 6


class TestNegativeCounts:
    """A negative seed, dialogue count or round count stops the command
    before it writes anything: exit 2 from a flag, exit 1 from a config file."""

    @pytest.fixture
    def inputs(self, tmp_path):
        config = ModelConfig(**TINY_MODEL)
        ckpt = tmp_path / "tiny.rtck"
        save_checkpoint(ckpt, Transformer.create(config, seed=0),
                        RoleAdapters(config, rank=2, alpha=4.0, seed=0))
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("")
        return ckpt, corpus

    @staticmethod
    def assert_writes_nothing(tmp_path, argv, code):
        before = sorted(tmp_path.rglob("*"))
        assert main(argv) == code
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("flags", [["--n", "-3"], ["--n", "2", "--seed", "-1"]],
                             ids=["n", "seed"])
    def test_data_synth_flag(self, tmp_path, flags):
        self.assert_writes_nothing(
            tmp_path, ["data-synth", *flags, "--out", str(tmp_path / "c.jsonl")], 2)

    def test_train_seed_flag(self, tmp_path, inputs):
        _, corpus = inputs
        self.assert_writes_nothing(
            tmp_path, ["train", str(corpus), "--seed", "-1", "--out", str(tmp_path / "run")], 2)

    def test_chat_sim_rounds_flag(self, tmp_path, inputs, monkeypatch):
        ckpt, _ = inputs
        monkeypatch.setattr("sys.stdin", io.StringIO("hi go\n"))
        self.assert_writes_nothing(
            tmp_path, ["chat-sim", str(ckpt), "--user", "stdin", "--instruction", "persona xe",
                       "--rounds", "-1", "--out", str(tmp_path / "chat.jsonl")], 2)

    def test_train_seed_in_config_file(self, tmp_path, inputs, capsys):
        _, corpus = inputs
        cfg = write_config(tmp_path / "cfg.json", train={"seed": -1})
        self.assert_writes_nothing(
            tmp_path, ["train", str(corpus), "--config", str(cfg),
                       "--out", str(tmp_path / "run")], 1)
        assert "section 'train': seed must be >= 0, got -1" in capsys.readouterr().err

    def test_generation_seed_in_config_file(self, tmp_path, inputs, capsys):
        ckpt, corpus = inputs
        cfg = write_config(tmp_path / "cfg.json", generation={"seed": -1})
        self.assert_writes_nothing(
            tmp_path, ["eval", str(ckpt), str(corpus), "--config", str(cfg),
                       "--out", str(tmp_path / "eval")], 1)
        self.assert_writes_nothing(
            tmp_path, ["chat-sim", str(ckpt), "--instruction", "persona xe", "--config", str(cfg),
                       "--out", str(tmp_path / "chat.jsonl")], 1)
        assert "section 'generation': seed must be >= 0, got -1" in capsys.readouterr().err


def test_readme_quickstart_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quickstart", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("roletune ")]
    assert len(commands) == 6
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)

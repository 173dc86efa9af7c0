import base64
import json
import shutil
from importlib import resources
from pathlib import Path

import pytest
import yaml

from promptrefine.cli import main
from promptrefine.config import ConfigError, load_config
from promptrefine.scene_graph import graph_to_doc, parse_graph, serialize_graph

from fixtures import (
    DECORATED_MOTORCYCLE,
    FENCE_EXPANSION,
    MOTORCYCLE_DEPENDENCIES,
    MOTORCYCLE_PROMPT,
    MOTORCYCLE_QUESTIONS,
    MOTORCYCLE_TUPLES,
    PNG_BLACK,
    PNG_WHITE,
    REGENERATED_MOTORCYCLE,
    motorcycle_graph,
)


def write_script(tmp_path, *, t2i_error=False, llm_garbage=False):
    text = [
        {"match": "*", "preamble": "*Decompose*", "response": MOTORCYCLE_TUPLES},
        {
            "match": "*",
            "preamble": "*yes/no verification questions*",
            "response": MOTORCYCLE_QUESTIONS,
        },
        {"match": "*", "preamble": "*presume*", "response": MOTORCYCLE_DEPENDENCIES},
        {"match": "*", "preamble": "*enrich prompts*", "response": FENCE_EXPANSION},
        {"match": "*", "preamble": "*compose prompts*", "response": REGENERATED_MOTORCYCLE},
        {
            "match": "*",
            "preamble": "*aesthetic keywords*",
            "response": "best quality, soft lighting",
        },
    ]
    if llm_garbage:
        text = [{"match": "*", "response": "garbage"}]
    doc = {
        "text": text,
        "vqa": [
            {"match": "Is there a fence?", "responses": ["no", "yes"]},
            {"match": "*", "response": "yes"},
        ],
        "image": [
            {
                "match": MOTORCYCLE_PROMPT,
                "response": {"error": "transport"} if t2i_error
                else base64.b64encode(PNG_WHITE).decode(),
            },
            {"match": "*", "response": base64.b64encode(PNG_BLACK).decode()},
        ],
    }
    path = tmp_path / "script.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def write_config(tmp_path, script_name="script.json", pipeline=None):
    doc = {
        "backends": {
            "llm": {"type": "mock", "script": script_name},
            "vqa": {"type": "mock", "script": script_name},
            "t2i": {"type": "mock", "script": script_name},
        },
        "pipeline": {"seed": 42, "width": 64, "height": 64, **(pipeline or {})},
    }
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return path


def readme_config_block() -> str:
    """The YAML example in the README's Configuration section."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    start = text.index("```yaml\n", text.index("## Configuration")) + len("```yaml\n")
    return text[start : text.index("```", start)]


class TestLoadConfig:
    def test_mock_backends_built(self, tmp_path):
        write_script(tmp_path)
        cfg = load_config(write_config(tmp_path))
        assert cfg.seed == 42
        assert cfg.backends.embed is None

    @pytest.mark.parametrize("scripted", [True, False])
    def test_mock_section_settings_applied(self, tmp_path, scripted):
        write_script(tmp_path)
        doc = yaml.safe_load(write_config(tmp_path).read_text())
        for section in doc["backends"].values():
            if not scripted:
                del section["script"]
            section.update(max_retries=5, rate_limit=2.0)
        doc["backends"]["llm"]["model"] = "scripted-llm"
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(doc))
        backends = load_config(path).backends
        assert backends.llm.config.model == "scripted-llm"
        assert backends.vqa.config.model == "vqa"
        for backend in (backends.llm, backends.vqa, backends.t2i):
            assert backend.config.max_retries == 5
            assert backend.config.rate_limit == 2.0
            assert backend.config.backoff_base == 0.0
            assert backend._limiter._interval == 0.5

    def test_readme_example_loads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LLM_TOKEN", "sekrit")
        data = resources.files("promptrefine").joinpath("data")
        shutil.copytree(Path(str(data.joinpath("templates"))), tmp_path / "my-templates")
        shutil.copyfile(Path(str(data.joinpath("keywords.json"))), tmp_path / "keywords.json")
        path = tmp_path / "config.yaml"
        path.write_text(readme_config_block(), encoding="utf-8")
        cfg = load_config(path)
        for key, value in yaml.safe_load(readme_config_block())["pipeline"].items():
            assert getattr(cfg, key) == value
        assert cfg.backends.llm.config.auth_token == "sekrit"
        assert cfg.backends.embed.config.embed_dim == 512

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.yaml")

    def test_missing_backend_section(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump({"backends": {"llm": {"type": "mock"}}}))
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert "vqa" in str(exc.value)

    def test_unknown_backend_type(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(
            yaml.safe_dump(
                {"backends": {r: {"type": "smoke-signals"} for r in ("llm", "vqa", "t2i")}}
            )
        )
        with pytest.raises(ConfigError):
            load_config(path)

    def test_http_requires_endpoint(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(
            yaml.safe_dump({"backends": {r: {"type": "http"} for r in ("llm", "vqa", "t2i")}})
        )
        with pytest.raises(ConfigError):
            load_config(path)

    def test_env_interpolation(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TEST_TOKEN", "sekrit")
        doc = {
            "backends": {
                "llm": {"type": "http", "endpoint": "http://h", "auth_token": "${TEST_TOKEN}"},
                "vqa": {"type": "mock"},
                "t2i": {"type": "mock"},
            }
        }
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(doc))
        cfg = load_config(path)
        assert cfg.backends.llm.config.auth_token == "sekrit"

    def test_missing_env_var(self, tmp_path, monkeypatch):
        monkeypatch.delenv("NOT_SET_ANYWHERE", raising=False)
        doc = {
            "backends": {
                "llm": {"type": "http", "endpoint": "http://h", "auth_token": "${NOT_SET_ANYWHERE}"},
                "vqa": {"type": "mock"},
                "t2i": {"type": "mock"},
            }
        }
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert "NOT_SET_ANYWHERE" in str(exc.value)

    def test_bad_pipeline_value(self, tmp_path):
        write_script(tmp_path)
        path = write_config(tmp_path, pipeline={"rounds": 0})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_backend_key(self, tmp_path):
        write_script(tmp_path)
        doc = yaml.safe_load(write_config(tmp_path).read_text())
        doc["backends"]["vqa"]["max_retires"] = 5
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert "backends.vqa" in str(exc.value)
        assert "max_retires" in str(exc.value)

    @pytest.mark.parametrize(
        "section, entry, where, key",
        [
            ("pipelines", {"rounds": 3}, "top level", "pipelines"),
            ("backends", {"embedd": {"type": "mock"}}, "backends", "embedd"),
            ("templates", {"dirr": "my-templates"}, "templates", "dirr"),
            ("keywords", {"fil": "keywords.json"}, "keywords", "fil"),
            (
                "backends",
                {"llm": {"type": "http", "endpoint": "http://localhost:1", "script": "script.json"}},
                "backends.llm",
                "script",
            ),
        ],
    )
    def test_unknown_section_key(self, tmp_path, capsys, section, entry, where, key):
        write_script(tmp_path)
        doc = yaml.safe_load(write_config(tmp_path).read_text())
        doc.setdefault(section, {}).update(entry)
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert where in str(exc.value)
        assert repr(key) in str(exc.value)
        assert main(["dsg", "--prompt", MOTORCYCLE_PROMPT, "--config", str(path)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["templates", "keywords"])
    def test_non_mapping_section_exits_2(self, tmp_path, capsys, section):
        write_script(tmp_path)
        doc = yaml.safe_load(write_config(tmp_path).read_text())
        doc[section] = "./dir"
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert section in str(exc.value)
        assert main(["dsg", "--prompt", MOTORCYCLE_PROMPT, "--config", str(path)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key",
        [
            "build_attempts",
            "stage_attempts",
            "max_prompt_chars",
            "max_questions",
            "decoration_mode",
            "re_reflect_final",
        ],
    )
    def test_removed_pipeline_key(self, tmp_path, key):
        write_script(tmp_path)
        path = write_config(tmp_path, pipeline={key: 3})
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert key in str(exc.value)

    def test_custom_templates_dir(self, tmp_path):
        write_script(tmp_path)
        tdir = tmp_path / "templates" / "tuples"
        tdir.mkdir(parents=True)
        (tdir / "preamble.txt").write_text("Decompose the prompt.")
        doc = yaml.safe_load(write_config(tmp_path).read_text())
        doc["templates"] = {"dir": "templates"}
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(doc))
        cfg = load_config(path)
        assert cfg.templates.stage("tuples").preamble == "Decompose the prompt."


class TestCliOptimize:
    def test_full_run(self, tmp_path, capsys):
        write_script(tmp_path)
        config = write_config(tmp_path)
        out = tmp_path / "runs"
        code = main(
            ["optimize", "--prompt", MOTORCYCLE_PROMPT, "--config", str(config), "--out", str(out)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert DECORATED_MOTORCYCLE in captured.out
        assert "completed" in captured.out
        run_dirs = list(out.iterdir())
        assert len(run_dirs) == 1
        assert (run_dirs[0] / "record.json").is_file()

    def test_config_error_exit_code(self, tmp_path):
        assert main(["optimize", "--prompt", "x", "--config", str(tmp_path / "nope.yaml")]) == 2

    def test_backend_failure_exit_code(self, tmp_path):
        write_script(tmp_path, t2i_error=True)
        config = write_config(tmp_path)
        code = main(["optimize", "--prompt", MOTORCYCLE_PROMPT, "--config", str(config)])
        assert code == 3

    def test_stage_exhausted_exit_code(self, tmp_path):
        write_script(tmp_path, llm_garbage=True)
        config = write_config(tmp_path)
        code = main(["optimize", "--prompt", MOTORCYCLE_PROMPT, "--config", str(config)])
        assert code == 4

    def test_rounds_flag_is_validated(self, tmp_path, capsys):
        write_script(tmp_path)
        config = write_config(tmp_path)
        out = tmp_path / "runs"
        code = main(
            ["optimize", "--prompt", MOTORCYCLE_PROMPT, "--config", str(config),
             "--out", str(out), "--rounds", "0"]
        )
        assert code != 0
        assert "rounds must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_dir(self, tmp_path, capsys):
        write_script(tmp_path)
        config = write_config(tmp_path)
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        code = main(
            ["optimize", "--prompt", MOTORCYCLE_PROMPT, "--config", str(config),
             "--out", str(blocker / "runs")]
        )
        assert code == 1
        assert "error: could not persist record:" in capsys.readouterr().err

    def test_no_decorate_flag(self, tmp_path, capsys):
        script = json.loads(write_script(tmp_path).read_text())
        # without decoration the final image comes from the regenerated prompt
        script["image"] = [
            {"match": MOTORCYCLE_PROMPT, "response": base64.b64encode(PNG_WHITE).decode()},
            {"match": "*", "response": base64.b64encode(PNG_BLACK).decode()},
        ]
        (tmp_path / "script.json").write_text(json.dumps(script))
        config = write_config(tmp_path)
        code = main(
            ["optimize", "--prompt", MOTORCYCLE_PROMPT, "--config", str(config), "--no-decorate"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert REGENERATED_MOTORCYCLE in captured.out
        assert DECORATED_MOTORCYCLE not in captured.out


class TestCliDsgAndReflect:
    def test_dsg_prints_graph_document(self, tmp_path, capsys):
        write_script(tmp_path)
        config = write_config(tmp_path)
        code = main(["dsg", "--prompt", MOTORCYCLE_PROMPT, "--config", str(config)])
        assert code == 0
        captured = capsys.readouterr()
        assert parse_graph(captured.out) == motorcycle_graph()
        assert captured.out == serialize_graph(motorcycle_graph())

    def test_reflect_scores_image(self, tmp_path, capsys):
        write_script(tmp_path)
        config = write_config(tmp_path)
        image = tmp_path / "existing.png"
        image.write_bytes(PNG_BLACK)
        code = main(
            ["reflect", "--prompt", MOTORCYCLE_PROMPT, "--image", str(image), "--config", str(config)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "score:" in captured.out
        assert "Is there a motorcycle?" in captured.out


class TestCliRunBench:
    def _dataset(self, tmp_path):
        lines = []
        for tag in ("a", "b"):
            graph = motorcycle_graph()
            lines.append(
                json.dumps(
                    {
                        "item_id": f"item-{tag}",
                        "category": "desk",
                        "prompt": MOTORCYCLE_PROMPT,
                        "graph": graph_to_doc(graph),
                    }
                )
            )
        # distinct ids, same prompt; graphs embedded so no LLM is needed
        path = tmp_path / "data.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_baseline_markdown(self, tmp_path, capsys):
        write_script(tmp_path)
        config = write_config(tmp_path)
        dataset = self._dataset(tmp_path)
        code = main(
            [
                "run-bench",
                "--dataset",
                str(dataset),
                "--config",
                str(config),
                "--mode",
                "baseline",
                "--format",
                "markdown",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "| method | desk | average |" in captured.out

    def test_limit_and_output_files(self, tmp_path, capsys):
        write_script(tmp_path)
        config = write_config(tmp_path)
        dataset = self._dataset(tmp_path)
        out = tmp_path / "bench-out"
        code = main(
            [
                "run-bench",
                "--dataset",
                str(dataset),
                "--config",
                str(config),
                "--mode",
                "baseline",
                "--format",
                "csv",
                "--limit",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "bench-report.csv").is_file()
        items = json.loads((out / "bench-items.json").read_text())
        assert len(items) == 1
        assert items[0]["error"] is None and items[0]["error_kind"] is None
        # baseline runs write run directories too
        assert len(list(out.glob("*/record.json"))) == 1

    def test_failed_items_carry_their_error_kind(self, tmp_path, capsys):
        # the motorcycle's generate fails on the transport; the kite's graph
        # build gets garbage from every stage attempt
        write_script(tmp_path, t2i_error=True, llm_garbage=True)
        config = write_config(tmp_path)
        dataset = self._dataset(tmp_path)
        with dataset.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"item_id": "kite", "category": "sky", "prompt": "a red kite"}) + "\n")
        out = tmp_path / "bench-out"
        code = main(
            ["run-bench", "--dataset", str(dataset), "--config", str(config),
             "--mode", "baseline", "--out", str(out)]
        )
        assert code == 0
        rows = json.loads((out / "bench-items.json").read_text())
        assert [(r["item_id"], r["error_kind"]) for r in rows] == [
            ("item-a", "backend"),
            ("item-b", "backend"),
            ("kite", "stage_exhausted"),
        ]
        assert rows[0]["error"].startswith("RuntimeError: pipeline failed at generate: TransportError:")
        assert rows[2]["error"].startswith("RuntimeError: pipeline failed at build_dsg: StageExhausted:")
        assert "failed items: 3" in capsys.readouterr().err

    @pytest.mark.parametrize("limit", ["-1", "0", "two"])
    def test_limit_must_be_a_positive_integer(self, tmp_path, capsys, limit):
        write_script(tmp_path)
        config = write_config(tmp_path)
        dataset = self._dataset(tmp_path)
        out = tmp_path / "bench-out"
        with pytest.raises(SystemExit) as exc:
            main(
                ["run-bench", "--dataset", str(dataset), "--config", str(config),
                 "--limit", limit, "--out", str(out)]
            )
        assert exc.value.code == 2
        assert "--limit" in capsys.readouterr().err
        assert not out.exists()

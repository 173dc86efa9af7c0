"""Config file loading: backends, pipeline settings, template dir, keyword file.

YAML (JSON works too), with ``${VAR}`` environment interpolation in string
values so secrets stay out of config files::

    backends:
      llm:  {type: http, endpoint: "https://api.example.com/v1",
             model: qwen2-7b-instruct, auth_token: "${LLM_TOKEN}"}
      vqa:  {type: http, endpoint: "...", model: qwen2-vl-7b}
      t2i:  {type: http, endpoint: "...", model: flux-dev}
      embed: {type: http, endpoint: "...", model: clip-vit, embed_dim: 512}
    pipeline:
      rounds: 1
      seed: 1234
    templates:
      dir: ./my-templates        # optional, bundled set used by default
    keywords:
      file: ./my-keywords.json   # optional

A backend section takes ``type``, ``script`` (mock only) and the fields of
``BackendConfig`` (endpoint, model, auth_token, timeout, max_retries,
rate_limit, backoff_base, embed_dim, supports_embedding); a mock's model
defaults to its role and its backoff_base to 0. The pipeline section takes
``workdir`` and the ``PipelineConfig`` fields rounds, seed, decorate,
parallelism, width and height. ``templates`` takes only ``dir`` and
``keywords`` only ``file``. Any other key, at the top level, among the backend
roles (llm, vqa, t2i, embed) or in any section, is a ConfigError that names the
section and the key; so is ``script`` on an http backend, and a mock's script
(read here) that is missing, not JSON or malformed. The limits are fixed
constants that neither a config file nor a library call sets:
``templates.STAGE_ATTEMPTS`` (3 attempts per text stage),
``optimizer.MAX_PROMPT_CHARS`` (prompts of at most 480 characters) and
``scene_graph.MAX_QUESTIONS`` (at most 200 questions per graph).
"""

from __future__ import annotations

import os
import re
from dataclasses import fields
from pathlib import Path
from typing import Optional, Union

import yaml

from promptrefine.backends import BackendConfig, HttpBackend, MockBackend
from promptrefine.optimizer import load_keyword_table
from promptrefine.pipeline import Backends, PipelineConfig
from promptrefine.templates import TemplateError, load_template_set

_ENV_VAR = re.compile(r"\$\{(\w+)\}")


class ConfigError(Exception):
    pass


_TOP_KEYS = {"backends", "pipeline", "templates", "keywords"}
_BACKEND_ROLES = {"llm", "vqa", "t2i", "embed"}
_BACKEND_KEYS = {f.name for f in fields(BackendConfig)} | {"type"}
# backends, templates, keywords and out_dir come from other sections or the caller.
_PIPELINE_KEYS = {f.name for f in fields(PipelineConfig)} - {
    "backends", "templates", "keywords", "out_dir"
}
_PIPELINE_KEYS.add("workdir")


def _reject_unknown(section: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(section) - allowed, key=str)
    if unknown:
        raise ConfigError(f"{where}: unknown key {', '.join(map(repr, unknown))}")


def _section(doc: dict, name: str, allowed: set) -> dict:
    """An optional top-level section: a mapping with only ``allowed`` keys."""
    section = doc.get(name) or {}
    if not isinstance(section, dict):
        raise ConfigError(f"'{name}' section must be a mapping")
    _reject_unknown(section, allowed, name)
    return section


def _interpolate(value, path: str):
    if isinstance(value, str):

        def sub(match):
            name = match.group(1)
            if name not in os.environ:
                raise ConfigError(f"{path}: environment variable {name} is not set")
            return os.environ[name]

        return _ENV_VAR.sub(sub, value)
    if isinstance(value, dict):
        return {k: _interpolate(v, f"{path}.{k}") for k, v in value.items()}
    if isinstance(value, list):
        return [_interpolate(v, f"{path}[{i}]") for i, v in enumerate(value)]
    return value


def _build_backend(section: dict, role: str, image_dir: Optional[Path], base_dir: Path):
    if not isinstance(section, dict):
        raise ConfigError(f"backends.{role} must be a mapping")
    kind = section.get("type", "http")
    # Only a mock reads a script.
    allowed = _BACKEND_KEYS | {"script"} if kind == "mock" else _BACKEND_KEYS
    _reject_unknown(section, allowed, f"backends.{role}")
    cfg_kwargs = {k: v for k, v in section.items() if k not in ("type", "script")}
    if role == "embed":
        cfg_kwargs.setdefault("supports_embedding", True)
    if kind == "mock":
        cfg_kwargs.setdefault("model", role)
        cfg_kwargs.setdefault("backoff_base", 0.0)
    try:
        cfg = BackendConfig(**cfg_kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"backends.{role}: {exc}") from exc
    if kind == "http":
        if not cfg.endpoint:
            raise ConfigError(f"backends.{role}: http backend needs an endpoint")
        return HttpBackend(cfg, image_dir=image_dir)
    if kind == "mock":
        script = section.get("script")
        if not script:
            return MockBackend(cfg, image_dir=image_dir)
        try:
            return MockBackend.from_file(base_dir / str(script), cfg, image_dir=image_dir)
        except (OSError, ValueError) as exc:  # unreadable, not JSON, or a SchemaViolation
            raise ConfigError(f"backends.{role}.script: {exc}") from exc
    raise ConfigError(f"backends.{role}: unknown type {kind!r}")


def load_config(path: Union[str, Path], out_dir: Optional[Path] = None) -> PipelineConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"could not parse {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    doc = _interpolate(doc, path.name)
    base_dir = path.parent
    _reject_unknown(doc, _TOP_KEYS, "top level")

    backends_doc = doc.get("backends")
    if not isinstance(backends_doc, dict):
        raise ConfigError("config needs a 'backends' section")
    _reject_unknown(backends_doc, _BACKEND_ROLES, "backends")
    for role in ("llm", "vqa", "t2i"):
        if role not in backends_doc:
            raise ConfigError(f"backends.{role} is required")

    pipeline_doc = _section(doc, "pipeline", _PIPELINE_KEYS)
    workdir = pipeline_doc.pop("workdir", None)
    image_dir = Path(workdir) / "images" if workdir else None

    backends = Backends(
        llm=_build_backend(backends_doc["llm"], "llm", image_dir, base_dir),
        vqa=_build_backend(backends_doc["vqa"], "vqa", image_dir, base_dir),
        t2i=_build_backend(backends_doc["t2i"], "t2i", image_dir, base_dir),
        embed=(
            _build_backend(backends_doc["embed"], "embed", image_dir, base_dir)
            if "embed" in backends_doc
            else None
        ),
    )

    templates = None
    templates_doc = _section(doc, "templates", {"dir"})
    if templates_doc.get("dir"):
        try:
            templates = load_template_set(base_dir / templates_doc["dir"])
        except TemplateError as exc:
            raise ConfigError(str(exc)) from exc

    keywords = None
    keywords_doc = _section(doc, "keywords", {"file"})
    if keywords_doc.get("file"):
        kfile = base_dir / keywords_doc["file"]
        try:
            keywords = load_keyword_table(kfile)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"keyword file {kfile}: {exc}") from exc

    try:
        return PipelineConfig(
            backends=backends,
            templates=templates,
            keywords=keywords,
            out_dir=out_dir,
            **pipeline_doc,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"pipeline section: {exc}") from exc

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
(read here) that is missing, not JSON or malformed. Each value must have the
type that its ``BackendConfig`` or ``PipelineConfig`` field declares (null
too where the default is None), and ``type``, ``script`` and the paths must be
text; a ConfigError names the ``section.key`` of a value that does not. So
``${VAR}`` can fill only text values. The limits are fixed
constants that neither a config file nor a library call sets:
``templates.STAGE_ATTEMPTS`` (3 attempts per text stage),
``optimizer.MAX_PROMPT_CHARS`` (prompts of at most 480 characters) and
``scene_graph.MAX_QUESTIONS`` (at most 200 questions per graph).
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import Optional, Union

import yaml

from promptrefine.backends import BackendConfig, HttpBackend, MockBackend
from promptrefine.optimizer import load_keyword_table
from promptrefine.pipeline import Backends, PipelineConfig
from promptrefine.scene_graph import Field, Schema, SchemaViolation, declared, read
from promptrefine.templates import TemplateError, load_template_set

_ENV_VAR = re.compile(r"\$\{(\w+)\}")


class ConfigError(Exception):
    pass


_TOP_KEYS = {"backends", "pipeline", "templates", "keywords"}
_ROLES = (Field("llm", dict), Field("vqa", dict), Field("t2i", dict), Field("embed", dict, None))


_BACKEND_FIELDS = declared(BackendConfig)
# backends, templates, keywords and out_dir come from other sections or the caller.
_PIPELINE_KEYS = (Field("workdir", str, None),) + declared(
    PipelineConfig, skip=("backends", "templates", "keywords", "out_dir")
)


def _reject_unknown(section: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(section) - allowed, key=str)
    if unknown:
        raise ConfigError(f"{where}: unknown key {', '.join(map(repr, unknown))}")


def _section(section, where: str, build, *keys: Field, defaults=None):
    """``build(**values)`` for ``section``, a mapping with only ``keys``. Each
    value is checked against its field's kind; an absent one is the field's
    default, or the one ``defaults`` gives."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a mapping")
    _reject_unknown(section, {f.name for f in keys}, where)
    try:
        return read({**(defaults or {}), **section}, Schema(build, *keys), where)
    except SchemaViolation as exc:  # the build's ValueError included
        raise ConfigError(str(exc)) from exc


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


def _backend_config(type: str, script: Optional[str] = None, **cfg):
    return BackendConfig(**cfg), script


def _build_backend(section: dict, role: str, image_dir: Optional[Path], base_dir: Path):
    where = f"backends.{role}"
    kind = section.get("type", "http")
    defaults = {"supports_embedding": True} if role == "embed" else {}
    keys = (Field("type", str, "http"),) + _BACKEND_FIELDS
    if kind == "mock":  # only a mock reads a script
        defaults.update(model=role, backoff_base=0.0)
        keys += (Field("script", str, None),)
    cfg, script = _section(section, where, _backend_config, *keys, defaults=defaults)
    if kind == "http":
        if not cfg.endpoint:
            raise ConfigError(f"{where}: http backend needs an endpoint")
        return HttpBackend(cfg, image_dir=image_dir)
    if kind == "mock":
        if not script:
            return MockBackend(cfg, image_dir=image_dir)
        try:
            return MockBackend.from_file(base_dir / script, cfg, image_dir=image_dir)
        except (OSError, ValueError) as exc:  # unreadable, not JSON, or a SchemaViolation
            raise ConfigError(f"{where}.script: {exc}") from exc
    raise ConfigError(f"{where}: unknown type {kind!r}")


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
    roles = _section(doc.get("backends") or {}, "backends", dict, *_ROLES)
    pipeline_doc = _section(doc.get("pipeline") or {}, "pipeline", dict, *_PIPELINE_KEYS)
    workdir = pipeline_doc.pop("workdir")
    image_dir = Path(workdir) / "images" if workdir else None
    backends = Backends(**{
        role: _build_backend(section, role, image_dir, base_dir)
        for role, section in roles.items()
        if section is not None
    })

    templates = None
    templates_dir = _section(doc.get("templates") or {}, "templates", dict, Field("dir", str, None))["dir"]
    if templates_dir:
        try:
            templates = load_template_set(base_dir / templates_dir)
        except TemplateError as exc:
            raise ConfigError(str(exc)) from exc

    keywords = None
    keywords_file = _section(doc.get("keywords") or {}, "keywords", dict, Field("file", str, None))["file"]
    if keywords_file:
        kfile = base_dir / keywords_file
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
    except ValueError as exc:
        raise ConfigError(f"pipeline: {exc}") from exc

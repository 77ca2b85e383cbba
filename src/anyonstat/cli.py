"""Command line driver: runs the verification suites headless and writes
machine-readable reports.

Exit codes: 0 all records pass, 1 any record fails (a numerical failure
inside a suite is a FAIL record that names the exception), 2 configuration
error.
A config file (JSON or key=value lines) may be pointed to by the
ANYONSTAT_CONFIG environment variable; command line flags override it.
JSON and CSV reports are byte-identical across runs with the same seed and
config, so the volatile runtime field is serialized as null there; the text
format shows measured times.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
import typing
from dataclasses import asdict, fields

from .suites import SUITE_NAMES, Report, SuiteConfig, run_suite


_HINTS = typing.get_type_hints(SuiteConfig)
# SuiteConfig field -> (repeatable, element type): a tuple[float, ...] field
# is repeatable, and str | None casts with str
_SCHEMA = {f.name: (typing.get_origin(_HINTS[f.name]) is tuple,
                    (typing.get_args(_HINTS[f.name]) or (_HINTS[f.name],))[0])
           for f in fields(SuiteConfig)}
# flag spellings that are not the field name
_FLAGS = {"spins": "--spin", "masses": "--mass", "multiplicities": "--n"}


class ConfigError(ValueError):
    pass


def _parse_config_file(path: str) -> dict:
    try:
        text = open(path, "r", encoding="utf-8").read()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"invalid JSON config: {e}") from e
        if not isinstance(data, dict):
            raise ConfigError("JSON config must be an object")
        return data
    data = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line without '=': {line!r}")
        key, _, value = line.partition("=")
        data[key.strip()] = value.strip()
    return data


def _coerce(key: str, value):
    if key not in _SCHEMA:
        raise ConfigError(f"unknown config key {key!r}")
    repeatable, cast = _SCHEMA[key]
    if not repeatable:
        return cast(value)
    if isinstance(value, str):
        value = value.replace(",", " ").split()
    if not isinstance(value, (list, tuple)):
        value = [value]
    return tuple(cast(v) for v in value)


def build_config(file_data: dict, args: argparse.Namespace) -> SuiteConfig:
    """The validated config; a bad value, format or out path is a ConfigError."""
    try:
        values = {key: _coerce(key, value) for key, value in file_data.items()}
        for key in _SCHEMA:
            v = getattr(args, key)
            if v is not None:
                values[key] = tuple(v) if isinstance(v, list) else v
        config = SuiteConfig(**values)
    except (TypeError, ValueError) as e:   # a ConfigError from _coerce is one too
        raise ConfigError(str(e)) from e
    if config.format not in _RENDERERS:
        raise ConfigError(f"unknown format {config.format!r}; choose json, csv or text")
    if config.out is not None:
        directory = os.path.dirname(config.out) or "."
        if not os.path.basename(config.out) or os.path.isdir(config.out) \
                or not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
            raise ConfigError(f"cannot write the report to {config.out!r}")
    return config


def _record_payload(r, volatile: bool) -> dict:
    d = asdict(r)
    if not volatile:
        d["runtime_ms"] = None
    return d


def render_json(report: Report) -> str:
    # out and format describe the delivery, not the verification run; keeping
    # them out of the echo makes reports byte-identical wherever they land
    config = {k: v for k, v in report.config.items() if k not in ("out", "format")}
    payload = {
        "version": report.version,
        "config": config,
        "records": [_record_payload(r, volatile=False) for r in report.records],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


_CSV_FIELDS = ("suite", "anchor", "passed", "runtime_ms", "inputs", "residuals")


def render_csv(report: Report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_FIELDS)
    for r in report.records:
        writer.writerow([r.suite, r.anchor, "pass" if r.passed else "fail", "",
                         json.dumps(r.inputs, sort_keys=True),
                         json.dumps(r.residuals, sort_keys=True)])
    return buf.getvalue()


def render_text(report: Report) -> str:
    lines = []
    for r in report.records:
        worst = max(r.residuals.values()) if r.residuals else 0.0
        ms = f"{r.runtime_ms:8.1f} ms" if r.runtime_ms is not None else "      --"
        error = f"  {r.inputs['error']}" if "error" in r.inputs else ""
        lines.append(f"[{'PASS' if r.passed else 'FAIL'}] {r.suite}/{r.anchor}"
                     f"  worst={worst:.3e}  {ms}{error}")
    lines.append(f"overall: {'PASS' if report.passed else 'FAIL'} "
                 f"({sum(r.passed for r in report.records)}/{len(report.records)})")
    return "\n".join(lines) + "\n"


_RENDERERS = {"json": render_json, "csv": render_csv, "text": render_text}


def emit_report(report: Report, fmt: str, out: str | None = None) -> str:
    content = _RENDERERS[fmt](report)
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(content)
    return content


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anyonstat",
        description="Run the covering-group / continuation / spin-statistics "
                    "verification suites.")
    parser.add_argument("--suite", default="all",
                        choices=SUITE_NAMES + ("all",))
    for key, (repeatable, cast) in _SCHEMA.items():
        flag = _FLAGS.get(key, "--" + key.replace("_", "-"))
        parser.add_argument(flag, dest=key, type=cast,
                            action="append" if repeatable else "store",
                            choices=tuple(_RENDERERS) if key == "format" else None,
                            help="repeatable" if repeatable else None)
    return parser


# argparse reads only '-1' or '-0.5' as negative numbers, and would take a
# value such as -1e-8 or -inf for an option: it is attached to its flag
_NEGATIVE_VALUE = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


def _attach_negative_values(argv: list) -> list:
    out = []
    for arg in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] \
                and _NEGATIVE_VALUE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(_attach_negative_values(
            sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0

    try:
        file_data = {}
        cfg_path = os.environ.get("ANYONSTAT_CONFIG")
        if cfg_path:
            file_data = _parse_config_file(cfg_path)
        config = build_config(file_data, args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    report = run_suite(args.suite, config)
    content = emit_report(report, config.format, config.out)
    if config.out is None or config.format == "text":
        sys.stdout.write(content if config.out is None else "")
    if config.out is not None:
        print(f"report written to {config.out}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())

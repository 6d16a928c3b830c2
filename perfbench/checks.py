"""Output checks behind `failed`: every CLI invocation is one operation, and it
fails on a nonzero exit or on any check below that its outputs miss."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

FLAGS = ("all_ok", "all_pass", "all_certified")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_digests(label: str, out_dir: Path) -> dict[str, str]:
    """sha256 of every file the op wrote, keyed "<op label>/<file name>"."""
    if not out_dir.is_dir():
        return {}
    return {f"{label}/{p.name}": sha256(p) for p in sorted(out_dir.iterdir()) if p.is_file()}


def _false_flags(doc, where: str = "") -> list[str]:
    found = []
    if isinstance(doc, dict):
        for key, val in doc.items():
            if key in FLAGS and val is not True:
                found.append(f"{where}{key} is {val!r}")
            found.extend(_false_flags(val, f"{where}{key}."))
    elif isinstance(doc, list):
        for i, val in enumerate(doc):
            found.extend(_false_flags(val, f"{where}{i}."))
    return found


def _report(out_dir: Path):
    try:
        return json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def check_op(
    label: str,
    code: int,
    out_dir: Path,
    expected: dict[str, str] | None,
    witness_path: Path | None = None,
    witness_out_dir: Path | None = None,
) -> list[str]:
    """Problems with one operation's outputs; empty when it succeeded.

    expected: digests this op's files must have (recorded for the seed, or
    taken from the run's first pass); None skips the digest comparison.
    witness_path / witness_out_dir: for a certify, the witness.json it read
    and the output directory of the command that wrote the witness.
    """
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    report = _report(out_dir)
    if report is None:
        return problems + ["no readable report.json"]
    problems.extend(_false_flags(report))
    if witness_out_dir is not None:
        written = witness_out_dir / "witness.json"
        if not (witness_path.is_file() and written.is_file() and sha256(witness_path) == sha256(written)):
            problems.append(f"certified {witness_path}, which differs from the witness command's {written}")
        if report.get("hits") != (_report(witness_out_dir) or {}).get("hits"):
            problems.append("certify hits differ from the witness command's hits")
    if expected is not None:
        mine = {k: v for k, v in expected.items() if k.startswith(f"{label}/")}
        got = output_digests(label, out_dir)
        for key in sorted(mine.keys() | got.keys()):
            if mine.get(key) != got.get(key):
                problems.append(f"{key}: sha256 {got.get(key)} expected {mine.get(key)}")
    return problems

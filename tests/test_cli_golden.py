"""Exact stdout, stderr and exit code of every CLI command on small fixed inputs.

The expected outputs live in ``cli_golden.json`` beside this file.  They
pin the CLI byte for byte, so a refactor that changes any digit, key,
message or exit code fails here.  After a deliberate output change,
regenerate the file with ``PYTHONPATH=src python tests/test_cli_golden.py``
and review the diff.
"""

import json
import sys
from pathlib import Path

import pytest

from monobound.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

#: Input files, written fresh for each run; ``{name}`` in an argv names one.
FILES = {
    "worked": "0.2,0.3,0.5\n",
    "skewed": "0.05,0.15,0.1,0.3,0.4\n",
    "x": "2,3,5\n",
    "y": "0,4,6\n",
    "dec_table": "0,2\n0.25,1.5\n0.6,0.9\n1,0.1\n",
    "rise_fall": "0,0\n0.5,1\n1,0\n",
    "density_table": "0,1\n0.4,2\n1,0.5\n",
}

CASES = {
    "bound-power": ["bound", "--weights", "{worked}", "--fn", "power:k=2"],
    "bound-table": ["bound", "--weights", "{skewed}", "--fn", "table:@{dec_table}"],
    "bound-increasing": ["bound", "--uniform", "4", "--fn", "linear:m=1,b=0"],
    "bound-non-monotone": ["bound", "--uniform", "4", "--fn", "table:@{rise_fall}"],
    "enclose-recip": ["enclose", "--weights", "{worked}", "--fn", "recip"],
    "enclose-table": ["enclose", "--uniform", "6", "--fn", "table:@{dec_table}", "--tol", "1e-9"],
    "enclose-increasing": ["enclose", "--weights", "{skewed}", "--fn", "linear:m=2,b=-1"],
    "enclose-non-monotone": ["enclose", "--uniform", "4", "--fn", "table:@{rise_fall}"],
    "abel-exp": ["abel", "--weights", "{skewed}", "--fn", "exp:lambda=1.5"],
    "abel-increasing": ["abel", "--uniform", "3", "--fn", "linear:m=1,b=0"],
    "transform-tri": ["transform-check", "--density", "tri:peak=0.3", "--fn", "trig"],
    "transform-tables": [
        "transform-check", "--density", "table:@{density_table}", "--fn", "table:@{dec_table}",
    ],
    "majorize": ["majorize", "--x", "{x}", "--y", "{y}"],
    "karamata": ["karamata", "--x", "{x}", "--y", "{y}", "--fn", "square"],
    "refine-recip": ["refine", "--weights", "{worked}", "--fn", "recip", "--depth", "2"],
    "refine-table": ["refine", "--uniform", "3", "--fn", "table:@{dec_table}"],
    "refine-increasing": ["refine", "--uniform", "3", "--fn", "linear:m=1,b=0"],
    "refine-non-monotone": ["refine", "--uniform", "3", "--fn", "table:@{rise_fall}"],
    "catalog": ["catalog"],
}

IDS = [f"{name}-{form}" for name in CASES for form in ("text", "json")]


def _argv(case_id: str, directory: Path) -> list[str]:
    name, _, form = case_id.rpartition("-")
    paths = {}
    for key, text in FILES.items():
        path = directory / f"{key}.csv"
        path.write_text(text)
        paths[key] = str(path)
    argv = [arg.format(**paths) for arg in CASES[name]]
    return argv + ["--json"] if form == "json" else argv


def _run(argv: list[str], capture) -> dict:
    code = main(argv)
    out, err = capture()
    return {"code": code, "stdout": out, "stderr": err}


@pytest.mark.parametrize("case_id", IDS)
def test_cli_output_is_unchanged(case_id, tmp_path, capsys):
    expected = json.loads(GOLDEN.read_text())[case_id]
    capsys.readouterr()
    got = _run(_argv(case_id, tmp_path), lambda: tuple(capsys.readouterr()))
    assert got == expected


def test_golden_file_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(IDS)


def _regenerate() -> None:
    import contextlib
    import io
    import tempfile

    golden = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case_id in IDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                golden[case_id] = _run(
                    _argv(case_id, Path(tmp)), lambda: (out.getvalue(), err.getvalue())
                )
    GOLDEN.write_text(json.dumps(golden, indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {len(golden)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()

"""Golden outputs: fixed CLI runs whose output must not change by a byte.

Each case in ``golden/cases.json`` names a config under ``golden/configs``
and a command line, in which ``{config}`` stands for that config's path and
``{out}`` for a fresh directory the run may write into. A case's expected
output is ``golden/expected/<case>/``: ``stdout``, and each file the run
wrote into ``{out}``, under its name there, with the directory's path
written back as ``{out}`` wherever an output names it. Cases marked
``"slow"`` are left to the full check; the tier-1 test runs the others.

    python3 tests/golden_outputs.py check             # every case
    python3 tests/golden_outputs.py regenerate        # rewrite the expected outputs

Every run goes in process through ``rsentropy.cli.main``. ``check`` prints
one line per case and exits 1 when any output differs. A change that moves
an output on purpose regenerates the corpus and names each changed file.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import shlex
import shutil
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
EXPECTED = GOLDEN / "expected"


def load_cases() -> dict:
    """{case name: case}, in file order."""
    return json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def run_case(case) -> dict:
    """{output name: bytes} of one case: "stdout", then each file the run
    wrote, by name, each with the run's directory written as {out}. A run
    that exits nonzero raises RuntimeError."""
    from rsentropy import cli

    with tempfile.TemporaryDirectory() as out:
        argv = [arg.format(config=GOLDEN / "configs" / case["config"], out=out)
                for arg in shlex.split(case["command"])]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"exit code {code}: {stdout.getvalue()}")
        outputs = {"stdout": stdout.getvalue().encode("utf-8")}
        for path in sorted(pathlib.Path(out).iterdir()):
            outputs[path.name] = path.read_bytes()
    return {name: data.replace(out.encode("utf-8"), b"{out}")
            for name, data in outputs.items()}


def expected_outputs(name) -> dict:
    """{output name: bytes} as committed for the case."""
    return {path.name: path.read_bytes() for path in sorted((EXPECTED / name).iterdir())}


def differences(name, case) -> list[str]:
    """The output names whose bytes differ from the committed ones, or that
    only one side has."""
    got, want = run_case(case), expected_outputs(name)
    return sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args not in (["check"], ["regenerate"]):
        print("usage: golden_outputs.py check | regenerate", file=sys.stderr)
        return 2
    failed = 0
    for name, case in load_cases().items():
        started = time.perf_counter()
        if args[0] == "regenerate":
            shutil.rmtree(EXPECTED / name, ignore_errors=True)
            (EXPECTED / name).mkdir(parents=True)
            for output, data in run_case(case).items():
                (EXPECTED / name / output).write_bytes(data)
            status = "written"
        else:
            diff = differences(name, case)
            failed += bool(diff)
            status = "differs: " + ", ".join(diff) if diff else "ok"
        print(f"{name}: {status} ({time.perf_counter() - started:.2f} s)", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.exit(main())

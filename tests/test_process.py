"""The process entry: ``python -m lobres.cli`` and the ``lobres`` script run
``cli.run``, which ends the process with ``os._exit`` once ``main`` has
returned and stdout and stderr are flushed.  These tests run real processes
with stdout block-buffered (PYTHONUNBUFFERED unset) unless they say so."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lobres.cli
from helpers import run_python

ROOT = Path(__file__).resolve().parent.parent
THEOREM1 = str(ROOT / "configs" / "theorem1.json")

# lemma-jump with 50 paths under large noise: both gates fail (exit 1)
FAILING = {
    "kind": "lemma-jump",
    "grid": {"n0": 128},
    "book": {"h": 1.0},
    "fundamental": {"s0": 100.0, "sigma": 30.0},
    "strategy": {"type": "blocks", "blocks": [[0.25, 1.0]], "t_prime": 0.5},
    "ladder": {"values": [16.0, 32.0]},
    "mc": {"paths": 50, "seed": 1},
}

# --log-level info stderr, byte for byte as logging's default handler wrote it
THEOREM1_INFO = ("INFO:lobres:gate kappa_x_err_decreasing_upper_half: pass\n"
                 "INFO:lobres:gate slope_gate: pass\n")
FAILING_INFO = ("INFO:lobres:gate positive_mean_gain_at_kappa_max: FAIL\n"
                "INFO:lobres:gate positive_fraction_at_kappa_max: FAIL\n"
                "gate failure: positive_fraction_at_kappa_max, positive_mean_gain_at_kappa_max\n")


def _env(buffered: bool = True) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _cli(args, tmp_path, to: str, buffered: bool = True) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``python -m lobres.cli *args`` whose
    stdout and stderr go to files (``to="file"``) or to pipes."""
    argv = [sys.executable, "-m", "lobres.cli", *args]
    if to == "pipe":
        p = subprocess.run(argv, env=_env(buffered), capture_output=True, text=True,
                           cwd=tmp_path, timeout=120)
        return p.returncode, p.stdout, p.stderr
    out, err = tmp_path / "stdout", tmp_path / "stderr"
    with open(out, "w") as o, open(err, "w") as e:
        code = subprocess.run(argv, env=_env(buffered), stdout=o, stderr=e, cwd=tmp_path,
                              timeout=120).returncode
    return code, out.read_text(), err.read_text()


@pytest.mark.parametrize("to", ["file", "pipe"])
def test_outputs_and_exit_codes_of_every_outcome(tmp_path, capsys, to):
    failing = tmp_path / "failing.json"
    failing.write_text(json.dumps(FAILING))
    assert lobres.cli.main(["validate", "--config", THEOREM1]) == 0
    report = capsys.readouterr().out
    cases = [  # args, exit code, stdout, stderr
        (["validate", "--config", THEOREM1], 0, report, ""),
        (["converge", "--config", THEOREM1, "--out", "t1", "--log-level", "info"], 0, "",
         THEOREM1_INFO),
        (["converge", "--config", THEOREM1, "--out", "t1", "--log-level", "debug"], 0, "",
         THEOREM1_INFO),
        (["converge", "--config", THEOREM1, "--out", "t1"], 0, "", ""),
        (["converge", "--config", str(failing), "--out", "f", "--log-level", "info"], 1, "",
         FAILING_INFO),
        (["converge", "--config", str(failing), "--out", "f"], 1, "",
         FAILING_INFO.split("\n")[2] + "\n"),
        (["validate", "--config", THEOREM1, "--seed", "-1"], 2, "",
         "error: mc.seed must be non-negative, got -1\n"),
        (["converge", "--config", THEOREM1, "--out", ""], 2, "",
         "error: output.directory must be a nonempty string\n"),
        (["validate", "--config", str(tmp_path / "absent.json")], 3, "",
         f"error: cannot read config: [Errno 2] No such file or directory: "
         f"'{tmp_path / 'absent.json'}'\n"),
    ]
    for args, code, stdout, stderr in cases:
        assert _cli(args, tmp_path, to) == (code, stdout, stderr), args


@pytest.mark.parametrize("to", ["file", "pipe"])
def test_argparse_exits_keep_their_codes_and_text(tmp_path, to):
    code, out, err = _cli(["--help"], tmp_path, to)
    assert (code, err) == (0, "") and out.startswith("usage: lobres ")
    code, out, err = _cli(["validate"], tmp_path, to)
    assert (code, out) == (2, "")
    assert err.endswith("error: the following arguments are required: --config\n")


def _closed_pipe():
    read, write = os.pipe()
    os.close(read)  # a reader that has gone: every write fails with EPIPE
    return write


@pytest.mark.parametrize("buffered", [True, False], ids=["final-flush", "report-write"])
@pytest.mark.parametrize("target, problem", [("/dev/full", "[Errno 28] No space left on device"),
                                             ("closed pipe", "[Errno 32] Broken pipe")])
def test_a_failed_stdout_write_exits_3(tmp_path, target, problem, buffered):
    # buffered, the report waits in stdout's buffer and run()'s flush fails;
    # unbuffered, validate's print of the report fails
    if target == "/dev/full" and not os.path.exists(target):
        pytest.skip("no /dev/full")
    stdout = _closed_pipe() if target == "closed pipe" else open(target, "w")
    try:
        p = subprocess.run([sys.executable, "-m", "lobres.cli", "validate", "--config", THEOREM1],
                           env=_env(buffered), stdout=stdout, stderr=subprocess.PIPE, text=True,
                           timeout=120)
    finally:
        os.close(stdout) if isinstance(stdout, int) else stdout.close()
    assert (p.returncode, p.stderr) == (3, f"error: I/O failure: {problem}\n")


@pytest.mark.parametrize("args", [["--help"], ["converge", "--help"]])
@pytest.mark.parametrize("buffered", [True, False], ids=["final-flush", "help-write"])
def test_a_failed_help_write_exits_3(tmp_path, args, buffered):
    # unbuffered, the help text's write fails, which argparse's print_help
    # would swallow (exit 0); buffered, run()'s flush fails
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    with open("/dev/full", "w") as stdout:
        p = subprocess.run([sys.executable, "-m", "lobres.cli", *args], env=_env(buffered),
                           stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120)
    assert (p.returncode, p.stderr) == (3, "error: I/O failure: [Errno 28] No space left on "
                                           "device\n")


def test_the_package_registers_no_atexit_handler(tmp_path):
    # run() skips the atexit handlers, so none may hold work of the package
    # (logging registered logging.shutdown)
    failing = tmp_path / "failing.json"
    failing.write_text(json.dumps(FAILING))
    code = (f"import atexit, contextlib, io\n"
            f"bare = atexit._ncallbacks()\n"
            f"from lobres.cli import main\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [main(['validate', '--config', {THEOREM1!r}]),\n"
            f"             main(['converge', '--config', {str(failing)!r}, '--out',\n"
            f"                   {str(tmp_path / 'out')!r}, '--log-level', 'debug'])]\n"
            f"print(*codes, bare, atexit._ncallbacks())")
    validate, run, bare, after = run_python(code, timeout=120).split()
    assert (validate, run) == ("0", "1")
    assert after == bare


def test_the_console_script_runs_what_python_m_runs():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module, name = scripts["lobres"].split(":")
    assert getattr(importlib.import_module(module), name) is lobres.cli.run
    # the body of cli.py's ``if __name__ == "__main__":`` block
    tree = ast.parse(Path(lobres.cli.__file__).read_text())
    main_block = [node for node in tree.body if isinstance(node, ast.If)
                  and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(n) for n in main_block[0].body] == [f"{name}()"]

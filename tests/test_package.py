import ast
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hedgenash

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = {
    "GameError", "ScheduleError", "LPError",
    "SymmetricGame", "Schedule", "Trace", "TraceRecord", "EquilibriumCertificate",
    "ExtractionOutcome",
    "GAME_KINDS", "DEFAULT_SCHEDULE",
    "validate_game", "load_game", "save_game", "generate_game", "normalize_payoffs",
    "decompose", "uniform_strategy",
    "parse_schedule", "run_trajectory", "hedge_step",
    "extract_certificate", "verify_support", "find_equalizer", "min_equalizer_gap",
    "epsilon_gap", "certificate_tolerance",
    "enumerate_symmetric_equilibria", "diagnose_entropy_bounds",
    "diagnose_trajectory_identities",
    "Xoshiro256StarStar",
}


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")     # Python 3.11 and later
    with (ROOT / "pyproject.toml").open("rb") as fh:
        assert hedgenash.__version__ == tomllib.load(fh)["project"]["version"]


def test_public_surface():
    assert len(hedgenash.__all__) == len(PUBLIC) == 31
    assert set(hedgenash.__all__) == PUBLIC
    for name in hedgenash.__all__:
        assert getattr(hedgenash, name) is not None


def test_benchmark_imports_are_public():
    needed = {"certificate_tolerance", "DEFAULT_SCHEDULE", "generate_game",
              "save_game", "uniform_strategy"}
    assert needed <= set(hedgenash.__all__)


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert "extract:" in capsys.readouterr().out


# The library pipeline, then run and oracle, in a fresh interpreter.
# hashlib maps OpenSSL's libcrypto, 3.6 MB of RSS, so SymmetricGame.digest
# takes CPython's built-in _sha1 and imports hashlib only on a build without
# it ("fallback" stands one in). The digests printed last are output of run
# summaries and oracle, and must not change.
PIPELINE = """
import contextlib, io, json, sys
fallback = sys.argv[2] == "fallback"
if fallback:
    sys.modules["_sha1"] = None
import hedgenash as hn
from hedgenash.cli import main
work = sys.argv[1]
game = hn.generate_game("random_uniform", 4, 0)
trace = hn.run_trajectory(game, hn.uniform_strategy(4), hn.DEFAULT_SCHEDULE, 500,
                          emit_every=100)
hn.extract_certificate(game, trace)
hn.enumerate_symmetric_equilibria(game)
hn.min_equalizer_gap(game)
hn.diagnose_entropy_bounds(game, 20, 0)
hn.diagnose_trajectory_identities(game, trace)
hn.save_game(game, f"{work}/g.json")
hn.load_game(f"{work}/g.json")
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["run", "--game", "random_uniform:3:0", "--steps", "100",
                 "--out", f"{work}/t.csv"]) == 0
    assert main(["oracle", "--game", "zero_sum_symmetric:5:1",
                 "--out", f"{work}/o.json"]) == 0
assert ("hashlib" in sys.modules) == fallback, "digest took the other sha1"
assert fallback or "_hashlib" not in sys.modules, "a command mapped OpenSSL"
print(json.load(open(f"{work}/t.csv.summary.json"))["game_digest"],
      json.load(open(f"{work}/o.json"))["game_digest"])
"""


def _pipeline(tmp_path, mode: str) -> list[str]:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", PIPELINE, str(tmp_path), mode]
    result = subprocess.run(argv, env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_library_pipeline_leaves_openssl_unmapped(tmp_path):
    assert _pipeline(tmp_path, "builtin") == ["6b2d89e16b37a8ca", "c406a8bf296c445d"]


def test_digest_without_builtin_sha1_falls_back_to_hashlib(tmp_path):
    assert _pipeline(tmp_path, "fallback") == ["6b2d89e16b37a8ca", "c406a8bf296c445d"]


@pytest.mark.parametrize("kind", hedgenash.GAME_KINDS)
def test_digest_is_hashlib_sha1(kind):
    for n, seed in [(2, 0), (3, 1), (8, 2)]:
        payoff = hedgenash.generate_game(kind, n, seed).payoff
        for game in (hedgenash.SymmetricGame(payoff), hedgenash.SymmetricGame(payoff.T)):
            expected = hashlib.sha1(np.ascontiguousarray(game.payoff).tobytes())
            assert game.digest() == expected.hexdigest()[:16]
        assert not game.payoff.flags.c_contiguous      # the transposed payoff


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("module", sorted(
    p.name for p in (ROOT / "src" / "hedgenash").glob("*.py") if p.name != "__init__.py"))
def test_no_unused_imports(module):
    assert _unused_imports(ROOT / "src" / "hedgenash" / module) == []

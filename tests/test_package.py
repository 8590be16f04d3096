import ast
import os
import re
import subprocess
import sys
from pathlib import Path

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


# The library pipeline in a fresh interpreter. hashlib maps OpenSSL's
# libcrypto, 3.6 MB of RSS, so only SymmetricGame.digest imports it; the
# digests printed last are output of run summaries and oracle, and must not
# change.
LIBRARY_PIPELINE = """
import sys
import hedgenash as hn
game = hn.generate_game("random_uniform", 4, 0)
trace = hn.run_trajectory(game, hn.uniform_strategy(4), hn.DEFAULT_SCHEDULE, 500,
                          emit_every=100)
hn.extract_certificate(game, trace)
hn.enumerate_symmetric_equilibria(game)
hn.min_equalizer_gap(game)
hn.diagnose_entropy_bounds(game, 20, 0)
hn.diagnose_trajectory_identities(game, trace)
hn.save_game(game, sys.argv[1])
hn.load_game(sys.argv[1])
assert "_hashlib" not in sys.modules, "a library call imported hashlib"
print(hn.generate_game("random_uniform", 3, 0).digest(),
      hn.generate_game("zero_sum_symmetric", 5, 1).digest())
"""


def test_library_pipeline_leaves_openssl_unmapped(tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", LIBRARY_PIPELINE, str(tmp_path / "g.json")]
    result = subprocess.run(argv, env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["6b2d89e16b37a8ca", "c406a8bf296c445d"]


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

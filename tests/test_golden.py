"""Golden outputs: every CLI mode must keep writing the same bytes.

Each case runs one CLI command on a small grid and compares the sha256
of the files it writes with ``tests/golden/sha256.json``.  The hashes
pin the 9-significant-digit tables and summaries, so a refactor of the
physics or of the writers that changes any output digit fails here.

Only regenerate the hashes when a change sets out to alter outputs, and
say so in CHANGES.md:

    PYTHONPATH=src python3 tests/test_golden.py --record
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from grover_optics.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "sha256.json"
SMALL_GRID = {"grid_samples": 4096, "grid_pitch_um": 2.0}
# The default grid: its 256 KiB complex arrays are large enough for
# numpy to reuse temporaries in place, which can change the operand
# order of a multiply and with it the last bit, so one case runs here.
DEFAULT_GRID = {"grid_samples": 16384, "grid_pitch_um": 2.0}
SEARCH_FILES = ("profiles.csv", "peaks.csv", "summary.json")

# name -> (subcommand, config, files whose hashes are pinned)
CASES = {
    **{
        f"run-{preset}": ("run", {"preset": preset, **SMALL_GRID}, SEARCH_FILES)
        for preset in ("paper-42um", "paper-84um", "paper-126um", "ideal")
    },
    "run-paper-84um-16384": (
        "run",
        {"preset": "paper-84um", **DEFAULT_GRID},
        SEARCH_FILES,
    ),
    "pulse-train-paper-42um": (
        "pulse-train",
        {"preset": "paper-42um", **SMALL_GRID},
        ("train.csv", "summary.json"),
    ),
    "reference-matched-42um": (
        "reference",
        {
            "reference": {
                "n_items": 1330.0 / 42.0,
                "n_marked": 1.0,
                "n_iterations": 12,
                "oracle_phase_rad": -2.2,
                "diffusion_phase_rad": -2.2,
            }
        },
        ("reference.csv", "summary.json"),
    ),
    "sweep-analyze-2axis": (
        "sweep",
        {
            "preset": "paper-42um",
            "mode": "analyze",
            **SMALL_GRID,
            "sweep": [
                {"parameter": "oracle.flat_width_um", "values": [42.0, 84.0]},
                {"parameter": "oracle.center_um", "values": [-150.0, 150.0]},
            ],
        },
        ("sweep.csv", "sweep_summary.json"),
    ),
    # One batch of four points that mixes lossy and lossless rows and two
    # IAA phases, so each file's compensated column is its own point's.
    "sweep-search-iaa-loss": (
        "sweep",
        {
            "preset": "paper-42um",
            "mode": "search",
            **SMALL_GRID,
            "sweep": [
                {"parameter": "iaa.phase_rad", "values": [-1.1, -0.9]},
                {"parameter": "roundtrip_energy_factor", "values": [0.75, 1.0]},
            ],
        },
        ("sweep.csv", "sweep_summary.json",
         *(f"point_{i:03d}/{file}" for i in range(4) for file in ("profiles.csv", "peaks.csv"))),
    ),
}


def case_digests(name: str, work: Path) -> dict[str, str]:
    """Run one case into ``work`` and hash the files it pins."""
    command, config, files = CASES[name]
    config_path = work / f"{name}.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out = work / name
    code = main([command, "--config", str(config_path), "--out", str(out)])
    assert code == 0, f"{name}: exit code {code}"
    return {
        file: hashlib.sha256((out / file).read_bytes()).hexdigest() for file in files
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden_hashes(name, tmp_path, capsys):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert case_digests(name, tmp_path) == golden[name]
    capsys.readouterr()


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        digests = {name: case_digests(name, Path(scratch)) for name in sorted(CASES)}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(digests)} cases to {GOLDEN}")

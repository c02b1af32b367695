"""Workload definitions: which CLI calls each benchmark operation makes.

An operation is what one user does at the command line; it is one
``grover_optics.cli.main(argv)`` call, except on ``fine-grid-train``
where it is a pulse-train call followed by its matched discrete
``reference`` cross-check (see README.md for why they are timed
together).  A round is one pass over a workload's operations.  The
seed only permutes the order of operations within each round, so every
output stays checkable against the stored hashes.
"""

import random
from dataclasses import dataclass

PAPER_PRESETS = ("paper-42um", "paper-84um", "paper-126um")
PAPER_FLAT_WIDTH_UM = {"paper-42um": 42.0, "paper-84um": 84.0, "paper-126um": 126.0}
BEAM_FWHM_UM = 1330.0
SWEEP_WORKERS = 2  # point summary.json files echo this value, so it is fixed


@dataclass(frozen=True)
class Call:
    """One CLI invocation; its output goes to the subdirectory ``name``."""

    name: str
    command: str
    preset: str | None = None
    config: dict | None = None
    workers: int | None = None

    def raw_config(self) -> dict:
        """The mapping the CLI hands to ``build_config`` for this call."""
        raw = dict(self.config or {})
        if self.preset is not None:
            raw["preset"] = self.preset
        return raw


@dataclass(frozen=True)
class Op:
    key: str
    calls: tuple[Call, ...]
    pulses: int  # recorded cavity output pulses the operation computes


@dataclass(frozen=True)
class Workload:
    name: str
    grid_samples: int
    ops: tuple[Op, ...]


def _search_profiles() -> Workload:
    ops = tuple(
        Op(
            key=f"run/{preset}",
            calls=(Call("run", "run", preset=preset),),
            pulses=30 if preset == "ideal" else 12,
        )
        for preset in (*PAPER_PRESETS, "ideal")
    )
    return Workload("search-profiles", 16384, ops)


def _analyze_sweep() -> Workload:
    config = {
        "preset": "paper-42um",
        "mode": "analyze",
        "sweep": [
            {"parameter": "oracle.flat_width_um", "values": [42.0, 84.0, 126.0]},
            {"parameter": "oracle.center_um", "values": [-450.0, -150.0, 150.0, 450.0]},
        ],
    }
    op = Op(
        key="sweep/analyze-12pt",
        calls=(Call("sweep", "sweep", config=config, workers=SWEEP_WORKERS),),
        pulses=12 * 12,
    )
    return Workload("analyze-sweep", 16384, (op,))


def _fine_grid_train() -> Workload:
    ops = []
    for preset in PAPER_PRESETS:
        train = {"grid_samples": 65536, "grid_pitch_um": 2.0}
        matched = {
            "reference": {
                "n_items": BEAM_FWHM_UM / PAPER_FLAT_WIDTH_UM[preset],
                "n_marked": 1.0,
                "n_iterations": 12,
                "oracle_phase_rad": -2.2,
                "diffusion_phase_rad": -2.2,
            }
        }
        ops.append(
            Op(
                key=f"pulse-train/{preset}-65536",
                calls=(
                    Call("train", "pulse-train", preset=preset, config=train),
                    Call("reference", "reference", preset=preset, config=matched),
                ),
                pulses=12,
            )
        )
    return Workload("fine-grid-train", 65536, tuple(ops))


WORKLOADS = {
    w.name: w for w in (_search_profiles(), _analyze_sweep(), _fine_grid_train())
}


def rounds(ops: tuple[Op, ...], seed: int):
    """Endless rounds; each is every op once, in a seed-determined order."""
    rng = random.Random(seed)
    while True:
        order = list(ops)
        rng.shuffle(order)
        yield order

"""Configuration schema, presets, and strict JSON loading.

Every physical quantity carries its unit in the key name
(``wavelength_nm``, ``flat_width_um``) so a config file can never be
mis-scaled silently.  Unknown keys are rejected.  Presets are JSON
documents shipped as package data; user-supplied keys override preset
values field by field.
"""

import json
import math
from importlib import resources
from pathlib import Path
from typing import Literal

from pydantic import BaseModel, ConfigDict, Field, ValidationError, field_validator, model_validator

from .cavity import CavityConfig
from .elements import LossModel, Slit, TrapezoidPhasePlate
from .errors import ConfigurationError
from .fields import Grid1D

__all__ = ["ExperimentConfig", "PRESET_NAMES", "build_config", "load_config"]

PRESET_NAMES = ("paper-42um", "paper-84um", "paper-126um", "ideal")


class PlateSettings(BaseModel):
    model_config = ConfigDict(extra="forbid")

    center_um: float = 0.0
    flat_width_um: float = Field(gt=0)
    ramp_width_um: float = Field(ge=0)
    phase_rad: float = -1.1

    def to_plate(self) -> TrapezoidPhasePlate:
        return TrapezoidPhasePlate(
            center=self.center_um * 1e-6,
            flat_width=self.flat_width_um * 1e-6,
            ramp_width=self.ramp_width_um * 1e-6,
            phase_depth=self.phase_rad,
        )


class ReferenceSettings(BaseModel):
    """Discrete-model run parameters (phases are per iteration)."""

    model_config = ConfigDict(extra="forbid")

    n_items: float = Field(default=32.0, gt=0)
    n_marked: float = Field(default=1.0, gt=0)
    n_iterations: int = Field(default=16, ge=1)
    oracle_phase_rad: float = math.pi
    diffusion_phase_rad: float = math.pi

    @model_validator(mode="after")
    def _marked_within_items(self) -> "ReferenceSettings":
        if self.n_marked > self.n_items:
            raise ValueError("n_marked must not exceed n_items")
        return self


class SweepAxis(BaseModel):
    model_config = ConfigDict(extra="forbid")

    parameter: str = Field(min_length=1)
    values: list[float] = Field(min_length=1)


def _default_oracle() -> PlateSettings:
    return PlateSettings(center_um=150.0, flat_width_um=42.0, ramp_width_um=4.0,
                         phase_rad=-1.1)


def _default_iaa() -> PlateSettings:
    return PlateSettings(center_um=0.0, flat_width_um=136.0, ramp_width_um=8.0,
                         phase_rad=-1.1)


class ExperimentConfig(BaseModel):
    """Serialized experiment: cavity physics plus run options."""

    model_config = ConfigDict(extra="forbid")

    mode: Literal["search", "pulse-train", "reference", "analyze"] = "search"
    preset: Literal["paper-42um", "paper-84um", "paper-126um", "ideal"] | None = None
    wavelength_nm: float = Field(default=532.0, gt=0)
    input_fwhm_mm: float = Field(default=1.33, gt=0)
    grid_samples: int = Field(default=16384, ge=16)
    grid_pitch_um: float = Field(default=2.0, gt=0)
    oracle: PlateSettings = Field(default_factory=_default_oracle)
    iaa: PlateSettings = Field(default_factory=_default_iaa)
    focal_length_1_mm: float = Field(default=400.0, gt=0)
    focal_length_2_mm: float = Field(default=600.0, gt=0)
    roundtrip_energy_factor: float = Field(default=0.75, gt=0, le=1)
    output_mirror_transmission: float = Field(default=0.02, gt=0, le=1)
    numerical_aperture: float = Field(default=0.03, gt=0)
    slit_center_um: float | None = None
    slit_width_um: float = Field(default=55.0, gt=0)
    n_pulses: int = Field(default=12, ge=1)
    compensate_loss: bool = True
    workers: int = Field(default=1, ge=1)
    output_dir: str | None = None
    reference: ReferenceSettings = Field(default_factory=ReferenceSettings)
    sweep: list[SweepAxis] = Field(default_factory=list)

    @field_validator("grid_samples")
    @classmethod
    def _power_of_two(cls, v: int) -> int:
        if v & (v - 1) != 0:
            raise ValueError("grid_samples must be a power of two")
        return v

    def to_cavity_config(self) -> CavityConfig:
        """Convert to physical units and validate the geometry."""
        slit_center_um = (
            self.slit_center_um
            if self.slit_center_um is not None
            else self.oracle.center_um
        )
        return CavityConfig(
            oracle_plate=self.oracle.to_plate(),
            iaa_plate=self.iaa.to_plate(),
            wavelength=self.wavelength_nm * 1e-9,
            input_fwhm=self.input_fwhm_mm * 1e-3,
            focal_length_1=self.focal_length_1_mm * 1e-3,
            focal_length_2=self.focal_length_2_mm * 1e-3,
            loss=LossModel(self.roundtrip_energy_factor),
            output_mirror_transmission=self.output_mirror_transmission,
            slit=Slit(center=slit_center_um * 1e-6, width=self.slit_width_um * 1e-6),
            grid=Grid1D(self.grid_samples, self.grid_pitch_um * 1e-6),
            n_pulses=self.n_pulses,
        )


def preset_values(name: str) -> dict:
    """Raw key/value content of a shipped preset."""
    if name not in PRESET_NAMES:
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        )
    text = resources.files("grover_optics").joinpath(f"presets/{name}.json").read_text(
        encoding="utf-8"
    )
    return json.loads(text)


def _deep_merge(base: dict, override: dict) -> dict:
    """Keys in ``override`` win; nested dicts merge recursively."""
    merged = dict(base)
    for key, value in override.items():
        if key in merged and isinstance(merged[key], dict) and isinstance(value, dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged


def _format_validation_error(err: ValidationError) -> str:
    parts = []
    for item in err.errors():
        location = ".".join(str(p) for p in item["loc"]) or "<root>"
        parts.append(f"{location}: {item['msg']}")
    return "; ".join(parts)


def build_config(raw: dict) -> ExperimentConfig:
    """Validate a raw mapping, expanding its preset if one is named.

    Explicit keys in ``raw`` override the preset's values.  The result
    is also cross-checked as a physical cavity (plates must fit their
    planes, the beam its grid).
    """
    if not isinstance(raw, dict):
        raise ConfigurationError(
            f"config root must be an object, got {type(raw).__name__}"
        )
    merged = raw
    preset_name = raw.get("preset")
    if preset_name is not None:
        merged = _deep_merge(preset_values(preset_name), raw)
    try:
        cfg = ExperimentConfig.model_validate(merged)
    except ValidationError as err:
        raise ConfigurationError(_format_validation_error(err)) from err
    if cfg.mode != "reference":
        cfg.to_cavity_config()  # surface geometry violations at load time
    return cfg


def read_raw_config(path: str | Path) -> dict:
    """Parse a JSON config file to a raw mapping, without validating."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigurationError(
            f"{path}: parse error at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err
    if not isinstance(raw, dict):
        raise ConfigurationError(
            f"{path}: config root must be an object, got {type(raw).__name__}"
        )
    return raw


def load_config(path: str | Path) -> ExperimentConfig:
    """Read, parse, and validate a JSON config file."""
    return build_config(read_raw_config(path))

"""Configuration schema, presets, and strict JSON loading.

Every physical quantity carries its unit in the key name
(``wavelength_nm``, ``flat_width_um``) so a config file can never be
mis-scaled silently.  The schema is frozen dataclasses with each
field's bounds in its ``metadata``.  No JSON type is converted into
another: a float field takes an int or a float, an int field an int or
an integral float below 2**63 in magnitude, a bool field only true or
false, a str field only a string.  Unknown keys and non-finite numbers
(NaN, Infinity, an integer beyond float64) are rejected, every error
listed in field order.  Presets are JSON documents shipped as package
data; user-supplied keys override preset values field by field.
"""

import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from importlib import resources
from pathlib import Path
from typing import Literal, get_args, get_origin

from .cavity import CavityConfig
from .elements import TrapezoidPhasePlate
from .errors import ConfigurationError
from .fields import Grid1D
from .reference import _check_counts

__all__ = ["ExperimentConfig", "PRESET_NAMES", "build_config"]

PRESET_NAMES = ("paper-42um", "paper-84um", "paper-126um", "ideal")


@dataclass(frozen=True, kw_only=True)
class PlateSettings:
    center_um: float = 0.0
    flat_width_um: float = field(metadata={"gt": 0})
    ramp_width_um: float = field(metadata={"ge": 0})
    phase_rad: float = -1.1

    def to_plate(self) -> TrapezoidPhasePlate:
        return TrapezoidPhasePlate(
            center=self.center_um * 1e-6,
            flat_width=self.flat_width_um * 1e-6,
            ramp_width=self.ramp_width_um * 1e-6,
            phase_depth=self.phase_rad,
        )


@dataclass(frozen=True)
class ReferenceSettings:
    """Discrete-model run parameters (phases are per iteration)."""

    n_items: float = field(default=32.0, metadata={"gt": 0})
    n_marked: float = field(default=1.0, metadata={"gt": 0})
    n_iterations: int = field(default=16, metadata={"ge": 1})
    oracle_phase_rad: float = math.pi
    diffusion_phase_rad: float = math.pi

    def __post_init__(self) -> None:
        _check_counts(self.n_items, self.n_marked)


@dataclass(frozen=True)
class SweepAxis:
    parameter: str = field(metadata={"min_length": 1})
    values: list[float] = field(metadata={"min_length": 1})


@dataclass(frozen=True)
class ExperimentConfig:
    """Serialized experiment: cavity physics plus run options."""

    mode: Literal["search", "pulse-train", "reference", "analyze"] = "search"
    preset: Literal[PRESET_NAMES] | None = None
    wavelength_nm: float = field(default=532.0, metadata={"gt": 0})
    input_fwhm_mm: float = field(default=1.33, metadata={"gt": 0})
    grid_samples: int = field(default=16384, metadata={"ge": 16, "power_of_two": True})
    grid_pitch_um: float = field(default=2.0, metadata={"gt": 0})
    oracle: PlateSettings = PlateSettings(center_um=150.0, flat_width_um=42.0, ramp_width_um=4.0)
    iaa: PlateSettings = PlateSettings(flat_width_um=136.0, ramp_width_um=8.0)
    focal_length_1_mm: float = field(default=400.0, metadata={"gt": 0})
    focal_length_2_mm: float = field(default=600.0, metadata={"gt": 0})
    roundtrip_energy_factor: float = field(default=0.75, metadata={"gt": 0, "le": 1})
    output_mirror_transmission: float = field(default=0.02, metadata={"gt": 0, "le": 1})
    numerical_aperture: float = field(default=0.03, metadata={"gt": 0})
    slit_center_um: float | None = None
    slit_width_um: float = field(default=55.0, metadata={"gt": 0})
    n_pulses: int = field(default=12, metadata={"ge": 1})
    compensate_loss: bool = True
    workers: int = field(default=1, metadata={"ge": 1})
    output_dir: str | None = None
    reference: ReferenceSettings = ReferenceSettings()
    sweep: list[SweepAxis] = field(default_factory=list)

    def to_cavity_config(self) -> CavityConfig:
        """Convert to physical units and validate the geometry."""
        return CavityConfig(
            oracle_plate=self.oracle.to_plate(),
            iaa_plate=self.iaa.to_plate(),
            wavelength=self.wavelength_nm * 1e-9,
            input_fwhm=self.input_fwhm_mm * 1e-3,
            focal_length_1=self.focal_length_1_mm * 1e-3,
            roundtrip_energy_factor=self.roundtrip_energy_factor,
            output_mirror_transmission=self.output_mirror_transmission,
            slit_center=None if self.slit_center_um is None else self.slit_center_um * 1e-6,
            slit_width=self.slit_width_um * 1e-6,
            grid=Grid1D(self.grid_samples, self.grid_pitch_um * 1e-6),
            n_pulses=self.n_pulses,
        )


_BOUNDS = {  # metadata key: (test, message)
    "gt": (lambda value, limit: value > limit, "must be > {}"),
    "ge": (lambda value, limit: value >= limit, "must be >= {}"),
    "le": (lambda value, limit: value <= limit, "must be <= {}"),
    "min_length": (lambda value, n: len(value) >= n, "must have length >= {}"),
    "power_of_two": (lambda value, _: value & (value - 1) == 0, "must be a power of two"),
}
_MUST = {float: "a finite number", int: "an integer below 2**63 in magnitude",
         bool: "true or false", str: "a string", list: "a list"}


def _resolve(kind) -> tuple:
    """``(kind, detail)`` as ``_check`` reads it, worked out once per field type."""
    if is_dataclass(kind):
        return kind, {f.name: (_resolve(f.type), f.metadata.items(),
                               f.default is MISSING and f.default_factory is MISSING)
                      for f in fields(kind)}
    origin, args = get_origin(kind), get_args(kind)
    if origin is Literal or not args:
        return origin or kind, args
    return origin if origin is list else None, _resolve(args[0])  # list[X] or X | None


def _check(spec: tuple, value, loc: str, errors: list[str]):
    """``value`` as the resolved type ``spec``, or None with ``errors`` extended."""
    kind, detail = spec
    if kind is None:  # ``X | None``
        return None if value is None else _check(detail, value, loc, errors)
    if kind is Literal and value in detail or kind in (bool, str) and type(value) is kind:
        return value
    if kind is list and type(value) is list:
        return [_check(detail, item, f"{loc}.{i}", errors) for i, item in enumerate(value)]
    if kind in (int, float) and type(value) in (int, float):
        try:
            number = kind(value)
        except (OverflowError, ValueError):  # an int beyond float64; nan or inf to int
            number = math.nan
        if (math.isfinite(number) if kind is float else number == value and abs(number) < 2**63):
            return number
    if is_dataclass(kind) and type(value) is dict:
        first_error, values, prefix = len(errors), {}, f"{loc}." if loc else ""
        for name, (field_spec, bounds, required) in detail.items():
            where = prefix + name
            if name not in value:
                if required:
                    errors.append(f"{where}: is required")
                continue
            checked = values[name] = _check(field_spec, value[name], where, errors)
            for bound, limit in bounds if checked is not None else ():
                test, message = _BOUNDS[bound]
                if not test(checked, limit):
                    errors.append(f"{where}: {message.format(limit)}")
                    break
        errors += [f"{prefix}{key}: unknown key" for key in value if key not in detail]
        try:
            return kind(**values) if len(errors) == first_error else None
        except ValueError as err:  # a rule across fields, from ``__post_init__``
            errors.append(f"{loc or '<root>'}: {err}")
            return None
    must = "one of " + ", ".join(map(repr, detail)) if kind is Literal else _MUST.get(kind)
    errors.append(f"{loc or '<root>'}: must be {must or 'an object'}")
    return None


_EXPERIMENT = _resolve(ExperimentConfig)


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


def build_config(raw: dict) -> ExperimentConfig:
    """Validate a raw mapping, expanding its preset if one is named.

    Explicit keys in ``raw`` override the preset's values.  The result
    is also cross-checked as a physical cavity (plates must fit their
    planes, the beam its grid).
    """
    if isinstance(raw, dict) and raw.get("preset") is not None:
        raw = _deep_merge(preset_values(raw["preset"]), raw)
    errors: list[str] = []
    cfg = _check(_EXPERIMENT, raw, "", errors)
    if errors:
        raise ConfigurationError("; ".join(errors))
    if cfg.mode != "reference":
        cfg.to_cavity_config()  # surface geometry violations at load time
    return cfg


def read_raw_config(path: str | Path) -> dict:
    """Parse a JSON config file to a raw mapping, without validating."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ConfigurationError(
            f"{path}: parse error at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err
    except UnicodeDecodeError as err:
        raise ConfigurationError(
            f"{path}: not UTF-8 at byte {err.start}: {err.reason}") from err
    except RecursionError as err:
        raise ConfigurationError(f"{path}: JSON nested too deeply to parse") from err
    if not isinstance(raw, dict):
        raise ConfigurationError(
            f"{path}: config root must be an object, got {type(raw).__name__}"
        )
    return raw

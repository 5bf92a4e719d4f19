"""Hybrid-system configuration: parameter set, file format, validation.

The on-disk format is flat sectioned key-value text ([section] headers,
``key = value`` lines, ``#`` comments), chosen so a configuration can be
audited line by line against a parameter table. Numbers are SI; booleans
are ``true``/``false``. ``droop`` (AC/DC) and ``y_l`` (storage) may be
omitted, in which case they are designed from the frequency/voltage limits.

Parsing is strict: unknown sections or keys and missing required keys are
hard errors naming the offender; post-parse validation re-runs the droop
design identities and the concatenator resolution bound.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, replace

from .ilc import ConcatenatorSpec, IlcError, IlcSpec, design_omegas, min_cutoff
from .subgrid import (
    AC,
    DC,
    DS,
    NegativeDroop,
    SubgridError,
    SubgridSpec,
    design_droop,
)

DEFAULT_OMEGA_0 = 1e-3 * math.pi

# Restoration PI defaults; slow against the inertia response on purpose.
DEFAULT_K_P = 0.005
DEFAULT_K_I = 0.05

# Converter power-loop PI defaults; fast against every subgrid mode so the
# measured post-disturbance rates reflect the pooled inertia.
DEFAULT_K_TP = 4000.0
DEFAULT_K_TI = 400e3


class ConfigError(Exception):
    """Invalid, incomplete or inconsistent configuration input."""


@dataclass(frozen=True)
class Toggles:
    concatenator_enabled: bool = True
    restoration_enabled: bool = True
    ilc_enabled: bool = True


@dataclass(frozen=True)
class Event:
    time_s: float
    kind: str
    delta_w: float


@dataclass(frozen=True)
class Scenario:
    """Load schedule and run settings for one simulation."""

    horizon_s: float
    step_s: float = 1e-4
    events: tuple[Event, ...] = ()
    initial_loads_w: tuple[float, float, float] = (0.0, 0.0, 0.0)
    toggles: Toggles = field(default_factory=Toggles)
    output_every: int = 100

    def validate(self) -> None:
        if self.step_s <= 0.0:
            raise ConfigError("step must be > 0")
        if self.horizon_s <= self.step_s:
            raise ConfigError("horizon must exceed the step")
        if self.output_every < 1:
            raise ConfigError("output_every must be >= 1")
        times = [e.time_s for e in self.events]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ConfigError("events must be sorted by time")
        if any(t < 0.0 or t > self.horizon_s for t in times):
            raise ConfigError("event times must lie within [0, horizon]")
        for e in self.events:
            if e.kind not in (AC, DC, DS):
                raise ConfigError(f"unknown subgrid {e.kind!r} in event")


@dataclass(frozen=True)
class HybridConfig:
    """Three subgrid specs plus converter and simulation settings."""

    ac: SubgridSpec
    dc: SubgridSpec
    ds: SubgridSpec
    ilc: IlcSpec
    omega_0: float = DEFAULT_OMEGA_0
    step_s: float = 1e-4
    horizon_s: float = 40.0
    output_every: int = 100

    @property
    def specs(self) -> tuple[SubgridSpec, SubgridSpec, SubgridSpec]:
        return (self.ac, self.dc, self.ds)

    @property
    def p_gmax_w(self) -> float:
        return self.ac.p_max_w + self.dc.p_max_w + self.ds.p_max_w

    def concatenator_spec(self) -> ConcatenatorSpec:
        return design_omegas(self.omega_0, self.ac, self.dc, self.ds)

    def validate(self, check_cutoff: bool = True) -> None:
        for spec in self.specs:
            spec.validate()
        self.ilc.validate()
        if self.step_s <= 0.0:
            raise ConfigError("sim.step must be > 0")
        if self.horizon_s <= 0.0:
            raise ConfigError("sim.horizon must be > 0")
        if self.output_every < 1:
            raise ConfigError("sim.output_every must be >= 1")
        if check_cutoff and not self.cutoff_bound_ok():
            bound = min_cutoff(self.ilc.sampling_period, self.ilc.safety_factor_m)
            raise ConfigError(
                f"ilc.omega_0 = {self.omega_0:.6g} rad/s is below the "
                f"resolution bound {bound:.6g} rad/s"
            )

    def cutoff_bound_ok(self) -> bool:
        bound = min_cutoff(self.ilc.sampling_period, self.ilc.safety_factor_m)
        return self.omega_0 >= bound


@dataclass(frozen=True)
class LoadedRun:
    """A parsed configuration file: system parameters plus the scenario."""

    config: HybridConfig
    toggles: Toggles
    events: tuple[Event, ...]
    initial_loads_w: tuple[float, float, float]

    def scenario(self) -> Scenario:
        sc = Scenario(
            horizon_s=self.config.horizon_s,
            step_s=self.config.step_s,
            events=self.events,
            initial_loads_w=self.initial_loads_w,
            toggles=self.toggles,
            output_every=self.config.output_every,
        )
        sc.validate()
        return sc

    def total_event_step_w(self) -> float:
        return sum(e.delta_w for e in self.events)

    def first_step_w(self) -> float:
        """Total size of the first simultaneous disturbance group."""
        if not self.events:
            return 0.0
        t0 = self.events[0].time_s
        return sum(e.delta_w for e in self.events if e.time_s == t0)


# section -> key -> (required, kind); kind in {float, int, bool}
_SWING_KEYS = {
    "p_max": (True, float), "inertia": (True, float), "damping": (True, float),
    "droop": (False, float), "t_g": (True, float), "f_hp": (True, float),
    "t_ch": (True, float), "t_rh": (True, float),
    "k_p": (False, float), "k_i": (False, float),
}
_SCHEMA = {
    "ac": {"f_max": (True, float), "f_min": (True, float),
           "f_nominal": (True, float), **_SWING_KEYS},
    "dc": {"v_max": (True, float), "v_min": (True, float),
           "v_nominal": (True, float), **_SWING_KEYS},
    "ds": {"v_max": (True, float), "v_min": (True, float),
           "v_nominal": (True, float), "p_max": (True, float),
           "y_h": (True, float), "y_l": (False, float),
           "k_p": (False, float), "k_i": (False, float)},
    "ilc": {"omega_0": (False, float),
            "k_tp1": (False, float), "k_ti1": (False, float),
            "k_tp2": (False, float), "k_ti2": (False, float),
            "sampling_period": (False, float),
            "safety_factor": (False, float)},
    "sim": {"step": (False, float), "horizon": (False, float),
            "output_every": (False, int),
            "initial_load_ac": (False, float),
            "initial_load_dc": (False, float),
            "initial_load_ds": (False, float)},
    "toggles": {"concatenator": (False, bool), "restoration": (False, bool),
                "ilc": (False, bool)},
}


def _convert(section: str, key: str, raw: str, kind):
    raw = raw.strip()
    if kind is bool:
        if raw not in ("true", "false"):
            raise ConfigError(f"{section}.{key}: expected true/false, got {raw!r}")
        return raw == "true"
    try:
        value = kind(raw)
    except ValueError:
        raise ConfigError(
            f"{section}.{key}: expected {kind.__name__}, got {raw!r}"
        ) from None
    if not math.isfinite(value):
        raise ConfigError(f"{section}.{key}: expected a finite number, got {raw!r}")
    return value


def parse_config(text: str, check_cutoff: bool = True) -> LoadedRun:
    """Parse and validate the sectioned key-value format.

    Unknown sections/keys and missing required keys are errors naming the
    offender. check_cutoff=False defers the concatenator resolution bound
    (the design report wants to load such a file and explain the violation).
    """
    parser = configparser.ConfigParser(
        comment_prefixes=("#",), inline_comment_prefixes=("#",),
        delimiters=("=",), interpolation=None, strict=True,
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None

    values: dict[str, dict] = {}
    for section in parser.sections():
        if section == "events":
            continue
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        values[section] = {}
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {section}.{key}")
            values[section][key] = _convert(section, key, raw, _SCHEMA[section][key][1])
    for section, keys in _SCHEMA.items():
        if section in ("ilc", "sim", "toggles") and section not in values:
            values[section] = {}
            continue
        if section not in values:
            raise ConfigError(f"missing section [{section}]")
        for key, (required, _) in keys.items():
            if required and key not in values[section]:
                raise ConfigError(f"missing key {section}.{key}")

    def swing_spec(kind, sec, x_prefix):
        v = values[sec]
        spec = SubgridSpec(
            kind=kind,
            x_max=v[f"{x_prefix}_max"], x_min=v[f"{x_prefix}_min"],
            x_nominal=v[f"{x_prefix}_nominal"], p_max_w=v["p_max"],
            inertia_h=v["inertia"], damping_d=v["damping"],
            droop_r=v.get("droop"),
            t_g=v["t_g"], f_hp=v["f_hp"], t_ch=v["t_ch"], t_rh=v["t_rh"],
            k_p=v.get("k_p", DEFAULT_K_P), k_i=v.get("k_i", DEFAULT_K_I),
        )
        return spec if spec.droop_r is not None else design_droop(spec)

    try:
        ac = swing_spec(AC, "ac", "f")
        dc = swing_spec(DC, "dc", "v")
        v = values["ds"]
        ds = SubgridSpec(
            kind=DS, x_max=v["v_max"], x_min=v["v_min"],
            x_nominal=v["v_nominal"], p_max_w=v["p_max"],
            y_h=v["y_h"], y_l=v.get("y_l"),
            k_p=v.get("k_p", DEFAULT_K_P), k_i=v.get("k_i", DEFAULT_K_I),
        )
        if ds.y_l is None:
            ds = design_droop(ds)
    except (NegativeDroop, SubgridError) as exc:
        raise ConfigError(str(exc)) from None

    vi = values["ilc"]
    ilc = IlcSpec(
        k_tp1=vi.get("k_tp1", DEFAULT_K_TP), k_ti1=vi.get("k_ti1", DEFAULT_K_TI),
        k_tp2=vi.get("k_tp2", DEFAULT_K_TP), k_ti2=vi.get("k_ti2", DEFAULT_K_TI),
        sampling_period=vi.get("sampling_period", 50e-6),
        safety_factor_m=vi.get("safety_factor", 1.3),
    )
    vs = values["sim"]
    cfg = HybridConfig(
        ac=ac, dc=dc, ds=ds, ilc=ilc,
        omega_0=vi.get("omega_0", DEFAULT_OMEGA_0),
        step_s=vs.get("step", 1e-4), horizon_s=vs.get("horizon", 40.0),
        output_every=vs.get("output_every", 100),
    )
    try:
        cfg.validate(check_cutoff=check_cutoff)
    except ConfigError:
        raise
    except (SubgridError, IlcError) as exc:
        raise ConfigError(str(exc)) from None

    vt = values["toggles"]
    toggles = Toggles(
        concatenator_enabled=vt.get("concatenator", True),
        restoration_enabled=vt.get("restoration", True),
        ilc_enabled=vt.get("ilc", True),
    )

    events = []
    if parser.has_section("events"):
        for name, raw in parser.items("events"):
            parts = raw.split()
            if len(parts) != 3:
                raise ConfigError(
                    f"events.{name}: expected 'TIME SUBGRID DELTA_W', got {raw!r}"
                )
            time_s = _convert("events", name, parts[0], float)
            kind = parts[1].lower()
            if kind not in (AC, DC, DS):
                raise ConfigError(f"events.{name}: unknown subgrid {parts[1]!r}")
            delta = _convert("events", name, parts[2], float)
            events.append(Event(time_s=time_s, kind=kind, delta_w=delta))
    events.sort(key=lambda e: e.time_s)

    loads = (vs.get("initial_load_ac", 0.0), vs.get("initial_load_dc", 0.0),
             vs.get("initial_load_ds", 0.0))
    run = LoadedRun(config=cfg, toggles=toggles, events=tuple(events),
                    initial_loads_w=loads)
    run.scenario()  # validates event ordering against the horizon
    return run


def load_config(path, check_cutoff: bool = True) -> LoadedRun:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    return parse_config(text, check_cutoff=check_cutoff)


def serialize_config(run: LoadedRun) -> str:
    """Emit the parsed configuration; parsing it back gives equal values."""
    cfg = run.config
    out = io.StringIO()

    def num(x):
        return repr(float(x))

    def swing(sec, spec, prefix):
        out.write(f"[{sec}]\n")
        out.write(f"{prefix}_max = {num(spec.x_max)}\n")
        out.write(f"{prefix}_min = {num(spec.x_min)}\n")
        out.write(f"{prefix}_nominal = {num(spec.x_nominal)}\n")
        out.write(f"p_max = {num(spec.p_max_w)}\n")
        out.write(f"inertia = {num(spec.inertia_h)}\n")
        out.write(f"damping = {num(spec.damping_d)}\n")
        out.write(f"droop = {num(spec.droop_r)}\n")
        for k in ("t_g", "f_hp", "t_ch", "t_rh"):
            out.write(f"{k} = {num(getattr(spec, k))}\n")
        out.write(f"k_p = {num(spec.k_p)}\nk_i = {num(spec.k_i)}\n\n")

    swing("ac", cfg.ac, "f")
    swing("dc", cfg.dc, "v")
    ds = cfg.ds
    out.write("[ds]\n")
    out.write(f"v_max = {num(ds.x_max)}\nv_min = {num(ds.x_min)}\n")
    out.write(f"v_nominal = {num(ds.x_nominal)}\np_max = {num(ds.p_max_w)}\n")
    out.write(f"y_h = {num(ds.y_h)}\ny_l = {num(ds.y_l)}\n")
    out.write(f"k_p = {num(ds.k_p)}\nk_i = {num(ds.k_i)}\n\n")
    out.write("[ilc]\n")
    out.write(f"omega_0 = {num(cfg.omega_0)}\n")
    for k in ("k_tp1", "k_ti1", "k_tp2", "k_ti2"):
        out.write(f"{k} = {num(getattr(cfg.ilc, k))}\n")
    out.write(f"sampling_period = {num(cfg.ilc.sampling_period)}\n")
    out.write(f"safety_factor = {num(cfg.ilc.safety_factor_m)}\n\n")
    out.write("[sim]\n")
    out.write(f"step = {num(cfg.step_s)}\nhorizon = {num(cfg.horizon_s)}\n")
    out.write(f"output_every = {cfg.output_every}\n")
    for name, val in zip(("ac", "dc", "ds"), run.initial_loads_w):
        out.write(f"initial_load_{name} = {num(val)}\n")
    out.write("\n[toggles]\n")
    t = run.toggles
    out.write(f"concatenator = {'true' if t.concatenator_enabled else 'false'}\n")
    out.write(f"restoration = {'true' if t.restoration_enabled else 'false'}\n")
    out.write(f"ilc = {'true' if t.ilc_enabled else 'false'}\n")
    if run.events:
        out.write("\n[events]\n")
        for i, e in enumerate(run.events, start=1):
            out.write(f"e{i} = {num(e.time_s)} {e.kind} {num(e.delta_w)}\n")
    return out.getvalue()


def reference_run(**overrides) -> LoadedRun:
    """Reference configuration with the benchmark disturbance sequence:
    14/12/10 kW steps on DC/AC/DS at t = 1 s, then +6 kW on AC at t = 20 s."""
    cfg = reference_config(**overrides)
    return LoadedRun(
        config=cfg, toggles=Toggles(),
        events=(Event(1.0, DC, 14e3), Event(1.0, AC, 12e3),
                Event(1.0, DS, 10e3), Event(20.0, AC, 6e3)),
        initial_loads_w=(0.0, 0.0, 0.0),
    )


def reference_config(**overrides) -> HybridConfig:
    """The benchmark parameter set: 20 kW subgrids, 51/49 Hz, 380/370 V,
    710/690 V, H = 2/3, y_h = 7.5, shared governor constants."""
    ac = design_droop(SubgridSpec(
        kind=AC, x_max=51.0, x_min=49.0, x_nominal=50.0, p_max_w=20e3,
        inertia_h=2.0, damping_d=1.0, t_g=0.1, f_hp=0.3, t_ch=0.2, t_rh=7.0,
        k_p=DEFAULT_K_P, k_i=DEFAULT_K_I,
    ))
    dc = design_droop(SubgridSpec(
        kind=DC, x_max=380.0, x_min=370.0, x_nominal=370.0, p_max_w=20e3,
        inertia_h=3.0, damping_d=1.0, t_g=0.1, f_hp=0.3, t_ch=0.2, t_rh=7.0,
        k_p=DEFAULT_K_P, k_i=DEFAULT_K_I,
    ))
    ds = design_droop(SubgridSpec(
        kind=DS, x_max=710.0, x_min=690.0, x_nominal=700.0, p_max_w=20e3,
        y_h=7.5, k_p=DEFAULT_K_P, k_i=DEFAULT_K_I,
    ))
    cfg = HybridConfig(ac=ac, dc=dc, ds=ds, ilc=IlcSpec(
        k_tp1=DEFAULT_K_TP, k_ti1=DEFAULT_K_TI,
        k_tp2=DEFAULT_K_TP, k_ti2=DEFAULT_K_TI,
    ))
    if overrides:
        cfg = replace(cfg, **overrides)
    cfg.validate()
    return cfg

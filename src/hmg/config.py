"""Hybrid-system configuration: parameter set, file format, validation.

The on-disk format is flat sectioned key-value text ([section] headers,
``key = value`` lines, ``#`` comments), chosen so a configuration can be
audited line by line against a parameter table. Numbers are SI; booleans
are ``true``/``false``. ``droop`` (AC/DC) and ``y_l`` (storage) may be
omitted, in which case they are designed from the frequency/voltage limits.
``_SCHEMA`` is the only description of the format: both the parser and the
serializer read every key, the field it sets and whether it is required
from it. A key the file omits takes its field's dataclass default.

Parsing is strict: unknown sections or keys and missing required keys are
hard errors naming the offender; post-parse validation re-runs the droop
design identities and the concatenator resolution bound.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace

from .ilc import ConcatenatorSpec, IlcError, IlcSpec, design_omegas, min_cutoff
from .subgrid import (
    AC,
    DC,
    DS,
    KINDS,
    SubgridError,
    SubgridSpec,
    design_droop,
)


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
class HybridConfig:
    """Three subgrid specs, converter settings, and the run settings that
    `LoadedRun.scenario()` copies into the Scenario, which checks them."""

    ac: SubgridSpec
    dc: SubgridSpec
    ds: SubgridSpec
    ilc: IlcSpec
    omega_0: float = 1e-3 * math.pi
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

    def coupling(self, toggles: Toggles) -> tuple[IlcSpec | None,
                                                  ConcatenatorSpec | None]:
        """(converter, concatenator) the toggles keep, None for one switched off."""
        return (self.ilc if toggles.ilc_enabled else None,
                self.concatenator_spec() if toggles.concatenator_enabled else None)

    def validate(self, check_cutoff: bool = True) -> None:
        for spec in self.specs:
            spec.validate()
        self.ilc.validate()
        if self.omega_0 <= 0.0:
            raise ConfigError("ilc.omega_0 must be > 0")
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
class Scenario:
    """Load schedule and run settings for one simulation."""

    horizon_s: float
    step_s: float = HybridConfig.step_s
    events: tuple[Event, ...] = ()
    initial_loads_w: tuple[float, float, float] = (0.0, 0.0, 0.0)
    toggles: Toggles = field(default_factory=Toggles)
    output_every: int = HybridConfig.output_every

    def __post_init__(self):
        # tuples, so that every scenario is hashable and can key `sim.run`
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(self, "initial_loads_w",
                           tuple(map(float, self.initial_loads_w)))

    def validate(self) -> None:
        if self.step_s <= 0.0:
            raise ConfigError("sim.step must be > 0")
        if self.horizon_s <= self.step_s:
            raise ConfigError("sim.horizon must exceed sim.step")
        if self.output_every < 1:
            raise ConfigError("sim.output_every must be >= 1")
        times = [e.time_s for e in self.events]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ConfigError("events must be sorted by time")
        if any(t < 0.0 or t > self.horizon_s for t in times):
            raise ConfigError("event times must lie within [0, sim.horizon]")
        last = self.horizon_s / self.step_s
        if not math.isfinite(last):
            raise ConfigError(f"horizon {self.horizon_s:g} s at step {self.step_s:g} s "
                              "holds more steps than a float can count")
        last = int(round(last))
        for e in self.events:
            if e.kind not in KINDS:
                raise ConfigError(f"unknown subgrid {e.kind!r} in event")
            if self.step_of(e.time_s) > last:
                raise ConfigError(f"event at t={e.time_s:.10g} s acts after the "
                                  f"last step at t={last * self.step_s:.10g} s")

    def step_of(self, time_s: float) -> int:
        """Step a load change at time_s acts from: ceil(t/h), less round-off."""
        return math.ceil(time_s / self.step_s - 1e-9)

    def first_group_w(self) -> tuple[float, float, float]:
        """Per-subgrid loads (AC, DC, DS) of the events that act from the
        first event's step: the first disturbance."""
        loads = [0.0, 0.0, 0.0]
        for e in self.events:
            if self.step_of(e.time_s) == self.step_of(self.events[0].time_s):
                loads[KINDS.index(e.kind)] += e.delta_w
        return tuple(loads)


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
        """Total size of the first load-step group (Scenario.first_group_w)."""
        return sum(self.scenario().first_group_w())


_SWING_ROWS = (("inertia", "inertia_h", True), ("damping", "damping_d", True),
               ("droop", "droop_r", False), ("t_g", "t_g", True),
               ("f_hp", "f_hp", True), ("t_ch", "t_ch", True),
               ("t_rh", "t_rh", True))
_GAIN_ROWS = (("k_p", "k_p", False), ("k_i", "k_i", False))
_VOLTAGE_ROWS = (("v_max", "x_max", True), ("v_min", "x_min", True),
                 ("v_nominal", "x_nominal", True), ("p_max", "p_max_w", True))

# The file format: per section, (key, field, required) rows in file order.
# In [ac], [dc] and [ds] a field is one of that subgrid's SubgridSpec fields;
# elsewhere it is "owner.name": an IlcSpec field (ilc), a HybridConfig field
# (config), a Toggles field (toggles) or one subgrid's initial load (load).
_SCHEMA = {
    "ac": (("f_max", "x_max", True), ("f_min", "x_min", True),
           ("f_nominal", "x_nominal", True), ("p_max", "p_max_w", True),
           *_SWING_ROWS, *_GAIN_ROWS),
    "dc": (*_VOLTAGE_ROWS, *_SWING_ROWS, *_GAIN_ROWS),
    "ds": (*_VOLTAGE_ROWS, ("y_h", "y_h", True), ("y_l", "y_l", False),
           *_GAIN_ROWS),
    "ilc": (("omega_0", "config.omega_0", False),
            ("k_tp1", "ilc.k_tp1", False), ("k_ti1", "ilc.k_ti1", False),
            ("k_tp2", "ilc.k_tp2", False), ("k_ti2", "ilc.k_ti2", False),
            ("sampling_period", "ilc.sampling_period", False),
            ("safety_factor", "ilc.safety_factor_m", False)),
    "sim": (("step", "config.step_s", False),
            ("horizon", "config.horizon_s", False),
            ("output_every", "config.output_every", False),
            ("initial_load_ac", "load.ac", False),
            ("initial_load_dc", "load.dc", False),
            ("initial_load_ds", "load.ds", False)),
    "toggles": (("concatenator", "toggles.concatenator_enabled", False),
                ("restoration", "toggles.restoration_enabled", False),
                ("ilc", "toggles.ilc_enabled", False)),
}
_OWNER_TYPES = {**dict.fromkeys(KINDS, SubgridSpec),
                "ilc": IlcSpec, "config": HybridConfig, "toggles": Toggles}


def _field(section: str, path: str) -> tuple[str, str, type]:
    """(owner, name, type from the owner's annotation) of a schema field."""
    owner, _, name = path.rpartition(".")
    owner = owner or section
    cls = _OWNER_TYPES.get(owner)
    annotation = cls.__dataclass_fields__[name].type if cls else "float"
    return owner, name, {"bool": bool, "int": int}.get(annotation, float)


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


def _subgrid(kind: str, fields: dict) -> SubgridSpec:
    """The subgrid's spec, its droop designed from the limits if omitted."""
    spec = SubgridSpec(kind=kind, **fields)
    given = spec.y_l if kind == DS else spec.droop_r
    return spec if given is not None else design_droop(spec)


def parse_config(text: str, check_cutoff: bool = True) -> LoadedRun:
    """Parse and validate the sectioned key-value format.

    Unknown sections/keys and missing required keys are errors naming the
    offender, and so are initial loads that together exceed the total
    capacity. check_cutoff=False defers the concatenator resolution bound
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

    values = {owner: {} for owner in (*_OWNER_TYPES, "load")}
    for section in parser.sections():
        if section == "events":
            continue
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        fields = {key: path for key, path, _ in _SCHEMA[section]}
        for key, raw in parser.items(section):
            if key not in fields:
                raise ConfigError(f"unknown key {section}.{key}")
            owner, name, kind = _field(section, fields[key])
            values[owner][name] = _convert(section, key, raw, kind)
    for section, rows in _SCHEMA.items():
        for key, _, required in rows:
            if required and not parser.has_option(section, key):
                if not parser.has_section(section):
                    raise ConfigError(f"missing section [{section}]")
                raise ConfigError(f"missing key {section}.{key}")

    try:
        cfg = HybridConfig(*[_subgrid(kind, values[kind]) for kind in KINDS],
                           ilc=IlcSpec(**values["ilc"]), **values["config"])
        cfg.validate(check_cutoff=check_cutoff)
    except (SubgridError, IlcError) as exc:
        raise ConfigError(str(exc)) from None

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
            if kind not in KINDS:
                raise ConfigError(f"events.{name}: unknown subgrid {parts[1]!r}")
            delta = _convert("events", name, parts[2], float)
            events.append(Event(time_s=time_s, kind=kind, delta_w=delta))
    events.sort(key=lambda e: e.time_s)

    loads = tuple(values["load"].get(kind, default)
                  for kind, default in zip(KINDS, Scenario.initial_loads_w))
    if sum(loads) > cfg.p_gmax_w:
        raise ConfigError(
            f"sim.initial_load_ac + sim.initial_load_dc + sim.initial_load_ds = "
            f"{sum(loads):.15g} W exceeds the total capacity {cfg.p_gmax_w:.15g} W")
    run = LoadedRun(config=cfg, toggles=Toggles(**values["toggles"]),
                    events=tuple(events), initial_loads_w=loads)
    run.scenario()  # validates the run settings and the events
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
    values = {kind: vars(spec) for kind, spec in zip(KINDS, cfg.specs)}
    values.update(ilc=vars(cfg.ilc), config=vars(cfg),
                  toggles=vars(run.toggles),
                  load=dict(zip(KINDS, run.initial_loads_w)))
    blocks = []
    for section, rows in _SCHEMA.items():
        lines = [f"[{section}]\n"]
        for key, path, _ in rows:
            owner, name, kind = _field(section, path)
            value = values[owner][name]
            if kind is bool:
                text = "true" if value else "false"
            else:
                text = str(value) if kind is int else repr(float(value))
            lines.append(f"{key} = {text}\n")
        blocks.append("".join(lines))
    if run.events:
        blocks.append("[events]\n" + "".join(
            f"e{i} = {float(e.time_s)!r} {e.kind} {float(e.delta_w)!r}\n"
            for i, e in enumerate(run.events, start=1)))
    return "\n".join(blocks)


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
    ac = SubgridSpec(
        kind=AC, x_max=51.0, x_min=49.0, x_nominal=50.0, p_max_w=20e3,
        inertia_h=2.0, damping_d=1.0, t_g=0.1, f_hp=0.3, t_ch=0.2, t_rh=7.0,
    )
    dc = replace(ac, kind=DC, x_max=380.0, x_min=370.0, x_nominal=370.0,
                 inertia_h=3.0)
    ds = SubgridSpec(kind=DS, x_max=710.0, x_min=690.0, x_nominal=700.0,
                     p_max_w=20e3, y_h=7.5)
    cfg = HybridConfig(*[design_droop(s) for s in (ac, dc, ds)], ilc=IlcSpec())
    if overrides:
        cfg = replace(cfg, **overrides)
    cfg.validate()
    return cfg

"""Ready-made sweep configurations reproducing the reference figure panels
as data tables.

All presets share one experimentally motivated cavity: length 1 mm, 5 ng
mirrors at omega_m = 2 pi x 10 MHz with quality 1e5, decay 2 pi x 14 MHz, and
an 810 nm drive.  Detunings and hopping strengths are swept in omega_m units
on the positive (cooling) side.
"""

from __future__ import annotations

import math

from .engine import AxisSpec, BathSpec, SweepConfig
from .errors import UnknownPresetError
from .params import Detuning, PhysicalParams

MHZ = 2.0 * math.pi * 1e6

POWER_FIG2 = 0.035   # W
POWER_FIG3 = 0.050   # W
NBAR_REF = 836.0     # quoted occupation of the 0.4 K mirror bath
SURFACE_GRID = 101   # resolution of the two-axis maps


def _base_params(power: float, mode: str = "effective", delta=0.0, xi=0.0) -> PhysicalParams:
    return PhysicalParams(
        cavity_length=1e-3,
        mirror_mass=5e-12,
        mech_freq=10.0 * MHZ,
        mech_damping=100.0 * 2.0 * math.pi,
        cavity_decay=14.0 * MHZ,
        laser_wavelength=810e-9,
        drive_power=power,
        bath_temperature=0.4,
        hop_strength=xi * 10.0 * MHZ,
        detuning=Detuning(mode, (delta * 10.0 * MHZ, delta * 10.0 * MHZ)),
    )


def _delta_axis(count: int = 201) -> AxisSpec:
    return AxisSpec.from_range("delta", 0.0, 2.0, count)


def _surface_axes() -> tuple[AxisSpec, AxisSpec]:
    return (
        AxisSpec.from_range("delta", 0.0, 2.0, SURFACE_GRID),
        AxisSpec.from_range("xi", 0.0, 2.0, SURFACE_GRID),
    )


def _notes(*extra: str) -> tuple[str, ...]:
    return (
        "axis convention: delta and xi in omega_m units, positive detuning on the cooling side",
        "unstable points (full drift not Hurwitz) carry empty measure fields",
    ) + extra


def _make_presets() -> dict[str, SweepConfig]:
    presets: dict[str, SweepConfig] = {}

    # steady-amplitude curves; bare detunings swept self-consistently
    presets["fig2a"] = SweepConfig(
        params=_base_params(POWER_FIG2, mode="bare", xi=1.0),
        axes=(
            AxisSpec("delta", (0.0, 0.5, 1.0, 1.5)),
            AxisSpec.from_range("power", 0.0, 2.0 * POWER_FIG2, 201),
        ),
        branch_policy="all",
        label="fig2a",
        header_notes=_notes(
            "bare-detuning mode: the radiation-pressure shift is solved self-consistently",
            "delta axis holds the bare detuning family; xi = 1 omega_m; all branches emitted",
        ),
    )
    presets["fig2b"] = SweepConfig(
        params=_base_params(POWER_FIG2, mode="bare"),
        axes=(
            AxisSpec("delta", (0.0, 0.5, 1.0, 1.5)),
            AxisSpec.from_range("xi", 0.0, 3.0, 201),
        ),
        branch_policy="all",
        label="fig2b",
        header_notes=_notes(
            "bare-detuning mode: the radiation-pressure shift is solved self-consistently",
            f"drive power fixed at {POWER_FIG2 * 1e3:.0f} mW; all branches emitted",
        ),
    )

    # mirror-field entanglement vs detuning, vacuum optical input
    presets["fig3a"] = SweepConfig(
        params=_base_params(POWER_FIG3),
        axes=(
            AxisSpec("power", (0.5 * POWER_FIG3, POWER_FIG3, 1.5 * POWER_FIG3)),
            _delta_axis(),
        ),
        nbar_override=NBAR_REF,
        label="fig3a",
        header_notes=_notes("power family 0.5/1.0/1.5 x 50 mW; xi = 0; vacuum optical input"),
    )
    presets["fig3b"] = SweepConfig(
        params=_base_params(POWER_FIG3),
        axes=(AxisSpec("nbar", (NBAR_REF, 4e3, 2e4)), _delta_axis()),
        label="fig3b",
        header_notes=_notes("thermal-occupation family; xi = 0; vacuum optical input"),
    )
    presets["fig3c"] = SweepConfig(
        params=_base_params(POWER_FIG3),
        axes=(AxisSpec("xi", (0.0, 0.5, 1.0)), _delta_axis()),
        nbar_override=NBAR_REF,
        label="fig3c",
        header_notes=_notes("hopping family; vacuum optical input"),
    )

    # squeezed input: entanglement robustness and transfer
    presets["fig4a"] = SweepConfig(
        params=_base_params(POWER_FIG3),
        bath=BathSpec(photon_number=0.0, correlation="ideal"),
        axes=(AxisSpec("photon_number", (0.0, 0.01, 0.05, 0.1)), _delta_axis()),
        nbar_override=NBAR_REF,
        label="fig4a",
        header_notes=_notes("photon-number family with maximal correlation; xi = 0"),
    )
    presets["fig4b"] = SweepConfig(
        params=_base_params(POWER_FIG3),
        bath=BathSpec(photon_number=0.01, correlation="ideal"),
        axes=(AxisSpec("xi", (0.0, 0.5, 1.0)), _delta_axis()),
        nbar_override=NBAR_REF,
        label="fig4b",
        header_notes=_notes("hopping family at N = 0.01, maximal correlation"),
    )

    presets["fig5"] = SweepConfig(
        params=_base_params(POWER_FIG3),
        bath=BathSpec(photon_number=0.01, correlation="ideal"),
        axes=_surface_axes(),
        nbar_override=NBAR_REF,
        label="fig5",
        header_notes=_notes(
            f"stability map, {SURFACE_GRID}x{SURFACE_GRID} grid",
            "s1/s2 are the collective-model conditions at modified detuning delta + xi",
        ),
    )

    for name, n_photon in (("fig6a", 0.025), ("fig6b", 0.05), ("fig6c", 0.1)):
        presets[name] = SweepConfig(
            params=_base_params(POWER_FIG3),
            bath=BathSpec(photon_number=n_photon, correlation="ideal"),
            axes=_surface_axes(),
            nbar_override=NBAR_REF,
            label=name,
            header_notes=_notes(
                f"surface grid {SURFACE_GRID}x{SURFACE_GRID}; N = {n_photon}, maximal correlation"
            ),
        )

    presets["fig7"] = SweepConfig(
        params=_base_params(POWER_FIG3),
        bath=BathSpec(photon_number=0.05, correlation="ideal"),
        axes=_surface_axes(),
        nbar_override=NBAR_REF,
        label="fig7",
        header_notes=_notes(
            f"teleportation fidelity surface, {SURFACE_GRID}x{SURFACE_GRID} grid",
            "fidelity is emitted only where the full drift is Hurwitz",
        ),
    )
    return presets


# built once: the configurations are frozen, so every caller may share them
_PRESETS = _make_presets()
PRESET_NAMES = tuple(sorted(_PRESETS))


def fig_preset(name: str) -> SweepConfig:
    """Fully populated sweep configuration for a named figure panel."""
    if name not in _PRESETS:
        raise UnknownPresetError(name, PRESET_NAMES)
    return _PRESETS[name]

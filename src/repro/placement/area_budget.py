"""Area budgets for VR placement regions.

Two regions exist in the paper's layouts:

* the **periphery** — the interposer surface around the die shadow
  (interposer area minus die area, derated for routing keep-out),
* the **below-die** region — the die shadow inside the interposer,
  of which the paper says the embedded VRs occupy roughly half to
  three quarters; we budget 75% (matches the Table II DPMIH count of
  7 x 53.3 mm² = 373 mm² on a 500 mm² die).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError

#: Fraction of the off-die interposer surface usable for periphery VRs.
PERIPHERY_USABLE_FRACTION = 0.95

#: Fraction of the die shadow usable for embedded below-die VRs.
BELOW_DIE_USABLE_FRACTION = 0.75

#: Default interposer platform area (Table I, PKG/Interposer level).
DEFAULT_INTERPOSER_AREA_MM2 = 1200.0


@dataclass(frozen=True)
class AreaBudget:
    """An available placement area and its accounting.

    Attributes:
        region: label (``"periphery"`` or ``"below-die"``).
        available_mm2: usable area for VR footprints.
    """

    region: str
    available_mm2: float

    def __post_init__(self) -> None:
        if self.available_mm2 <= 0:
            raise ConfigError(f"{self.region}: budget must be positive")

    def capacity(self, vr_area_mm2: float) -> int:
        """How many VRs of the given footprint fit."""
        if vr_area_mm2 <= 0:
            raise ConfigError("VR area must be positive")
        return int(self.available_mm2 / vr_area_mm2)

    def fits(self, count: int, vr_area_mm2: float) -> bool:
        """True if ``count`` VRs fit in this budget."""
        if count < 0:
            raise ConfigError("count must be non-negative")
        return count * vr_area_mm2 <= self.available_mm2 * (1.0 + 1e-9)

    def used_fraction(self, count: int, vr_area_mm2: float) -> float:
        """Fraction of the budget consumed by ``count`` VRs."""
        return count * vr_area_mm2 / self.available_mm2


def periphery_budget(
    die_area_mm2: float,
    interposer_area_mm2: float = DEFAULT_INTERPOSER_AREA_MM2,
    usable_fraction: float = PERIPHERY_USABLE_FRACTION,
) -> AreaBudget:
    """Budget for VRs on the interposer surface around the die."""
    if interposer_area_mm2 <= die_area_mm2:
        raise ConfigError("interposer must be larger than the die")
    if not 0.0 < usable_fraction <= 1.0:
        raise ConfigError("usable fraction must be in (0, 1]")
    return AreaBudget(
        region="periphery",
        available_mm2=(interposer_area_mm2 - die_area_mm2) * usable_fraction,
    )


def below_die_budget(
    die_area_mm2: float,
    usable_fraction: float = BELOW_DIE_USABLE_FRACTION,
) -> AreaBudget:
    """Budget for VRs embedded in the interposer below the die."""
    if die_area_mm2 <= 0:
        raise ConfigError("die area must be positive")
    if not 0.0 < usable_fraction <= 1.0:
        raise ConfigError("usable fraction must be in (0, 1]")
    return AreaBudget(
        region="below-die",
        available_mm2=die_area_mm2 * usable_fraction,
    )

"""
Anatomy of one switching decision
=================================

Build the smallest interesting network (one macro, one micro), put it at
a fixed operating point, and walk through every term of the revenue:
power draw per station, the saving from sleeping the micro, the energy
value of that saving, and the leasing income from the freed spectrum.
"""

import numpy as np

from hetlease import (
    BsKind,
    OffloadMode,
    Scenario,
    SwitchVector,
    TimeGrid,
    default_parameter_set,
    hetnet_power_slot,
    is_feasible,
    power_saving_slot,
    total_revenue_slot,
)

params = default_parameter_set()
macro, micro = params[BsKind.MACRO], params[BsKind.MICRO]

# One 10-minute slot: the macro is at 30% load, the micro at 40%, and
# the secondary network would lease 14 of the micro's resource blocks.
scenario = Scenario(
    grid=TimeGrid(horizon_min=10, slot_min=10),
    stations=(macro, micro),
    traffic=np.array([[0.30], [0.40]]),  # one row per station, one column per slot
    sn_demand=np.array([[14]]),
    electricity=[0.1293],
    spectrum=[0.13],
    offload_mode=OffloadMode.DIRECT,
)

print("Station power at the current loads:")
print(f"  macro ({scenario.load(0, 0):.0%} load): {macro.power(0.30):7.2f} W")
print(f"  micro ({scenario.load(1, 0):.0%} load): {micro.power(0.40):7.2f} W")
print(f"  micro asleep:     {micro.p_sleep:7.2f} W")

# The two candidate decisions: keep the micro on, or switch it off and
# let the macro absorb its 0.40 load (macro goes to 0.70, still under 1).
keep_on = scenario.all_on()
sleep = SwitchVector.from_off_indices([1], 1)

report = is_feasible(scenario, 0, sleep)
print(f"\nSleeping the micro pushes the macro to {report.mbs_load_after:.2f} load"
      f" (feasible: {report.feasible})")

for name, switch in (("all on", keep_on), ("micro off", sleep)):
    power = hetnet_power_slot(scenario, 0, switch)
    saving = power_saving_slot(scenario, 0, switch)
    revenue = total_revenue_slot(scenario, 0, switch)
    print(f"\n{name}:")
    print(f"  network draw   {power:8.2f} W")
    print(f"  power saving   {saving:8.2f} W")
    print(f"  energy value   {revenue.energy:+9.6f}")
    print(f"  leasing value  {revenue.leasing:+9.6f}")
    print(f"  slot revenue   {revenue.total:+9.6f}")

# The saving is negative here: the macro's amplifier slope (4.7 * 20 W)
# is far steeper than the micro's (2.6 * 6.3 W), so carrying the load on
# the macro costs more energy than the micro's sleep mode returns.  The
# leasing income still makes the switch worthwhile; that trade-off is
# exactly what the objective weighs, slot by slot.

"""Search-and-rescue with mid-mission drone failures.

The motivating use case from the paper's introduction: accounting for
objects/people in a field when devices are unreliable. A drone crashes
30 seconds into the mission; HiveMind's heartbeat detector notices within
3 s and repartitions the dead drone's region among its neighbours
(Fig 10), so the search still completes. The distributed platform has no
global view — the region goes unsearched.

Run:  python examples/search_and_rescue.py
"""

from repro.apps import SCENARIO_A
from repro.platforms import ScenarioRunner, platform_config

FAILED_DRONE = 5
FAIL_AT_S = 30.0


def fly(platform: str) -> None:
    result = ScenarioRunner(
        platform_config(platform), SCENARIO_A, seed=7,
        fail_devices_at=[(FAILED_DRONE, FAIL_AT_S)]).run()
    print(f"\n[{platform}] drone{FAILED_DRONE:04d} fails at "
          f"t={FAIL_AT_S:.0f}s")
    print(f"  failed devices : {result.extras['failed_devices']}")
    print(f"  mission time   : {result.extras['makespan_s']:.1f} s")
    print(f"  items found    : {result.extras['items_found']}"
          f"/{result.extras['targets']}")
    print(f"  field covered  : {'yes' if result.completed else 'NO'}")


def main() -> None:
    print("=== Search and rescue: surviving a drone failure ===")
    fly("hivemind")          # repartitions, completes
    fly("distributed_edge")  # no global view: coverage hole


if __name__ == "__main__":
    main()

"""Fleet simulation walkthrough: run every built-in scenario template with
its adversaries and print the delivery/rejection accounting.

Run:  python3 demos/fleet_simulation.py
"""

import time

from hermes_seal.v2x_sim import (TEMPLATES, default_artifacts, make_scenario,
                                 run_scenario)


def main():
    default_artifacts()     # build the shared keys before the first timing
    for template in sorted(TEMPLATES):
        t0 = time.perf_counter()
        report = run_scenario(make_scenario(template, seed=42))
        print(f"== {template} ({time.perf_counter() - t0:.1f} s) ==")
        print(report.to_text())


if __name__ == "__main__":
    main()

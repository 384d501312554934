"""Time one cold set-up in a fresh interpreter and print it as JSON.

Set-up is everything before the first control period: importing
cbf_hqp from the checkout's src/, loading the scenario text (read from
stdin) and loading its robot model.
"""

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    text = sys.stdin.read()
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import cbf_hqp.sim as sim
    scenario = sim.load_scenario(text)
    sim.resolve_model(scenario.model_name)
    elapsed = time.perf_counter() - t0
    if not Path(sim.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"cbf_hqp was imported from {sim.__file__}, not {SRC}")
    print(json.dumps({"setup_s": elapsed}))

"""Set-up cost every CLI verb pays once, measured in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR CONFIG_YAML
Prints the seconds from before `import elastovb` to the end of the first
forward evaluation (load_config + build_model + evaluate at the initial mean).
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])

from elastovb import config as cfgmod  # noqa: E402

cfg = cfgmod.load_config(sys.argv[2])
model, mesh, _, _, _ = cfgmod.build_model(cfg)
model.evaluate(cfgmod.initial_mu(cfg, mesh))
print(repr(time.perf_counter() - t0))

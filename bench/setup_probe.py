"""Set-up cost as a user pays it: a fresh interpreter imports the CLI and
loads instance configs.

    python3 bench/setup_probe.py SRC_DIR CONFIG [CONFIG ...]

Prints one JSON line with ``import_s`` and ``load_s``.
"""
import json
import sys
from time import perf_counter

t0 = perf_counter()
sys.path.insert(0, sys.argv[1])
import dirichlet_bandits.cli  # noqa: E402

t1 = perf_counter()
for path in sys.argv[2:]:
    dirichlet_bandits.cli.load_instance(path)
t2 = perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1}))

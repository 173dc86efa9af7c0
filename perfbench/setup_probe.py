"""Times one set-up in a fresh interpreter: import, load_config, templates and
the keyword table. Prints one JSON object of seconds per step.

Usage: python3 perfbench/setup_probe.py CONFIG.yaml
"""

import json
import sys
import time

start = time.perf_counter()

import paths  # noqa: E402

paths.use_checkout_src()

from promptrefine import bench, cli, pipeline  # noqa: E402,F401 - import time is measured
from promptrefine.config import load_config  # noqa: E402
from promptrefine.optimizer import default_keyword_table  # noqa: E402

imported = time.perf_counter()
cfg = load_config(sys.argv[1])
configured = time.perf_counter()
cfg.template_set()
templated = time.perf_counter()
default_keyword_table()
done = time.perf_counter()
print(json.dumps({
    "import_s": imported - start,
    "load_config_s": configured - imported,
    "templates_s": templated - configured,
    "keywords_s": done - templated,
    "total_s": done - start,
}))

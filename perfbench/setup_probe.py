"""Child process that measures one set-up: import plus config validation.

Usage: python3 setup_probe.py <src-dir>  (workload configs as JSON on stdin)

Prints {"setup_s": ..., "lqcoord": <path of the imported package>}. The
clock starts before `lqcoord` (and with it numpy and scipy) is imported and
stops once every config has been parsed, its system validated and its
target resolved.
"""

import json
import sys
import time


def main() -> None:
    src = sys.argv[1]
    configs = json.load(sys.stdin)
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import lqcoord
    from lqcoord.config import config_from_dict

    for raw in configs:
        config_from_dict(raw).resolve_target()
    elapsed = time.perf_counter() - t0
    print(json.dumps({"setup_s": elapsed, "lqcoord": lqcoord.__file__}))


if __name__ == "__main__":
    main()

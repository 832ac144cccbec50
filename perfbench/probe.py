"""One fresh start of a workload: import diracstep and prepare the first operation.

run.py times this script, started anew several times, as the set-up time.
Usage: python3 perfbench/probe.py WORKLOAD SEED
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](int(sys.argv[2]), os.path.join(HERE, "out")).prepare_first()

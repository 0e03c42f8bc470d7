"""Set-up probe: import tanglesim and parse the given scenario files.

run.py times this script from process start to exit, which is the set-up
a user pays before a command does any work.  It prints where tanglesim was
imported from, so run.py can refuse a copy from outside the checkout.
"""
import sys

import tanglesim.cli
from tanglesim.harness import parse_scenario

for path in sys.argv[1:]:
    parse_scenario(path)
print(tanglesim.cli.__file__)

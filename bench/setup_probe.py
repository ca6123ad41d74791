"""Fresh-process set-up: import spintail and parse the configs read from stdin.

The benchmark times this script from spawn to exit, which is what a CLI user
pays before the first experiment runs.  stdin holds a JSON list of config
texts; the exit status is 0 when every config validates.
"""

import json
import os
import sys


def main() -> int:
    texts = json.load(sys.stdin)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from spintail.cli import parse_config
    from spintail.errors import ConfigError

    try:
        for text in texts:
            parse_config(text)
    except ConfigError as exc:
        print("\n".join(exc.problems), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

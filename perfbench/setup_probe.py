"""The program's set-up, timed in a fresh process.

Run as ``python3 perfbench/setup_probe.py SRC_DIR`` with a JSON list of
``.bnet`` texts on stdin: it imports condsim, parses every network, fills
the first-call caches with one cheap answer per network and prints ``{"ready": <time.monotonic()>}``. The
caller subtracts the monotonic time at which it started the process, so
the figure covers interpreter start, imports, parsing and warm-up.
"""

import json
import sys
import time


def set_up(texts: list[str]) -> dict:
    """Parse each distinct network and answer one cheap query on it.

    The query (its first node, eps 0.5, delta 0.5, direct) fills the
    first-call caches through ``infer`` alone, the one entry point every
    version keeps. Returns the parsed networks keyed by their text.
    """
    from condsim.network import parse_network
    from condsim.reformulate import infer

    nets = {}
    for text in texts:
        if text not in nets:
            net = nets[text] = parse_network(text)
            infer(net, {net.nodes[0]: 1}, {}, 0.5, 0.5, "direct")
    return nets


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    texts = json.load(sys.stdin)
    set_up(texts)
    print(json.dumps({"ready": time.monotonic()}))

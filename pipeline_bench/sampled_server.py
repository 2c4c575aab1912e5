"""``python -m repro.store`` on one CPU, under a speed sampler.

Usage::

    python3 pipeline_bench/sampled_server.py SAMPLES CPU serve STORE --writable --port 0

Pins itself to CPU number ``CPU`` (:func:`hostspeed.pin_to_cpu`),
starts a :class:`hostspeed.SpeedSampler`, runs the store CLI with the
remaining arguments, and when the CLI returns writes the probe samples to
``SAMPLES`` as a JSON list of ``[end, duration]`` pairs.  serve_mixed
starts its server this way, so that client-side latencies can be
normalised with the speed of the CPU that answered them.
"""

from __future__ import annotations

import json
import sys

import hostspeed


def main(argv) -> int:
    samples_path, cpu, args = argv[0], int(argv[1]), argv[2:]
    hostspeed.pin_to_cpu(cpu)
    sys.stdout.reconfigure(line_buffering=True)
    sampler = hostspeed.SpeedSampler().start()
    try:
        from repro.store.__main__ import main as store_main

        return store_main(args)
    finally:
        sampler.stop()
        with open(samples_path, "w", encoding="utf-8") as handle:
            json.dump(sampler.samples(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

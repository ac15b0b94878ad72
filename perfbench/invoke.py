"""Child process of the benchmark: one engine invocation in a fresh interpreter.

    python3 perfbench/invoke.py MODE CONFIG OUT META [AKSTAR ARGS...]

MODE is ``run`` (call ``akstar.cli.main`` on AKSTAR ARGS plus ``--config
CONFIG``, engine output to OUT), ``trace`` (the same with the tracer
installed, spans written next to META) or ``setup`` (import the engine and
parse CONFIG, then stop).  In ``run`` and ``setup`` mode the speed probe
(probe.py) samples from the start.  META receives, as JSON, the
CLOCK_MONOTONIC time at which the first config parse returned, the peak
resident set, the probe durations (with how many of them came before that
parse) and, when tracing, the trace statistics.  The exit code is the
engine's.
"""

import json
import resource
import sys
import time

import probe


def main() -> int:
    mode, config, out_path, meta_path, *command = sys.argv[1:]
    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.install()
    else:
        probe.install()
    import akstar.cli as cli

    parsed_at = []
    probes_at_setup = []
    parse_config = cli.parse_config

    def timed_parse_config(path):
        spec = parse_config(path)
        if not parsed_at:
            parsed_at.append(time.monotonic())
            probes_at_setup.append(len(probe.durations))
        return spec

    cli.parse_config = timed_parse_config
    code = 0
    if mode == "setup":
        timed_parse_config(config)
    else:
        with open(out_path, "w", encoding="utf-8") as out:
            code = cli.main([*command, "--config", config], stream=out)
    probe.stop()
    meta = {
        "setup_done": parsed_at[0] if parsed_at else None,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "probe_s": probe.durations,
        "probes_in_setup": probes_at_setup[0] if probes_at_setup else None,
    }
    if tracer is not None:
        meta["trace"] = tracer.snapshot()
        with open(meta_path + ".spans", "w", encoding="utf-8") as fh:
            json.dump(tracer.span_records(), fh, separators=(",", ":"))
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

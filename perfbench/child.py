"""One `hypframe run` in a fresh process, timed from inside.

    python3 child.py MODE SPEC OUT RESULT [EXTRA]

MODE is one of
  setup  import hypframe and load the spec, nothing else;
  run    then call hypframe.cli.main(["run", ...]) untraced; EXTRA, when
         given, receives the integrated frames (.npz) for the expm check;
  trace  the same call inside a Tracer; EXTRA receives the spans (CSV).

The timings, exit code and peak RSS go to RESULT as JSON.  ``setup_s``
(import + load_spec) and ``cpu_s`` (the cli.main call) are this
process's CPU time (user + system), less the speed probes; ``wall_s``
times the cli.main call on the wall clock, also less the probes.
``scale`` converts CPU time into CPU time at nominal speed (see
SpeedProbe).  Untraced runs are probed from start to end; traced runs
only during set-up, so that the probes do not land in the spans.
"""

import json
import math
import resource
import signal
import statistics
import sys
import time


def peak_rss_mb():
    """Peak resident set of this process image, in MiB.

    VmHWM belongs to the image started by exec; ru_maxrss would also
    count the parent's resident set at fork time.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# every PROBE_INTERVAL s of process CPU time, run a probe of PROBE_ITERATIONS
PROBE_INTERVAL = 0.05
PROBE_ITERATIONS = 1000
# the probe time that rescaled times refer to; roughly that of a quiet
# 2 GHz x86-64 vCPU
PROBE_NOMINAL_S = 0.001


class SpeedProbe:
    """Samples the speed of the CPU this process runs on, while it runs.

    On a shared host the same work costs up to twice the CPU time when
    other guests load the machine, for stretches of seconds to minutes.
    A SIGPROF timer interrupts the process every PROBE_INTERVAL s of its
    CPU time, and the handler times a fixed loop of interpreted float
    arithmetic.  The probes' own CPU time is subtracted from every timed
    region (`net`), and `scale` turns the rest into CPU time at
    PROBE_NOMINAL_S per probe.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._busy = False

    def start(self):
        signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, 1e-3, PROBE_INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def _probe(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        # while the timer is armed, the process clock advances only at
        # scheduler ticks; the thread clock stays exact
        start = time.thread_time()
        acc, row = 0.0, [0.25] * 4
        for i in range(PROBE_ITERATIONS):
            x = i * 1e-3
            acc += math.sin(x) * x - math.sqrt(x + 1.0)
            row[i % 4] = sum(r * x for r in row)
        spent = time.thread_time() - start
        self.samples.append(spent)
        self.spent += spent
        self._busy = False

    def net(self, cpu_start, spent_start):
        """CPU time since `cpu_start`, less the probes run since then."""
        return time.process_time() - cpu_start - (self.spent - spent_start)

    def scale(self):
        """Factor from this process's CPU time to CPU time at nominal speed.

        Probes fall evenly in CPU time, so slow stretches get more of
        them; the harmonic mean of the probe times undoes that weighting.
        """
        return PROBE_NOMINAL_S / statistics.harmonic_mean(self.samples)


def main(argv):
    mode, spec, out, result_path = argv[:4]
    extra = argv[4] if len(argv) > 4 else None

    probe = SpeedProbe()
    probe.start()
    cpu, spent = time.process_time(), probe.spent
    import hypframe
    import hypframe.cli as cli
    import hypframe.pipeline as pipeline
    name = pipeline.load_spec(spec).name
    setup_s = probe.net(cpu, spent)
    result = {"module": hypframe.__file__, "backend": hypframe.propagation_backend()}

    argv_run = ["run", "--spec", spec, "--out", out]
    if mode == "run":
        models = []
        integrate = pipeline.integrate_frame

        def capture(*args, **kwargs):
            model = integrate(*args, **kwargs)
            models.append(model)
            return model

        pipeline.integrate_frame = capture
        start, cpu, spent = time.perf_counter(), time.process_time(), probe.spent
        rc = cli.main(argv_run)
        wall = time.perf_counter() - start
        result["cpu_s"] = probe.net(cpu, spent)
        result["wall_s"] = wall - (probe.spent - spent)
        probe.stop()
        result["peak_rss_mb"] = peak_rss_mb()
        pipeline.integrate_frame = integrate
        if extra and models:
            import numpy as np
            np.savez(extra, ts=models[0].ts, frames=models[0].frames)
    elif mode == "trace":
        from tracer import Tracer, expression_counts

        probe.stop()
        tracer = Tracer()
        start, cpu = time.perf_counter(), time.process_time()
        with tracer:
            rc = tracer.timed("cli.main", cli.main, argv_run)
        result["wall_s"] = time.perf_counter() - start
        result["cpu_s"] = time.process_time() - cpu
        result["peak_rss_mb"] = peak_rss_mb()
        calls, incl, own = tracer.totals()
        result.update(calls=calls, incl=incl, own=own, counts=tracer.counts,
                      frenet_distinct_t=len(tracer.frenet_ts),
                      not_restored=tracer.not_restored())
        if tracer.models:
            result["tree_nodes"], result["distinct_nodes"] = \
                expression_counts(tracer.models[0])
        if extra:
            tracer.write_spans(extra, name)
    else:
        probe.stop()
        rc = 0
    result.update(setup_s=setup_s, scale=probe.scale(), probes=len(probe.samples))
    result["rc"] = rc
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])

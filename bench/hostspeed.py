"""A reference kernel interleaved with a sample, to gauge the host's speed.

On a shared host the speed of interpreter-bound code drifts by 20% or more
over seconds to minutes.  Timing a reference next to a sample, in another
process or between samples, tracks that drift poorly; timing it inside the
sample's own process, in short chunks spread over the sample, tracks it
well (see README.md, "Host-speed correction").

`Probe` arms a SIGALRM timer in the worker.  Every PERIOD_S of wall time
the handler runs one chunk of the kernel, RK4 steps of a small complex
linear system with numpy, the mix of interpreter work and tiny matrix
products of the propagation loop in the interpreter-bound workloads.  The
kernel does not touch cavitysim, so a change to the program moves it only
through the caches the two share; its data, about 20 KB, stay in L2.  The
chunks cost about 3% of the sample's time,
which the worker subtracts from it.
"""

import signal
import time

import numpy as np

STEPS = 100
PERIOD_S = 0.1
# Scale of corrected times: the mean chunk time typical of the 2-vCPU Xeon
# host the bounds were set on, so that there a corrected time reads close
# to the program's own time.  Corrected times compare commits on one host
# only.
REF_CHUNK_S = 2.6e-3


def _system():
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((36, 36)) + 1j * rng.standard_normal((36, 36))
    a = (a - a.conj().T) * 0.05  # anti-Hermitian: the norm stays bounded
    x = np.zeros(36, dtype=complex)
    x[0] = 1.0
    return a, x


_A, _X0 = _system()


def _chunk():
    a, x, h = _A, _X0, 0.01
    for _ in range(STEPS):
        k1 = a @ x
        k2 = a @ (x + 0.5 * h * k1)
        k3 = a @ (x + 0.5 * h * k2)
        k4 = a @ (x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        float(np.real(np.vdot(x, x)))


class Probe:
    """Runs a kernel chunk every PERIOD_S while armed; keeps their intervals.

    One chunk is also timed just after arming and one just before
    disarming, so that even a call shorter than PERIOD_S gets a speed.
    `intervals` holds (start_ns, end_ns) of every timed chunk, on the
    time.perf_counter_ns clock the tracer uses, so that the caller can
    subtract the chunks that fell inside the call it timed.
    """

    def __init__(self):
        self.intervals: list = []

    def _timed_chunk(self, *_):
        start = time.perf_counter_ns()
        _chunk()
        self.intervals.append((start, time.perf_counter_ns()))

    def __enter__(self):
        _chunk()  # warm up numpy's dispatch before the first timed chunk
        self._timed_chunk()
        signal.signal(signal.SIGALRM, self._timed_chunk)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        # Ignore rather than restore the default action, which would end
        # the process if a last alarm were still on its way.
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self._timed_chunk()
        return False


def corrected(program_s: float, chunks: int, chunks_s: float) -> float:
    """program_s scaled to a host on which one chunk takes REF_CHUNK_S.

    chunks_s is the time of all `chunks` timed chunks of the sample.
    """
    return program_s * REF_CHUNK_S * chunks / chunks_s

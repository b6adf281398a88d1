"""blackscholes: PARSEC option-pricing benchmark (§6.2).

"Porting the blackscholes benchmark to Determinator required no changes
as it uses deterministically scheduled pthreads (Section 4.5).  The
deterministic scheduler's quantization, however, incurs a fixed
performance cost of about 35% for the chosen quantum of 10 million
instructions."

So, uniquely among the benchmarks, the Determinator version runs under
:class:`repro.runtime.dsched.DetScheduler` — legacy pthreads emulation
with instruction-limit quanta — while the baseline uses plain pthreads.
Pricing is real (vectorized Black-Scholes via an erf-based normal CDF);
each option charges a modelled per-option instruction cost.
"""

import math

import numpy as np

from repro.mem.layout import SHARED_BASE

OPTIONS_ADDR = SHARED_BASE + 0x300_0000

#: Modelled instructions to price one option (exp/log/sqrt/CDF chain).
CYCLES_PER_OPTION = 220

#: Options priced per inner chunk (granularity of preemption checks).
CHUNK = 2048


def default_params(nworkers, noptions=1 << 15, seed=3,
                   quantum=10_000_000, nruns=1):
    """``nruns`` mirrors PARSEC's NUM_RUNS loop: the option table is
    re-priced that many times, raising compute density per byte."""
    return {
        "nworkers": nworkers,
        "noptions": noptions,
        "seed": seed,
        "quantum": quantum,
        "nruns": nruns,
    }


def _erf(x):
    """Vectorized erf (Abramowitz & Stegun 7.1.26, |err| < 1.5e-7)."""
    sign = np.sign(x)
    x = np.abs(x)
    t = 1.0 / (1.0 + 0.3275911 * x)
    poly = t * (0.254829592 + t * (-0.284496736 + t * (
        1.421413741 + t * (-1.453152027 + t * 1.061405429))))
    return sign * (1.0 - poly * np.exp(-x * x))


def _norm_cdf(x):
    """Standard normal CDF via erf (vectorized, dependency-free)."""
    return 0.5 * (1.0 + _erf(np.asarray(x, dtype=np.float64) / math.sqrt(2.0)))


def price(spot, strike, rate, vol, tte):
    """Vectorized Black-Scholes call price."""
    d1 = (np.log(spot / strike) + (rate + 0.5 * vol * vol) * tte) / (
        vol * np.sqrt(tte)
    )
    d2 = d1 - vol * np.sqrt(tte)
    return spot * _norm_cdf(d1) - strike * np.exp(-rate * tte) * _norm_cdf(d2)


def make_options(noptions, seed):
    """Random but reproducible option parameter table (n x 5 float64)."""
    rng = np.random.default_rng(seed)
    return np.column_stack([
        rng.uniform(10, 200, noptions),      # spot
        rng.uniform(10, 200, noptions),      # strike
        rng.uniform(0.01, 0.08, noptions),   # rate
        rng.uniform(0.05, 0.9, noptions),    # volatility
        rng.uniform(0.1, 3.0, noptions),     # time to expiry
    ])


def _price_slice(handle, options_addr, out_addr, start, count, nruns):
    """Price ``count`` options ``nruns`` times in CHUNK batches
    (each batch boundary is a preemption opportunity)."""
    g = handle.g if hasattr(handle, "g") else handle.h
    for _run in range(nruns):
        done = 0
        while done < count:
            batch = min(CHUNK, count - done)
            row0 = start + done
            table = g.array_read(options_addr + row0 * 40, np.float64, batch * 5)
            table = table.reshape(batch, 5)
            prices = price(table[:, 0], table[:, 1], table[:, 2],
                           table[:, 3], table[:, 4])
            g.work(batch * CYCLES_PER_OPTION)
            g.array_write(out_addr + row0 * 8, prices)
            done += batch
    return count


def run(api, nworkers, noptions, seed, quantum, nruns=1):
    """Price the option table in parallel; returns a checksum."""
    options = make_options(noptions, seed)
    out_addr = (OPTIONS_ADDR + noptions * 40 + 0xFFF) & ~0xFFF
    api.array_write(OPTIONS_ADDR, options)
    api.work(noptions * 4)

    per = (noptions + nworkers - 1) // nworkers
    slices = []
    for tid in range(nworkers):
        start = tid * per
        slices.append((start, max(0, min(per, noptions - start))))

    if api.kind == "determinator":
        # Legacy pthreads under the deterministic scheduler (§4.5).
        from repro.runtime.dsched import DetScheduler
        sched = DetScheduler(api.h, quantum=quantum)
        for start, count in slices:
            sched.spawn(
                _det_slice_thread,
                (OPTIONS_ADDR, out_addr, start, count, nruns),
            )
        sched.run()
    else:
        api.fork_join(
            _linux_slice_thread,
            [(OPTIONS_ADDR, out_addr, start, count, nruns)
             for start, count in slices],
        )

    prices = api.array_read(out_addr, np.float64, noptions)
    return float(np.round(prices.sum(), 3))


def _det_slice_thread(dt, options_addr, out_addr, start, count, nruns):
    return _price_slice(dt, options_addr, out_addr, start, count, nruns)


def _linux_slice_thread(api, tid, options_addr, out_addr, start, count, nruns):
    return _price_slice(api, options_addr, out_addr, start, count, nruns)


def expected_checksum(noptions, seed):
    """Reference result for verification."""
    table = make_options(noptions, seed)
    prices = price(table[:, 0], table[:, 1], table[:, 2], table[:, 3],
                   table[:, 4])
    return float(np.round(prices.sum(), 3))

"""md5: brute-force search for a string with a given MD5 hash (§6.2).

"The md5 benchmark searches for an ASCII string yielding a particular
MD5 hash, as in a brute-force password cracker."

Embarrassingly parallel with *repeated* fork/join rounds (the candidate
space is searched in chunks so the search can stop early), which is
where the Linux thread-system contention shows at high core counts and
Determinator's near-zero merge volume (workers share almost no data)
lets it pull ahead — the paper measures a 2.25x md5 speedup over Linux
on 12 cores.

The search is real: a target password is hashed with :mod:`hashlib` and
workers genuinely find it; the modelled cost per candidate stands in for
the native MD5 throughput.
"""

import hashlib

from repro.mem.layout import SHARED_BASE

#: Modelled instructions to generate + hash one candidate.
CYCLES_PER_CANDIDATE = 900

#: Candidate alphabet (kept small so test search spaces stay tiny).
ALPHABET = "abcdefghijklmnopqrstuvwxyz"

#: Where the found candidate index is published in shared memory.
RESULT_ADDR = SHARED_BASE + 0x100


def candidate(index, length):
    """The ``index``-th candidate string of ``length`` letters."""
    letters = []
    for _ in range(length):
        index, rem = divmod(index, len(ALPHABET))
        letters.append(ALPHABET[rem])
    return "".join(letters)


def default_params(nworkers, length=4, rounds=8):
    """Search the full space of ``length``-letter strings for a planted
    target, in ``rounds`` fork/join chunks."""
    target = candidate((len(ALPHABET) ** length) * 7 // 10, length)
    digest = hashlib.md5(target.encode()).hexdigest()
    return {
        "nworkers": nworkers,
        "length": length,
        "digest": digest,
        "rounds": rounds,
    }


def _search_chunk(api, tid, start, count, length, digest):
    """Worker: scan ``count`` candidates from ``start``; real MD5.

    Candidate generation allocates strings, so this is allocation-heavy
    compute: on Linux it contends in the shared heap ([54], §2.4)."""
    api.alloc_work(count * CYCLES_PER_CANDIDATE)
    for index in range(start, start + count):
        text = candidate(index, length)
        if hashlib.md5(text.encode()).hexdigest() == digest:
            api.store(RESULT_ADDR, index + 1)
            return index + 1
    return 0


def run(api, nworkers, length, digest, rounds):
    """Run the chunked parallel search; returns the found candidate."""
    space = len(ALPHABET) ** length
    api.store(RESULT_ADDR, 0)
    per_round = (space + rounds - 1) // rounds
    found = 0
    for round_ in range(rounds):
        base = round_ * per_round
        per_worker = (per_round + nworkers - 1) // nworkers
        args = []
        for tid in range(nworkers):
            start = base + tid * per_worker
            count = max(0, min(per_worker, space - start))
            args.append((start, count, length, digest))
        results = api.fork_join(_search_chunk, args)
        hits = [r for r in results if r]
        if hits:
            found = hits[0] - 1
            break
    return candidate(found, length)

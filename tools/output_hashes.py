"""Print a sha256 for every output of the benchmark corpus.

Run from anywhere, with the seeds to build (default 1 2 3):

    python tools/output_hashes.py [seed ...]

For each workload in ``perfbench/workloads.BUILDERS`` and each seed, it
builds the corpus in a temporary directory, encodes every item and
probe, and decodes every code that encoded.  Each output gives one line,
``workload seed item stage sha256``: the hash of the payload, or of the
error text when the stage failed.  The last line is ``records N``.  Two
trees give the same outputs when this prints the same lines on both,
so compare them with ``diff``.  Nothing under ``perfbench/`` is written.

``tools/output_hashes.txt`` holds the listing for seeds 1 2 3, and CI
diffs a fresh run against it.  It is the same under any PYTHONHASHSEED
and with numpy's AVX-512 kernels off.  Only a change that states a
behaviour change, naming the outputs it changes, may regenerate it:

    python tools/output_hashes.py 1 2 3 > tools/output_hashes.txt
"""

import hashlib
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402


def main(seeds):
    records = 0
    for name in workloads.BUILDERS:
        for seed in seeds:
            with tempfile.TemporaryDirectory() as tmp:
                wl = workloads.build(name, seed, tmp)
                for item in [*wl.items, *wl.probes]:
                    _, code, err = wl.encode(item)
                    stages = [("encode", code, err)]
                    if err is None:
                        _, out, err = wl.decode(item, code)
                        stages.append(("decode", out, err))
                    for stage, payload, err in stages:
                        # an error naming a file names it under the fixed <tmp>
                        data = payload if err is None else err.replace(tmp, "<tmp>").encode()
                        print(name, seed, item.name, stage, hashlib.sha256(data).hexdigest())
                        records += 1
    print("records", records)


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]] or [1, 2, 3])

"""Record the kernel and diagnose values that cli_kernels checks against.

    python3 perfbench/record_reference.py

Runs the deterministic cli_kernels commands once on its ``erb.cfg`` and
writes ``perfbench/reference.json``.  Re-record only when a change is
meant to alter these values, and say so in the change.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

from run import OUT, load_program


def main() -> None:
    load_program()
    from workloads import KERNEL_CFG, OSCNORM_ARGS, _cli

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="record-", dir=OUT)
    try:
        cfg = os.path.join(workdir, "erb.cfg")
        desc = os.path.join(workdir, "erb.desc")
        with open(cfg, "w", encoding="ascii") as fh:
            fh.write(KERNEL_CFG)
        _cli(["design", "--config", cfg, "--out", desc])
        diag = json.loads(_cli(["diagnose", "--system", desc,
                                "--trials", "1"])[0])
        kernel = ["kernel", "--system", desc, "--op"]
        ref = {
            "diagnose": {k: diag["frame_bounds_diagonal"][k]
                         for k in ("A", "B")},
            "oscnorm": _cli(kernel[:-1] + OSCNORM_ARGS)[0],
            "amnorm": _cli(kernel + ["amnorm"])[0],
            "statphase": {str(o): _cli(kernel + ["statphase", "--order",
                                                 str(o)])[0]
                          for o in (0, 1, 2)},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "reference.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()

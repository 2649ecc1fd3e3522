"""Benchmark workloads: each one is a fixed sequence of zenolock CLI invocations.

Paths are relative to the checkout root, which is the working directory of
every benchmark process, so the manifests the CLI writes (they record the
config and output paths) are byte-identical between runs and checkouts.
"""

DEFAULT_SEED = 20260808
DEFAULTS_CONFIG = "configs/defaults.cfg"
CLOCK_CHAIN_CONFIG = "perfbench/clock_chain.cfg"

# Why each workload exists (see README.md for the layers each one stresses):
# ensemble is the only Monte Carlo run and the no-change control for the
# quantum layers; lock-pair is dominated by the two-level cycle loop;
# clock-chain is the lock-then-read pipeline with the large dense operators.
WORKLOADS = {
    "ensemble": (("dephasing", DEFAULTS_CONFIG),),
    "lock-pair": (("zeno2", DEFAULTS_CONFIG),),
    "clock-chain": (("zeno4", DEFAULTS_CONFIG), ("readout", CLOCK_CHAIN_CONFIG)),
}


def build_steps(workload: str, seed: int, out_root: str,
                configs: dict | None = None) -> list:
    """CLI steps of one workload execution.

    ``configs`` maps a subcommand to a replacement config path (the harness
    self-test uses it to shrink the inputs).  Only ``dephasing`` takes a
    seed; the other subcommands are deterministic without one.
    """
    steps = []
    for command, config in WORKLOADS[workload]:
        config = (configs or {}).get(command, config)
        out = f"{out_root}/{command}"
        argv = [command, "--config", config, "--out", out]
        if command == "dephasing":
            argv += ["--seed", str(seed)]
        steps.append({"command": command, "out": out, "argv": argv})
    return steps

"""Write ``exact_reference.json``: the exact-layered TV and KL to check against.

    python3 bench/record_exact.py

Records, for every policy of the exact-layered set on layered seeds 0..39,
the TV and KL that ``harness.run_policy`` returns in exact mode. The
benchmark requires later runs to match them within 1e-9, so rerun this only
when a change to the program is meant to change those distributions.
"""

import json
import sys

from run import import_program

LAYERED_SEEDS = range(40)


def main() -> int:
    workloads, _ = import_program()
    from mdlmlab import harness, oracle

    table = {}
    for seed in LAYERED_SEEDS:
        model = harness.layered_suite_model(seed)
        policies = workloads.exact_policies(model.L - workloads.PROMPT_LEN)
        cfg = workloads._config(seed, policies, "exact")
        rows = {}
        for policy in policies:
            row, _ = harness.run_policy(
                model, oracle.OracleDenoiser(model), policy, cfg, None
            )
            rows[policy.policy_id()] = [row.tv_distance, row.kl_divergence]
        table[str(seed)] = rows
    with open(workloads.EXACT_REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"layered_seeds": [0, 39], "tv_kl": table}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: what runs, why, and which layers it should load.

A workload pass is a list of steps; each step runs in a fresh interpreter
(`child.py`), as a user's `ue2` command would.  `cli` steps call the CLI's
`main` on a fixed argv; the `core` step makes library calls.  The chart
workloads use no random input; the seed only draws the random descent
instances and the oracle subsample of `algebra-core`.
"""

from __future__ import annotations

PIPE = ("--X", "S2", "--Y", "S1", "--smax", "3", "--tmax", "8", "--D", "10")

WORKLOADS = {
    "pipelines-s2s1": {
        "why": (
            "the paper's headline flow (adams-chart, gh-chart, compare for S2 -> S1) at the "
            "largest p=2 window that fits in about 2 GB; each command builds its own resolution"
        ),
        "predicted_self_shares": {"goerss_hopkins": 0.40, "adams": 0.30, "other": 0.30},
        "steps": [
            {"name": "adams-chart", "kind": "cli", "space": (2, "S2", "S1", 10),
             "argv": ["adams-chart", *PIPE, "--out", "{out}/pipe-adams.json"],
             "output": "{out}/pipe-adams.json"},
            {"name": "gh-chart", "kind": "cli", "space": (2, "S2", "S1", 10),
             "argv": ["gh-chart", *PIPE, "--out", "{out}/pipe-gh.json"],
             "output": "{out}/pipe-gh.json"},
            {"name": "compare", "kind": "cli", "space": None,
             "argv": ["compare", "{out}/pipe-adams.json", "{out}/pipe-gh.json",
                      "--out", "{out}/pipe-compare.txt"],
             "output": "{out}/pipe-compare.txt"},
        ],
    },
    "adams-deep": {
        "why": (
            "deep cotriple resolutions (S3 -> point at s<=4, and S3 -> S1 at p=3) where the "
            "resolution build dominates; covers odd-prime paths; goerss_hopkins does no work"
        ),
        "predicted_self_shares": {"adams": 0.80, "other": 0.20},
        "steps": [
            {"name": "adams-chart-s3-point", "kind": "cli", "space": (2, "S3", "point", 10),
             "argv": ["adams-chart", "--X", "S3", "--Y", "point", "--smax", "4",
                      "--tmax", "10", "--D", "10", "--out", "{out}/deep-s3-point.json"],
             "output": "{out}/deep-s3-point.json"},
            {"name": "adams-chart-p3-s3-s1", "kind": "cli", "space": (3, "S3", "S1", 14),
             "argv": ["adams-chart", "--p", "3", "--X", "S3", "--Y", "S1", "--smax", "3",
                      "--tmax", "12", "--D", "14", "--out", "{out}/deep-p3-s3-s1.json"],
             "output": "{out}/deep-p3-s3-s1.json"},
        ],
    },
    "algebra-core": {
        "why": (
            "library calls that load the algebra layers the charts barely touch: Adem sweeps, "
            "windowed exactness, seeded descent instances, bar homology, Hilbert series"
        ),
        "predicted_self_shares": {
            "tower": 0.40, "derivations": 0.20, "steenrod": 0.15,
            "unstable_modules": 0.10, "unstable_algebras": 0.10, "other": 0.05,
        },
        "steps": [{"name": "core", "kind": "core"}],
    },
}

# algebra-core parameters (fixed; only the descent instances and the oracle
# subsample depend on the seed)
SWEEP_PRIMES = (2, 3)
SWEEP_MAX_LENGTH = 4
SWEEP_MAX_INDEX = 12
EXACTNESS = ((2, 1, (32, 16, 32)), (2, 2, (32, 16, 32)), (3, 1, (32, 10, 16)), (3, 2, (32, 10, 16)))
DESCENT_INSTANCES = 100
DESCENT_MAX_LEVEL = 4
BAR = ((1, 5), (2, 7))
BAR_L = 2
HILBERT = ((2, 3, 32), (3, 2, 40))  # (p, generator degree, D)
ORACLE_SAMPLES = 40

# known defects: reported, never gated, never timed into wall_s
PROBES = (
    {"name": "adams-chart-S1xS1-defaults",
     "argv": ["adams-chart", "--X", "S1*S1", "--Y", "S1"],
     "rlimit_as": 4 << 30,
     "expect": "MemoryError on a dense face matrix; traceback, exit 1"},
    {"name": "exactness-n3",
     "argv": ["exactness", "--n", "3", "--window-L", "{L}"],
     "window_L": (4, 8, 12),
     "rlimit_as": None,
     "expect": "WindowExhausted (stabilizer needs length 2L+4, rewrite window is L+4); exit 2"},
)

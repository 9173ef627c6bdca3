"""Operation lists of the benchmark workloads.

Each workload is one closed loop in one fresh process: the next operation
starts when the previous one returns.  An operation is a `canideal` argv; the
run's seed is appended to every `certify` operation as `--seed`, which is the
only way the seed reaches the program (it drives the degeneracy-retry
specializations of the kernel oracle).

Why each workload exists is recorded in perfbench/README.md and
BENCHMARK.json; in short:

- oracle: `certify --oracle`, dominated by Bareiss elimination over Z[lam]
  in `verify`; (7,1,5) takes the degenerate-retry path and the
  `--corrupt-one` run on (5,1,2) is the negative control (exit 1).
- membership: `certify` without the oracle, dominated by `fibrealg` normal
  forms and the `verify.check_membership` sums; the oracle is bypassed.
- counting: one `sweep` over 88 triples, dominated by `indexsets` and
  `termorder`; function fields and the oracle are bypassed.
- selftest: one small triple through both commands, used only by
  perfbench/selftest.py.
"""

from __future__ import annotations


def _certify(p: int, q: int, ell: int, *extra: str) -> list[str]:
    return ["certify", "-p", str(p), "-q", str(q), "-l", str(ell), *extra]


def _sweep(p_set: str, q_set: str) -> list[str]:
    return ["sweep", "--p-set", p_set, "--q-set", q_set, "--format", "structured"]


WORKLOADS: dict[str, list[list[str]]] = {
    "oracle": [
        _certify(3, 4, 1, "--oracle"),
        _certify(5, 2, 4, "--oracle"),
        _certify(7, 1, 1, "--oracle"),
        _certify(7, 1, 5, "--oracle"),
        _certify(5, 1, 2, "--oracle", "--corrupt-one"),
    ],
    "membership": [
        _certify(3, 6, 1),
        _certify(5, 3, 2),
        _certify(7, 2, 5),
    ],
    "counting": [
        _sweep("3,5,7,11", "1,2,3,4"),
    ],
    "selftest": [
        _certify(3, 2, 1, "--oracle"),
        _sweep("3", "2"),
    ],
}

# Workloads a run may name; selftest is internal and not in BENCHMARK.json.
PUBLIC = ("oracle", "membership", "counting")


def with_seed(argv: list[str], seed: int) -> list[str]:
    """The argv actually run: certify operations carry the run's seed."""
    if argv[0] == "certify":
        return [*argv, "--seed", str(seed)]
    return list(argv)


def triples(argv: list[str]) -> int:
    """Number of (p, q, ell) triples one operation completes."""
    if argv[0] == "certify":
        return 1
    p_set = argv[argv.index("--p-set") + 1]
    q_set = argv[argv.index("--q-set") + 1]
    n_q = len(q_set.split(","))
    return sum((int(p) - 1) * n_q for p in p_set.split(","))

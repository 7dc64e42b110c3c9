"""The study workloads: the README experiment configs and the benchmark's run sizes.

Each workload is one `cpkmeans experiment` config, run with a fixed trial
count and worker count.  The config text is kept verbatim from the README;
the benchmark overrides only ``--trials``, ``--seed`` and ``--workers``.
Trial counts are sized so one CLI run takes about 2.5 s on a 2-core Xeon,
long enough that interpreter start-up stays a small share of its wall time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

DEFAULT_SEED = 1  # base_seed of the README configs; digests.json is recorded at it


@dataclass(frozen=True)
class Workload:
    name: str
    config_text: str
    trials: int
    workers: int

    @cached_property
    def config(self) -> dict[str, str]:
        items = {}
        for line in self.config_text.splitlines():
            line = line.split("#", 1)[0].strip()
            if line:
                key, value = line.split("=", 1)
                items[key.strip()] = value.strip()
        return items

    @cached_property
    def study(self) -> str:
        return self.config["study"]

    @cached_property
    def tau(self) -> float:
        return float(self.config["tau"])

    @cached_property
    def d(self) -> int:
        return int(self.config["d"])

    @cached_property
    def n_grid(self) -> tuple[int, ...]:
        return _int_list(self.config["n_grid"])

    @cached_property
    def t_grid(self) -> tuple[int, ...]:
        return _int_list(self.config["t_grid"])

    @cached_property
    def t_star(self) -> int:
        return int(self.config["t_star"])

    @cached_property
    def trials_per_run(self) -> int:
        """Study trials one CLI run completes; the rate study runs `trials` per n."""
        return self.trials * (len(self.n_grid) if self.study == "rate" else 1)


def _int_list(text: str) -> tuple[int, ...]:
    if ":" in text:
        lo, hi = text.split(":")
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(tok) for tok in text.split(","))


# selection: method 2 (100 kernel calls at 80x200 per trial) is nearly all of
# the work, single-threaded; the compute baseline for kernel and selector changes.
SELECTION = Workload(
    name="selection",
    config_text="""\
study=selection
case=caseB
base_seed=1
trials=300
n_grid=100
d=200
sigma=1.0
tau=0.3
t_grid=1:200
t_star=30
n_sub=100
frac=0.8
""",
    trials=30,
    workers=1,
)

# rate: short trials (long-thin kernel at 500..4000 x 10 and sample generation)
# dispatched through the 2-worker process pool; the only workload where pool
# dispatch and sampling show.
RATE = Workload(
    name="rate",
    config_text="""\
study=rate
case=rate
base_seed=1
trials=200
n_grid=500,1000,2000,4000
d=20
sigma=1.0
tau=0.3
t_grid=10
""",
    trials=250,
    workers=2,
)

# sweep: 200 fits and 200 records per trial, several MB of records.csv per run;
# fit objects and CSV writing sit beside the kernel, so I/O and Python
# overhead show here and a kernel-only gain barely moves it.
SWEEP = Workload(
    name="sweep",
    config_text="""\
study=sweep
case=caseB
base_seed=1
trials=500
n_grid=100
d=200
sigma=1.0
tau=0.3
t_grid=1:200
""",
    trials=400,
    workers=1,
)

WORKLOADS = {w.name: w for w in (SELECTION, RATE, SWEEP)}

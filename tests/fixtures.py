"""Shared test fixtures: the paper's Figure 1 running example.

``FIGURE1_TABLES`` reconstructs the four tables of the paper (donors,
zoos, car imports, corporate sales); ``EXAMPLE31_TABLES`` restricts to
the four attributes of Example 3.1 (T2.name, T1.At Risk, T4.Name,
T3.C2), the subgraph on which the paper quotes exact LCC scores.
``shuffle_partitions`` and ``spark_jobs_run`` help tests that check row-
order independence and which layers start Spark jobs.
"""
from contextlib import contextmanager

#: full Figure 1 lake: {table: {column: [values]}}.
FIGURE1_TABLES = {
    "T1": {
        "Donor": ["Google", "Volkswagen", "BMW", "Amazon"],
        "At Risk": ["Panda", "Puma", "Jaguar", "Pelican"],
        "Donation": ["1M", "2M", "0.9M", "1.5M"],
    },
    "T2": {
        "name": ["Panda", "Panda", "Lemur", "Jaguar"],
        "locale": ["Memphis", "Atlanta", "National", "San Diego"],
        "num": ["2", "2", "20", "8"],
    },
    "T3": {
        "C1": ["XE", "Prius", "500"],
        "C2": ["Jaguar", "Toyota", "Fiat"],
        "C3": ["UK", "Japan", "Italy"],
    },
    "T4": {
        "Name": ["Jaguar", "Puma", "Apple", "Toyota"],
        "Revenue": ["25.80", "4.64", "456", "123"],
        "Total": ["43224", "13000", "370870", "123456"],
    },
}

#: the Example 3.1 / Example 3.6 four-attribute sub-lake.
EXAMPLE31_TABLES = {
    "T1": {"At Risk": ["Panda", "Puma", "Jaguar", "Pelican"]},
    "T2": {"name": ["Panda", "Panda", "Lemur", "Jaguar"]},
    "T3": {"C2": ["Jaguar", "Toyota", "Fiat"]},
    "T4": {"Name": ["Jaguar", "Puma", "Apple", "Toyota"]},
}

#: paper Example 3.6 LCC scores on the Example 3.1 subgraph (2 d.p. in
#: the paper: 0.36 / 0.43 / 0.46 / 0.46); exact fractions below.
EXAMPLE36_LCC = {
    "JAGUAR": 2.5 / 7,  # 0.357…
    "PUMA": (1 / 3 + 0.5 + 0.5 + 0.5 + 1 / 3) / 5,  # 0.433…
    "TOYOTA": (0.5 + 1 / 3 + 0.5 + 0.5) / 4,  # 0.458…
    "PANDA": (0.5 + 0.5 + 1 / 3 + 0.5) / 4,  # 0.458…
}


@contextmanager
def shuffle_partitions(spark, n: int):
    """Run the block with ``spark.sql.shuffle.partitions`` set to ``n``,
    which changes the row order of every shuffled result."""
    key = "spark.sql.shuffle.partitions"
    saved = spark.conf.get(key)
    spark.conf.set(key, str(n))
    try:
        yield
    finally:
        spark.conf.set(key, saved)


def spark_jobs_run(spark, group: str, work) -> int:
    """Number of Spark jobs ``work()`` starts, counted in a job group."""
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        work()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty(30_000)
    return len(sc.statusTracker().getJobIdsForGroup(group))

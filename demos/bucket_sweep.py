"""Measure how bucketed range scans cut per-query work.

The index sorts the dataset once; each engine over it partitions the sorted
rows by d-symbol prefix into sigma**d buckets, and a query scans only its
own bucket.  Work is counted in deterministic units (items scanned +
fractional symbol comparisons), so the reduction ladder below reproduces
exactly on every run.
"""

from lcpsearch import TalEngine, build, generate_dataset, generate_queries, work_reduction

N = 1 << 18
dataset = generate_dataset(N, 32, 2, seed=1)
queries = generate_queries(dataset, 200, seed=2)
index = build(dataset)  # one sort serves every bucket count below

# Baseline: a single bucket spanning the whole array, i.e. a full scan.
full = TalEngine(index, 1)
full_work = full.new_work_report()
for q in queries:
    full.query(q, 10, work=full_work)
print(f"full scan: {full_work.items_scanned} items over {len(queries)} queries "
      f"({full_work.energy_work_units:.0f} work units)")

print(f"\n{'buckets':>8} {'depth':>6} {'items/query':>12} {'reduction':>10}")
for buckets in (4, 16, 64, 256):
    engine = TalEngine(index, buckets)
    work = engine.new_work_report()
    for q in queries:
        engine.query(q, 10, work=work)
    red = work_reduction(full_work, work)
    per_query = work.items_scanned / len(queries)
    print(f"{buckets:>8} {engine.bucket_depth:>6} {per_query:>12.0f} {red.ratio:>9.1f}x")

# With uniform data each query's bucket holds about N / buckets items, so the
# reduction tracks the bucket count; the small shortfall is the cost of the
# longer shared prefixes inside a bucket.

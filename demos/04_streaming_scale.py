"""Memory behavior at scale: a million-point rule in a few vectors.

Assembling the weights naively means materializing the full basis-row
matrix, which at a million points and degree cap 1000 is roughly 8 GB of
doubles. The blocked assembly evaluates the basis on one block of about
two thousand nodes at a time (16 MiB), drops it before the next, and
mirrors the left half of the weights onto the right, so the same rule
fits in the node and weight vectors (8 MB each) plus one block.
"""
import time
import tracemalloc

from gramquad import compute_rule

p_points = 1_000_001
degree_cap = 1000  # isqrt(p_points - 1)

dense_bytes = (degree_cap + 1) * p_points * 8
print(f"P = {p_points:,}, degree cap {degree_cap}")
print(f"dense basis matrix would need {dense_bytes / 1e9:.1f} GB")
print()

tracemalloc.start()
start = time.perf_counter()
rule = compute_rule(p_points)
elapsed = time.perf_counter() - start
_, peak = tracemalloc.get_traced_memory()
tracemalloc.stop()

vector_bytes = p_points * 8
print(f"blocked assembly finished in {elapsed:.1f} s")
print(f"peak traced memory: {peak / 1e6:.1f} MB "
      f"(about {peak / vector_bytes:.1f} point-length vectors)")
print(f"weight sum: {float(rule.weights.sum())!r}")
print(f"min weight: {rule.weights.min():.3e} (still positive)")

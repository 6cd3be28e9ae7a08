"""Memory and time at scale: a million-point rule in a few vectors.

Assembling the weights naively means materializing the full basis-row
matrix, which at a million points and degree cap 1000 is roughly 8 GB of
doubles, and running the three-term recurrence through all 1000 degrees
at every node. The weights are samples of one polynomial of degree 1000,
so the library runs the recurrence only at 32 Chebyshev points in each of
125 panels of the left half, one 16 MiB block of basis values at a time,
interpolates the half million left-half nodes panel by panel, and mirrors
the result onto the right half. The rule fits in the node and weight
vectors (8 MB each) and takes a fraction of a second.
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
print(f"interpolated assembly finished in {elapsed:.2f} s")
print(f"peak traced memory: {peak / 1e6:.1f} MB "
      f"(about {peak / vector_bytes:.1f} point-length vectors)")
print(f"weight sum: {float(rule.weights.sum())!r}")
print(f"min weight: {rule.weights.min():.3e} (still positive)")

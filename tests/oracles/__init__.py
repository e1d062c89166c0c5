"""Reference implementations that the tests and benchmarks compare against.

Each oracle is the plain-loop form of an optimized code path in ``repro``:
slow, but simple enough to check by reading.  They live here, outside the
package, because no production caller needs them.
"""

// Process resource probes for benchmarks.
#pragma once

#include <cstdint>

namespace slmob {

// Peak resident set size (high-water mark) of the current process, in
// bytes. Linux: parsed from the VmHWM line of /proc/self/status. Returns 0
// on other platforms or when the probe fails — callers must treat 0 as
// "unavailable", not "no memory".
//
// Note the kernel reports the lifetime high-water mark: it never goes down,
// so comparing the footprint of two pipelines needs one process per
// pipeline (the bench harness forks for this).
[[nodiscard]] std::uint64_t peak_rss_bytes();

// Pins glibc's mmap threshold low (64 KiB) so large allocations are
// mmap-backed: freed generations return to the kernel immediately instead
// of lingering in the heap. Without the pin glibc's dynamic threshold
// ratchets up with the largest freed block, so the growing vectors of a
// streaming analysis (contact intervals, count tables, window buffers)
// leave their old generations resident: without it the perfbench analysis
// peak rose by 1.7 MiB (dance_faults), 2.6 MiB (isle_paper) and 8.2 MiB
// (sweep_bt) on a 4-core x86-64 VM. Idempotent; no-op on non-glibc
// platforms. Called by the streaming analysis engine, whose peak-RSS
// contract is the point of the exercise.
void tune_malloc_for_streaming();

}  // namespace slmob

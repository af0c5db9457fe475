/**
 * @file
 * Size-class pool behind every simulated process's coroutine frame.
 *
 * Each request through a simulated DFS starts a dozen coroutines whose
 * frames (tens of bytes to a few KiB) come and go at the event rate. The
 * pool recycles them the way the kernel recycles event nodes (DESIGN.md
 * §10): a freed frame goes onto an intrusive free list of its 64-byte
 * size class and the next frame of that class reuses it, so a steady
 * state makes no calls into the global allocator.
 *
 * Retention is bounded: a class keeps at most 256 KiB of free frames and
 * hands the rest back to the global allocator, so a phase that peaks in
 * one class cannot strand memory that another class (or anything else)
 * needs. trim() hands back every free frame; Simulation's destructor
 * calls it. State is per thread, so concurrent simulations on different
 * threads never share a list.
 *
 * Under AddressSanitizer the pool is compiled out and every call passes
 * straight to the global allocator: recycled frames would otherwise hide
 * a use-after-free of a destroyed frame from the sanitizer.
 */
#pragma once

#include <cstddef>

namespace lfs::sim {

class FramePool {
  public:
    /** Memory for one frame of @p bytes (never null; throws on OOM). */
    static void* allocate(std::size_t bytes);

    /** Return a frame from allocate(@p bytes) — the same @p bytes. */
    static void deallocate(void* p, std::size_t bytes) noexcept;

    /** Hand every free frame of this thread back to the global allocator. */
    static void trim() noexcept;
};

}  // namespace lfs::sim

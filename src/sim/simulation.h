/**
 * @file
 * Deterministic single-threaded discrete-event simulation loop.
 *
 * The Simulation owns a pooled binary min-heap of timestamped events.
 * Events scheduled at the same instant fire in FIFO order (a monotonically
 * increasing sequence number breaks ties), which makes every run with the
 * same seed bit-for-bit reproducible.
 *
 * Performance model (DESIGN.md §10): the kernel is allocation-free in
 * steady state. Event nodes are recycled through an intrusive free list
 * and carved from geometrically-growing blocks; callables are constructed
 * directly into a 48-byte inline buffer in the node (type-erased by one
 * function pointer, no std::function); coroutine resumes store the bare
 * handle — scheduling a wake-up is a pointer store. The heap orders POD
 * entries whose (when, seq) sort key is packed into one 128-bit integer,
 * so a sift level is one branchless compare plus a memcpy and never
 * touches the payloads. Events due at the current instant bypass the
 * heap entirely through a FIFO ring (NowRing).
 *
 * Timers that usually lose a race (client timeouts) are scheduled with
 * schedule_cancellable(); cancel() destroys the payload at once and
 * leaves a tombstone that the loop discards unrun, without advancing the
 * clock. Tombstones are compacted away once they outnumber live events.
 */
#pragma once

#include <cassert>
#include <concepts>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/flight_recorder.h"
#include "src/sim/metrics.h"
#include "src/sim/time.h"
#include "src/sim/trace.h"

namespace lfs::sim {

class FaultPlan;

/**
 * The discrete-event simulation kernel.
 *
 * Components schedule callbacks at future simulated times; coroutine-based
 * processes (see task.h / primitives.h) are layered on top of the same
 * mechanism. The loop is strictly single-threaded.
 */
class Simulation {
    struct Event;

  public:
    /**
     * Handle to an event scheduled with schedule_cancellable(). A
     * default-constructed handle refers to nothing. Holding a handle past
     * its event is safe: the event's sequence number names it, and the
     * kernel forgets that number the moment the event runs or is
     * cancelled, so a stale handle can never reach a recycled node.
     */
    class TimerId {
      public:
        TimerId() = default;

      private:
        friend class Simulation;
        TimerId(Event* ev, uint64_t seq) : ev_(ev), seq_(seq) {}

        Event* ev_ = nullptr;
        uint64_t seq_ = 0;
    };

    Simulation();
    Simulation(const Simulation&) = delete;
    Simulation& operator=(const Simulation&) = delete;
    ~Simulation();

    /** Request tracer for this simulation (disabled by default). */
    Tracer& tracer() { return tracer_; }
    const Tracer& tracer() const { return tracer_; }

    /** Central metric registry shared by every component of this sim. */
    MetricsRegistry& metrics() { return metrics_; }
    const MetricsRegistry& metrics() const { return metrics_; }

    /**
     * The installed fault schedule, or nullptr (the common case: no fault
     * injection). Layers with injection hooks consult this on their hot
     * paths; a null plan costs one pointer test. Installation is managed
     * by FaultPlan's constructor/destructor (see fault.h).
     */
    FaultPlan* fault_plan() const { return fault_plan_; }
    void install_fault_plan(FaultPlan* plan) { fault_plan_ = plan; }

    /**
     * Latency attribution (DESIGN.md §11): when on, layers stamp per-op
     * segment durations into OpResult::ledger. Off by default; each
     * stamping site costs one branch. Compiled out (constant false, dead
     * branches fold away) when built with -DLFS_NO_ATTRIBUTION.
     */
#ifndef LFS_NO_ATTRIBUTION
    bool attribution() const { return attribution_; }
    void set_attribution(bool on) { attribution_ = on; }
#else
    constexpr bool attribution() const { return false; }
    void set_attribution(bool) {}
#endif

    /** Tail-exemplar flight recorder (disabled by default). */
    FlightRecorder& flight_recorder() { return flight_recorder_; }
    const FlightRecorder& flight_recorder() const { return flight_recorder_; }

    /** Current simulated time. */
    SimTime now() const { return now_; }

    /** Schedule @p fn to run @p delay from now. Negative delays clamp to 0. */
    template <typename F>
        requires std::invocable<std::decay_t<F>&>
    void
    schedule(SimTime delay, F&& fn)
    {
        schedule_at(delay < 0 ? now_ : now_ + delay, std::forward<F>(fn));
    }

    /** Schedule @p fn at absolute time @p when (clamped to >= now). */
    template <typename F>
        requires std::invocable<std::decay_t<F>&>
    void
    schedule_at(SimTime when, F&& fn)
    {
        push_event(when, next_seq_++, make_event(std::forward<F>(fn)));
    }

    /**
     * schedule() that can be undone: cancel() with the returned handle
     * before the event runs and it never runs. The event takes its place
     * in the (when, seq) order now, exactly as schedule() would.
     */
    template <typename F>
        requires std::invocable<std::decay_t<F>&>
    TimerId
    schedule_cancellable(SimTime delay, F&& fn)
    {
        Event* ev = make_event(std::forward<F>(fn));
        uint64_t seq = next_seq_++;
        push_event(delay < 0 ? now_ : now_ + delay, seq, ev);
        return TimerId(ev, seq);
    }

    /**
     * Drop the event behind @p id unrun and destroy its payload now
     * (releasing whatever it captured). A checked no-op when the event
     * already ran or was cancelled. @return true if an event was dropped.
     */
    bool cancel(TimerId id);

    /**
     * Take the next place in the (when, seq) order without scheduling
     * anything yet. An event later given this ticket through
     * schedule_at_ticket() runs among same-instant events exactly where
     * an event scheduled at the moment of take_ticket() would have, so a
     * component can defer arming a timer without reordering the run.
     */
    uint64_t take_ticket() { return next_seq_++; }

    /**
     * Schedule @p fn at @p when in the order slot of @p ticket (from
     * take_ticket()). @p when must lie in the future: an event due now
     * would enter the same-instant FIFO out of ticket order.
     */
    template <typename F>
        requires std::invocable<std::decay_t<F>&>
    void
    schedule_at_ticket(SimTime when, uint64_t ticket, F&& fn)
    {
        assert(when > now_ && ticket < next_seq_);
        push_event(when, ticket, make_event(std::forward<F>(fn)));
    }

    /**
     * Resume @p h after @p delay — the coroutine fast path used by every
     * synchronization primitive: no type erasure, just a handle store.
     */
    void
    schedule(SimTime delay, std::coroutine_handle<> h)
    {
        schedule_at(delay < 0 ? now_ : now_ + delay, h);
    }

    /** Resume @p h at absolute time @p when (clamped to >= now). */
    void
    schedule_at(SimTime when, std::coroutine_handle<> h)
    {
        Event* ev = alloc_event();
        ev->run = &Event::run_handle;
        ev->payload.handle = h;
        push_event(when, next_seq_++, ev);
    }

    /**
     * Run the next pending event, advancing the clock to its timestamp.
     * @return false if no events remain or the simulation was stopped.
     */
    bool step();

    /** Run until the event heap drains or stop() is called. */
    void run();

    /**
     * Run all events with timestamp <= @p t, then set the clock to @p t.
     * Events scheduled exactly at @p t do fire.
     */
    void run_until(SimTime t);

    /** Stop the loop; pending events stay queued. */
    void stop() { stopped_ = true; }

    /** True once stop() has been called (cleared by resume()). */
    bool stopped() const { return stopped_; }

    /** Clear the stop flag so run()/run_until() may continue. */
    void resume() { stopped_ = false; }

    /**
     * Number of events executed so far (for diagnostics and tests).
     * Cancelled events never count.
     */
    uint64_t events_executed() const { return executed_; }

    /** Number of events cancelled before they ran. */
    uint64_t events_cancelled() const { return cancelled_; }

    /** Number of live (not cancelled) events currently queued. */
    size_t
    pending() const
    {
        return heap_.size() + ring_.size() - tombstones_;
    }

    /** High-water mark of pending() over the simulation's lifetime. */
    size_t peak_pending() const { return peak_pending_; }

    /**
     * Pre-size the heap and node pool for @p n concurrently-pending
     * events, avoiding growth reallocations mid-run.
     */
    void reserve_events(size_t n);

  private:
    /**
     * A pooled event node. The payload union holds either a bare
     * coroutine handle, a callable constructed inline (sizeof(F) <=
     * kInlineBytes — every callable this codebase schedules), or a
     * pointer to a heap-allocated callable as a rare fallback. While the
     * node sits on the free list the union holds the next-free link.
     * One function pointer both runs and destroys the payload, which
     * leaves room for the sequence number in a 64-byte node.
     */
    struct Event {
        static constexpr size_t kInlineBytes = 48;

        /**
         * seq of a node that is not a live queued event: it ran, was
         * cancelled (a tombstone while still queued), or is free.
         */
        static constexpr uint64_t kDead = ~uint64_t{0};

        union Payload {
            Payload() {}
            ~Payload() {}
            std::coroutine_handle<> handle;
            void* heap_fn;
            Event* next_free;
            alignas(std::max_align_t) unsigned char buf[kInlineBytes];
        };

        /**
         * With @p invoke, run the payload, then destroy it; without,
         * destroy it unrun (cancellation and kernel teardown).
         */
        void (*run)(Event*, bool invoke);
        /** The queued event's sequence number, or kDead. */
        uint64_t seq;
        Payload payload;

        // Dropping a pending resume leaks the suspended frame by design
        // (see primitives.h lifetime rule) — same as the std::function
        // kernel, which destroyed the [h] lambda without resuming it.
        static void
        run_handle(Event* e, bool invoke)
        {
            if (invoke) {
                e->payload.handle.resume();
            }
        }

        template <typename F>
        static void
        run_inline(Event* e, bool invoke)
        {
            F* f = std::launder(reinterpret_cast<F*>(e->payload.buf));
            struct Destroyer {  // destroy even if (*f)() throws
                F* f;
                ~Destroyer() { f->~F(); }
            } d{f};
            if (invoke) {
                (*f)();
            }
        }

        template <typename F>
        static void
        run_heap(Event* e, bool invoke)
        {
            std::unique_ptr<F> f(static_cast<F*>(e->payload.heap_fn));
            if (invoke) {
                (*f)();
            }
        }
    };
    static_assert(sizeof(Event) == 64, "an event node is one cache line");

    /**
     * POD heap entry; comparisons never dereference the node. The sort
     * key packs (when, seq) into one 128-bit integer — when occupies the
     * high 64 bits (SimTime is non-negative in-queue), so a single
     * branchless integer compare realises the (when, seq) lexicographic
     * FIFO order.
     */
    struct HeapEntry {
        unsigned __int128 key;
        Event* ev;

        static unsigned __int128
        make_key(SimTime when, uint64_t seq)
        {
            return (static_cast<unsigned __int128>(
                        static_cast<uint64_t>(when))
                    << 64) |
                   seq;
        }

        SimTime when() const
        {
            return static_cast<SimTime>(static_cast<uint64_t>(key >> 64));
        }

        uint64_t seq() const { return static_cast<uint64_t>(key); }
    };

    /** Ring entry for events due at the current instant (when == now_). */
    struct RingEntry {
        uint64_t seq;
        Event* ev;
    };

    /**
     * FIFO of events scheduled *at the current instant* — the wake-up
     * path every synchronization primitive takes (schedule(0, ...)).
     * Invariant: while non-empty, every entry is due at exactly now_, so
     * enqueue/dequeue are O(1) ring operations instead of heap sifts.
     * The clock cannot advance past them: step() always picks the global
     * (when, seq) minimum across ring and heap, and a non-empty ring
     * holds an event due now. Sequence numbers still interleave ring and
     * heap events at the same timestamp in exact FIFO order.
     */
    class NowRing {
      public:
        bool empty() const { return size_ == 0; }
        size_t size() const { return size_; }
        const RingEntry& front() const { return buf_[head_]; }

        void
        push(RingEntry entry)
        {
            if (size_ == buf_.size()) {
                grow();
            }
            buf_[(head_ + size_) & (buf_.size() - 1)] = entry;
            ++size_;
        }

        RingEntry
        pop()
        {
            RingEntry entry = buf_[head_];
            head_ = (head_ + 1) & (buf_.size() - 1);
            --size_;
            return entry;
        }

        template <typename Fn>
        void
        for_each(Fn&& fn) const
        {
            for (size_t i = 0; i < size_; ++i) {
                fn(buf_[(head_ + i) & (buf_.size() - 1)]);
            }
        }

        /** Drop the entries @p drop selects; the rest keep their order. */
        template <typename Pred>
        void
        remove_if(Pred&& drop)
        {
            size_t mask = buf_.size() - 1;
            size_t kept = 0;
            for (size_t i = 0; i < size_; ++i) {
                RingEntry entry = buf_[(head_ + i) & mask];
                if (!drop(entry)) {
                    buf_[(head_ + kept++) & mask] = entry;
                }
            }
            size_ = kept;
        }

        void reserve(size_t n);

      private:
        void grow();

        std::vector<RingEntry> buf_;  ///< power-of-two capacity
        size_t head_ = 0;
        size_t size_ = 0;
    };

    template <typename F>
    Event*
    make_event(F&& fn)
    {
        using Fn = std::decay_t<F>;
        Event* ev = alloc_event();
        if constexpr (sizeof(Fn) <= Event::kInlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            ::new (static_cast<void*>(ev->payload.buf))
                Fn(std::forward<F>(fn));
            ev->run = &Event::template run_inline<Fn>;
        } else {
            ev->payload.heap_fn = new Fn(std::forward<F>(fn));
            ev->run = &Event::template run_heap<Fn>;
        }
        return ev;
    }

    Event*
    alloc_event()
    {
        Event* ev = free_list_;
        if (ev != nullptr) {
            free_list_ = ev->payload.next_free;
            return ev;
        }
        return carve_block();
    }

    void
    release_event(Event* ev)
    {
        ev->payload.next_free = free_list_;
        free_list_ = ev;
    }

    /** Queue @p ev at (@p when, @p seq): ring if due now, else heap. */
    void push_event(SimTime when, uint64_t seq, Event* ev);

    /** Remove and return the minimum entry (heap must be non-empty). */
    HeapEntry pop_event();

    /** Place @p entry at slot @p i or below, restoring heap order. */
    void sift_down(size_t i, HeapEntry entry);

    /** Discard tombstones at the front of the ring and the heap. */
    void
    skip_cancelled()
    {
        if (tombstones_ != 0) {
            drop_front_tombstones();
        }
    }

    void drop_front_tombstones();

    /** Drop every tombstone from the ring and heap, then re-heapify. */
    void compact();

    /** Allocate a fresh node block, push all but one onto the free list. */
    Event* carve_block();

    SimTime now_ = 0;
    FaultPlan* fault_plan_ = nullptr;
    bool attribution_ = false;
    uint64_t next_seq_ = 0;
    uint64_t executed_ = 0;
    uint64_t cancelled_ = 0;
    size_t tombstones_ = 0;  ///< cancelled entries still in ring/heap
    bool stopped_ = false;
    size_t peak_pending_ = 0;
    std::vector<HeapEntry> heap_;
    NowRing ring_;
    Event* free_list_ = nullptr;
    std::vector<std::unique_ptr<Event[]>> blocks_;
    size_t next_block_size_ = 256;
    MetricsRegistry metrics_;
    Tracer tracer_;
    FlightRecorder flight_recorder_;
};

}  // namespace lfs::sim

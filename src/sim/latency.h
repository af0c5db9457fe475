/**
 * @file
 * Per-operation latency attribution ledger (DESIGN.md §11).
 *
 * Every OpResult carries a LatencyLedger: an enum-indexed fixed array of
 * microsecond totals that each layer stamps as the operation traverses
 * client → gateway admission queue → deployment (cold-start wait vs warm
 * dispatch) → NameNode → store (lock wait, shard queue sojourn, service)
 * → network hops. The invariant is that after LatencyLedger::finalize()
 * the segments sum exactly to the measured end-to-end latency: whatever a
 * layer did not stamp lands in kUnattributed, and stamping is designed so
 * segments never overlap (no double counting — see test_attribution.cc).
 *
 * Attribution is off by default (Simulation::attribution()); stamping
 * sites guard on that flag so the disabled cost is one branch per site.
 * Building with -DLFS_NO_ATTRIBUTION compiles the ledger out entirely:
 * the struct is empty and every method is a constexpr no-op, so the
 * stamping code folds away.
 *
 * Recording only reads Simulation::now() and never schedules events, so
 * enabling attribution cannot change simulated results.
 */
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "src/sim/time.h"

namespace lfs::sim {

/**
 * Segment taxonomy. Each segment is a disjoint slice of one operation's
 * end-to-end latency; kUnattributed is computed by finalize() as the
 * remainder so the full set always sums to the measured total.
 */
enum class LatSeg : uint8_t {
    kClientBackoff = 0,  ///< client retry backoff sleeps
    kClientRetryWait,    ///< wall time of failed/timed-out attempts
    kNetClient,          ///< client <-> NameNode TCP hops
    kNetGateway,         ///< client <-> FaaS HTTP gateway transfers
    kGatewayQueue,       ///< FaaS admission-queue wait
    kColdStartWait,      ///< waiting for a cold-starting instance
    kNameNodeCpu,        ///< NameNode compute, incl. vCPU queueing
    kNetStore,           ///< NameNode <-> metadata store hops
    kStoreLockWait,      ///< row-lock + subtree-flag waits
    kStoreQueue,         ///< store shard admission-queue sojourn
    kStoreService,       ///< store shard service time
    kCoherence,          ///< cache-coherence INV/ACK under write locks
    kNsFault,            ///< namespace cold-tier page-in (two-tier paging)
    kUnattributed,       ///< end-to-end minus every stamped segment
    kCount,
};

constexpr size_t kLatSegCount = static_cast<size_t>(LatSeg::kCount);

/** Short stable name used in metric labels and reports. */
inline const char*
lat_seg_name(LatSeg seg)
{
    switch (seg) {
      case LatSeg::kClientBackoff:
        return "client_backoff";
      case LatSeg::kClientRetryWait:
        return "client_retry_wait";
      case LatSeg::kNetClient:
        return "net_client";
      case LatSeg::kNetGateway:
        return "net_gateway";
      case LatSeg::kGatewayQueue:
        return "gateway_queue";
      case LatSeg::kColdStartWait:
        return "cold_start_wait";
      case LatSeg::kNameNodeCpu:
        return "namenode_cpu";
      case LatSeg::kNetStore:
        return "net_store";
      case LatSeg::kStoreLockWait:
        return "store_lock_wait";
      case LatSeg::kStoreQueue:
        return "store_queue";
      case LatSeg::kStoreService:
        return "store_service";
      case LatSeg::kCoherence:
        return "coherence";
      case LatSeg::kNsFault:
        return "ns_fault";
      case LatSeg::kUnattributed:
        return "unattributed";
      case LatSeg::kCount:
        break;
    }
    return "?";
}

#ifndef LFS_NO_ATTRIBUTION

/**
 * The per-op segment accumulator. Plain fixed array, no allocation; it
 * rides by value inside OpResult so late-finishing duplicate attempts
 * (whose results are discarded by the client's first-wins cell) can
 * never write into a dead op's ledger.
 */
class LatencyLedger {
  public:
    /** Add @p d microseconds to @p seg. Non-positive durations ignored. */
    void
    add(LatSeg seg, SimTime d)
    {
        if (d > 0) {
            us_[static_cast<size_t>(seg)] += d;
        }
    }

    SimTime get(LatSeg seg) const { return us_[static_cast<size_t>(seg)]; }

    /** Sum of every segment (including kUnattributed once finalized). */
    SimTime
    total() const
    {
        SimTime sum = 0;
        for (SimTime v : us_) {
            sum += v;
        }
        return sum;
    }

    bool empty() const { return total() == 0; }

    /** Accumulate @p other segment-wise into this ledger. */
    void
    merge(const LatencyLedger& other)
    {
        for (size_t i = 0; i < kLatSegCount; ++i) {
            us_[i] += other.us_[i];
        }
    }

    /**
     * Close the ledger against the measured end-to-end latency: the
     * unstamped remainder (clamped at zero) lands in kUnattributed so
     * that total() == max(@p end_to_end, attributed time).
     */
    void
    finalize(SimTime end_to_end)
    {
        us_[static_cast<size_t>(LatSeg::kUnattributed)] = 0;
        SimTime remainder = end_to_end - total();
        if (remainder > 0) {
            us_[static_cast<size_t>(LatSeg::kUnattributed)] = remainder;
        }
    }

    void clear() { us_.fill(0); }

  private:
    std::array<SimTime, kLatSegCount> us_{};
};

#else  // LFS_NO_ATTRIBUTION

/** Compiled-out ledger: empty struct, every method a constexpr no-op. */
class LatencyLedger {
  public:
    constexpr void add(LatSeg, SimTime) {}
    constexpr SimTime get(LatSeg) const { return 0; }
    constexpr SimTime total() const { return 0; }
    constexpr bool empty() const { return true; }
    constexpr void merge(const LatencyLedger&) {}
    constexpr void finalize(SimTime) {}
    constexpr void clear() {}
};

#endif  // LFS_NO_ATTRIBUTION

/**
 * One client op's ledger across its attempts. Each attempt's own ledger
 * merges in; whatever a failed attempt did not stamp itself (timed-out
 * silence, lost replies, invoker stalls) is charged to kClientRetryWait,
 * and each backoff sleep to kClientBackoff, so the op's total still adds
 * up. Inert unless constructed @p enabled (Simulation::attribution()).
 */
class RetryLedger {
  public:
    explicit RetryLedger(bool enabled) : enabled_(enabled) {}

    /**
     * Fold in an attempt that took @p elapsed and stamped @p attempt;
     * when @p failed, its unstamped remainder is retry wait. Leaves the
     * running total in @p attempt, ready to return as the op's ledger.
     */
    void
    fold(LatencyLedger& attempt, SimTime elapsed, bool failed)
    {
        if (!enabled_) {
            return;
        }
        acc_.merge(attempt);
        if (failed) {
            acc_.add(LatSeg::kClientRetryWait, elapsed - attempt.total());
        }
        attempt = acc_;
    }

    /** Charge a backoff sleep of @p d. */
    void
    backoff(SimTime d)
    {
        if (enabled_) {
            acc_.add(LatSeg::kClientBackoff, d);
        }
    }

    /** Copy the running total into @p out (e.g. after a last backoff). */
    void
    settle(LatencyLedger& out) const
    {
        if (enabled_) {
            out = acc_;
        }
    }

  private:
    bool enabled_;
    LatencyLedger acc_;
};

}  // namespace lfs::sim

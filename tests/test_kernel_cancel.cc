/**
 * @file
 * Tests for cancellable kernel timers (Simulation::schedule_cancellable /
 * cancel). The central property is differential: a run that cancels
 * events executes its surviving events in exactly the order of an
 * uncancelled twin in which the cancelled callbacks are no-ops, while the
 * cancelled events never run and never count as executed or pending.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"

namespace lfs::sim {
namespace {

/**
 * A randomized schedule/cancel workload. Every live event records its id,
 * then draws from the rng: it schedules a few children — zero delays
 * (the same-instant ring) and coarse delays (heap ties on one instant) —
 * and cancels some still-pending events, plus now and then a handle
 * whose event already ran. The twin (cancellable == false) schedules the
 * same events with plain schedule() and only flags cancelled ids, whose
 * callbacks then return without touching the rng, so both runs make the
 * same draws as long as their live events run in the same order.
 */
struct CancelWorkload {
    CancelWorkload(uint64_t seed, bool cancellable, int budget)
        : rng(seed), cancellable(cancellable), budget(budget)
    {
    }

    Simulation sim;
    Rng rng;
    bool cancellable;
    int budget;  ///< events still to schedule
    std::vector<int> order;          ///< live events, in execution order
    std::vector<Simulation::TimerId> handles;  ///< by id
    std::vector<char> cancelled;     ///< by id
    std::vector<int> pending_ids;    ///< scheduled, not run, not cancelled
    std::vector<int> fired_ids;      ///< ran; their handles are stale
    size_t live = 0;                 ///< our own count of live events
    size_t live_peak = 0;
    uint64_t noop_runs = 0;          ///< twin: flagged callbacks that ran
    uint64_t stale_cancels = 0;

    void
    schedule_one(SimTime delay)
    {
        int id = static_cast<int>(handles.size());
        --budget;
        auto fn = [this, id] { fire(id); };
        if (cancellable) {
            handles.push_back(sim.schedule_cancellable(delay, fn));
        } else {
            sim.schedule(delay, fn);
            handles.emplace_back();
        }
        cancelled.push_back(0);
        pending_ids.push_back(id);
        live_peak = std::max(live_peak, ++live);
    }

    void
    cancel_one(size_t index)
    {
        int id = pending_ids[index];
        pending_ids[index] = pending_ids.back();
        pending_ids.pop_back();
        cancelled[static_cast<size_t>(id)] = 1;
        --live;
        if (cancellable) {
            EXPECT_TRUE(sim.cancel(handles[static_cast<size_t>(id)]));
            EXPECT_FALSE(sim.cancel(handles[static_cast<size_t>(id)]));
        }
    }

    void
    fire(int id)
    {
        auto slot = static_cast<size_t>(id);
        if (cancelled[slot]) {
            EXPECT_FALSE(cancellable) << "cancelled event " << id << " ran";
            ++noop_runs;
            return;
        }
        order.push_back(id);
        --live;
        pending_ids.erase(
            std::find(pending_ids.begin(), pending_ids.end(), id));
        if (cancellable) {
            // Cancelling the running event itself is a checked no-op.
            EXPECT_FALSE(sim.cancel(handles[slot]));
        }
        fired_ids.push_back(id);
        static constexpr SimTime kDelays[] = {0, 0, usec(1), usec(2),
                                              usec(5), usec(40)};
        int children = static_cast<int>(rng.uniform_int(0, 5));
        for (int c = 0; c < children && budget > 0; ++c) {
            schedule_one(kDelays[rng.index(std::size(kDelays))]);
        }
        // Cancel hard enough that tombstones outnumber live events and
        // force compaction, both in the ring and in the heap.
        int cancels = static_cast<int>(rng.uniform_int(0, 2));
        for (int c = 0; c < cancels && !pending_ids.empty(); ++c) {
            cancel_one(rng.index(pending_ids.size()));
        }
        if (rng.bernoulli(0.2)) {
            int stale = fired_ids[rng.index(fired_ids.size())];
            ++stale_cancels;
            if (cancellable) {
                EXPECT_FALSE(sim.cancel(handles[static_cast<size_t>(stale)]));
            }
        }
    }

    void
    run()
    {
        for (int i = 0; i < 64; ++i) {
            schedule_one(usec(rng.uniform_int(0, 3)));
        }
        sim.run();
    }
};

TEST(KernelCancel, SurvivorsRunInTheOrderOfAnUncancelledTwin)
{
    for (uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
        CancelWorkload cancelling(seed, /*cancellable=*/true, 60000);
        CancelWorkload twin(seed, /*cancellable=*/false, 60000);
        cancelling.run();
        twin.run();
        ASSERT_EQ(cancelling.order, twin.order) << "seed " << seed;
        EXPECT_GT(cancelling.order.size(), 1000u) << "seed " << seed;
        uint64_t cancels = static_cast<uint64_t>(
            std::count(cancelling.cancelled.begin(),
                       cancelling.cancelled.end(), 1));
        EXPECT_GT(cancels, cancelling.order.size() / 2) << "seed " << seed;
        EXPECT_GT(cancelling.stale_cancels, 0u);
        // Cancelled events never count as executed or cancelled twice.
        EXPECT_EQ(cancelling.sim.events_executed(), cancelling.order.size());
        EXPECT_EQ(cancelling.sim.events_cancelled(), cancels);
        EXPECT_EQ(twin.sim.events_executed(), twin.order.size() + cancels);
        EXPECT_EQ(twin.noop_runs, cancels);
        EXPECT_EQ(cancelling.sim.pending(), 0u);
        // peak_pending counts live events only, as our own census does.
        EXPECT_EQ(cancelling.sim.peak_pending(), cancelling.live_peak);
        EXPECT_LT(cancelling.sim.peak_pending(), twin.sim.peak_pending());
    }
}

TEST(KernelCancel, CompactionKeepsTheSurvivorOrder)
{
    Simulation sim;
    Rng rng(21);
    std::vector<Simulation::TimerId> ids;
    std::vector<int> order;
    for (int i = 0; i < 1000; ++i) {
        // Coarse times: many ties that only seq order separates; some
        // due now (ring).
        SimTime delay = usec(rng.uniform_int(0, 20));
        ids.push_back(sim.schedule_cancellable(
            delay, [&order, i] { order.push_back(i); }));
    }
    // Cancelling 900 of 1000 crosses the half-full mark: compaction runs
    // (several times) and rebuilds the heap from the survivors.
    std::vector<int> victims(1000);
    for (int i = 0; i < 1000; ++i) {
        victims[static_cast<size_t>(i)] = i;
    }
    rng.shuffle(victims);
    victims.resize(900);
    for (int v : victims) {
        ASSERT_TRUE(sim.cancel(ids[static_cast<size_t>(v)]));
    }
    EXPECT_EQ(sim.pending(), 100u);
    EXPECT_EQ(sim.peak_pending(), 1000u);
    sim.run();
    // Survivors run in (when, seq) order: by delay, then by schedule order.
    std::vector<char> dead(1000, 0);
    for (int v : victims) {
        dead[static_cast<size_t>(v)] = 1;
    }
    Rng replay(21);
    std::vector<std::pair<SimTime, int>> expected;
    for (int i = 0; i < 1000; ++i) {
        SimTime delay = usec(replay.uniform_int(0, 20));
        if (!dead[static_cast<size_t>(i)]) {
            expected.emplace_back(delay, i);
        }
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto& a, const auto& b) {
                         return a.first < b.first;
                     });
    ASSERT_EQ(order.size(), expected.size());
    for (size_t k = 0; k < order.size(); ++k) {
        EXPECT_EQ(order[k], expected[k].second);
    }
    EXPECT_EQ(sim.events_executed(), 100u);
    EXPECT_EQ(sim.events_cancelled(), 900u);
}

TEST(KernelCancel, PendingCountsLiveEventsOnly)
{
    CancelWorkload w(11, /*cancellable=*/true, 20000);
    for (int i = 0; i < 64; ++i) {
        w.schedule_one(usec(w.rng.uniform_int(0, 3)));
    }
    // Step by step, the kernel's census equals the workload's own.
    while (w.sim.step()) {
        ASSERT_EQ(w.sim.pending(), w.live);
    }
    EXPECT_EQ(w.live, 0u);
}

TEST(KernelCancel, CancelDestroysThePayloadAtOnce)
{
    Simulation sim;
    auto held = std::make_shared<int>(7);
    Simulation::TimerId id =
        sim.schedule_cancellable(msec(200), [held] { FAIL(); });
    EXPECT_EQ(held.use_count(), 2);
    EXPECT_EQ(sim.pending(), 1u);
    EXPECT_TRUE(sim.cancel(id));
    EXPECT_EQ(held.use_count(), 1);
    EXPECT_EQ(sim.pending(), 0u);
    EXPECT_EQ(sim.events_cancelled(), 1u);
    sim.run();
    EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(KernelCancel, TombstonesDoNotAdvanceTheClock)
{
    Simulation sim;
    Simulation::TimerId early =
        sim.schedule_cancellable(msec(3), [] { FAIL(); });
    bool late_ran = false;
    sim.schedule(msec(8), [&] { late_ran = true; });
    ASSERT_TRUE(sim.cancel(early));
    // The tombstone at 3 ms is not a reason to step into the 8 ms event.
    sim.run_until(msec(5));
    EXPECT_EQ(sim.now(), msec(5));
    EXPECT_FALSE(late_ran);
    sim.run();
    EXPECT_TRUE(late_ran);
    EXPECT_EQ(sim.now(), msec(8));

    // A queue holding only tombstones drains without moving the clock.
    Simulation quiet;
    quiet.cancel(quiet.schedule_cancellable(sec(60), [] {}));
    quiet.run();
    EXPECT_EQ(quiet.now(), 0);
    EXPECT_FALSE(quiet.step());
}

TEST(KernelCancel, StaleHandleNeverReachesARecycledNode)
{
    Simulation sim;
    Simulation::TimerId fired = sim.schedule_cancellable(msec(1), [] {});
    sim.run();
    // The fired event's node is now reused by the next schedule.
    int runs = 0;
    Simulation::TimerId reused =
        sim.schedule_cancellable(msec(1), [&runs] { ++runs; });
    EXPECT_FALSE(sim.cancel(fired));
    EXPECT_FALSE(sim.cancel(Simulation::TimerId{}));
    sim.run();
    EXPECT_EQ(runs, 1);
    EXPECT_FALSE(sim.cancel(reused));
    EXPECT_EQ(sim.events_cancelled(), 0u);
}

TEST(KernelCancel, TeardownWithTombstonesDestroysEachPayloadOnce)
{
    auto held = std::make_shared<int>(0);
    {
        Simulation sim;
        std::vector<Simulation::TimerId> ids;
        for (int i = 0; i < 1000; ++i) {
            // Half due now (ring), half in the future (heap).
            ids.push_back(sim.schedule_cancellable(i % 2 == 0 ? 0 : msec(i),
                                                   [held] {}));
        }
        for (size_t i = 0; i < ids.size(); i += 3) {
            sim.cancel(ids[i]);
        }
        EXPECT_EQ(held.use_count(), 1 + 1000 - 334);
    }
    EXPECT_EQ(held.use_count(), 1);
}

TEST(KernelCancel, TicketKeepsTheOrderOfTheMomentItWasTaken)
{
    Simulation sim;
    std::vector<int> order;
    uint64_t ticket = sim.take_ticket();
    sim.schedule(msec(10), [&] { order.push_back(2); });
    // Armed later, but ordered as if scheduled before event 2.
    sim.schedule(msec(5), [&] {
        sim.schedule_at_ticket(msec(10), ticket, [&] { order.push_back(1); });
    });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

}  // namespace
}  // namespace lfs::sim

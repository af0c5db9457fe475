/**
 * @file
 * Unit tests for the discrete-event simulation kernel: event ordering,
 * clock semantics, coroutine tasks, and synchronization primitives.
 *
 * Idiom note: coroutines here are capture-less lambdas taking their context
 * as parameters. Captures of a lambda coroutine live in the lambda object
 * (destroyed at end of statement), not the coroutine frame — parameters are
 * stored in the frame and stay valid across suspensions.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/sim/primitives.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace lfs::sim {
namespace {

TEST(Simulation, StartsAtTimeZero)
{
    Simulation sim;
    EXPECT_EQ(sim.now(), 0);
    EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulation, RunsEventsInTimeOrder)
{
    Simulation sim;
    std::vector<int> order;
    sim.schedule(msec(30), [&] { order.push_back(3); });
    sim.schedule(msec(10), [&] { order.push_back(1); });
    sim.schedule(msec(20), [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.now(), msec(30));
}

TEST(Simulation, SameTimeEventsRunFifo)
{
    Simulation sim;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        sim.schedule(msec(5), [&order, i] { order.push_back(i); });
    }
    sim.run();
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(order[i], i);
    }
}

TEST(Simulation, NegativeDelayClampsToNow)
{
    Simulation sim;
    sim.schedule(msec(10), [&] {
        sim.schedule(-msec(5), [&] { EXPECT_EQ(sim.now(), msec(10)); });
    });
    sim.run();
    EXPECT_EQ(sim.now(), msec(10));
}

TEST(Simulation, EventsCanScheduleMoreEvents)
{
    Simulation sim;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 5) {
            sim.schedule(msec(1), chain);
        }
    };
    sim.schedule(0, chain);
    sim.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(sim.now(), msec(4));
}

TEST(Simulation, RunUntilAdvancesClockWithoutEvents)
{
    Simulation sim;
    sim.run_until(sec(5));
    EXPECT_EQ(sim.now(), sec(5));
}

TEST(Simulation, RunUntilExecutesDueEventsOnly)
{
    Simulation sim;
    int ran = 0;
    sim.schedule(sec(1), [&] { ++ran; });
    sim.schedule(sec(3), [&] { ++ran; });
    sim.run_until(sec(2));
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(sim.now(), sec(2));
    sim.run();
    EXPECT_EQ(ran, 2);
}

TEST(Simulation, StopHaltsTheLoop)
{
    Simulation sim;
    int ran = 0;
    sim.schedule(msec(1), [&] {
        ++ran;
        sim.stop();
    });
    sim.schedule(msec(2), [&] { ++ran; });
    sim.run();
    EXPECT_EQ(ran, 1);
    EXPECT_TRUE(sim.stopped());
    sim.resume();
    sim.run();
    EXPECT_EQ(ran, 2);
}

Task<int>
co_value()
{
    co_return 42;
}

TEST(Task, AwaitReturnsValue)
{
    Simulation sim;
    int got = 0;
    spawn([](int& out) -> Task<void> { out = co_await co_value(); }(got));
    sim.run();
    EXPECT_EQ(got, 42);
}

TEST(Task, DelaySuspendsForSimulatedTime)
{
    Simulation sim;
    SimTime woke = -1;
    spawn([](Simulation& s, SimTime& out) -> Task<void> {
        co_await delay(s, msec(7));
        out = s.now();
    }(sim, woke));
    sim.run();
    EXPECT_EQ(woke, msec(7));
}

Task<int>
co_inner(Simulation& sim)
{
    co_await delay(sim, msec(3));
    co_return 7;
}

Task<int>
co_middle(Simulation& sim)
{
    int v = co_await co_inner(sim);
    co_await delay(sim, msec(4));
    co_return v * 2;
}

TEST(Task, NestedAwaitsAccumulateDelays)
{
    Simulation sim;
    int got = 0;
    spawn([](Simulation& s, int& out) -> Task<void> {
        out = co_await co_middle(s);
    }(sim, got));
    sim.run();
    EXPECT_EQ(got, 14);
    EXPECT_EQ(sim.now(), msec(7));
}

Task<void>
co_thrower(Simulation& sim)
{
    co_await delay(sim, msec(1));
    throw std::runtime_error("boom");
}

TEST(Task, ExceptionPropagatesToAwaiter)
{
    Simulation sim;
    bool caught = false;
    spawn([](Simulation& s, bool& out) -> Task<void> {
        try {
            co_await co_thrower(s);
        } catch (const std::runtime_error&) {
            out = true;
        }
    }(sim, caught));
    sim.run();
    EXPECT_TRUE(caught);
}

Task<void>
co_set_flag(bool& flag)
{
    flag = true;
    co_return;
}

TEST(Task, UnstartedTaskIsDestroyedSafely)
{
    Simulation sim;
    bool ran = false;
    {
        auto t = co_set_flag(ran);
        // Never awaited: frame must be released without running.
        EXPECT_TRUE(t.valid());
    }
    sim.run();
    EXPECT_FALSE(ran);
}

TEST(OneShot, DeliversValueToWaiter)
{
    Simulation sim;
    OneShot<int> cell(sim);
    int got = 0;
    spawn([](OneShot<int>& c, int& out) -> Task<void> {
        out = co_await c.wait();
    }(cell, got));
    sim.schedule(msec(5), [&] { cell.try_set(99); });
    sim.run();
    EXPECT_EQ(got, 99);
}

TEST(OneShot, FirstSetWins)
{
    Simulation sim;
    OneShot<int> cell(sim);
    EXPECT_TRUE(cell.try_set(1));
    EXPECT_FALSE(cell.try_set(2));
    int got = 0;
    spawn([](OneShot<int>& c, int& out) -> Task<void> {
        out = co_await c.wait();
    }(cell, got));
    sim.run();
    EXPECT_EQ(got, 1);
}

Task<void>
co_try_set_after(Simulation& sim, std::shared_ptr<OneShot<int>> cell,
                 SimTime after, int value)
{
    co_await delay(sim, after);
    cell->try_set(value);
}

TEST(OneShot, TimeoutRaceResolvedByTrySet)
{
    Simulation sim;
    auto cell = std::make_shared<OneShot<int>>(sim);
    // Timeout at 10ms, "response" at 20ms: timeout must win.
    spawn(co_try_set_after(sim, cell, msec(10), -1));
    spawn(co_try_set_after(sim, cell, msec(20), 42));
    int got = 0;
    spawn([](std::shared_ptr<OneShot<int>> c, int& out) -> Task<void> {
        out = co_await c->wait();
    }(cell, got));
    sim.run();
    EXPECT_EQ(got, -1);
}

/** A round that answers only after @p after; records its late write. */
Task<void>
co_late_round(Simulation& sim, OneShotRef<int> cell, SimTime after,
              bool& won, int& seen)
{
    co_await delay(sim, after);
    won = cell->try_set(42);
    seen = cell->take();  // the cell is still alive and holds the timeout
}

Task<void>
co_race(Simulation& sim, bool& won, int& seen, int& got)
{
    got = co_await race_timeout(
        sim, msec(10), [] { return -1; },
        [&sim, &won, &seen](OneShotRef<int> cell) {
            spawn(co_late_round(sim, std::move(cell), msec(20), won, seen));
        });
}

TEST(RaceTimeout, LateRoundWritesIntoALiveCellAfterTheTimerWon)
{
    Simulation sim;
    bool won = true;
    int seen = 0;
    int got = 0;
    spawn(co_race(sim, won, seen, got));
    sim.run_until(msec(15));
    EXPECT_EQ(got, -1);  // the timer won and the race has returned
    EXPECT_EQ(seen, 0);  // the round is still in flight
    sim.run();
    // The round's write lands in the cell it shares with the finished
    // race: it loses, and the cell (which the race no longer holds) is
    // intact — a sanitizer build checks that no freed memory is touched.
    EXPECT_FALSE(won);
    EXPECT_EQ(seen, -1);
}

Task<void>
co_wait_gate(Gate& gate, int& released)
{
    co_await gate.wait();
    ++released;
}

TEST(Gate, ReleasesAllWaiters)
{
    Simulation sim;
    Gate gate(sim);
    int released = 0;
    for (int i = 0; i < 5; ++i) {
        spawn(co_wait_gate(gate, released));
    }
    sim.schedule(msec(3), [&] { gate.set(); });
    sim.run();
    EXPECT_EQ(released, 5);
    EXPECT_TRUE(gate.is_set());
}

TEST(Gate, SetBeforeWaitPassesImmediately)
{
    Simulation sim;
    Gate gate(sim);
    gate.set();
    int released = 0;
    spawn(co_wait_gate(gate, released));
    sim.run();
    EXPECT_EQ(released, 1);
}

Task<void>
co_use_semaphore(Simulation& sim, Semaphore& sem, int& active, int& max_active)
{
    co_await sem.acquire();
    ++active;
    max_active = std::max(max_active, active);
    co_await delay(sim, msec(10));
    --active;
    sem.release();
}

TEST(Semaphore, LimitsConcurrency)
{
    Simulation sim;
    Semaphore sem(sim, 2);
    int active = 0;
    int max_active = 0;
    for (int i = 0; i < 6; ++i) {
        spawn(co_use_semaphore(sim, sem, active, max_active));
    }
    sim.run();
    EXPECT_EQ(max_active, 2);
    EXPECT_EQ(sim.now(), msec(30));  // 6 jobs / 2 wide / 10ms each
}

TEST(Semaphore, TryAcquireDoesNotBlock)
{
    Simulation sim;
    Semaphore sem(sim, 1);
    EXPECT_TRUE(sem.try_acquire());
    EXPECT_FALSE(sem.try_acquire());
    sem.release();
    EXPECT_TRUE(sem.try_acquire());
}

Task<void>
co_staggered_acquire(Simulation& sim, Semaphore& sem, int id,
                     std::vector<int>& order)
{
    co_await delay(sim, msec(id));  // stagger arrival
    co_await sem.acquire();
    order.push_back(id);
    co_await delay(sim, msec(10));
    sem.release();
}

TEST(Semaphore, FifoHandoff)
{
    Simulation sim;
    Semaphore sem(sim, 1);
    std::vector<int> order;
    for (int i = 0; i < 4; ++i) {
        spawn(co_staggered_acquire(sim, sem, i, order));
    }
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

Task<void>
co_drain_channel(Channel<int>& ch, std::vector<int>& got)
{
    while (true) {
        auto v = co_await ch.pop();
        if (!v) {
            break;
        }
        got.push_back(*v);
    }
}

TEST(Channel, DeliversInOrder)
{
    Simulation sim;
    Channel<int> ch(sim);
    std::vector<int> got;
    spawn(co_drain_channel(ch, got));
    sim.schedule(msec(1), [&] { ch.push(1); });
    sim.schedule(msec(2), [&] { ch.push(2); });
    sim.schedule(msec(3), [&] { ch.close(); });
    sim.run();
    EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

Task<void>
co_pop_expect_closed(Channel<int>& ch, int& done)
{
    auto v = co_await ch.pop();
    EXPECT_FALSE(v.has_value());
    ++done;
}

TEST(Channel, CloseWakesWaitingConsumers)
{
    Simulation sim;
    Channel<int> ch(sim);
    int done = 0;
    for (int i = 0; i < 3; ++i) {
        spawn(co_pop_expect_closed(ch, done));
    }
    sim.schedule(msec(1), [&] { ch.close(); });
    sim.run();
    EXPECT_EQ(done, 3);
}

Task<void>
co_worker(Simulation& sim, WaitGroup& wg, SimTime work, int& completed)
{
    co_await delay(sim, work);
    ++completed;
    wg.done();
}

Task<void>
co_wait_group(Simulation& sim, WaitGroup& wg, SimTime& finish)
{
    co_await wg.wait();
    finish = sim.now();
}

TEST(WaitGroup, WaitsForAllChildren)
{
    Simulation sim;
    WaitGroup wg(sim);
    int completed = 0;
    SimTime finish = -1;
    for (int i = 1; i <= 3; ++i) {
        wg.add();
        spawn(co_worker(sim, wg, msec(i * 10), completed));
    }
    spawn(co_wait_group(sim, wg, finish));
    sim.run();
    EXPECT_EQ(completed, 3);
    EXPECT_EQ(finish, msec(30));
}

TEST(WaitGroup, ZeroCountPassesImmediately)
{
    Simulation sim;
    WaitGroup wg(sim);
    SimTime finish = -1;
    spawn(co_wait_group(sim, wg, finish));
    sim.run();
    EXPECT_EQ(finish, 0);
}

Task<void>
co_random_sleep(Simulation& sim, Rng& rng, std::vector<SimTime>& trace)
{
    co_await delay(sim, usec(rng.uniform_int(1, 1000)));
    trace.push_back(sim.now());
}

TEST(Determinism, SameSeedSameSchedule)
{
    // Two identical runs must produce identical event traces.
    auto run_once = [] {
        Simulation sim;
        Rng rng(1234);
        std::vector<SimTime> trace;
        for (int i = 0; i < 100; ++i) {
            spawn(co_random_sleep(sim, rng, trace));
        }
        sim.run();
        return trace;
    };
    EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace lfs::sim

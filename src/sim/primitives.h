/**
 * @file
 * Awaitable synchronization primitives for simulated processes.
 *
 * All primitives resume waiters *through the simulation event loop* (at the
 * current simulated instant) rather than inline. This bounds native stack
 * depth and preserves deterministic FIFO ordering between processes that
 * become runnable at the same instant.
 *
 * Lifetime rule: a coroutine suspended on one of these primitives must not
 * be destroyed while suspended (the primitive holds a raw handle). In this
 * codebase processes run to completion; cancellation is expressed with
 * OneShot::try_set (e.g. timeouts) instead of frame destruction. Only
 * timer *events* are ever cancelled (Simulation::cancel).
 */
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/frame_pool.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace lfs::sim {

/** Awaitable that resumes the process after a simulated delay. */
class Delay {
  public:
    Delay(Simulation& sim, SimTime d) : sim_(sim), delay_(d) {}

    bool await_ready() const noexcept { return false; }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        sim_.schedule(delay_, h);
    }

    void await_resume() const noexcept {}

  private:
    Simulation& sim_;
    SimTime delay_;
};

/** co_await delay(sim, msec(3)) suspends the calling process for 3 ms. */
inline Delay delay(Simulation& sim, SimTime d) { return Delay(sim, d); }

/**
 * A write-once cell with a single awaiting consumer.
 *
 * The producer side is idempotent: only the first try_set() wins, which is
 * how response-vs-timeout races are resolved. A race shares its cell
 * through a OneShotRef so a late producer (e.g. a straggler reply) can
 * still safely call try_set on an already-completed cell.
 */
template <typename T>
class OneShot {
  public:
    explicit OneShot(Simulation& sim) : sim_(sim) {}

    /** Set the value if not already set. @return true if this call won. */
    bool
    try_set(T value)
    {
        if (value_.has_value()) {
            return false;
        }
        value_.emplace(std::move(value));
        if (waiter_) {
            auto h = std::exchange(waiter_, {});
            sim_.schedule(0, h);
        }
        return true;
    }

    bool is_set() const { return value_.has_value(); }

    /** Await the value. Exactly one consumer may wait. */
    auto
    wait()
    {
        struct Awaiter : Settled {
            T await_resume() { return std::move(*this->cell.value_); }
        };
        return Awaiter{{*this}};
    }

    /** wait() that leaves the value in the cell for take(). */
    auto settled() { return Settled{*this}; }

    /** Move the value out of a set cell. */
    T
    take()
    {
        assert(value_.has_value());
        return std::move(*value_);
    }

  private:
    struct Settled {
        OneShot& cell;
        bool await_ready() const noexcept { return cell.value_.has_value(); }
        void
        await_suspend(std::coroutine_handle<> h)
        {
            assert(!cell.waiter_ && "OneShot supports a single waiter");
            cell.waiter_ = h;
        }
        void await_resume() const noexcept {}
    };

    Simulation& sim_;
    std::optional<T> value_;
    std::coroutine_handle<> waiter_ = {};
};

/**
 * A counted reference to a OneShot shared by the parties of one race:
 * the awaiting process, its timer and every round. The cell lives until
 * the last reference goes, so a round that finishes after the race was
 * decided still writes into a live cell (and loses). The count is plain
 * (the kernel is single-threaded) and the cell's memory comes from the
 * FramePool, so a race allocates nothing in steady state.
 */
template <typename T>
class OneShotRef {
  public:
    /** A fresh, unset cell on @p sim with this one reference. */
    static OneShotRef
    make(Simulation& sim)
    {
        void* mem = FramePool::allocate(sizeof(Block));
        return OneShotRef(::new (mem) Block{OneShot<T>(sim), 1});
    }

    OneShotRef(const OneShotRef& o) : b_(o.b_) { ++b_->refs; }
    OneShotRef(OneShotRef&& o) noexcept : b_(std::exchange(o.b_, nullptr)) {}
    OneShotRef& operator=(const OneShotRef&) = delete;
    OneShotRef& operator=(OneShotRef&&) = delete;

    ~OneShotRef()
    {
        if (b_ != nullptr && --b_->refs == 0) {
            b_->~Block();
            FramePool::deallocate(b_, sizeof(Block));
        }
    }

    OneShot<T>* operator->() const { return &b_->cell; }

  private:
    struct Block {
        OneShot<T> cell;
        uint32_t refs;
    };

    explicit OneShotRef(Block* b) : b_(b) {}

    Block* b_;
};

/**
 * A client-side timeout race: the first of a timer and the request's
 * rounds to fill the cell wins; late finishers are discarded. The timer
 * is scheduled first and, after @p timeout, fills the cell with
 * @p on_timeout() unless a round got there first. Then @p start(cell)
 * spawns the rounds that race into the cell — none, one or several, each
 * free to stay silent (a lost reply) and leave the cell to the timer.
 *
 * When a round wins, the timer is cancelled as soon as the race resumes
 * (the same instant): it would only have found the cell set, and
 * cancelling it frees the cell it holds instead of keeping it — and a
 * queued event — alive for the rest of the timeout.
 */
template <typename OnTimeout, typename Start>
Task<std::invoke_result_t<OnTimeout&>>
race_timeout(Simulation& sim, SimTime timeout, OnTimeout on_timeout,
             Start start)
{
    using T = std::invoke_result_t<OnTimeout&>;
    OneShotRef<T> cell = OneShotRef<T>::make(sim);
    Simulation::TimerId timer =
        sim.schedule_cancellable(timeout, [cell, on_timeout] {
            if (!cell->is_set()) {
                cell->try_set(on_timeout());
            }
        });
    start(cell);
    co_await cell->settled();
    sim.cancel(timer);  // a no-op when the timer itself won
    co_return cell->take();
}

namespace detail {

/** Await @p round and deliver its value into @p cell. */
template <typename T>
Task<void>
deliver(Task<T> round, OneShotRef<T> cell)
{
    T value = co_await std::move(round);
    cell->try_set(std::move(value));
}

}  // namespace detail

/** race_timeout for a single round that always answers. */
template <typename OnTimeout, typename T>
Task<T>
race_timeout(Simulation& sim, SimTime timeout, OnTimeout on_timeout,
             Task<T> round)
{
    return race_timeout(
        sim, timeout, std::move(on_timeout),
        [round = std::move(round)](OneShotRef<T> cell) mutable {
            spawn(detail::deliver(std::move(round), std::move(cell)));
        });
}

/**
 * A one-shot broadcast event: any number of processes may wait; set()
 * releases them all (current and future waiters pass immediately).
 */
class Gate {
  public:
    explicit Gate(Simulation& sim) : sim_(sim) {}

    void
    set()
    {
        if (set_) {
            return;
        }
        set_ = true;
        for (auto h : waiters_) {
            sim_.schedule(0, h);
        }
        waiters_.clear();
    }

    bool is_set() const { return set_; }

    auto
    wait()
    {
        struct Awaiter {
            Gate& gate;
            bool await_ready() const noexcept { return gate.set_; }
            void
            await_suspend(std::coroutine_handle<> h)
            {
                gate.waiters_.push_back(h);
            }
            void await_resume() const noexcept {}
        };
        return Awaiter{*this};
    }

  private:
    Simulation& sim_;
    bool set_ = false;
    std::vector<std::coroutine_handle<>> waiters_;
};

/**
 * Counting semaphore with FIFO hand-off: release() passes the permit
 * directly to the oldest waiter, so admission order equals arrival order.
 */
class Semaphore {
  public:
    Semaphore(Simulation& sim, int64_t permits)
        : sim_(sim), permits_(permits)
    {
    }

    /** Acquire one permit, waiting if none are available. */
    auto
    acquire()
    {
        struct Awaiter {
            Semaphore& sem;
            bool
            await_ready()
            {
                if (sem.permits_ > 0) {
                    --sem.permits_;
                    return true;
                }
                return false;
            }
            void
            await_suspend(std::coroutine_handle<> h)
            {
                sem.waiters_.push_back(h);
            }
            void await_resume() const noexcept {}
        };
        return Awaiter{*this};
    }

    /** Try to acquire without waiting. */
    bool
    try_acquire()
    {
        if (permits_ > 0) {
            --permits_;
            return true;
        }
        return false;
    }

    /** Return one permit, waking the oldest waiter if any. */
    void
    release()
    {
        if (!waiters_.empty()) {
            auto h = waiters_.front();
            waiters_.pop_front();
            sim_.schedule(0, h);
        } else {
            ++permits_;
        }
    }

    int64_t available() const { return permits_; }
    size_t waiting() const { return waiters_.size(); }

  private:
    Simulation& sim_;
    int64_t permits_;
    std::deque<std::coroutine_handle<>> waiters_;
};

/** RAII permit holder for Semaphore. */
class SemaphoreGuard {
  public:
    explicit SemaphoreGuard(Semaphore& sem) : sem_(&sem) {}
    SemaphoreGuard(SemaphoreGuard&& o) noexcept
        : sem_(std::exchange(o.sem_, nullptr))
    {
    }
    SemaphoreGuard(const SemaphoreGuard&) = delete;
    SemaphoreGuard& operator=(const SemaphoreGuard&) = delete;
    SemaphoreGuard& operator=(SemaphoreGuard&&) = delete;
    ~SemaphoreGuard()
    {
        if (sem_) {
            sem_->release();
        }
    }

  private:
    Semaphore* sem_;
};

/** Mutual exclusion = semaphore with one permit. */
class Mutex : public Semaphore {
  public:
    explicit Mutex(Simulation& sim) : Semaphore(sim, 1) {}
};

/**
 * Unbounded FIFO channel. pop() returns std::nullopt once the channel is
 * closed and drained. Multiple consumers are supported (FIFO hand-off).
 */
template <typename T>
class Channel {
  public:
    explicit Channel(Simulation& sim) : sim_(sim) {}

    /** Enqueue an item; hands it directly to the oldest waiting consumer. */
    void
    push(T item)
    {
        assert(!closed_ && "push on closed channel");
        items_.push_back(std::move(item));
        wake_one();
    }

    /** Close the channel: waiting and future consumers get nullopt. */
    void
    close()
    {
        closed_ = true;
        while (!waiters_.empty()) {
            wake_one();
        }
    }

    bool closed() const { return closed_; }
    size_t size() const { return items_.size(); }

    /** Await the next item (or nullopt after close). */
    Task<std::optional<T>>
    pop()
    {
        while (items_.empty() && !closed_) {
            co_await suspend_consumer();
        }
        if (items_.empty()) {
            co_return std::nullopt;
        }
        T item = std::move(items_.front());
        items_.pop_front();
        co_return std::optional<T>(std::move(item));
    }

  private:
    auto
    suspend_consumer()
    {
        struct Awaiter {
            Channel& ch;
            bool await_ready() const noexcept { return false; }
            void
            await_suspend(std::coroutine_handle<> h)
            {
                ch.waiters_.push_back(h);
            }
            void await_resume() const noexcept {}
        };
        return Awaiter{*this};
    }

    void
    wake_one()
    {
        if (!waiters_.empty()) {
            auto h = waiters_.front();
            waiters_.pop_front();
            sim_.schedule(0, h);
        }
    }

    Simulation& sim_;
    bool closed_ = false;
    std::deque<T> items_;
    std::deque<std::coroutine_handle<>> waiters_;
};

/**
 * Barrier for fan-out/fan-in: add() before starting children, done() from
 * each child, wait() resumes once the count returns to zero.
 */
class WaitGroup {
  public:
    explicit WaitGroup(Simulation& sim) : gate_(sim) {}

    void add(int n = 1) { count_ += n; }

    void
    done()
    {
        assert(count_ > 0);
        if (--count_ == 0) {
            gate_.set();
        }
    }

    auto
    wait()
    {
        if (count_ == 0) {
            gate_.set();
        }
        return gate_.wait();
    }

    int count() const { return count_; }

  private:
    int count_ = 0;
    Gate gate_;
};

}  // namespace lfs::sim

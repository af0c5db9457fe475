/**
 * @file
 * C++20 coroutine task types used to express simulated processes.
 *
 * Task<T> is a lazily-started coroutine whose completion resumes its awaiter
 * via symmetric transfer. A simulated process is simply a coroutine that
 * co_awaits delays and synchronization primitives (see primitives.h); the
 * kernel in simulation.h supplies the clock.
 *
 * Ownership model: the Task object owns the coroutine frame. Awaiting a
 * Task (``co_await some_task()``) keeps the temporary alive for the full
 * await-expression, so frames are destroyed exactly once, after completion.
 * Detached processes are started with spawn(). Every frame comes from
 * the size-class FramePool (frame_pool.h), not straight from the global
 * allocator.
 */
#pragma once

#include <cassert>
#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

#include "src/sim/frame_pool.h"

namespace lfs::sim {

template <typename T> class Task;

namespace detail {

/** Resumes the awaiting coroutine (if any) when a task finishes. */
struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }

    template <typename Promise>
    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<Promise> h) noexcept
    {
        auto cont = h.promise().continuation;
        return cont ? cont : std::noop_coroutine();
    }

    void await_resume() const noexcept {}
};

/** Routes a coroutine's frame allocation through the FramePool. */
struct PooledFrame {
    static void*
    operator new(std::size_t bytes)
    {
        return FramePool::allocate(bytes);
    }

    static void
    operator delete(void* p, std::size_t bytes) noexcept
    {
        FramePool::deallocate(p, bytes);
    }
};

struct TaskPromiseBase : PooledFrame {
    std::coroutine_handle<> continuation;
    std::exception_ptr exception;

    std::suspend_always initial_suspend() noexcept { return {}; }
    FinalAwaiter final_suspend() noexcept { return {}; }
    void unhandled_exception() { exception = std::current_exception(); }
};

template <typename T>
struct TaskPromise : TaskPromiseBase {
    std::optional<T> value;

    Task<T> get_return_object();
    void return_value(T v) { value.emplace(std::move(v)); }
};

template <>
struct TaskPromise<void> : TaskPromiseBase {
    Task<void> get_return_object();
    void return_void() {}
};

}  // namespace detail

/**
 * A lazily-started coroutine producing a value of type T.
 *
 * Must be either co_awaited or passed to spawn(); a Task that is destroyed
 * without ever being started simply releases its frame.
 */
template <typename T = void>
class [[nodiscard]] Task {
  public:
    using promise_type = detail::TaskPromise<T>;
    using Handle = std::coroutine_handle<promise_type>;

    Task() = default;
    explicit Task(Handle h) : handle_(h) {}
    Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}

    Task&
    operator=(Task&& other) noexcept
    {
        if (this != &other) {
            destroy();
            handle_ = std::exchange(other.handle_, {});
        }
        return *this;
    }

    Task(const Task&) = delete;
    Task& operator=(const Task&) = delete;

    ~Task() { destroy(); }

    /** True if this task refers to a live coroutine frame. */
    bool valid() const { return static_cast<bool>(handle_); }

    /** Awaiting a Task starts it and resumes the awaiter on completion. */
    auto
    operator co_await() && noexcept
    {
        struct Awaiter {
            Handle h;

            bool await_ready() const noexcept { return !h || h.done(); }

            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<> cont) noexcept
            {
                h.promise().continuation = cont;
                return h;  // Start (or continue) the child via symmetric transfer.
            }

            T
            await_resume()
            {
                auto& p = h.promise();
                if (p.exception) {
                    std::rethrow_exception(p.exception);
                }
                if constexpr (!std::is_void_v<T>) {
                    return std::move(*p.value);
                }
            }
        };
        return Awaiter{handle_};
    }

  private:
    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = {};
        }
    }

    Handle handle_;
};

namespace detail {

template <typename T>
Task<T>
TaskPromise<T>::get_return_object()
{
    return Task<T>(std::coroutine_handle<TaskPromise<T>>::from_promise(*this));
}

inline Task<void>
TaskPromise<void>::get_return_object()
{
    return Task<void>(
        std::coroutine_handle<TaskPromise<void>>::from_promise(*this));
}

}  // namespace detail

/**
 * Handle type for fire-and-forget processes. The coroutine frame manages its
 * own lifetime (it is destroyed automatically when it runs to completion).
 */
struct Detached {
    struct promise_type : detail::PooledFrame {
        Detached get_return_object() { return {}; }
        std::suspend_never initial_suspend() noexcept { return {}; }
        std::suspend_never final_suspend() noexcept { return {}; }
        void return_void() {}
        void unhandled_exception() { std::terminate(); }
    };
};

/**
 * Start @p task as a detached simulated process. The task begins executing
 * immediately (until its first suspension point).
 */
inline Detached
spawn(Task<void> task)
{
    co_await std::move(task);
}

}  // namespace lfs::sim

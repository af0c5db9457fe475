/**
 * @file
 * Error propagation types used across the file-system layers.
 *
 * File-system operations fail for user-visible reasons (missing paths,
 * permission checks) and for system reasons (timeouts, aborted
 * transactions, unavailable NameNodes). Status carries a canonical code
 * plus a human-readable message; StatusOr<T> is the value-or-error result
 * used by RPC handlers.
 */
#pragma once

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace lfs {

/** Canonical error codes (a subset of the usual gRPC-style set). */
enum class Code {
    kOk = 0,
    kNotFound,
    kAlreadyExists,
    kPermissionDenied,
    kInvalidArgument,
    kDeadlineExceeded,
    kUnavailable,
    kAborted,
    kFailedPrecondition,
    kResourceExhausted,
    kInternal,
};

/** Human-readable name for a code (e.g. "NOT_FOUND"). */
const char* code_name(Code code);

/**
 * True for transient system faults that a client may retry: UNAVAILABLE,
 * DEADLINE_EXCEEDED, ABORTED, INTERNAL, and RESOURCE_EXHAUSTED (admission
 * rejected under overload — retry after backoff, subject to the retry
 * budget). User-visible outcomes (NOT_FOUND, ALREADY_EXISTS, ...) are
 * definitive answers and never retried. Every client that resubmits
 * (λFS, HopsFS, λIndexFS, InfiniCache) classifies through this one
 * predicate so the baselines stay comparable; the CephFS and IndexFS
 * clients never resubmit.
 */
constexpr bool
retryable_code(Code code)
{
    return code == Code::kUnavailable || code == Code::kDeadlineExceeded ||
           code == Code::kAborted || code == Code::kInternal ||
           code == Code::kResourceExhausted;
}

/**
 * True when a failed attempt may nonetheless have committed server-side
 * (lost reply, server died post-commit). RESOURCE_EXHAUSTED is excluded:
 * admission control rejects *before* any execution, so a shed request is
 * known not to have run.
 */
constexpr bool
possibly_committed_code(Code code)
{
    return code == Code::kUnavailable || code == Code::kDeadlineExceeded ||
           code == Code::kAborted || code == Code::kInternal;
}

/** A result code with an optional message. Cheap to copy when OK. */
class Status {
  public:
    Status() : code_(Code::kOk) {}
    Status(Code code, std::string message)
        : code_(code), message_(std::move(message))
    {
    }

    static Status make_ok() { return Status(); }
    static Status not_found(std::string m) { return {Code::kNotFound, std::move(m)}; }
    static Status already_exists(std::string m) { return {Code::kAlreadyExists, std::move(m)}; }
    static Status permission_denied(std::string m) { return {Code::kPermissionDenied, std::move(m)}; }
    static Status invalid_argument(std::string m) { return {Code::kInvalidArgument, std::move(m)}; }
    static Status deadline_exceeded(std::string m) { return {Code::kDeadlineExceeded, std::move(m)}; }
    static Status unavailable(std::string m) { return {Code::kUnavailable, std::move(m)}; }
    static Status aborted(std::string m) { return {Code::kAborted, std::move(m)}; }
    static Status failed_precondition(std::string m) { return {Code::kFailedPrecondition, std::move(m)}; }
    static Status resource_exhausted(std::string m) { return {Code::kResourceExhausted, std::move(m)}; }
    static Status internal(std::string m) { return {Code::kInternal, std::move(m)}; }

    bool ok() const { return code_ == Code::kOk; }
    Code code() const { return code_; }
    const std::string& message() const { return message_; }

    /** "OK" or "CODE: message" for logs. */
    std::string to_string() const;

    bool operator==(const Status& other) const { return code_ == other.code_; }

  private:
    Code code_;
    std::string message_;
};

/** A value of type T or a non-OK Status. */
template <typename T>
class StatusOr {
  public:
    StatusOr(Status status) : status_(std::move(status))  // NOLINT(google-explicit-constructor)
    {
        assert(!status_.ok() && "OK StatusOr must carry a value");
    }
    StatusOr(T value)  // NOLINT(google-explicit-constructor)
        : status_(Status::make_ok()), value_(std::move(value))
    {
    }

    bool ok() const { return status_.ok(); }
    const Status& status() const { return status_; }
    Code code() const { return status_.code(); }

    const T&
    value() const
    {
        assert(ok());
        return *value_;
    }

    T&
    value()
    {
        assert(ok());
        return *value_;
    }

    T&&
    take()
    {
        assert(ok());
        return std::move(*value_);
    }

    const T& operator*() const { return value(); }
    T& operator*() { return value(); }
    const T* operator->() const { return &value(); }
    T* operator->() { return &value(); }

  private:
    Status status_;
    std::optional<T> value_;
};

}  // namespace lfs

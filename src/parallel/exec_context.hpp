// ExecContext: the cancellation/deadline environment of the current query.
//
// tc::query / tc::Engine install a ScopedExecContext on the thread that
// drives a counting run; parallel_for and the work-stealing scheduler
// capture the driver's context when a loop starts and poll it at chunk/task
// granularity (so pool workers observe the interrupt of exactly the query
// they are executing), and the LOTUS driver checks it between phases. The
// context latches the first interrupt any poll observes, so the caller that
// installed it can re-check after the run to learn whether any work was
// skipped — even if the cancel token was reset() in between (a token is
// re-armable, so its flag alone is not sticky).
//
// Thread-safety: the installed context pointer is thread-local — each query
// driver thread carries its own, which is what lets tc::Engine run several
// queries concurrently without their cancellations cross-firing.
// check_interrupt(ctx) with a captured pointer is safe from any thread as
// long as the context outlives the parallel region (the installing scope
// guarantees that). Overhead with no context installed: one thread-local
// load per chunk.
#pragma once

#include <atomic>

#include "util/cancel.hpp"

namespace lotus::parallel {

/// What, if anything, interrupted the run. Deadline wins ties only when the
/// cancel token is untouched — cancellation is the stronger, explicit signal.
enum class Interrupt { kNone, kCancelled, kDeadlineExceeded };

/// The cancellation environment: either member may be absent.
struct ExecContext {
  const util::CancelToken* cancel = nullptr;
  util::Deadline deadline;
  /// First interrupt any poll observed; every later poll reports it.
  mutable std::atomic<Interrupt> latched{Interrupt::kNone};
};

namespace detail {
inline const ExecContext*& exec_context_ref() noexcept {
  thread_local const ExecContext* current = nullptr;
  return current;
}
}  // namespace detail

/// The context installed on the calling thread (nullptr = none). Parallel
/// primitives capture this before fanning out so workers poll the right one.
[[nodiscard]] inline const ExecContext* current_exec_context() noexcept {
  return detail::exec_context_ref();
}

/// Poll an explicit (usually captured) context. kNone for nullptr. The
/// first interrupt seen is latched into the context and wins every later
/// poll, from any thread.
[[nodiscard]] inline Interrupt check_interrupt(const ExecContext* ctx) noexcept {
  if (ctx == nullptr) return Interrupt::kNone;
  Interrupt seen = ctx->latched.load(std::memory_order_acquire);
  if (seen != Interrupt::kNone) return seen;
  if (ctx->cancel != nullptr && ctx->cancel->cancelled())
    seen = Interrupt::kCancelled;
  else if (ctx->deadline.expired())
    seen = Interrupt::kDeadlineExceeded;
  else
    return Interrupt::kNone;
  Interrupt first = Interrupt::kNone;
  return ctx->latched.compare_exchange_strong(first, seen,
                                              std::memory_order_acq_rel)
             ? seen
             : first;
}

/// Poll the context installed on this thread. kNone when none is installed.
[[nodiscard]] inline Interrupt check_interrupt() noexcept {
  return check_interrupt(current_exec_context());
}

[[nodiscard]] inline bool interrupted() noexcept {
  return check_interrupt() != Interrupt::kNone;
}

/// Install `context` on the calling thread for the lifetime of this object
/// (pass by pointer; the caller keeps ownership and must outlive the scope).
class ScopedExecContext {
 public:
  explicit ScopedExecContext(const ExecContext* context)
      : previous_(detail::exec_context_ref()) {
    detail::exec_context_ref() = context;
  }
  ~ScopedExecContext() { detail::exec_context_ref() = previous_; }
  ScopedExecContext(const ScopedExecContext&) = delete;
  ScopedExecContext& operator=(const ScopedExecContext&) = delete;

 private:
  const ExecContext* previous_;
};

}  // namespace lotus::parallel

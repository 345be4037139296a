// Deterministic fault-injection fail points.
//
// A fail point is a named site in production code (checkpoint reads, the
// serve decode path, snapshot preparation) that tests and `mfn serve-bench
// --inject` can arm to misbehave on demand: throw, sleep, poison a value.
// The overload / fault-tolerance paths — deadline expiry, admission
// shedding, reload rollback — are only trustworthy if CI can drive them
// deterministically, which real disk corruption and scheduler jitter never
// do.
//
// Design constraints:
//  - Disarmed cost is one relaxed atomic load (a global armed-point
//    count), so fail points can sit on hot serving paths permanently —
//    no build flag, the sites are always compiled in and always tested.
//  - Deterministic: a Spec fires on exact hit indices (`skip` pass-through
//    hits, then at most `count` fires), never on timers or randomness.
//  - Registry-global, guarded by a mutex off the fast path; arming is a
//    test/bench-time operation, not a serving-time one.
//
// Site usage:
//
//   if (auto f = failpoint::poll("ckpt.transient_io"))
//     MFN_FAIL("injected transient I/O failure reading " << path);
//
// Test usage:
//
//   failpoint::ScopedFail inject("ckpt.transient_io",
//                                {.skip = 0, .count = 2});
//   // first two loads fail, the third succeeds
//
// Points currently wired in (each site documents its `arg` meaning):
//   ckpt.transient_io     checkpoint open/read throws (retryable I/O error)
//   ckpt.truncate         checkpoint read throws mid-stream (truncation)
//   ckpt.nan_weight       first loaded parameter is poisoned to NaN
//   ckpt.crash_mid_write  save_checkpoint dies after the .tmp prefix,
//                         before the atomic rename (torn-publish test)
//   serve.slow_decode     decode unit sleeps `arg` milliseconds first
//   serve.prepare_fail    snapshot preparation throws (allocation failure)
//   dist.conn_refused     a TCP dial attempt fails as if ECONNREFUSED
//   dist.recv_timeout     a recv deadline expires immediately
//   dist.worker_crash     training worker _Exit(42)s mid-step
//   dist.slow_worker      training worker sleeps `arg` ms before its
//                         step's ring allreduce (drives excision + rejoin)
//   dist.ring_crash       training worker _Exit(42)s before an allgather
//                         send (survivors split on the step's commit)
//
// Subprocesses are armed through the MFN_FAILPOINTS environment variable
// (see arm_from_env below).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace mfn::failpoint {

struct Spec {
  /// Hits that pass through unharmed before the point starts firing.
  std::uint64_t skip = 0;
  /// Maximum number of firing hits (default: every hit after `skip`).
  std::uint64_t count = ~std::uint64_t{0};
  /// Site-defined payload (e.g. sleep duration in ms for
  /// serve.slow_decode). 0 when the site doesn't use it.
  double arg = 0.0;
};

/// Arm `name` with `spec`, resetting its hit counter. Re-arming an armed
/// point replaces the spec (counter resets).
void arm(const std::string& name, Spec spec = {});

/// Disarm `name` (keeps its lifetime hit/fire counters readable).
void disarm(const std::string& name);

/// Disarm everything and forget all counters.
void reset();

/// Site check: counts a hit against `name` and returns the armed Spec when
/// this hit fires, std::nullopt otherwise (including when nothing is
/// armed — the common case, one relaxed atomic load).
std::optional<Spec> poll(const char* name);

/// Lifetime counters for an armed-or-previously-armed point (0 if never
/// armed since the last reset()).
std::uint64_t hit_count(const std::string& name);
std::uint64_t fire_count(const std::string& name);

/// Arm points from a spec string, the startup-time path for fault
/// injection into spawned subprocesses (the distributed training tests
/// arm workers this way, no code changes needed):
///
///   "dist.recv_timeout=skip:3,count:2;dist.slow_worker=arg:500"
///
/// Points are ';'-separated; each is NAME or NAME=FIELD:VALUE[,...] with
/// fields skip, count, arg. Returns the number of points armed; throws
/// mfn::Error on a malformed spec (unknown field, bad number, empty
/// name).
int arm_from_string(const std::string& spec_list);

/// arm_from_string(getenv("MFN_FAILPOINTS")); returns 0 when the variable
/// is unset or empty. Called once at mfn CLI startup.
int arm_from_env();

/// RAII arm/disarm for tests.
class ScopedFail {
 public:
  explicit ScopedFail(std::string name, Spec spec = {})
      : name_(std::move(name)) {
    arm(name_, spec);
  }
  ~ScopedFail() { disarm(name_); }
  ScopedFail(const ScopedFail&) = delete;
  ScopedFail& operator=(const ScopedFail&) = delete;

 private:
  std::string name_;
};

}  // namespace mfn::failpoint

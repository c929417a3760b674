#ifndef EQUIHIST_COMMON_MUTEX_H_
#define EQUIHIST_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "common/annotations.h"

namespace equihist {

// Annotated wrappers over the standard mutex types (DESIGN.md §13).
//
// std::mutex and std::shared_mutex carry no thread-safety-analysis
// attributes, so data guarded by them cannot be checked by Clang's
// -Wthread-safety. These wrappers add the CAPABILITY annotations; every
// lock in the library is one of these, and every piece of guarded state
// is declared GUARDED_BY one of them. The wrappers also satisfy the
// standard BasicLockable / Lockable / SharedLockable requirements
// (lock/unlock/try_lock spellings), so they remain usable with std
// facilities where needed.
//
// On top of the compile-time annotations the wrappers carry an optional
// *lock rank* (DESIGN.md §18): every mutex constructed in src/ names a
// lockrank::Rank, and with EQUIHIST_LOCK_RANK_CHECK on (the default
// outside production builds) a thread-local held-rank stack verifies at
// runtime that blocking acquisitions happen in strictly increasing rank
// order — the classic total-order discipline that makes lock-order
// deadlocks impossible. An inversion aborts immediately with both lock
// names, turning a latent deadlock into a deterministic test failure.

namespace lockrank {

// One level of the lock hierarchy. Blocking acquisitions must be
// strictly increasing in `order`; a `leaf` rank additionally forbids
// acquiring ANY ranked mutex while it is held (both directions of a
// never-nests invariant in one attribute). Instances are constexpr and
// live for the program's lifetime; the full table is below.
struct Rank {
  const char* name;
  int order;
  bool leaf = false;
};

// The rank table — the real lock hierarchy of the library, lowest rank
// acquired first. DESIGN.md §18 documents why each ordered pair that
// occurs in practice occurs. Gaps of 10 leave room for future levels.
inline constexpr Rank kTransportClient{"TransportClient::mu_", 10};
inline constexpr Rank kTransportServer{"SocketTransportServer::mu_", 20};
inline constexpr Rank kSocketTransport{"SocketTransport::mu_", 30};
inline constexpr Rank kExchange{"TransportClient::Exchange::mu", 40};
inline constexpr Rank kConnectionWrite{
    "SocketTransportServer::Connection::write_mu", 50};
inline constexpr Rank kBuildScheduler{"BuildScheduler::mu_", 70};
inline constexpr Rank kShardBuild{"StatisticsShard::Entry::build_mu", 80};
// Leaf: the invariant "maintenance.mu never nests with the shard's
// mu_ in either direction" — enforced, not commented. Holding it, no
// ranked lock may be acquired; rank order forbids the reverse nesting.
inline constexpr Rank kShardMaintenance{
    "StatisticsShard::MaintenanceState::mu", 90, /*leaf=*/true};
inline constexpr Rank kShardState{"StatisticsShard::mu_", 100};
inline constexpr Rank kBackendRegistry{"HistogramBackendRegistry::mu_", 110};
inline constexpr Rank kFaultInjector{"FaultInjector::mu_", 120};
inline constexpr Rank kThreadPool{"ThreadPool::mu_", 130};
inline constexpr Rank kThreadPoolDone{"ThreadPool::ForState::done_mu", 140};

#if defined(EQUIHIST_LOCK_RANK_CHECK) && EQUIHIST_LOCK_RANK_CHECK
// Checks the acquisition against this thread's held stack (aborting with
// both lock names on a rank inversion or a violated leaf), then records
// it. Called before the blocking acquire so an inversion aborts loudly
// instead of deadlocking quietly. A null rank (a default-constructed
// mutex — test-local locks, the documented exemption) is invisible to
// the checker.
void NoteAcquire(const void* mu, const Rank* rank);
// Records a successful try-acquire. No order check: a non-blocking
// acquisition cannot deadlock, but once held it constrains what may be
// acquired next exactly like a blocking one.
void NoteTryAcquire(const void* mu, const Rank* rank);
// Removes the (possibly non-LIFO) newest held record for `mu`.
void NoteRelease(const void* mu, const Rank* rank);
#else
inline void NoteAcquire(const void*, const Rank*) {}
inline void NoteTryAcquire(const void*, const Rank*) {}
inline void NoteRelease(const void*, const Rank*) {}
#endif

}  // namespace lockrank

// Exclusive mutex. Prefer the scoped MutexLock over manual
// Lock()/Unlock() pairs.
class CAPABILITY("mutex") Mutex {
 public:
  // Unranked: exempt from the lock-rank checker. Reserved for locks
  // outside the library's hierarchy (tests, examples); every Mutex
  // constructed in src/ names a rank.
  Mutex() = default;
  explicit Mutex(const lockrank::Rank& rank) : rank_(&rank) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
    lockrank::NoteAcquire(this, rank_);
    mu_.lock();
  }
  void Unlock() RELEASE() {
    mu_.unlock();
    lockrank::NoteRelease(this, rank_);
  }
  bool TryLock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    lockrank::NoteTryAcquire(this, rank_);
    return true;
  }

  // Standard Lockable spellings (std interop: std::lock_guard<Mutex>,
  // condition_variable_any). Same contracts as the named methods.
  void lock() ACQUIRE() { Lock(); }
  void unlock() RELEASE() { Unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return TryLock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
  const lockrank::Rank* rank_ = nullptr;
};

// Reader/writer mutex: many concurrent shared holders or one exclusive
// holder. Prefer the scoped WriterMutexLock / ReaderMutexLock. Shared
// acquisitions carry the same rank as exclusive ones — a reader-held
// lock constrains ordering exactly like a writer-held one.
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  // Unranked: exempt from the lock-rank checker (see Mutex()).
  SharedMutex() = default;
  explicit SharedMutex(const lockrank::Rank& rank) : rank_(&rank) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() {
    lockrank::NoteAcquire(this, rank_);
    mu_.lock();
  }
  void Unlock() RELEASE() {
    mu_.unlock();
    lockrank::NoteRelease(this, rank_);
  }
  bool TryLock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    lockrank::NoteTryAcquire(this, rank_);
    return true;
  }

  void ReaderLock() ACQUIRE_SHARED() {
    lockrank::NoteAcquire(this, rank_);
    mu_.lock_shared();
  }
  void ReaderUnlock() RELEASE_SHARED() {
    mu_.unlock_shared();
    lockrank::NoteRelease(this, rank_);
  }
  bool ReaderTryLock() TRY_ACQUIRE_SHARED(true) {
    if (!mu_.try_lock_shared()) return false;
    lockrank::NoteTryAcquire(this, rank_);
    return true;
  }

  // Standard SharedLockable spellings.
  void lock() ACQUIRE() { Lock(); }
  void unlock() RELEASE() { Unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return TryLock(); }
  void lock_shared() ACQUIRE_SHARED() { ReaderLock(); }
  void unlock_shared() RELEASE_SHARED() { ReaderUnlock(); }
  bool try_lock_shared() TRY_ACQUIRE_SHARED(true) { return ReaderTryLock(); }

 private:
  std::shared_mutex mu_;
  const lockrank::Rank* rank_ = nullptr;
};

// RAII exclusive lock over a Mutex.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  Mutex& mu_;
};

// RAII exclusive lock over a SharedMutex.
class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterMutexLock() RELEASE() { mu_.Unlock(); }
  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

// RAII shared (reader) lock over a SharedMutex.
class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.ReaderLock();
  }
  // Generic release: the analysis pairs it with the shared acquire above.
  ~ReaderMutexLock() RELEASE() { mu_.ReaderUnlock(); }
  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

// Condition variable paired with Mutex. Wait takes the Mutex (not the
// scoped lock) so the REQUIRES contract names the capability the
// analysis tracks; from the analysis's point of view the mutex stays
// held across the wait, which matches what the caller may assume about
// its guarded state before and after.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // The wait adopts the mutex the caller already holds (via MutexLock)
  // and hands ownership back before returning, so the caller's scoped
  // lock stays the sole owner.
  void Wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  template <typename Predicate>
  void Wait(Mutex& mu, Predicate pred) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock, std::move(pred));
    lock.release();
  }

  template <typename Rep, typename Period>
  std::cv_status WaitFor(Mutex& mu,
                         const std::chrono::duration<Rep, Period>& timeout)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_for(lock, timeout);
    lock.release();
    return status;
  }

  // Predicate form: waits until pred() holds or `timeout` elapses. Returns
  // pred()'s final value — false means the deadline fired with the
  // condition still unmet. The deadline-bounded waits of the fleet
  // transport client (hedged exchanges) all go through this: no wait in
  // that stack may ever be unbounded.
  template <typename Rep, typename Period, typename Predicate>
  bool WaitFor(Mutex& mu, const std::chrono::duration<Rep, Period>& timeout,
               Predicate pred) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    const bool satisfied = cv_.wait_for(lock, timeout, std::move(pred));
    lock.release();
    return satisfied;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  // std::condition_variable (not _any): Mutex wraps exactly std::mutex,
  // so the fast native-handle path applies.
  std::condition_variable cv_;
};

}  // namespace equihist

#endif  // EQUIHIST_COMMON_MUTEX_H_

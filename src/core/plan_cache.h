#ifndef APLUS_CORE_PLAN_CACHE_H_
#define APLUS_CORE_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace aplus {

class Database;
class PreparedQuery;
struct PrepareOptions;

// The database-wide plan cache: one map keyed on normalized query text,
// so a query is parsed + optimized once per text per graph epoch, however
// many Sessions and server connections run it. Owned by Database.
//
// Structure:
//   * Each entry holds a "master" PreparedQuery that is never executed
//     (the clone template) plus a pool of idle instances.
//   * Acquire() checks an instance out: a pool pop, or a
//     Database::ClonePrepared of the master. The holder owns it
//     exclusively until the Lease dies, so Bind/Execute on it take no
//     locks. Returned instances are reset first: no bindings, deadline
//     and memory cap back to "inherit", no pending Cancel().
//   * An entry is stale when Database::PlanStale says so (DDL moved the
//     store version, or the edge count left [n, 2n] of the prepared
//     graph). A miss drops every stale entry, and the least-recently-used
//     entry once kMaxEntries are cached; leases still out keep their
//     instance and drop it on return.
//   * A miss prepares under the entry's own mutex, so concurrent
//     Acquires of one text wait for that one prepare and count as hits.
//
// After warmup a steady request mix should hit well above 90%
// (tests/server_test.cc and aplus_loadgen assert it).
class PlanCache {
 public:
  // Entry capacity: a server fed literal-inlined (un-parameterized)
  // texts must not grow without bound.
  static constexpr size_t kMaxEntries = 256;

 private:
  struct Entry;

 public:
  // Move-only handle to a checked-out instance; returns it to its entry's
  // pool when it dies or is assigned over. Holds a failed prepare's error
  // holder (valid() false) when Prepare itself failed.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&&) noexcept = default;
    Lease& operator=(Lease&& other) noexcept;
    ~Lease();

    PreparedQuery* get() const { return owned_.get(); }
    bool valid() const;

   private:
    friend class PlanCache;
    void Return();

    std::shared_ptr<Entry> entry_;  // null for a failed prepare
    std::unique_ptr<PreparedQuery> owned_;
  };

  explicit PlanCache(Database* db) : db_(db) {}

  // Checks an instance out for `text`; Lease::get() is never null.
  // `options` apply on misses only (the first prepare of a text fixes the
  // batch size for every later clone).
  Lease Acquire(const std::string& text, const PrepareOptions& options);

  // True when `query` was planned for a database state PlanStale rejects.
  bool Stale(const PreparedQuery& query) const;

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  size_t size() const;

 private:
  // Idle instances kept per entry; beyond this, a returned instance is
  // dropped (bounds idle memory under connection churn).
  static constexpr size_t kMaxPooledPerEntry = 64;

  // Acquire's body: a hit, a wait on a concurrent prepare of `key`, or a
  // miss that prepares `text`. Entries a miss unlinks land in *dropped.
  Lease Checkout(const std::string& key, const std::string& text, const PrepareOptions& options,
                 std::vector<std::shared_ptr<Entry>>* dropped);
  // mu_ held: unlinks every stale entry, then the least-recently-used one
  // while the map is full, into *dropped.
  void DropStaleLocked(std::vector<std::shared_ptr<Entry>>* dropped);
  // Unlinks `entry` if the map still holds it under `key`.
  void Unlink(const std::string& key, const std::shared_ptr<Entry>& entry);

  Database* db_;
  mutable std::mutex mu_;  // guards map_ and tick_
  std::unordered_map<std::string, std::shared_ptr<Entry>> map_;
  uint64_t tick_ = 0;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace aplus

#endif  // APLUS_CORE_PLAN_CACHE_H_

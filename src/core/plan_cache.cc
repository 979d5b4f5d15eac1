#include "core/plan_cache.h"

#include "core/database.h"

namespace aplus {

struct PlanCache::Entry {
  // The database state the entry is planned for, fixed before the entry
  // is published.
  uint64_t store_version = 0;
  uint64_t num_edges = 0;
  uint64_t last_used = 0;  // PlanCache::tick_ of the last Acquire; under PlanCache::mu_

  std::mutex mu;  // guards the fields below
  bool dropped = false;  // unlinked from the map: returned instances are freed
  std::unique_ptr<PreparedQuery> master;  // clone template; never executed
  std::vector<std::unique_ptr<PreparedQuery>> pool;
};

PlanCache::Lease& PlanCache::Lease::operator=(Lease&& other) noexcept {
  if (this != &other) {
    Return();
    entry_ = std::move(other.entry_);
    owned_ = std::move(other.owned_);
  }
  return *this;
}

PlanCache::Lease::~Lease() { Return(); }

bool PlanCache::Lease::valid() const { return owned_ != nullptr && owned_->ok(); }

void PlanCache::Lease::Return() {
  if (entry_ != nullptr && owned_ != nullptr) {
    owned_->Recycle();
    std::lock_guard<std::mutex> lock(entry_->mu);
    if (!entry_->dropped && entry_->pool.size() < kMaxPooledPerEntry) {
      entry_->pool.push_back(std::move(owned_));
    }
  }
  owned_.reset();
  entry_.reset();
}

bool PlanCache::Stale(const PreparedQuery& query) const {
  return db_->PlanStale(query.store_version_, query.num_edges_);
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

void PlanCache::Unlink(const std::string& key, const std::shared_ptr<Entry>& entry) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it != map_.end() && it->second == entry) map_.erase(it);
}

void PlanCache::DropStaleLocked(std::vector<std::shared_ptr<Entry>>* dropped) {
  for (auto it = map_.begin(); it != map_.end();) {
    if (db_->PlanStale(it->second->store_version, it->second->num_edges)) {
      dropped->push_back(std::move(it->second));
      it = map_.erase(it);
    } else {
      ++it;
    }
  }
  while (map_.size() >= kMaxEntries) {
    auto victim = map_.begin();
    for (auto it = map_.begin(); it != map_.end(); ++it) {
      if (it->second->last_used < victim->second->last_used) victim = it;
    }
    dropped->push_back(std::move(victim->second));
    map_.erase(victim);
  }
}

PlanCache::Lease PlanCache::Acquire(const std::string& text, const PrepareOptions& options) {
  std::vector<std::shared_ptr<Entry>> dropped;
  Lease lease = Checkout(NormalizeQueryText(text), text, options, &dropped);
  // With no entry lock held: unlinked entries free their idle instances
  // now; leases still out drop theirs on return.
  for (const std::shared_ptr<Entry>& old : dropped) {
    std::lock_guard<std::mutex> lock(old->mu);
    old->dropped = true;
    old->master.reset();
    old->pool.clear();
  }
  return lease;
}

PlanCache::Lease PlanCache::Checkout(const std::string& key, const std::string& text,
                                     const PrepareOptions& options,
                                     std::vector<std::shared_ptr<Entry>>* dropped) {
  while (true) {
    std::shared_ptr<Entry> entry;
    std::unique_lock<std::mutex> entry_lock;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = map_.find(key);
      if (it != map_.end() &&
          !db_->PlanStale(it->second->store_version, it->second->num_edges)) {
        entry = it->second;
      } else {
        // Miss: publish a fresh entry whose mutex this thread holds until
        // the master is prepared, so concurrent Acquires of the text wait
        // for this prepare instead of running their own.
        DropStaleLocked(dropped);
        entry = std::make_shared<Entry>();
        entry->store_version = db_->index_store().version();
        entry->num_edges = db_->graph().num_edges();
        entry_lock = std::unique_lock<std::mutex>(entry->mu);
        map_.emplace(key, entry);
      }
      entry->last_used = ++tick_;
    }

    Lease lease;
    if (entry_lock.owns_lock()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      std::unique_ptr<PreparedQuery> master = db_->Prepare(text, options);
      if (!master->ok()) {
        // Failed prepares are cheap error holders and never cached; hand
        // the holder itself out. Waiters on this entry retry.
        entry->dropped = true;
        entry_lock.unlock();
        Unlink(key, entry);
        lease.owned_ = std::move(master);
        return lease;
      }
      entry->master = std::move(master);
    } else {
      entry_lock = std::unique_lock<std::mutex>(entry->mu);
      if (entry->dropped) {  // its prepare failed, or a miss unlinked it meanwhile
        entry_lock.unlock();
        Unlink(key, entry);
        continue;
      }
      hits_.fetch_add(1, std::memory_order_relaxed);
    }
    if (!entry->pool.empty()) {
      lease.owned_ = std::move(entry->pool.back());
      entry->pool.pop_back();
    } else {
      lease.owned_ = db_->ClonePrepared(*entry->master);
    }
    lease.entry_ = std::move(entry);
    return lease;
  }
}

}  // namespace aplus

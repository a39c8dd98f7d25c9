#pragma once
// ThreadCache — the per-thread owner → entry lookup shared by
// MetricsRegistry (shards) and Tracer (span buffers).
//
// An owner hands every thread that touches it a private entry, which
// the owner allocates and keeps. The thread finds its entry again
// through its own ThreadCache, keyed by (process-unique uid, key
// address): the uid is what stops a new owner built at a dead owner's
// address from aliasing the dead owner's entry.
//
// Hit path: a scan of the thread's entries, most recent first, with no
// lock. Miss path (the thread's first touch of an owner): every entry
// whose owner has been destroyed is dropped, then the new entry is
// appended. Each entry holds a weak reference to its owner's liveness
// token, which expires in the owner's destructor, so pruning needs no
// lock either. A thread's cache therefore holds the live owners it has
// touched plus at most the ones that died since its last miss — a
// thread that serves one short-lived registry per cell (a fleet
// worker) keeps scanning one or two entries, not its whole history.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace parbounds::obs::detail {

inline std::atomic<std::uint64_t> g_next_owner_uid{1};

/// An owner's identity in every thread's cache. Lives exactly as long
/// as its owner (hold it as a member); not copyable or movable, so its
/// address names one owner.
class OwnerKey {
 public:
  OwnerKey()
      : uid_(g_next_owner_uid.fetch_add(1, std::memory_order_relaxed)),
        alive_(std::make_shared<char>()) {}
  OwnerKey(const OwnerKey&) = delete;
  OwnerKey& operator=(const OwnerKey&) = delete;

 private:
  friend class ThreadCache;
  std::uint64_t uid_;
  std::shared_ptr<char> alive_;  ///< expires with the owner
};

/// One thread's entries (hold it as a thread_local). The owner casts
/// the stored pointer back to its entry type.
class ThreadCache {
 public:
  /// The entry recorded for `key`, or null on the thread's first touch.
  void* find(const OwnerKey& key) const {
    for (auto it = refs_.rbegin(); it != refs_.rend(); ++it)
      if (it->uid == key.uid_ && it->key == &key) return it->entry;
    return nullptr;
  }

  /// Record `entry` for `key` (after a miss), dropping dead owners first.
  void insert(const OwnerKey& key, void* entry) {
    std::erase_if(refs_, [](const Ref& r) { return r.alive.expired(); });
    refs_.push_back({key.uid_, &key, key.alive_, entry});
  }

  std::size_t size() const { return refs_.size(); }

 private:
  struct Ref {
    std::uint64_t uid;
    const OwnerKey* key;
    std::weak_ptr<char> alive;
    void* entry;
  };
  std::vector<Ref> refs_;
};

}  // namespace parbounds::obs::detail

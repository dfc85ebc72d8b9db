// Persistent structure cache.
//
// Stores, per structure key (api::request_structure_key), the artifacts
// that are pure functions of that key: the KKT symbolic analysis
// (fill-reducing ordering, elimination tree, factor column pointers) and an
// opaque session payload the api layer uses to rebuild a pooled session at
// startup. A daemon restart — pointed at the same --cache-dir — pre-warms
// its engine pools from the cache instead of re-deriving the same
// elimination trees.
//
// On-disk format (one file per entry, named <fnv1a64(key) hex>.bbsc):
//
//     BBSCACHE v3 <fnv1a64(payload) hex> <payload byte count>\n
//     <payload: one compact JSON document>
//
// Files are written to a temp name and renamed into place, so a crash never
// leaves a torn entry. Loading is fail-soft by design: a truncated file, a
// checksum or version mismatch, unparsable JSON, or a payload whose key
// does not hash to its file name is skipped and counted in load_errors —
// never fatal, the entry is simply re-derived and re-written.
//
// Thread safety: all public methods are safe to call concurrently (worker
// engines store and look up entries from their own threads). store() is
// write-behind — the in-memory entry is visible immediately, the disk write
// happens on a background thread; flush() blocks until the disk is caught
// up.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bbs/io/json.hpp"
#include "bbs/solver/kkt_system.hpp"

namespace bbs::telemetry {

struct CacheEntry {
  /// Full structure key (api::request_structure_key of the request).
  std::string key;
  /// Serialised symbolic analysis for the key's KKT system.
  solver::SymbolicAnalysis symbolic;
  /// Opaque session-reconstruction payload, produced and consumed by the
  /// api layer (configuration + session options). Telemetry never
  /// interprets it.
  io::JsonValue session;
};

struct StructureCacheStats {
  std::uint64_t entries_loaded = 0;
  std::uint64_t load_errors = 0;
  std::uint64_t saves = 0;
  std::uint64_t save_errors = 0;
  std::uint64_t prewarm_errors = 0;
  std::uint64_t lookup_hits = 0;
  std::uint64_t lookup_misses = 0;
  /// Disk files removed by the LRU-by-mtime garbage collector.
  std::uint64_t evictions = 0;
};

class StructureCache {
 public:
  /// `max_entries` bounds both the in-memory map and the on-disk file
  /// count; `max_bytes` (0 = unlimited) additionally bounds the summed
  /// size of the on-disk entries. Both disk bounds are enforced by
  /// LRU-by-mtime eviction — at load() and after every write-behind save —
  /// so a long-lived cache directory cannot grow without bound.
  explicit StructureCache(std::string directory,
                          std::size_t max_entries = 1024,
                          std::uint64_t max_bytes = 0);
  ~StructureCache();  // drains pending writes

  StructureCache(const StructureCache&) = delete;
  StructureCache& operator=(const StructureCache&) = delete;

  /// Scans the directory and loads every valid entry (up to max_entries).
  /// Invalid entries are skipped and counted. Returns entries loaded.
  std::size_t load();

  bool contains(const std::string& key) const;
  std::optional<CacheEntry> lookup(const std::string& key) const;

  /// Inserts (or refreshes) an entry and schedules the disk write on the
  /// background writer. At capacity, new keys are dropped (counted as
  /// save_errors) — the cache favours the structures seen first, which a
  /// restart re-ranks anyway.
  void store(CacheEntry entry);

  /// Blocks until every store() accepted so far has hit the disk.
  void flush();

  /// Copies of all in-memory entries (startup pre-warm iterates this).
  std::vector<CacheEntry> entries() const;

  /// Called by the pre-warm driver when a loaded entry fails session
  /// reconstruction (counted, never fatal).
  void note_prewarm_error();

  StructureCacheStats stats() const;
  const std::string& directory() const { return directory_; }
  std::size_t size() const;

  /// Stable file name (without directory) an entry for `key` uses.
  static std::string file_name_for_key(const std::string& key);

 private:
  void writer_loop();
  bool load_file(const std::string& path, std::string* error);
  /// Deletes oldest-mtime .bbsc files until the directory satisfies both
  /// max_entries and max_bytes. Scans the directory itself (no lock held);
  /// returns the number of files removed (counted in stats.evictions).
  /// An evicted key that is still in memory stays usable — the next
  /// store() of it simply rewrites the file.
  std::size_t gc_disk();

  std::string directory_;
  std::size_t max_entries_;
  std::uint64_t max_bytes_;

  mutable std::mutex mutex_;
  std::condition_variable wake_writer_;
  std::condition_variable write_done_;
  std::map<std::string, CacheEntry> entries_;  // keyed by structure key
  std::deque<CacheEntry> write_queue_;
  bool writing_ = false;
  bool stopping_ = false;
  // Mutable: lookup() is logically const but counts hits/misses.
  mutable StructureCacheStats stats_;
  std::thread writer_;
};

}  // namespace bbs::telemetry

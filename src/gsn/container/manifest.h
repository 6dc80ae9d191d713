#ifndef GSN_CONTAINER_MANIFEST_H_
#define GSN_CONTAINER_MANIFEST_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "gsn/storage/persistence_log.h"
#include "gsn/util/result.h"

namespace gsn::container {

/// Durable record of the container's deployed set: a storage::RecordLog
/// of deploy/undeploy events under the container's --data-dir, framed
/// and replayed like the per-sensor persistence logs
/// (docs/DURABILITY.md). A restarted container replays the manifest to
/// redeploy every descriptor that was live when the process died — the
/// paper's container "manages every aspect of the virtual sensor life
/// cycle"; this is the half of that promise that survives the manager
/// itself crashing.
///
/// Compact() rewrites the log to one deploy event per live sensor
/// (checkpoint), so the manifest — and recovery — stays O(deployed
/// sensors) instead of O(history).
class ContainerManifest {
 public:
  struct Event {
    enum class Kind : uint8_t { kDeploy = 1, kUndeploy = 2 };
    Kind kind = Kind::kDeploy;
    std::string sensor_name;     // lowercased key
    std::string descriptor_xml;  // empty for undeploy events
  };

  /// Opens (creating if needed) the manifest for appending. A torn or
  /// corrupt tail left by a crash is truncated first.
  static Result<std::unique_ptr<ContainerManifest>> Open(
      const std::string& path);

  Status AppendDeploy(const std::string& sensor_name,
                      const std::string& descriptor_xml);
  Status AppendUndeploy(const std::string& sensor_name);

  /// Flushes and fsyncs the manifest (drain shutdown).
  Status Sync() { return log_->Sync(); }

  /// Reads every intact event from `path` (static: usable before
  /// opening for append). `truncated_tail` reports a torn tail; an
  /// intact record whose event does not decode is skipped.
  static Result<std::vector<Event>> Recover(const std::string& path,
                                            bool* truncated_tail);

  /// Replays `events` into the set of live deployments, as (name,
  /// descriptor-xml) pairs in first-deploy order — deploy order is
  /// preserved so wrapper="local" consumers redeploy after their
  /// producers. A redeploy of a live name updates its descriptor in
  /// place; an undeploy removes it.
  static std::vector<std::pair<std::string, std::string>> LiveSet(
      const std::vector<Event>& events);

  /// The manifest's end (RecordLog::Mark). Take it before collecting
  /// the live set that Compact will write.
  uint64_t Mark() const { return log_->Mark(); }

  /// Checkpoint: atomically rewrites the manifest to one deploy event
  /// per entry of `live`, followed by every event appended after `mark`
  /// (a deploy or undeploy that raced the collection of `live`; replay
  /// applies it after the compacted set). On failure the uncompacted
  /// manifest stays appendable.
  Status Compact(const std::vector<std::pair<std::string, std::string>>& live,
                 std::optional<uint64_t> mark = std::nullopt);

  const std::string& path() const { return log_->path(); }
  /// Events appended through this handle (compaction resets it).
  size_t appended_count() const { return log_->appended_count(); }

 private:
  explicit ContainerManifest(std::unique_ptr<storage::RecordLog> log)
      : log_(std::move(log)) {}

  std::unique_ptr<storage::RecordLog> log_;
};

}  // namespace gsn::container

#endif  // GSN_CONTAINER_MANIFEST_H_

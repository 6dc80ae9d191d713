#include "gsn/container/manifest.h"

#include "gsn/types/codec.h"
#include "gsn/util/strings.h"

namespace gsn::container {

namespace {

/// Event payload: kind:u8, then the sensor name as Codec::EncodeString
/// (name_len:u32 name), then the descriptor xml to the end.
std::string EncodeEvent(ContainerManifest::Event::Kind kind,
                        const std::string& sensor_name,
                        const std::string& descriptor_xml) {
  std::string payload(1, static_cast<char>(kind));
  Codec::EncodeString(sensor_name, &payload);
  payload += descriptor_xml;
  return payload;
}

Result<ContainerManifest::Event> DecodeEvent(std::string_view payload) {
  if (payload.empty()) return Status::ParseError("empty manifest event");
  ContainerManifest::Event event;
  const uint8_t kind = static_cast<uint8_t>(payload[0]);
  if (kind != static_cast<uint8_t>(ContainerManifest::Event::Kind::kDeploy) &&
      kind !=
          static_cast<uint8_t>(ContainerManifest::Event::Kind::kUndeploy)) {
    return Status::ParseError("unknown manifest event kind " +
                              std::to_string(kind));
  }
  event.kind = static_cast<ContainerManifest::Event::Kind>(kind);
  size_t pos = 1;
  GSN_ASSIGN_OR_RETURN(event.sensor_name, Codec::DecodeString(payload, &pos));
  event.descriptor_xml = std::string(payload.substr(pos));
  return event;
}

}  // namespace

Result<std::unique_ptr<ContainerManifest>> ContainerManifest::Open(
    const std::string& path) {
  GSN_ASSIGN_OR_RETURN(std::unique_ptr<storage::RecordLog> log,
                       storage::RecordLog::Open(path));
  return std::unique_ptr<ContainerManifest>(
      new ContainerManifest(std::move(log)));
}

Status ContainerManifest::AppendDeploy(const std::string& sensor_name,
                                       const std::string& descriptor_xml) {
  return log_->Append(EncodeEvent(Event::Kind::kDeploy,
                                  StrToLower(sensor_name), descriptor_xml));
}

Status ContainerManifest::AppendUndeploy(const std::string& sensor_name) {
  return log_->Append(
      EncodeEvent(Event::Kind::kUndeploy, StrToLower(sensor_name), ""));
}

Result<std::vector<ContainerManifest::Event>> ContainerManifest::Recover(
    const std::string& path, bool* truncated_tail) {
  std::vector<Event> out;
  auto decode = [&out](std::string_view payload) -> Status {
    GSN_ASSIGN_OR_RETURN(Event event, DecodeEvent(payload));
    out.push_back(std::move(event));
    return Status::OK();
  };
  GSN_ASSIGN_OR_RETURN(storage::RecordLog::ReplayStats stats,
                       storage::RecordLog::Replay(path, decode));
  if (truncated_tail != nullptr) *truncated_tail = stats.torn_tail;
  return out;
}

std::vector<std::pair<std::string, std::string>> ContainerManifest::LiveSet(
    const std::vector<Event>& events) {
  std::vector<std::pair<std::string, std::string>> live;
  for (const Event& event : events) {
    auto it = live.begin();
    for (; it != live.end(); ++it) {
      if (it->first == event.sensor_name) break;
    }
    if (event.kind == Event::Kind::kDeploy) {
      if (it == live.end()) {
        live.emplace_back(event.sensor_name, event.descriptor_xml);
      } else {
        it->second = event.descriptor_xml;  // redeploy: keep the slot
      }
    } else if (it != live.end()) {
      live.erase(it);
    }
  }
  return live;
}

Status ContainerManifest::Compact(
    const std::vector<std::pair<std::string, std::string>>& live,
    std::optional<uint64_t> mark) {
  std::vector<std::string> payloads;
  payloads.reserve(live.size());
  for (const auto& [name, xml] : live) {
    payloads.push_back(EncodeEvent(Event::Kind::kDeploy, name, xml));
  }
  return log_->Replace(payloads, mark);
}

}  // namespace gsn::container

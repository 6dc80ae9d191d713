#include "gsn/container/notification.h"

#include "gsn/sql/executor.h"
#include "gsn/sql/parser.h"
#include "gsn/util/export.h"
#include "gsn/util/logging.h"
#include "gsn/util/strings.h"

namespace gsn::container {

void LogChannel::Deliver(const Notification& notification) {
  std::string values;
  for (size_t i = 0; i < notification.element.values.size(); ++i) {
    if (i > 0) values += ", ";
    values += notification.schema.field(i).name + "=" +
              notification.element.values[i].ToString();
  }
  GSN_LOG(kInfo, "notify") << notification.sensor_name << " @"
                           << notification.element.timed << " {" << values
                           << "}";
}

FileChannel::FileChannel(const std::string& path)
    : file_(std::fopen(path.c_str(), "ab")) {}

FileChannel::~FileChannel() {
  if (file_ != nullptr) std::fclose(file_);
}

void FileChannel::Deliver(const Notification& notification) {
  if (file_ == nullptr) return;
  std::string line = "{\"sensor\":" + JsonEscape(notification.sensor_name) +
                     ",\"timed\":" + std::to_string(notification.element.timed);
  for (size_t i = 0; i < notification.element.values.size() &&
                     i < notification.schema.size();
       ++i) {
    const Value& v = notification.element.values[i];
    line += "," + JsonEscape(notification.schema.field(i).name) + ":";
    if (v.is_null()) {
      line += "null";
    } else if (v.is_numeric() || v.is_timestamp()) {
      line += v.ToString();
    } else {
      line += JsonEscape(v.ToString());
    }
  }
  line += "}\n";
  std::lock_guard<std::mutex> lock(mu_);
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fflush(file_);
}

NotificationManager::NotificationManager(telemetry::MetricRegistry* metrics,
                                         telemetry::Tracer* tracer)
    : tracer_(tracer) {
  telemetry::MetricRegistry* registry = metrics;
  if (registry == nullptr) {
    owned_metrics_ = std::make_unique<telemetry::MetricRegistry>();
    registry = owned_metrics_.get();
  }
  elements_seen_ = registry->GetCounter(
      "gsn_notifications_seen_total", {},
      "Sensor output elements examined by the notification manager");
  delivered_ = registry->GetCounter("gsn_notifications_delivered_total", {},
                                    "Notifications delivered to channels");
  condition_errors_ = registry->GetCounter(
      "gsn_notification_condition_errors_total", {},
      "Subscription conditions that failed to evaluate");
  fanout_micros_ = registry->GetHistogram(
      "gsn_notification_fanout_micros", {},
      "Per-element condition evaluation + delivery fan-out time");
}

Result<int64_t> NotificationManager::Subscribe(
    const std::string& sensor_name, const std::string& condition_sql,
    std::shared_ptr<NotificationChannel> channel) {
  if (channel == nullptr) {
    return Status::InvalidArgument("subscription requires a channel");
  }
  Subscription sub;
  sub.sensor_name = sensor_name;
  sub.channel = std::move(channel);
  if (!StrTrim(condition_sql).empty()) {
    GSN_ASSIGN_OR_RETURN(
        sub.condition,
        sql::ParseSelect("select 1 from element where (" + condition_sql +
                         ")"));
  }
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t id = next_id_++;
  subscriptions_[id] = std::move(sub);
  return id;
}

Status NotificationManager::Unsubscribe(int64_t subscription_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (subscriptions_.erase(subscription_id) == 0) {
    return Status::NotFound("no subscription " +
                            std::to_string(subscription_id));
  }
  return Status::OK();
}

size_t NotificationManager::NumSubscriptions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return subscriptions_.size();
}

int NotificationManager::OnElement(const std::string& sensor_name,
                                   const Schema& element_schema,
                                   const StreamElement& element) {
  return OnBatch(sensor_name, element_schema, {element});
}

int NotificationManager::OnBatch(const std::string& sensor_name,
                                 const Schema& element_schema,
                                 const std::vector<StreamElement>& batch) {
  if (batch.empty()) return 0;
  // Collect matching subscriptions under the lock once per batch,
  // evaluate and deliver outside it (channels may be slow or
  // re-entrant).
  struct Pending {
    const sql::SelectStmt* condition;
    std::shared_ptr<NotificationChannel> channel;
  };
  std::vector<Pending> pending;
  elements_seen_->Increment(static_cast<int64_t>(batch.size()));
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, sub] : subscriptions_) {
      if (sub.sensor_name != "*" &&
          !StrEqualsIgnoreCase(sub.sensor_name, sensor_name)) {
        continue;
      }
      pending.push_back({sub.condition.get(), sub.channel});
    }
  }
  if (pending.empty()) return 0;

  int delivered = 0;
  for (const StreamElement& element : batch) {
    telemetry::Span fanout_span(tracer_, "notify.fanout", element.trace,
                                fanout_micros_.get());
    fanout_span.set_sensor(sensor_name);

    // One-row relation exposing the element (and its timestamp) to the
    // condition expressions.
    Relation element_rel = Relation::FromElements(element_schema, {element});
    sql::MapResolver resolver;
    resolver.Put("element", std::move(element_rel));
    sql::Executor exec(&resolver);

    int element_delivered = 0;
    for (const Pending& p : pending) {
      bool fire = true;
      if (p.condition != nullptr) {
        Result<Relation> match = exec.Execute(*p.condition);
        if (!match.ok()) {
          condition_errors_->Increment();
          fanout_span.set_error();
          continue;
        }
        fire = !match->empty();
      }
      if (!fire) continue;
      Notification n;
      n.sensor_name = sensor_name;
      n.schema = element_schema;
      n.element = element;
      p.channel->Deliver(n);
      ++element_delivered;
    }
    delivered_->Increment(element_delivered);
    delivered += element_delivered;
  }
  return delivered;
}

NotificationManager::Stats NotificationManager::stats() const {
  Stats stats;
  stats.elements_seen = elements_seen_->Value();
  stats.delivered = delivered_->Value();
  stats.condition_errors = condition_errors_->Value();
  return stats;
}

}  // namespace gsn::container

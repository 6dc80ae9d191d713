#ifndef GSN_CONTAINER_LOCAL_STREAM_WRAPPER_H_
#define GSN_CONTAINER_LOCAL_STREAM_WRAPPER_H_

#include <string>

#include "gsn/wrappers/wrapper.h"

namespace gsn::container {

/// The `wrapper="local"` data source: feeds one virtual sensor from
/// another sensor *on the same container* (paper §2: "a virtual sensor
/// corresponds either to a data stream received directly from sensors
/// or to a data stream derived from other virtual sensors"). The
/// container resolves the address predicates against its own
/// deployments and chains the producer's output batches straight into
/// the consumer's StreamSource (Offer), so this wrapper only names the
/// schema and type: nothing is queued here.
///
/// Unlike `remote`, no network hop or signature is involved — delivery
/// is the producer's in-process fan-out.
class LocalStreamWrapper : public wrappers::Wrapper {
 public:
  explicit LocalStreamWrapper(Schema schema) : schema_(std::move(schema)) {}

  const Schema& output_schema() const override { return schema_; }
  std::string type_name() const override { return "local"; }

 private:
  const Schema schema_;
};

}  // namespace gsn::container

#endif  // GSN_CONTAINER_LOCAL_STREAM_WRAPPER_H_

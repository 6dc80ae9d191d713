#ifndef GSN_TESTS_REMOTE_SINK_H_
#define GSN_TESTS_REMOTE_SINK_H_

#include <utility>
#include <vector>

#include "gsn/network/remote_stream_wrapper.h"

namespace gsn::testing {

/// Stands in for the StreamSource a RemoteStreamWrapper offers its
/// in-order runs into: it takes every run whole and keeps it until the
/// test reads it. Single-threaded use only.
class RemoteSink {
 public:
  explicit RemoteSink(network::RemoteStreamWrapper* wrapper) {
    wrapper->AttachSink([this](std::vector<StreamElement> run) -> size_t {
      ++offers_;
      for (StreamElement& element : run) taken_.push_back(std::move(element));
      return run.size();
    });
  }

  /// Everything taken since the last call, in order.
  Result<std::vector<StreamElement>> Take() {
    return std::exchange(taken_, {});
  }
  /// Runs offered so far.
  int offers() const { return offers_; }

 private:
  std::vector<StreamElement> taken_;
  int offers_ = 0;
};

}  // namespace gsn::testing

#endif  // GSN_TESTS_REMOTE_SINK_H_

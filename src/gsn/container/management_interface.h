#ifndef GSN_CONTAINER_MANAGEMENT_INTERFACE_H_
#define GSN_CONTAINER_MANAGEMENT_INTERFACE_H_

#include <string>

#include "gsn/container/container.h"

namespace gsn::container {

/// Text-command facade over one container: the interface layer of
/// Fig 2, standing in for the Java GSN's web/web-services front end
/// (substitution documented in DESIGN.md — the demo's "monitor the
/// effective status of all parts of the system" runs through these
/// commands in the example binaries).
///
/// The commands are the console verbs of the operator resource table
/// (operator_resources.h), the same rows WebInterface serves as JSON;
/// `help` lists them. A command line is a verb and its positional
/// arguments, and every reply is the resource's document rendered as
/// text, ending in one newline; errors read "ERROR: <status>". An api
/// key can be attached for containers with access control enabled.
class ManagementInterface {
 public:
  explicit ManagementInterface(Container* container);

  ManagementInterface(const ManagementInterface&) = delete;
  ManagementInterface& operator=(const ManagementInterface&) = delete;

  /// Executes one command line.
  std::string Execute(const std::string& command_line);

  void set_api_key(std::string api_key) { api_key_ = std::move(api_key); }

 private:
  Container* container_;
  std::string api_key_;
};

}  // namespace gsn::container

#endif  // GSN_CONTAINER_MANAGEMENT_INTERFACE_H_

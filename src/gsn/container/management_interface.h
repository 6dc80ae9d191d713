#ifndef GSN_CONTAINER_MANAGEMENT_INTERFACE_H_
#define GSN_CONTAINER_MANAGEMENT_INTERFACE_H_

#include <functional>
#include <string>
#include <vector>

#include "gsn/container/container.h"

namespace gsn::container {

/// Text-command facade over one container: the interface layer of
/// Fig 2, standing in for the Java GSN's web/web-services front end
/// (substitution documented in DESIGN.md — the demo's "monitor the
/// effective status of all parts of the system" runs through these
/// commands in the example binaries).
///
/// Commands are rows of a registry (name, argument help, description,
/// handler); `help` is generated from the registry so it can never go
/// stale. Highlights:
///   list / status / deploy / undeploy / describe / wrappers
///   query / query-json / query-csv / explain / plot
///   discover [k=v ...]            directory lookup by predicates
///   metrics / slowlog / trace / traces
///   peers                         federation peer health (circuit
///                                 state, last-seen, times opened)
///   segments                      columnar history tier (per-segment
///                                 rows, chunks, bytes, time range)
///   health                        liveness/readiness + reasons
///   quarantine [requeue <id>|clear]  dead-letter store of poison tuples
///   checkpoint                    compact manifest + WALs now
///   drain                         graceful drain (stop admitting,
///                                 flush, checkpoint, fsync)
///   chaos <sub> ...               per-peer fault rules on the attached
///                                 chaos transport (docs/CHAOS.md)
///
/// Every command returns the response text; errors are rendered as
/// "ERROR: <status>". An api key can be attached for containers with
/// access control enabled.
class ManagementInterface {
 public:
  explicit ManagementInterface(Container* container);

  ManagementInterface(const ManagementInterface&) = delete;
  ManagementInterface& operator=(const ManagementInterface&) = delete;

  /// Executes one command line.
  std::string Execute(const std::string& command_line);

  void set_api_key(std::string api_key) { api_key_ = std::move(api_key); }

 private:
  /// One registered command. `handler` receives the trimmed argument
  /// string (everything after the command word).
  struct Command {
    std::string name;
    std::string args_help;  // e.g. "<sensor>", "[k=v ...]"
    std::string help;       // one-line description
    std::function<std::string(const std::string& args)> handler;
  };

  std::string CmdHelp() const;
  std::string CmdList() const;
  std::string CmdStatus(const std::string& sensor) const;
  /// The argument-less `status`: the container-wide snapshot
  /// (GetStatus) as an operator-readable text block.
  std::string CmdContainerStatus() const;
  std::string CmdDeploy(const std::string& xml);
  std::string CmdUndeploy(const std::string& sensor);
  std::string CmdQuery(const std::string& sql);
  std::string CmdExplain(const std::string& args);
  std::string CmdPlot(const std::string& args);
  std::string CmdTopology() const;
  std::string CmdDiscover(const std::string& args) const;
  std::string CmdWrappers() const;
  std::string CmdDescribe(const std::string& sensor) const;
  std::string CmdMetrics() const;
  std::string CmdSlowlog(const std::string& args);
  std::string CmdTrace(const std::string& args);
  std::string CmdTraces(const std::string& args) const;
  std::string CmdPeers() const;
  std::string CmdTransport() const;
  std::string CmdSegments() const;
  std::string CmdHealth() const;
  std::string CmdQuarantine(const std::string& args);
  std::string CmdCheckpoint();
  std::string CmdDrain();
  std::string CmdChaos(const std::string& args);

  Container* container_;
  std::vector<Command> commands_;
  std::string api_key_;
};

}  // namespace gsn::container

#endif  // GSN_CONTAINER_MANAGEMENT_INTERFACE_H_

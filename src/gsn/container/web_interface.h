#ifndef GSN_CONTAINER_WEB_INTERFACE_H_
#define GSN_CONTAINER_WEB_INTERFACE_H_

#include <string>

#include "gsn/container/container.h"
#include "gsn/network/epoll_transport.h"
#include "gsn/network/http_server.h"

namespace gsn::container {

/// The container's web/web-services front end (paper §4: "the interface
/// layer provides access functions for other GSN containers and via the
/// Web (through a browser or via web services)"; §6: the demo audience
/// monitors and queries the system through it).
///
/// Served by an owned EpollTransport HTTP plane (docs/TRANSPORT.md):
/// HTTP/1.1 keep-alive with pipelining, bounded per-connection write
/// queues, and idle timeouts — thousands of concurrent clients on one
/// event-loop thread.
///
/// The routes are the HTTP rows of the operator resource table
/// (operator_resources.h), mounted under `/api/v1` and rendered as JSON;
/// `GET /api/v1` lists them and `GET /` serves an HTML index. Retired
/// unversioned paths answer 410, and errors share one envelope:
///   {"error":{"code":"NotFound","message":"..."}}
/// When the container's access control is enabled, callers pass their
/// API key as the X-Api-Key header or a `key` query parameter.
class WebInterface {
 public:
  explicit WebInterface(Container* container);

  WebInterface(const WebInterface&) = delete;
  WebInterface& operator=(const WebInterface&) = delete;

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts serving.
  Status Start(uint16_t port = 0);
  void Stop();
  uint16_t port() const { return http_.http_port(); }

  /// The HTTP-plane transport (tests, /api/v1/transport merging).
  const network::EpollTransport& transport() const { return http_; }

  /// Route dispatch (exposed for in-process tests without sockets).
  network::HttpResponse Handle(const network::HttpRequest& request);

 private:
  Container* container_;
  network::EpollTransport http_;
};

}  // namespace gsn::container

#endif  // GSN_CONTAINER_WEB_INTERFACE_H_

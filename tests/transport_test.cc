// Tests for the real-socket EpollTransport: the framed peer plane
// (including NAT-style reply routing), the HTTP/1.1 keep-alive plane,
// backpressure, idle timeouts, and two full containers federating over
// actual TCP sockets (docs/TRANSPORT.md).

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gsn/container/container.h"
#include "gsn/network/epoll_transport.h"
#include "gsn/telemetry/metrics.h"
#include "gsn/util/clock.h"

namespace gsn::network {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

/// Collects delivered messages; WaitFor blocks until a predicate holds
/// (real-time transports deliver from their own thread).
class RecordingNode : public NetworkNode {
 public:
  void OnMessage(const Message& message) override {
    std::lock_guard<std::mutex> lock(mu_);
    messages_.push_back(message);
    cv_.notify_all();
  }

  std::vector<Message> Messages() const {
    std::lock_guard<std::mutex> lock(mu_);
    return messages_;
  }

  bool WaitForCount(size_t n, milliseconds timeout = milliseconds(5000)) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout,
                        [this, n] { return messages_.size() >= n; });
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Message> messages_;
};

/// Sleeps inside OnMessage, recording entry and exit, so a test can
/// act while a delivery is in flight.
class BlockingNode : public NetworkNode {
 public:
  void OnMessage(const Message&) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      entered_ = true;
    }
    cv_.notify_all();
    std::this_thread::sleep_for(milliseconds(50));
    exited_.store(true);
  }
  bool WaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, milliseconds(5000), [this] { return entered_; });
  }
  bool exited() const { return exited_.load(); }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  std::atomic<bool> exited_{false};
};

/// Blocking loopback client for raw HTTP-plane conformance tests.
class RawClient {
 public:
  explicit RawClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  bool SendAll(const std::string& data) {
    size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + off, data.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads until `marker` occurs `count` times, EOF, or timeout.
  std::string ReadUntil(const std::string& marker, int count,
                        milliseconds timeout = milliseconds(5000)) {
    std::string data;
    const auto deadline = steady_clock::now() + timeout;
    char buf[4096];
    while (steady_clock::now() < deadline) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        data.append(buf, static_cast<size_t>(n));
        int seen = 0;
        for (size_t pos = data.find(marker); pos != std::string::npos;
             pos = data.find(marker, pos + 1)) {
          ++seen;
        }
        if (seen >= count) return data;
      } else if (n == 0) {
        return data;  // EOF
      } else {
        std::this_thread::sleep_for(milliseconds(2));
      }
    }
    return data;
  }

  /// True when the server closed the connection (read returns 0/reset).
  bool WaitForClose(milliseconds timeout = milliseconds(5000)) {
    const auto deadline = steady_clock::now() + timeout;
    char buf[4096];
    while (steady_clock::now() < deadline) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (n == 0) return true;
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) return true;
      std::this_thread::sleep_for(milliseconds(2));
    }
    return false;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

bool WaitUntil(const std::function<bool()>& predicate,
               milliseconds timeout = milliseconds(5000)) {
  const auto deadline = steady_clock::now() + timeout;
  while (steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(milliseconds(2));
  }
  return predicate();
}

// ------------------------------------------------------------- peer plane

TEST(EpollTransportPeerTest, DeliversFramesBetweenProcessesLikeTransports) {
  EpollTransport a;
  EpollTransport b;
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  ASSERT_TRUE(a.ListenPeer(0).ok());
  ASSERT_GT(a.peer_port(), 0);

  RecordingNode node_a;
  RecordingNode node_b;
  ASSERT_TRUE(a.RegisterNode("node-a", &node_a).ok());
  ASSERT_TRUE(b.RegisterNode("node-b", &node_b).ok());
  b.AddPeer("node-a", "127.0.0.1", a.peer_port());

  ASSERT_TRUE(b.Send(0, "node-b", "node-a", "greet", "hello").ok());
  ASSERT_TRUE(node_a.WaitForCount(1));
  EXPECT_EQ(node_a.Messages()[0].from, "node-b");
  EXPECT_EQ(node_a.Messages()[0].topic, "greet");
  EXPECT_EQ(node_a.Messages()[0].payload, "hello");

  // Reply routing: `b` never listens — `a` can only answer over the
  // live inbound connection (the NAT-gateway topology).
  ASSERT_TRUE(a.Send(0, "node-a", "node-b", "reply", "hi back").ok());
  ASSERT_TRUE(node_b.WaitForCount(1));
  EXPECT_EQ(node_b.Messages()[0].from, "node-a");
  EXPECT_EQ(node_b.Messages()[0].payload, "hi back");

  // Broadcast from b reaches a's local node (dial table route).
  ASSERT_TRUE(b.Broadcast(0, "node-b", "gossip", "to-everyone").ok());
  ASSERT_TRUE(node_a.WaitForCount(2));
  EXPECT_EQ(node_a.Messages()[1].topic, "gossip");
  EXPECT_EQ(node_a.Messages()[1].to, "node-a");  // addressed per recipient

  // Connection stats surface both ends.
  EXPECT_TRUE(WaitUntil([&] { return !a.Connections().empty(); }));
  const std::vector<ConnectionStats> stats = a.Connections();
  ASSERT_FALSE(stats.empty());
  EXPECT_EQ(stats[0].kind, "peer-in");
  EXPECT_EQ(stats[0].state, "open");
  EXPECT_EQ(stats[0].peer, "node-b");
  EXPECT_GT(stats[0].frames_in, 0);

  a.Stop();
  b.Stop();
}

TEST(EpollTransportPeerTest, LocalNodesDeliverWithoutSockets) {
  EpollTransport t;
  ASSERT_TRUE(t.Start().ok());
  RecordingNode one;
  RecordingNode two;
  ASSERT_TRUE(t.RegisterNode("one", &one).ok());
  ASSERT_TRUE(t.RegisterNode("two", &two).ok());
  EXPECT_FALSE(t.RegisterNode("one", &one).ok());  // duplicate

  ASSERT_TRUE(t.Send(0, "one", "two", "ping", "x").ok());
  ASSERT_TRUE(two.WaitForCount(1));
  ASSERT_TRUE(t.Broadcast(0, "one", "news", "y").ok());
  ASSERT_TRUE(two.WaitForCount(2));
  EXPECT_TRUE(one.Messages().empty());  // no self-delivery

  EXPECT_FALSE(t.Send(0, "one", "ghost", "ping", "x").ok());  // no route
  t.Stop();
}

TEST(EpollTransportPeerTest, UnregisterWaitsForInFlightDelivery) {
  EpollTransport a;
  EpollTransport b;
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  ASSERT_TRUE(a.ListenPeer(0).ok());
  BlockingNode slow;
  RecordingNode sender;
  ASSERT_TRUE(a.RegisterNode("slow", &slow).ok());
  ASSERT_TRUE(b.RegisterNode("sender", &sender).ok());
  b.AddPeer("slow", "127.0.0.1", a.peer_port());

  ASSERT_TRUE(b.Send(0, "sender", "slow", "t", "x").ok());
  ASSERT_TRUE(slow.WaitEntered());
  // The delivery runs on a's loop thread. Once UnregisterNode returns
  // the node may be destroyed, so the delivery must have finished.
  ASSERT_TRUE(a.UnregisterNode("slow").ok());
  EXPECT_TRUE(slow.exited());
  a.Stop();
  b.Stop();
}

TEST(EpollTransportPeerTest, SendBeforeStartAndUnknownPeerFail) {
  EpollTransport t;
  EXPECT_FALSE(t.ListenPeer(0).ok());  // not started
  ASSERT_TRUE(t.Start().ok());
  EXPECT_FALSE(t.Send(0, "a", "nowhere", "x", "y").ok());
  t.Stop();
  EXPECT_FALSE(t.running());
  t.Stop();  // idempotent
}

// ------------------------------------------------------------- HTTP plane

EpollTransport::HttpHandler EchoHandler() {
  return [](const HttpRequest& request) {
    return HttpResponse::Text("echo:" + request.path);
  };
}

TEST(EpollTransportHttpTest, KeepAliveServesPipelinedRequests) {
  EpollTransport t;
  ASSERT_TRUE(t.Start().ok());
  ASSERT_TRUE(t.ListenHttp(0, EchoHandler()).ok());
  ASSERT_GT(t.http_port(), 0);

  RawClient client(t.http_port());
  ASSERT_TRUE(client.connected());
  // Two pipelined HTTP/1.1 requests on one connection.
  ASSERT_TRUE(client.SendAll(
      "GET /first HTTP/1.1\r\nHost: x\r\n\r\n"
      "GET /second HTTP/1.1\r\nHost: x\r\n\r\n"));
  const std::string both = client.ReadUntil("echo:/", 2);
  EXPECT_NE(both.find("echo:/first"), std::string::npos) << both;
  EXPECT_NE(both.find("echo:/second"), std::string::npos) << both;
  EXPECT_NE(both.find("Connection: keep-alive"), std::string::npos);

  // The connection stayed open and counted both requests.
  EXPECT_TRUE(WaitUntil([&] {
    const auto stats = t.Connections();
    return !stats.empty() && stats[0].requests_served == 2;
  }));
  EXPECT_EQ(t.http_requests_total(), 2);

  // A third request on the same connection still works.
  ASSERT_TRUE(
      client.SendAll("GET /third HTTP/1.1\r\nHost: x\r\n\r\n"));
  EXPECT_NE(client.ReadUntil("echo:/third", 1).find("echo:/third"),
            std::string::npos);
  t.Stop();
}

TEST(EpollTransportHttpTest, Http10ClosesAfterResponse) {
  EpollTransport t;
  ASSERT_TRUE(t.Start().ok());
  ASSERT_TRUE(t.ListenHttp(0, EchoHandler()).ok());

  RawClient client(t.http_port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendAll("GET /only HTTP/1.0\r\nHost: x\r\n\r\n"));
  const std::string response = client.ReadUntil("echo:/only", 1);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  EXPECT_TRUE(client.WaitForClose());
  t.Stop();
}

TEST(EpollTransportHttpTest, MalformedAndOversizedRequestsAreRejected) {
  EpollTransport t;
  ASSERT_TRUE(t.Start().ok());
  ASSERT_TRUE(t.ListenHttp(0, EchoHandler()).ok());

  // An unterminated head larger than the 64 KiB cap closes the socket.
  RawClient big(t.http_port());
  ASSERT_TRUE(big.connected());
  ASSERT_TRUE(big.SendAll("GET / HTTP/1.1\r\nX: " +
                          std::string(70 * 1024, 'a')));
  EXPECT_TRUE(big.WaitForClose());

  // A bad Content-Length closes too (after a 400).
  RawClient bad(t.http_port());
  ASSERT_TRUE(bad.connected());
  ASSERT_TRUE(bad.SendAll(
      "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: pony\r\n\r\n"));
  EXPECT_TRUE(bad.WaitForClose());
  t.Stop();
}

TEST(EpollTransportHttpTest, SlowReaderIsDisconnectedByBackpressure) {
  EpollTransport::Options options;
  options.max_write_queue_bytes = 8 * 1024;
  EpollTransport t(std::move(options));
  ASSERT_TRUE(t.Start().ok());
  // Each response carries a 64 KiB body.
  ASSERT_TRUE(t.ListenHttp(0, [](const HttpRequest&) {
                 return HttpResponse::Text(std::string(64 * 1024, 'z'));
               }).ok());

  RawClient client(t.http_port());
  ASSERT_TRUE(client.connected());
  // Pipeline many requests and never read: kernel buffers fill, the
  // write queue hits its bound, and the transport cuts the connection.
  std::string burst;
  for (int i = 0; i < 64; ++i) {
    burst += "GET /fat HTTP/1.1\r\nHost: x\r\n\r\n";
  }
  ASSERT_TRUE(client.SendAll(burst));
  EXPECT_TRUE(WaitUntil([&] { return t.overflows_total() >= 1; }));
  EXPECT_TRUE(client.WaitForClose());
  t.Stop();
}

TEST(EpollTransportHttpTest, IdleConnectionsAreSweptByTimeout) {
  EpollTransport::Options options;
  options.idle_timeout_micros = 50 * kMicrosPerMilli;
  EpollTransport t(std::move(options));
  ASSERT_TRUE(t.Start().ok());
  ASSERT_TRUE(t.ListenHttp(0, EchoHandler()).ok());

  RawClient idler(t.http_port());
  ASSERT_TRUE(idler.connected());
  EXPECT_TRUE(WaitUntil([&] { return t.connection_count() == 1; }));
  // Send nothing: the sweep must reap the connection.
  EXPECT_TRUE(WaitUntil([&] { return t.timeouts_total() >= 1; }));
  EXPECT_TRUE(idler.WaitForClose());
  EXPECT_TRUE(WaitUntil([&] { return t.connection_count() == 0; }));
  t.Stop();
}

TEST(EpollTransportHttpTest, MetricsRegisterWhenInjected) {
  telemetry::MetricRegistry registry;
  EpollTransport::Options options;
  options.metrics = &registry;
  options.metrics_role = "test";
  EpollTransport t(std::move(options));
  ASSERT_TRUE(t.Start().ok());
  ASSERT_TRUE(t.ListenHttp(0, EchoHandler()).ok());
  RawClient client(t.http_port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendAll("GET / HTTP/1.1\r\nHost: x\r\n\r\n"));
  (void)client.ReadUntil("echo:/", 1);

  const std::string exposition = registry.RenderPrometheus();
  EXPECT_NE(exposition.find("gsn_transport_accepted_total{role=\"test\"} 1"),
            std::string::npos)
      << exposition;
  EXPECT_NE(exposition.find("gsn_transport_connections{role=\"test\"}"),
            std::string::npos);
  t.Stop();
}

// ---------------------------------------- containers over real sockets

// Generator producer: emits a dense `seq` so the consumer can assert
// exactly-once admission with count(distinct seq).
constexpr char kProducerXml[] =
    "<virtual-sensor name=\"seq-producer\">"
    "<metadata><predicate key=\"type\" val=\"seqstream\"/></metadata>"
    "<output-structure>"
    "  <field name=\"seq\" type=\"integer\"/>"
    "  <field name=\"value\" type=\"double\"/>"
    "</output-structure>"
    "<input-stream name=\"in\">"
    "  <stream-source alias=\"src\" storage-size=\"1\">"
    "    <address wrapper=\"generator\">"
    "      <predicate key=\"interval-ms\" val=\"100\"/>"
    "      <predicate key=\"payload-bytes\" val=\"0\"/>"
    "    </address>"
    "    <query>select seq, value from wrapper</query>"
    "  </stream-source>"
    "  <query>select * from src</query>"
    "</input-stream>"
    "</virtual-sensor>";

constexpr char kConsumerXml[] =
    "<virtual-sensor name=\"mirror\">"
    "<output-structure>"
    "  <field name=\"seq\" type=\"integer\"/>"
    "  <field name=\"value\" type=\"double\"/>"
    "</output-structure>"
    "<input-stream name=\"in\">"
    "  <stream-source alias=\"src\" storage-size=\"1\">"
    "    <address wrapper=\"remote\">"
    "      <predicate key=\"type\" val=\"seqstream\"/>"
    "    </address>"
    "    <query>select * from wrapper</query>"
    "  </stream-source>"
    "  <query>select * from src</query>"
    "</input-stream>"
    "</virtual-sensor>";

// Two containers, two transports, one TCP connection between them: the
// full federation protocol (directory gossip, subscribe/ack, stream
// with dense sequence numbers) over real sockets instead of the
// simulator. Virtual clocks still pace the protocol timers; socket
// delivery is immediate.
TEST(EpollFederationTest, ContainersFederateOverRealSockets) {
  EpollTransport net_a;
  EpollTransport net_b;
  ASSERT_TRUE(net_a.Start().ok());
  ASSERT_TRUE(net_b.Start().ok());
  ASSERT_TRUE(net_a.ListenPeer(0).ok());
  ASSERT_TRUE(net_b.ListenPeer(0).ok());
  net_a.AddPeer("node-b", "127.0.0.1", net_b.peer_port());
  net_b.AddPeer("node-a", "127.0.0.1", net_a.peer_port());

  auto clock_a = std::make_shared<VirtualClock>();
  auto clock_b = std::make_shared<VirtualClock>();
  container::Container::Options options_a;
  options_a.node_id = "node-a";
  options_a.clock = clock_a;
  options_a.network = &net_a;
  container::Container a(std::move(options_a));
  container::Container::Options options_b;
  options_b.node_id = "node-b";
  options_b.clock = clock_b;
  options_b.network = &net_b;
  container::Container b(std::move(options_b));

  ASSERT_TRUE(a.Deploy(kProducerXml).ok());

  // The deploy broadcast crossed a real socket: node-b discovers the
  // sensor by predicates alone.
  ASSERT_TRUE(WaitUntil([&] {
    return !b.Discover({{"type", "seqstream"}}).empty();
  }));
  ASSERT_TRUE(b.Deploy(kConsumerXml).ok());

  // Drive both containers; tuples must flow a -> b across TCP.
  int64_t mirrored = 0;
  for (int i = 0; i < 200 && mirrored < 5; ++i) {
    clock_a->Advance(100 * kMicrosPerMilli);
    clock_b->Advance(100 * kMicrosPerMilli);
    ASSERT_TRUE(a.Tick().ok());
    ASSERT_TRUE(b.Tick().ok());
    std::this_thread::sleep_for(milliseconds(2));
    auto result = b.Query("select count(*) from mirror");
    if (result.ok()) mirrored = result->rows()[0][0].int_value();
  }
  EXPECT_GE(mirrored, 5) << "tuples did not flow across real sockets";

  // Exactly-once admission: the generator's dense seq survives the
  // socket hop with no duplicates.
  auto distinct =
      b.Query("select count(*), count(distinct seq) from mirror");
  ASSERT_TRUE(distinct.ok());
  EXPECT_EQ(distinct->rows()[0][0].int_value(),
            distinct->rows()[0][1].int_value());

  // The transport surfaces the peer link.
  EXPECT_EQ(net_a.transport_name(), "epoll");
  EXPECT_TRUE(WaitUntil([&] { return net_a.frames_delivered_total() > 0; }));

  ASSERT_TRUE(a.Shutdown().ok());
  ASSERT_TRUE(b.Shutdown().ok());
  net_a.Stop();
  net_b.Stop();
}

}  // namespace
}  // namespace gsn::network

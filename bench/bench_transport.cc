// C10k-style benchmark for the epoll HTTP plane (docs/TRANSPORT.md):
// one EpollTransport serves N concurrent keep-alive HTTP/1.1 clients,
// each issuing R sequential requests on its own persistent connection.
// The client side is a single epoll loop too, so the bench itself
// never becomes a thread-per-connection bottleneck.
//
// The headline point is clients=1000: the paper's "access via the Web"
// layer must hold a thousand live browsers/integrators on one node
// without thread-per-connection costs.
//
// A one-way point follows on the peer plane: 100-byte frames at a fixed
// 1600/s from one EpollTransport to another that never writes back, so
// no reply carries an ACK and a held frame shows in the tail. It runs
// twice, sending frames one at a time and then 16 at a time inside one
// Transport::Burst, and reports one-way p50/p99 and the process CPU per
// frame (both transports share the process).
//
//   build/bench/bench_transport [--quick] [--json]
//
// --json writes BENCH_transport.json, gated in CI by
// scripts/check_bench_regression.py (mean_ms/p95_ms latency fields,
// `elements` = completed responses as the throughput count).

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gsn/network/epoll_transport.h"
#include "gsn/network/http_server.h"
#include "gsn/network/socket_ops.h"

namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// One benchmark client: a persistent keep-alive connection issuing
/// `remaining` sequential GETs.
struct BenchConn {
  int fd = -1;
  bool connecting = true;
  bool request_in_flight = false;
  int remaining = 0;
  std::string inbuf;
  Clock::time_point sent_at;
};

constexpr char kRequest[] = "GET /bench HTTP/1.1\r\nHost: bench\r\n\r\n";

bool SendRequest(BenchConn* conn) {
  size_t off = 0;
  const size_t len = sizeof(kRequest) - 1;
  while (off < len) {
    const ssize_t n =
        ::send(conn->fd, kRequest + off, len - off, MSG_NOSIGNAL);
    if (n <= 0) return false;  // tiny request: EAGAIN is not expected
    off += static_cast<size_t>(n);
  }
  conn->sent_at = Clock::now();
  conn->request_in_flight = true;
  return true;
}

/// Consumes one complete HTTP response from the front of `inbuf`;
/// returns false until it is fully buffered.
bool ConsumeResponse(std::string* inbuf) {
  const size_t header_end = inbuf->find("\r\n\r\n");
  if (header_end == std::string::npos) return false;
  size_t body_len = 0;
  const size_t cl = inbuf->find("Content-Length:");
  if (cl != std::string::npos && cl < header_end) {
    body_len = static_cast<size_t>(
        std::strtoul(inbuf->c_str() + cl + 15, nullptr, 10));
  }
  const size_t total = header_end + 4 + body_len;
  if (inbuf->size() < total) return false;
  inbuf->erase(0, total);
  return true;
}

struct PointResult {
  int clients = 0;
  int64_t elements = 0;  // completed responses
  double duration_ms = 0.0;
  double mean_ms = 0.0;
  double p95_ms = 0.0;
  double rps = 0.0;
  int64_t server_overflows = 0;
};

/// Runs one measurement: `clients` keep-alive connections, each doing
/// `requests_per_client` sequential GETs against `port`.
bool RunPoint(uint16_t port, int clients, int requests_per_client,
              PointResult* out) {
  const int ep = ::epoll_create1(0);
  if (ep < 0) return false;
  std::vector<BenchConn> conns(static_cast<size_t>(clients));
  std::vector<double> latencies_ms;
  latencies_ms.reserve(
      static_cast<size_t>(clients) * static_cast<size_t>(requests_per_client));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);

  const auto start = Clock::now();
  for (int i = 0; i < clients; ++i) {
    BenchConn& conn = conns[static_cast<size_t>(i)];
    conn.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (conn.fd < 0) {
      std::fprintf(stderr, "socket: %s\n", std::strerror(errno));
      return false;
    }
    const int one = 1;
    ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    conn.remaining = requests_per_client;
    if (::connect(conn.fd, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      conn.connecting = false;
    } else if (errno != EINPROGRESS) {
      std::fprintf(stderr, "connect: %s\n", std::strerror(errno));
      return false;
    }
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT;
    ev.data.u32 = static_cast<uint32_t>(i);
    ::epoll_ctl(ep, EPOLL_CTL_ADD, conn.fd, &ev);
  }

  int open_conns = clients;
  char buf[64 * 1024];
  epoll_event events[256];
  while (open_conns > 0) {
    const int n = ::epoll_wait(ep, events, 256, 10000);
    if (n <= 0) {
      std::fprintf(stderr, "epoll_wait stalled with %d conns open\n",
                   open_conns);
      break;
    }
    for (int e = 0; e < n; ++e) {
      BenchConn& conn = conns[events[e].data.u32];
      if (conn.fd < 0) continue;
      bool dead = (events[e].events & (EPOLLERR | EPOLLHUP)) != 0;

      if (!dead && conn.connecting &&
          (events[e].events & EPOLLOUT) != 0) {
        conn.connecting = false;
      }
      if (!dead && !conn.connecting && !conn.request_in_flight &&
          conn.remaining > 0) {
        dead = !SendRequest(&conn);
        if (!dead) {
          // Only care about readability from here on.
          epoll_event ev{};
          ev.events = EPOLLIN;
          ev.data.u32 = events[e].data.u32;
          ::epoll_ctl(ep, EPOLL_CTL_MOD, conn.fd, &ev);
        }
      }
      if (!dead && (events[e].events & EPOLLIN) != 0) {
        for (;;) {
          const ssize_t r = ::recv(conn.fd, buf, sizeof(buf), 0);
          if (r > 0) {
            conn.inbuf.append(buf, static_cast<size_t>(r));
          } else if (r == 0) {
            dead = true;
            break;
          } else {
            if (errno != EAGAIN && errno != EWOULDBLOCK) dead = true;
            break;
          }
        }
        while (conn.request_in_flight && ConsumeResponse(&conn.inbuf)) {
          latencies_ms.push_back(MillisSince(conn.sent_at));
          conn.request_in_flight = false;
          --conn.remaining;
          if (conn.remaining > 0) {
            dead = dead || !SendRequest(&conn);
          }
        }
      }
      if (dead || (conn.remaining == 0 && !conn.request_in_flight)) {
        ::epoll_ctl(ep, EPOLL_CTL_DEL, conn.fd, nullptr);
        ::close(conn.fd);
        conn.fd = -1;
        --open_conns;
      }
    }
  }
  ::close(ep);

  out->clients = clients;
  out->elements = static_cast<int64_t>(latencies_ms.size());
  out->duration_ms = MillisSince(start);
  if (!latencies_ms.empty()) {
    double sum = 0.0;
    for (double v : latencies_ms) sum += v;
    out->mean_ms = sum / static_cast<double>(latencies_ms.size());
    std::sort(latencies_ms.begin(), latencies_ms.end());
    out->p95_ms =
        latencies_ms[latencies_ms.size() * 95 / 100 == latencies_ms.size()
                         ? latencies_ms.size() - 1
                         : latencies_ms.size() * 95 / 100];
    out->rps = static_cast<double>(latencies_ms.size()) /
               (out->duration_ms / 1000.0);
  }
  // Every request must have been answered: keep-alive reuse means no
  // client ever reconnects, so a lost response is a server bug.
  const int64_t expected = static_cast<int64_t>(clients) *
                           static_cast<int64_t>(requests_per_client);
  if (out->elements != expected) {
    std::fprintf(stderr, "FAIL: %lld/%lld responses at %d clients\n",
                 static_cast<long long>(out->elements),
                 static_cast<long long>(expected), clients);
    return false;
  }
  return true;
}

struct OneWayResult {
  int burst = 0;
  int64_t frames = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double cpu_us_per_frame = 0.0;
};

constexpr int kOneWayRate = 1600;  // frames per second
constexpr size_t kOneWayPayload = 100;

/// Records each frame's one-way time: its payload starts with the
/// steady-clock nanoseconds at which it was sent.
class StampNode : public gsn::network::NetworkNode {
 public:
  void OnMessage(const gsn::network::Message& message) override {
    const int64_t now = Clock::now().time_since_epoch().count();
    int64_t sent = 0;
    std::memcpy(&sent, message.payload.data(), sizeof(sent));
    std::lock_guard<std::mutex> lock(mu_);
    latencies_ns_.push_back(now - sent);
    cv_.notify_all();
  }
  bool WaitFor(size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [&] { return latencies_ns_.size() >= n; });
  }
  std::vector<int64_t> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(latencies_ns_);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<int64_t> latencies_ns_;
};

double CpuMicros() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) *
             1e6 +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

/// Sends `frames` frames at kOneWayRate, `burst` at a time (one
/// Transport::Burst per group when `burst` > 1).
bool RunOneWay(int burst, int frames, OneWayResult* out) {
  gsn::network::EpollTransport sender;
  gsn::network::EpollTransport receiver;
  StampNode sink;
  if (!sender.Start().ok() || !receiver.Start().ok() ||
      !receiver.ListenPeer(0).ok() ||
      !receiver.RegisterNode("sink", &sink).ok()) {
    return false;
  }
  sender.AddPeer("sink", "127.0.0.1", receiver.peer_port());
  std::string payload(kOneWayPayload, 'x');
  const auto send = [&] {
    const int64_t now = Clock::now().time_since_epoch().count();
    std::memcpy(payload.data(), &now, sizeof(now));
    return sender.Send(0, "source", "sink", "oneway", payload).ok();
  };
  // The first frame dials the link; it is not measured.
  if (!send() || !sink.WaitFor(1)) return false;
  (void)sink.Take();

  const auto period = std::chrono::nanoseconds(1000000000LL * burst /
                                               kOneWayRate);
  const double cpu_start = CpuMicros();
  auto due = Clock::now();
  for (int sent = 0; sent < frames; sent += burst) {
    std::this_thread::sleep_until(due);
    due += period;
    gsn::network::Transport::Burst scope(burst > 1 ? &sender : nullptr);
    for (int i = 0; i < burst; ++i) {
      if (!send()) return false;
    }
  }
  const bool all = sink.WaitFor(static_cast<size_t>(frames));
  const double cpu_us = CpuMicros() - cpu_start;
  sender.Stop();
  receiver.Stop();
  std::vector<int64_t> latencies = sink.Take();
  if (!all || latencies.size() != static_cast<size_t>(frames)) {
    std::fprintf(stderr, "FAIL: %zu/%d one-way frames at burst %d\n",
                 latencies.size(), frames, burst);
    return false;
  }
  std::sort(latencies.begin(), latencies.end());
  out->burst = burst;
  out->frames = frames;
  out->p50_us = static_cast<double>(latencies[latencies.size() / 2]) / 1e3;
  out->p99_us =
      static_cast<double>(latencies[latencies.size() * 99 / 100]) / 1e3;
  out->cpu_us_per_frame = cpu_us / frames;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
    if (std::string(argv[i]) == "--json") json = true;
  }

  gsn::network::EpollTransport server;
  if (!server.Start().ok()) {
    std::fprintf(stderr, "server start failed\n");
    return 1;
  }
  // A small JSON payload, the shape of a typical /api/v1 response.
  const gsn::network::HttpResponse canned = gsn::network::HttpResponse::Json(
      "{\"status\":\"ok\",\"node\":\"bench\",\"payload\":\"" +
      std::string(128, 'x') + "\"}");
  if (!server
           .ListenHttp(0, [canned](const gsn::network::HttpRequest&) {
             return canned;
           })
           .ok()) {
    std::fprintf(stderr, "listen failed\n");
    return 1;
  }

  const std::vector<int> client_counts = {100, 500, 1000};
  const int requests_per_client = quick ? 5 : 50;

  std::printf("# bench_transport: epoll HTTP plane, keep-alive clients\n");
  std::printf("# %d sequential requests per client, one connection each\n",
              requests_per_client);
  std::printf("%-10s %12s %12s %10s %10s %12s\n", "clients", "elements",
              "duration_ms", "mean_ms", "p95_ms", "rps");

  std::vector<PointResult> points;
  for (int clients : client_counts) {
    PointResult point;
    if (!RunPoint(server.http_port(), clients, requests_per_client, &point)) {
      return 1;
    }
    point.server_overflows = server.overflows_total();
    std::printf("%-10d %12lld %12.1f %10.3f %10.3f %12.0f\n", point.clients,
                static_cast<long long>(point.elements), point.duration_ms,
                point.mean_ms, point.p95_ms, point.rps);
    points.push_back(point);
  }
  server.Stop();

  // Healthy keep-alive clients must never be disconnected for
  // backpressure: they read every response before sending the next.
  if (points.back().server_overflows != 0) {
    std::fprintf(stderr, "FAIL: server overflowed healthy readers\n");
    return 1;
  }

  // Degraded point (docs/CHAOS.md): the same workload against a server
  // whose recv/send syscalls fail with EINTR — and truncate to short
  // writes — 1% of the time each. These are the faults a real kernel
  // can deliver to an edge-triggered loop; spurious EAGAIN is not one
  // (it would be a lost edge, which level-triggered kernels produce
  // and EPOLLET by contract never does). Every response must still
  // arrive on its keep-alive connection (the retry paths may cost
  // latency, never correctness), and the gate in
  // scripts/check_bench_regression.py bounds how much latency the
  // recovery machinery is allowed to burn.
  gsn::network::FaultInjectingSocketOps::Config fault_config;
  fault_config.seed = 42;
  fault_config.recv_eintr_rate = 0.01;
  fault_config.send_eintr_rate = 0.01;
  fault_config.short_write_rate = 0.01;
  gsn::network::FaultInjectingSocketOps faulty_ops(fault_config);
  gsn::network::EpollTransport::Options faulty_options;
  faulty_options.socket_ops = &faulty_ops;
  gsn::network::EpollTransport faulty_server(faulty_options);
  if (!faulty_server.Start().ok() ||
      !faulty_server
           .ListenHttp(0, [canned](const gsn::network::HttpRequest&) {
             return canned;
           })
           .ok()) {
    std::fprintf(stderr, "faulty server start failed\n");
    return 1;
  }
  PointResult faulty_point;
  if (!RunPoint(faulty_server.http_port(), 100, requests_per_client,
                &faulty_point)) {
    return 1;
  }
  faulty_server.Stop();
  const int64_t injected_faults = faulty_ops.injected_recv_faults() +
                                  faulty_ops.injected_send_faults() +
                                  faulty_ops.injected_short_writes();
  std::printf("%-10s %12lld %12.1f %10.3f %10.3f %12.0f  (%lld faults)\n",
              "100+1%", static_cast<long long>(faulty_point.elements),
              faulty_point.duration_ms, faulty_point.mean_ms,
              faulty_point.p95_ms, faulty_point.rps,
              static_cast<long long>(injected_faults));
  if (injected_faults == 0) {
    std::fprintf(stderr, "FAIL: fault injection armed but nothing fired\n");
    return 1;
  }

  std::printf("# one-way peer frames: %zu B at %d/s, receiver never writes\n",
              kOneWayPayload, kOneWayRate);
  std::printf("%-10s %12s %10s %10s %16s\n", "burst", "frames", "p50_us",
              "p99_us", "cpu_us_per_frame");
  std::vector<OneWayResult> oneway;
  for (const int burst : {1, 16}) {
    OneWayResult point;
    if (!RunOneWay(burst, quick ? kOneWayRate : 10 * kOneWayRate, &point)) {
      return 1;
    }
    std::printf("%-10d %12lld %10.1f %10.1f %16.2f\n", point.burst,
                static_cast<long long>(point.frames), point.p50_us,
                point.p99_us, point.cpu_us_per_frame);
    oneway.push_back(point);
  }

  if (json) {
    FILE* f = std::fopen("BENCH_transport.json", "w");
    if (f == nullptr) return 1;
    std::fprintf(f, "{\n  \"bench\": \"transport\",\n");
    std::fprintf(f, "  \"requests_per_client\": %d,\n", requests_per_client);
    std::fprintf(f, "  \"points\": [\n");
    for (size_t i = 0; i < points.size(); ++i) {
      const PointResult& p = points[i];
      std::fprintf(f,
                   "    {\"clients\": %d, \"elements\": %lld, "
                   "\"mean_ms\": %.4f, \"p95_ms\": %.4f, \"rps\": %.0f}%s\n",
                   p.clients, static_cast<long long>(p.elements), p.mean_ms,
                   p.p95_ms, p.rps, i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"faulty\": {\"clients\": %d, \"elements\": %lld, "
                 "\"mean_ms\": %.4f, \"p95_ms\": %.4f, \"rps\": %.0f, "
                 "\"injected_faults\": %lld},\n",
                 faulty_point.clients,
                 static_cast<long long>(faulty_point.elements),
                 faulty_point.mean_ms, faulty_point.p95_ms, faulty_point.rps,
                 static_cast<long long>(injected_faults));
    std::fprintf(f, "  \"oneway\": [\n");
    for (size_t i = 0; i < oneway.size(); ++i) {
      const OneWayResult& p = oneway[i];
      std::fprintf(f,
                   "    {\"burst\": %d, \"frames\": %lld, \"p50_us\": %.1f, "
                   "\"p99_us\": %.1f, \"cpu_us_per_frame\": %.2f}%s\n",
                   p.burst, static_cast<long long>(p.frames), p.p50_us,
                   p.p99_us, p.cpu_us_per_frame,
                   i + 1 < oneway.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote BENCH_transport.json\n");
  }
  return 0;
}

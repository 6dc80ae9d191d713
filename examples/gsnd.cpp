// gsnd: the headless GSN container daemon — the deployment shape the
// paper's §6 demo implies but never names. One process per node:
//
//   build/examples/example_gsnd --data-dir /var/lib/gsn
//       --descriptors ./virtual-sensors --port 8080 [--tick-ms 100]
//
// * --tick-ms sets the cadence of the interval rounds: polls of pull
//   wrappers (devices, generators), federation maintenance and
//   checkpoints. It does not set the hop latency: an element delivered
//   into a wrapper="remote" or "local" source wakes the pump at once
//   (docs/PERFORMANCE.md §7).
// * --data-dir makes the node durable: the container manifest and the
//   per-sensor persistence logs live there, so a crashed or killed
//   daemon restarted over the same directory redeploys its sensors and
//   recovers every fsynced row (docs/DURABILITY.md).
// * --descriptors enables the hot-deploy directory workflow: drop a
//   .xml descriptor in, the sensor deploys; overwrite it, it redeploys
//   (invalid rewrites are rejected and the old sensor keeps running);
//   delete it, it undeploys.
// * --port serves the HTTP interface (/api/v1/...: healthz, readyz,
//   sensors, query, quarantine, metrics). 0 picks an ephemeral port;
//   the chosen port is printed either way.
// * --listen binds the framed federation peer plane (EpollTransport)
//   on 127.0.0.1:N (0 = ephemeral; the bound port is printed), and
//   --peer NAME=HOST:PORT (repeatable) adds a dial-table entry, so two
//   gsnd processes federate over real TCP sockets exactly like
//   simulator containers do in tests (docs/TRANSPORT.md).
// * --chaos-seed N wraps the peer plane in the deterministic
//   fault-injection decorator (docs/CHAOS.md); rules are then driven at
//   runtime through `chaos ...` / POST /api/v1/chaos, and the same seed
//   reproduces the same fault schedule. That is what
//   scripts/transport_chaos_soak.sh leans on.
//
// SIGTERM/SIGINT trigger a graceful drain: stop admitting wrapper
// load, flush the admission queues, checkpoint, fsync, exit 0. SIGKILL
// is the crash-recovery path — that is what the smoke test in
// scripts/crash_recovery_smoke.sh exercises.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gsn/container/container.h"
#include "gsn/container/descriptor_watcher.h"
#include "gsn/container/realtime_pump.h"
#include "gsn/container/web_interface.h"
#include "gsn/network/chaos_transport.h"
#include "gsn/network/epoll_transport.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleStop(int) { g_stop = 1; }

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--data-dir DIR] [--descriptors DIR] [--port N]\n"
               "          [--node-id ID] [--tick-ms N] [--shards N]\n"
               "          [--listen N] [--peer NAME=HOST:PORT]...\n"
               "          [--chaos-seed N]\n"
               "       --tick-ms sets the cadence of pull-wrapper polls,\n"
               "       federation maintenance and checkpoints; pushed\n"
               "       (remote/local) elements wake the pump at once\n"
               "       GSN_SHARDS=N in the environment sets the default\n"
               "       shard/tick-worker count (0 = hardware concurrency)\n"
               "       --listen binds the federation peer plane; --peer\n"
               "       adds a dial-table entry for a remote gsnd;\n"
               "       --chaos-seed wraps the peer plane in the\n"
               "       deterministic fault-injection decorator\n",
               argv0);
  return 2;
}

struct PeerSpec {
  std::string name;
  std::string host;
  uint16_t port = 0;
};

/// Parses "NAME=HOST:PORT" (the --peer argument shape).
bool ParsePeerSpec(const std::string& text, PeerSpec* out) {
  const size_t eq = text.find('=');
  const size_t colon = text.rfind(':');
  if (eq == std::string::npos || colon == std::string::npos || colon < eq) {
    return false;
  }
  out->name = text.substr(0, eq);
  out->host = text.substr(eq + 1, colon - eq - 1);
  const long port = std::strtol(text.c_str() + colon + 1, nullptr, 10);
  if (out->name.empty() || out->host.empty() || port <= 0 || port > 65535) {
    return false;
  }
  out->port = static_cast<uint16_t>(port);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string data_dir;
  std::string descriptors;
  std::string node_id = "gsnd";
  long port = 0;
  long tick_ms = 100;
  long listen_port = -1;  // -1 = no peer plane
  long chaos_seed = -1;   // -1 = no chaos decorator
  std::vector<PeerSpec> peers;
  // GSN_SHARDS seeds the default; --shards (parsed below) overrides.
  // 0 means "size to hardware concurrency" (the container default).
  long shards = 0;
  if (const char* env = std::getenv("GSN_SHARDS")) {
    shards = std::strtol(env, nullptr, 10);
  }

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--data-dir" && value != nullptr) {
      data_dir = value;
      ++i;
    } else if (arg == "--descriptors" && value != nullptr) {
      descriptors = value;
      ++i;
    } else if (arg == "--node-id" && value != nullptr) {
      node_id = value;
      ++i;
    } else if (arg == "--port" && value != nullptr) {
      port = std::strtol(value, nullptr, 10);
      ++i;
    } else if (arg == "--tick-ms" && value != nullptr) {
      tick_ms = std::strtol(value, nullptr, 10);
      ++i;
    } else if (arg == "--shards" && value != nullptr) {
      shards = std::strtol(value, nullptr, 10);
      ++i;
    } else if (arg == "--listen" && value != nullptr) {
      listen_port = std::strtol(value, nullptr, 10);
      ++i;
    } else if (arg == "--chaos-seed" && value != nullptr) {
      chaos_seed = std::strtol(value, nullptr, 10);
      if (chaos_seed < 0) return Usage(argv[0]);
      ++i;
    } else if (arg == "--peer" && value != nullptr) {
      PeerSpec peer;
      if (!ParsePeerSpec(value, &peer)) return Usage(argv[0]);
      peers.push_back(std::move(peer));
      ++i;
    } else {
      return Usage(argv[0]);
    }
  }
  if (tick_ms <= 0 || port < 0 || port > 65535 || shards < 0 ||
      listen_port > 65535) {
    return Usage(argv[0]);
  }

  // The peer-plane transport outlives the container (whose destructor
  // unregisters from it), so it is declared first. The chaos decorator
  // sits between them and must outlive the container too.
  std::unique_ptr<gsn::network::EpollTransport> transport;
  std::unique_ptr<gsn::network::ChaosTransport> chaos;
  if (listen_port >= 0 || !peers.empty()) {
    gsn::network::EpollTransport::Options transport_options;
    transport_options.metrics = gsn::telemetry::MetricRegistry::Default();
    transport_options.metrics_role = "peer";
    transport = std::make_unique<gsn::network::EpollTransport>(
        std::move(transport_options));
    gsn::Status status = transport->Start();
    if (status.ok() && listen_port >= 0) {
      status = transport->ListenPeer(static_cast<uint16_t>(listen_port));
    }
    if (!status.ok()) {
      std::fprintf(stderr, "gsnd: peer transport failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    if (listen_port >= 0) {
      std::printf("gsnd: peer plane on 127.0.0.1:%u\n",
                  transport->peer_port());
    }
    for (const PeerSpec& peer : peers) {
      transport->AddPeer(peer.name, peer.host, peer.port);
      std::printf("gsnd: peer %s at %s:%u\n", peer.name.c_str(),
                  peer.host.c_str(), peer.port);
    }
    if (chaos_seed >= 0) {
      gsn::network::ChaosTransport::Options chaos_options;
      chaos_options.seed = static_cast<uint64_t>(chaos_seed);
      chaos_options.metrics = gsn::telemetry::MetricRegistry::Default();
      chaos = std::make_unique<gsn::network::ChaosTransport>(transport.get(),
                                                             chaos_options);
      std::printf("gsnd: chaos decorator armed (seed %ld)\n", chaos_seed);
    }
  } else if (chaos_seed >= 0) {
    std::fprintf(stderr, "gsnd: --chaos-seed needs a peer plane "
                         "(--listen or --peer)\n");
    return Usage(argv[0]);
  }

  gsn::container::Container::Options options;
  options.node_id = node_id;
  options.clock = gsn::SystemClock::Shared();
  options.seed = static_cast<uint64_t>(::getpid());
  options.data_dir = data_dir;
  options.sharding.shards = static_cast<int>(shards);
  options.network = chaos != nullptr
                        ? static_cast<gsn::network::Transport*>(chaos.get())
                        : transport.get();
  gsn::container::Container container(std::move(options));

  if (!data_dir.empty()) {
    std::printf("gsnd: data-dir %s (%zu manifest records replayed, "
                "%zu sensors live, %zu failed)\n",
                data_dir.c_str(), container.recovered_records(),
                container.ListSensors().size(), container.recovery_failures());
  } else {
    std::printf("gsnd: no --data-dir, running without crash recovery\n");
  }

  std::unique_ptr<gsn::container::DescriptorWatcher> watcher;
  if (!descriptors.empty()) {
    watcher = std::make_unique<gsn::container::DescriptorWatcher>(
        &container, descriptors);
    std::printf("gsnd: watching %s for descriptors\n", descriptors.c_str());
  }

  gsn::container::WebInterface web(&container);
  const gsn::Status web_status = web.Start(static_cast<uint16_t>(port));
  if (!web_status.ok()) {
    std::fprintf(stderr, "gsnd: web interface failed: %s\n",
                 web_status.ToString().c_str());
    return 1;
  }
  std::printf("gsnd: listening on 127.0.0.1:%u\n", web.port());
  std::fflush(stdout);

  gsn::container::RealtimePump pump(&container,
                                    tick_ms * gsn::kMicrosPerMilli);
  pump.Start();

  std::signal(SIGTERM, HandleStop);
  std::signal(SIGINT, HandleStop);

  // Main loop: reconcile the descriptor directory at the tick cadence
  // until a stop signal arrives. SIGKILL never reaches this loop —
  // recovery on the next start is the contract instead.
  while (g_stop == 0) {
    if (watcher != nullptr) {
      const auto scanned = watcher->Scan();
      if (!scanned.ok()) {
        std::fprintf(stderr, "gsnd: descriptor scan failed: %s\n",
                     scanned.status().ToString().c_str());
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(tick_ms));
  }

  std::printf("gsnd: draining...\n");
  pump.Stop();
  const gsn::Status drained = container.Shutdown();
  if (!drained.ok()) {
    std::fprintf(stderr, "gsnd: drain failed: %s\n",
                 drained.ToString().c_str());
  }
  web.Stop();
  std::printf("gsnd: bye\n");
  return drained.ok() ? 0 : 1;
}

#ifndef GSN_NETWORK_SOCKET_OPS_H_
#define GSN_NETWORK_SOCKET_OPS_H_

#include <sys/epoll.h>
#include <sys/socket.h>

#include <atomic>
#include <cstdint>
#include <mutex>

#include "gsn/util/rng.h"

namespace gsn::network {

/// Syscall seam for EpollTransport (docs/CHAOS.md). Every socket
/// operation the transport performs goes through one of these virtual
/// wrappers, so tests can interpose deterministic syscall-level faults
/// — EINTR/EAGAIN storms, short writes, ECONNRESET mid-frame, EMFILE
/// on accept — without kernels, namespaces, or LD_PRELOAD tricks.
///
/// The base class IS the real implementation (thin passthroughs to the
/// syscalls); FaultInjectingSocketOps below decorates it. Instances
/// must outlive every transport using them.
class SocketOps {
 public:
  virtual ~SocketOps() = default;

  virtual int Socket(int domain, int type, int protocol);
  virtual int Connect(int fd, const sockaddr* addr, socklen_t len);
  virtual int Accept4(int fd, sockaddr* addr, socklen_t* len, int flags);
  virtual ssize_t Recv(int fd, void* buf, size_t len, int flags);
  virtual ssize_t Send(int fd, const void* buf, size_t len, int flags);

  /// Process-wide real instance (the default when EpollTransport's
  /// Options carry no explicit seam).
  static SocketOps* Real();
};

/// Deterministic syscall-fault decorator: each rate is the probability
/// (seeded Bernoulli, one draw per call site in call order) that the
/// corresponding fault is injected *instead of* performing the real
/// syscall — except short writes, which perform a real send of a
/// truncated length (the classic partial-write path). Counters record
/// every injected fault so tests can assert the storm actually
/// happened. Thread-safe (EpollTransport calls Connect, and Send for
/// a burst's healthy-link write, from sender threads and everything
/// else from the loop thread).
class FaultInjectingSocketOps : public SocketOps {
 public:
  struct Config {
    uint64_t seed = 1;
    /// Recv faults: EINTR/EAGAIN return -1 with errno before touching
    /// the socket (an interrupt/spurious-readiness storm); reset
    /// returns -1 ECONNRESET, the mid-frame connection teardown.
    double recv_eintr_rate = 0.0;
    double recv_eagain_rate = 0.0;
    double recv_reset_rate = 0.0;
    /// Send faults: EINTR/EAGAIN storms, ECONNRESET/EPIPE on write,
    /// and short writes (len truncated to ~half before the real send).
    double send_eintr_rate = 0.0;
    double send_eagain_rate = 0.0;
    double send_reset_rate = 0.0;
    double short_write_rate = 0.0;
    /// Connect faults: refuse fails immediately with ECONNREFUSED;
    /// stall reports EINPROGRESS without dialing, so the connect never
    /// completes and the transport's handshake deadline must fire.
    double connect_refuse_rate = 0.0;
    double connect_stall_rate = 0.0;
    /// The next `accept_emfile_burst` accepts fail with EMFILE — the
    /// fd-exhaustion scenario the accept loop must pause on instead of
    /// hot-spinning (docs/CHAOS.md).
    int accept_emfile_burst = 0;
  };

  explicit FaultInjectingSocketOps(Config config);

  int Connect(int fd, const sockaddr* addr, socklen_t len) override;
  int Accept4(int fd, sockaddr* addr, socklen_t* len, int flags) override;
  ssize_t Recv(int fd, void* buf, size_t len, int flags) override;
  ssize_t Send(int fd, const void* buf, size_t len, int flags) override;

  /// Arms `n` more EMFILE accept failures (runtime re-injection).
  void ArmAcceptEmfile(int n);

  int64_t injected_recv_faults() const { return recv_faults_.load(); }
  int64_t injected_send_faults() const { return send_faults_.load(); }
  int64_t injected_short_writes() const { return short_writes_.load(); }
  int64_t injected_connect_faults() const { return connect_faults_.load(); }
  int64_t injected_accept_faults() const { return accept_faults_.load(); }

 private:
  const Config config_;
  std::mutex mu_;
  Rng rng_;                    // guarded by mu_
  int emfile_remaining_ = 0;   // guarded by mu_
  std::atomic<int64_t> recv_faults_{0};
  std::atomic<int64_t> send_faults_{0};
  std::atomic<int64_t> short_writes_{0};
  std::atomic<int64_t> connect_faults_{0};
  std::atomic<int64_t> accept_faults_{0};
};

}  // namespace gsn::network

#endif  // GSN_NETWORK_SOCKET_OPS_H_

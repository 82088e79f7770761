// Async multi-peer reactor (DESIGN.md §4k): one epoll loop owns N peers on
// nonblocking sockets and drives a single rpc::Node through them.
//
// The polled transport::Link model performs I/O inside poll(), which makes
// a node's cost per round O(peers) whether or not a peer has traffic. The
// reactor inverts control: epoll reports which fds are ready, the loop
// pushes kernel bytes into that peer's SocketPeer state machine, and only
// then does the node poll that one peer (Node::poll_peer — no clock
// advance, no retransmit scan). The logical clock ticks once per reactor
// iteration (Node::tick), so retransmission backoff is driven by wall-time
// iterations instead of per-peer polls.
//
// Peers arrive two ways: listen() accepts unidentified connections whose
// node id is learned from the origin field of their first frame (the wire
// protocol needs no handshake), and add_peer() adopts a connected fd whose
// peer id the caller already knows (client side, tests). A reconnect for an
// already-known peer id retires the stale connection.
//
// Backpressure: when the node's BufferPool occupancy (outstanding
// buffers ≈ unacked + backlogged frames across peers) crosses the
// high-water mark, the reactor stops arming EPOLLIN — inbound frames stay
// in the kernel and TCP flow control pushes back on senders — and resumes
// below the low-water mark. Stall transitions, ready-peer counts, and
// send-queue depths land in the rpc.reactor.* instruments.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "rpc/rpc.hpp"
#include "transport/socket.hpp"

struct epoll_event;  // <sys/epoll.h>

namespace mbird::rpc {

struct ReactorOptions {
  /// Stop arming EPOLLIN while BufferPool::outstanding() is at or above
  /// this (inbound load shedding via kernel buffers + TCP flow control).
  size_t pool_high_water = 4096;
  /// Re-arm EPOLLIN once occupancy falls to or below this.
  size_t pool_low_water = 2048;
  /// Max events serviced per epoll_wait call.
  int max_events = 64;
};

class Reactor {
 public:
  explicit Reactor(Node& node, ReactorOptions opts = {});
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Bind an accepting socket ("unix:PATH", "tcp:HOST:PORT", bare path).
  /// Accepted connections are identified by their first frame's origin
  /// field. Throws TransportError if the address cannot be bound.
  void listen(const std::string& addr);
  /// The resolved listen address (ephemeral TCP ports filled in).
  [[nodiscard]] const std::string& listen_address() const;

  /// Adopt a connected fd (takes ownership) for a peer whose node id is
  /// already known; registers the link on the node immediately.
  void add_peer(uint16_t peer_id, int fd);

  /// One iteration: wait up to `timeout_ms` for readiness, accept pending
  /// connections, service ready peers, then advance the node's clock
  /// (retransmits, acks, local deliveries) and refresh write interest.
  /// Returns messages delivered to ports.
  size_t run_once(int timeout_ms = 1);

  /// Loop run_once until `should_stop()` returns true (checked every
  /// iteration). Returns total messages delivered.
  size_t run(const std::function<bool()>& should_stop, int timeout_ms = 1);

  /// Connections currently registered (identified or not).
  [[nodiscard]] size_t peer_count() const { return conns_.size(); }
  /// True while inbound reads are shed for backpressure.
  [[nodiscard]] bool stalled() const { return stalled_; }
  [[nodiscard]] Node& node() { return node_; }

 private:
  struct Conn {
    std::shared_ptr<transport::SocketPeer> sock;
    uint16_t peer_id = 0;
    bool identified = false;
    uint32_t events = 0;  // epoll interest currently armed
  };

  void accept_pending();
  void register_conn(int fd, Conn conn);
  /// Drain one ready connection; returns deliveries. Sets `dead` when the
  /// connection should be retired.
  size_t service(Conn& c, uint32_t events, bool& dead);
  void retire(int fd);
  void update_interest();

  Node& node_;
  ReactorOptions opts_;
  int epfd_ = -1;
  std::unique_ptr<transport::ListenSocket> listener_;
  std::map<int, Conn> conns_;            // by fd
  std::map<uint16_t, int> fd_by_peer_;   // identified peers -> fd
  bool stalled_ = false;
  // Per-peer inflight gauges (rpc.peer.<id>.inflight), resolved once per
  // peer id — registry lookups are by string, too slow for every loop.
  std::map<uint16_t, obs::Gauge*> peer_inflight_;
  // Recent retire timestamps (ns) for retire-storm detection.
  std::vector<uint64_t> retire_times_;
  // epoll_wait's result buffer, sized once from opts_.max_events.
  std::vector<epoll_event> evs_;
};

}  // namespace mbird::rpc

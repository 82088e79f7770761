#include "rpc/reactor.hpp"

#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "obs/flightrec.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "wire/wire.hpp"

namespace mbird::rpc {

namespace {

struct ReactorMetrics {
  obs::Counter& accepts = obs::counter("rpc.reactor.accepts");
  obs::Counter& retires = obs::counter("rpc.reactor.retires");
  obs::Counter& stalls = obs::counter("rpc.reactor.stalls");
  obs::Gauge& peers = obs::gauge("rpc.reactor.peers");
  obs::Gauge& ready_peers = obs::gauge("rpc.reactor.ready_peers");
  obs::Gauge& queue_depth = obs::gauge("rpc.reactor.queue_depth");
  obs::Gauge& stalled = obs::gauge("rpc.reactor.stalled");
  // Time from epoll wakeup to drain completion on iterations with at
  // least one ready fd — the dashboard's reactor responsiveness signal.
  obs::Histogram& loop_lag_ns = obs::histogram("rpc.reactor.loop_lag_ns");
};
ReactorMetrics& xm() {
  static ReactorMetrics m;
  return m;
}

/// The Link a Reactor registers on its Node: send feeds the SocketPeer's
/// buffered writer (never throws — a dead peer reads as frame loss until
/// the reactor retires it), poll pops frames the readiness loop already
/// ingested (no syscalls on the node's path).
class ReactorLink : public transport::Link {
 public:
  explicit ReactorLink(std::shared_ptr<transport::SocketPeer> sock)
      : sock_(std::move(sock)) {}
  void send(std::vector<uint8_t> frame) override {
    sock_->send(std::move(frame));
  }
  std::optional<std::vector<uint8_t>> poll() override { return sock_->poll(); }

 private:
  std::shared_ptr<transport::SocketPeer> sock_;
};

/// Peer node id from a complete frame's header (origin field, big-endian
/// u16 at bytes [7..9)); nullopt if the frame is too short to carry one.
std::optional<uint16_t> frame_origin(const std::vector<uint8_t>& frame) {
  if (frame.size() < 9) return std::nullopt;
  return static_cast<uint16_t>((static_cast<uint16_t>(frame[7]) << 8) |
                               frame[8]);
}

}  // namespace

Reactor::Reactor(Node& node, ReactorOptions opts)
    : node_(node),
      opts_(opts),
      evs_(static_cast<size_t>(std::max(opts.max_events, 1))) {
  epfd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) {
    throw TransportError(std::string("epoll_create1: ") + std::strerror(errno));
  }
}

Reactor::~Reactor() {
  if (epfd_ >= 0) ::close(epfd_);
}

void Reactor::listen(const std::string& addr) {
  listener_ = std::make_unique<transport::ListenSocket>(addr);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listener_->fd();
  if (epoll_ctl(epfd_, EPOLL_CTL_ADD, listener_->fd(), &ev) != 0) {
    throw TransportError(std::string("epoll_ctl(listener): ") +
                         std::strerror(errno));
  }
}

const std::string& Reactor::listen_address() const {
  if (!listener_) {
    throw TransportError("reactor is not listening");
  }
  return listener_->address();
}

void Reactor::register_conn(int fd, Conn conn) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw TransportError(std::string("epoll_ctl(peer): ") +
                         std::strerror(errno));
  }
  conn.events = EPOLLIN;
  conns_.emplace(fd, std::move(conn));
  xm().peers.set(static_cast<int64_t>(conns_.size()));
}

void Reactor::add_peer(uint16_t peer_id, int fd) {
  Conn conn;
  conn.sock = std::make_shared<transport::SocketPeer>(fd);
  conn.peer_id = peer_id;
  conn.identified = true;
  node_.connect(peer_id, std::make_shared<ReactorLink>(conn.sock));
  fd_by_peer_[peer_id] = fd;
  register_conn(fd, std::move(conn));
}

void Reactor::accept_pending() {
  while (true) {
    int fd = listener_->accept_fd();
    if (fd < 0) return;
    Conn conn;
    conn.sock = std::make_shared<transport::SocketPeer>(fd);
    xm().accepts.add();
    register_conn(fd, std::move(conn));
  }
}

size_t Reactor::service(Conn& c, uint32_t events, bool& dead) {
  size_t processed = 0;
  if ((events & EPOLLOUT) != 0) c.sock->on_writable();
  bool alive = true;
  if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
    alive = c.sock->on_readable();
  }
  if (!c.identified) {
    // A server-accepted connection names itself with its first frame's
    // origin field — no handshake round-trip. Until a complete frame
    // arrives there is nothing to deliver.
    const std::vector<uint8_t>* first = c.sock->front();
    if (first != nullptr) {
      if (auto origin = frame_origin(*first)) {
        c.peer_id = *origin;
        c.identified = true;
        // A reconnect supersedes the stale channel toward the same peer.
        auto prev = fd_by_peer_.find(c.peer_id);
        if (prev != fd_by_peer_.end()) {
          node_.disconnect(c.peer_id);
          retire(prev->second);
        }
        fd_by_peer_[c.peer_id] = c.sock->fd();
        node_.connect(c.peer_id, std::make_shared<ReactorLink>(c.sock));
      } else {
        // Garbage shorter than a frame header: drop the connection.
        alive = false;
      }
    }
  }
  if (c.identified) processed += node_.poll_peer(c.peer_id);
  dead = !alive && !c.sock->wants_write();
  return processed;
}

void Reactor::retire(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& c = it->second;
  if (c.identified) {
    auto by_peer = fd_by_peer_.find(c.peer_id);
    if (by_peer != fd_by_peer_.end() && by_peer->second == fd) {
      node_.disconnect(c.peer_id);
      fd_by_peer_.erase(by_peer);
    }
  }
  epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
  conns_.erase(it);  // SocketPeer destructor closes the fd
  xm().retires.add();
  xm().peers.set(static_cast<int64_t>(conns_.size()));
  // Retire-storm detection: eight or more retires inside one second is a
  // fleet-level event (mass disconnect, crashing clients, bad deploy) —
  // snapshot the flight recorder so the lead-up survives.
  const uint64_t now = obs::now_ns();
  retire_times_.push_back(now);
  retire_times_.erase(
      std::remove_if(retire_times_.begin(), retire_times_.end(),
                     [now](uint64_t t) { return now - t > 1'000'000'000ull; }),
      retire_times_.end());
  if (retire_times_.size() >= 8) {
    obs::FlightRecorder::global().fault("rpc.reactor.retire_storm");
    retire_times_.clear();
  }
}

void Reactor::update_interest() {
  size_t outstanding = node_.buffer_pool().outstanding();
  if (!stalled_ && outstanding >= opts_.pool_high_water) {
    stalled_ = true;
    xm().stalls.add();
    xm().stalled.set(1);
  } else if (stalled_ && outstanding <= opts_.pool_low_water) {
    stalled_ = false;
    xm().stalled.set(0);
  }
  size_t max_depth = 0;
  for (auto& [fd, c] : conns_) {
    if (c.identified) {
      const size_t depth = node_.send_queue_depth(c.peer_id);
      max_depth = std::max(max_depth, depth);
      obs::Gauge*& g = peer_inflight_[c.peer_id];
      if (g == nullptr) {
        g = &obs::gauge("rpc.peer." + std::to_string(c.peer_id) +
                        ".inflight");
      }
      g->set(static_cast<int64_t>(depth));
    }
    // Unidentified connections keep EPOLLIN even under stall: their first
    // frame carries no payload burden and unblocks identification.
    uint32_t want =
        (!stalled_ || !c.identified) ? static_cast<uint32_t>(EPOLLIN) : 0u;
    if (c.sock->wants_write()) want |= EPOLLOUT;
    if (want == c.events) continue;
    epoll_event ev{};
    ev.events = want;
    ev.data.fd = fd;
    epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev);
    c.events = want;
  }
  xm().queue_depth.set_max(static_cast<int64_t>(max_depth));
}

size_t Reactor::run_once(int timeout_ms) {
  int n = epoll_wait(epfd_, evs_.data(), static_cast<int>(evs_.size()),
                     timeout_ms);
  if (n < 0) {
    if (errno == EINTR) n = 0;
    else
      throw TransportError(std::string("epoll_wait: ") + std::strerror(errno));
  }
  const uint64_t wake_ns = obs::now_ns();
  size_t processed = 0;
  size_t ready = 0;
  std::vector<int> dead_fds;
  for (int i = 0; i < n; ++i) {
    int fd = evs_[static_cast<size_t>(i)].data.fd;
    if (listener_ && fd == listener_->fd()) {
      accept_pending();
      continue;
    }
    auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    ++ready;
    bool dead = false;
    processed += service(it->second, evs_[static_cast<size_t>(i)].events, dead);
    if (dead) dead_fds.push_back(fd);
  }
  for (int fd : dead_fds) retire(fd);
  // One logical tick per iteration: local deliveries, retransmit backoff,
  // due acks. The retransmits/acks land in SocketPeer write buffers, so
  // write interest is refreshed after.
  processed += node_.tick();
  xm().ready_peers.set(static_cast<int64_t>(ready));
  update_interest();
  // Loop lag: epoll wakeup -> drain + tick + interest refresh done. Only
  // iterations that had ready fds count; idle wakeups measure nothing.
  if (n > 0) xm().loop_lag_ns.record(obs::now_ns() - wake_ns);
  return processed;
}

size_t Reactor::run(const std::function<bool()>& should_stop, int timeout_ms) {
  size_t processed = 0;
  while (!should_stop()) processed += run_once(timeout_ms);
  return processed;
}

}  // namespace mbird::rpc

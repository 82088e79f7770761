// The serve workloads: closed-loop clients against an embedded rpc::Reactor
// hosting the `mbird serve --listen` functions on a unix socket.
//
//   serve_compile    requests are seeded draws from the 100 VisualAge pairs,
//                    all warmed during set-up; the handler is serve.cpp's
//                    compile handler (ServiceCore::compile_spec).
//   serve_echo_bulk  requests echo seeded 128 KiB EchoBlob strings (three
//                    CHUNK frames each way); ServiceCore is never called.
//
// Client threads (see client_count) each own an rpc::Node over a dialled
// socket and run a closed loop: build the request Value, send, block in
// poll(2) on the socket until the reply is delivered, check it.
// One operation is one call. The reactor and the clients are pinned to
// distinct CPUs when there are enough.
//
// The server side runs as `mbird serve --listen` does, with metrics and
// the always-on flight recorder enabled, so its serve.request and
// serve.compile spans are timed and written to the recorder's rings. The
// clients send outside any obs span, like an `mbird` client without
// --trace: their requests carry no trace context, and so neither do the
// replies the server sends on their behalf.
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <filesystem>
#include <optional>
#include <thread>

#include "compare/compare.hpp"
#include "obs/flightrec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rpc/reactor.hpp"
#include "rpc/rpc.hpp"
#include "service/serve.hpp"
#include "service/service.hpp"
#include "support/error.hpp"
#include "transport/socket.hpp"
#include "vage.hpp"
#include "wire/wire.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using namespace mbird;
using runtime::Value;

constexpr int kCallTimeoutMs = 10000;
constexpr size_t kKeptSamples = 8;  // request/reply pairs kept per client

/// serve.cpp's compile handler: decode the request pair, run it through
/// the service core, encode the reply record.
std::function<Value(const Value&)> compile_handler(service::ServiceCore& core) {
  return [&core](const Value& args) -> Value {
    obs::Span span("serve.compile");
    const std::string left = service::string_of(args.at(0));
    const std::string right = service::string_of(args.at(1));
    service::PairOutcome o;
    std::string perr;
    const bool ok = core.compile_spec(left, right, &o, &perr);
    if (span.recording()) {
      span.note("left", left);
      span.note("right", right);
      span.note(ok ? "verdict" : "error",
                ok ? compare::to_string(o.verdict) : perr);
    }
    return Value::record({Value::integer(static_cast<int64_t>(o.verdict)),
                          Value::integer(static_cast<int64_t>(o.steps)),
                          Value::integer(o.memo_hit ? 1 : 0),
                          Value::integer(o.program_cached ? 1 : 0),
                          Value::integer(static_cast<int64_t>(o.program_ops)),
                          Value::string(ok ? "" : perr)});
  };
}

/// run_serve_listen's per-request wrapper, plus the harness's own span.
std::function<Value(const Value&)> counted(
    std::function<Value(const Value&)> fn) {
  return [fn = std::move(fn)](const Value& v) -> Value {
    Span handler("serve.handler", 0);
    obs::Span span("serve.request");
    obs::ScopedTimer timer(obs::histogram("serve.latency_us"));
    obs::counter("serve.requests").add(1);
    return fn(v);
  };
}

enum class Kind { Compile, Echo };

/// serve_compile: nproc - 2 clients (at least one); with the reactor thread
/// that leaves one CPU for everything else on the host (with nproc - 1
/// clients every CPU is busy and the run-to-run spread of the latency
/// percentiles was several times larger). serve_echo_bulk: one client, so
/// a call's latency is its own service time and never includes waiting
/// behind another client's multi-millisecond bulk call.
unsigned client_count(Kind kind) {
  if (kind == Kind::Echo) return 1;
  return online_cpus() > 2 ? online_cpus() - 2 : 1;
}

struct Sample {
  Value request;  // the invocation record as sent (args, reply port)
  Value reply;
};

/// One client connection: its node, the socket under it, and the
/// per-phase tallies it reports back after its thread joins.
struct Client {
  uint16_t id = 0;
  std::unique_ptr<rpc::Node> node;
  std::shared_ptr<transport::SocketPeer> sock;
  std::vector<LatencyLog> lat;  // per slice of the current phase
  uint64_t completed = 0;  // successful calls in the current phase
  std::vector<Sample> samples;
  std::vector<std::string> errors;  // the first few failed checks
  rpc::NodeStats before;

  void note_error(std::string what) {
    if (errors.size() < 20) errors.push_back(std::move(what));
  }
};

/// Everything set-up builds: the server side and the dialled clients.
struct Fixture {
  Kind kind = Kind::Echo;
  std::unique_ptr<Corpus> corpus;
  std::unique_ptr<service::ServiceCore> core;
  std::unique_ptr<service::ServeProtocol> proto;
  std::unique_ptr<rpc::Node> server;
  std::unique_ptr<rpc::Reactor> reactor;
  std::string addr;
  uint64_t port = 0;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<std::string> payloads;  // echo: seeded 128 KiB strings
  Result* result = nullptr;

  ~Fixture() {
    clients.clear();
    reactor.reset();  // closes the listening socket and unlinks its path
    obs::FlightRecorder::global().disable();
  }
};

std::string socket_path(const RunConfig& cfg) {
  static std::atomic<int> n{0};
  std::string name = "s";
  name += std::to_string(::getpid());
  name += '-';
  name += std::to_string(++n);
  name += ".sock";
  return (std::filesystem::path(cfg.work_dir) / name).string();
}

std::unique_ptr<Fixture> make_fixture(Kind kind, const RunConfig& cfg,
                                      Result& r) {
  auto f = std::make_unique<Fixture>();
  f->kind = kind;
  f->result = &r;
  if (kind == Kind::Compile) {
    f->corpus = load_corpus(cfg.smoke ? 12 : 100);
    f->core = std::make_unique<service::ServiceCore>(f->corpus->modules,
                                                     f->corpus->diags);
    // Warm every pair the way `mbird batch` does (lower all, freeze once,
    // compile each), so every served request is a memo hit.
    std::vector<mtype::Ref> ra, rb;
    std::string err;
    for (int k = 0; k < f->corpus->n; ++k) {
      ra.push_back(f->core->lower_left(
          f->corpus->left_specs[static_cast<size_t>(k)], &err));
      rb.push_back(f->core->lower_right(
          f->corpus->right_specs[static_cast<size_t>(k)], &err));
      r.check(ra.back() != mtype::kNullRef && rb.back() != mtype::kNullRef,
              "warm-up lowering: " + err);
    }
    const auto frozen = f->core->freeze();
    for (size_t i = 0; i < ra.size(); ++i) {
      const auto o = f->core->compile(frozen, ra[i], rb[i]);
      r.check(o.verdict == compare::Verdict::Equivalent,
              "warm-up verdict " + f->corpus->left_specs[i]);
    }
  } else {
    const size_t size = cfg.smoke ? 4096 : 128 * 1024;
    Rng rng(cfg.seed ^ 0x6563686fULL);  // "echo"
    for (int i = 0; i < 8; ++i) {
      std::string s(size, ' ');
      for (char& c : s) c = static_cast<char>(' ' + rng.below(95));
      f->payloads.push_back(std::move(s));
    }
  }

  f->proto = std::make_unique<service::ServeProtocol>();
  // Same reliability tuning as run_serve_listen: the reactor ticks about
  // once per millisecond.
  rpc::ReliabilityOptions srv;
  srv.initial_backoff = 8;
  srv.max_backoff = 256;
  f->server = std::make_unique<rpc::Node>(service::kServeNodeId, srv);
  f->reactor = std::make_unique<rpc::Reactor>(*f->server);
  f->addr = "unix:" + socket_path(cfg);
  f->reactor->listen(f->addr);
  obs::FlightRecorder::global().enable();  // as run_serve_listen does
  // Port order is the serve convention: compile first, echo second.
  const uint64_t compile_port = rpc::serve_function(
      *f->server, f->proto->g, f->proto->invocation,
      counted(f->core ? compile_handler(*f->core)
                      : [](const Value&) -> Value {
                          throw MbError("no compile service in this fixture");
                        }));
  const uint64_t echo_port =
      rpc::serve_function(*f->server, f->proto->g, f->proto->echo_invocation,
                          counted([](const Value& args) { return args; }));
  f->port = kind == Kind::Compile ? compile_port : echo_port;

  const unsigned nclients = client_count(kind);
  for (unsigned c = 0; c < nclients; ++c) {
    auto cl = std::make_unique<Client>();
    cl->id = static_cast<uint16_t>(2 + c);
    // Clients tick only when woken, so these backoffs are generous; a
    // unix socket does not lose frames.
    rpc::ReliabilityOptions rel;
    rel.initial_backoff = 256;
    rel.max_backoff = 4096;
    cl->node = std::make_unique<rpc::Node>(cl->id, rel);
    cl->sock = std::make_shared<transport::SocketPeer>(
        transport::dial_fd(f->addr));
    cl->node->connect(service::kServeNodeId, cl->sock);
    f->clients.push_back(std::move(cl));
  }
  return f;
}

/// Block until the socket is readable (or writable while output is
/// buffered) or `timeout_ms` passes, move the bytes, then let the node
/// deliver, ack and run its timers. Returns false once the peer hung up.
bool pump_client(Client& c, int timeout_ms) {
  pollfd p{c.sock->fd(),
           static_cast<short>(POLLIN | (c.sock->wants_write() ? POLLOUT : 0)),
           0};
  const int n = ::poll(&p, 1, timeout_ms);
  bool alive = true;
  if (n > 0) {
    if ((p.revents & POLLOUT) != 0) c.sock->on_writable();
    if ((p.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      alive = c.sock->on_readable();
    }
  }
  c.node->poll();
  return alive && !c.sock->closed();
}

/// One closed-loop call. Returns false (and records why) on a timeout, an
/// error reply or a mismatched reply.
bool one_call(Fixture& f, Client& c, Rng& rng, bool keep_sample) {
  const uint64_t op = next_op_id();
  const service::ServeProtocol& proto = *f.proto;
  const mtype::Ref invocation =
      f.kind == Kind::Compile ? proto.invocation : proto.echo_invocation;
  const mtype::Ref reply_type = rpc::reply_msg_type(proto.g, invocation);
  std::optional<Value> reply;
  Span s("call", op);
  Value inv;
  size_t pick = 0;
  {
    Span b("runtime.value_build", op);
    const uint64_t reply_port = c.node->open_port(
        &proto.g, reply_type, [&reply](const Value& v) { reply = v; },
        /*once=*/true);
    Value args;
    if (f.kind == Kind::Compile) {
      pick = rng.below(static_cast<uint64_t>(f.corpus->n));
      args = Value::record({Value::string(f.corpus->left_specs[pick]),
                            Value::string(f.corpus->right_specs[pick])});
    } else {
      pick = rng.below(f.payloads.size());
      args = Value::record({Value::string(f.payloads[pick])});
    }
    inv = Value::record({std::move(args), Value::port(reply_port)});
  }
  {
    Span send("rpc.send", op);
    c.node->send(f.port, proto.g, invocation, inv);
  }
  {
    Span wait("rpc.reply_wait", op);
    const uint64_t deadline =
        mono_ns() + static_cast<uint64_t>(kCallTimeoutMs) * 1000000ULL;
    while (!reply && mono_ns() < deadline) {
      if (!pump_client(c, 2)) break;
    }
  }
  if (!reply) {
    c.node->close_port(inv.at(1).as_port());
    c.note_error("call timed out or connection lost");
    return false;
  }
  bool ok = false;
  {
    Span d("runtime.string_of", op);
    if (f.kind == Kind::Compile) {
      const auto verdict =
          static_cast<compare::Verdict>(reply->at(0).as_int());
      const std::string error = service::string_of(reply->at(5));
      ok = verdict == compare::Verdict::Equivalent && error.empty() &&
           reply->at(2).as_int() == 1 && reply->at(4).as_int() > 0;
      if (!ok) {
        c.note_error(f.corpus->left_specs[pick] + ": verdict " +
                           compare::to_string(verdict) + " memo " +
                           std::to_string(static_cast<int64_t>(
                               reply->at(2).as_int())) +
                           " error '" + error + "'");
      }
    } else {
      ok = service::string_of(reply->at(0)) == f.payloads[pick];
      if (!ok) c.note_error("echo reply differs from its payload");
    }
  }
  if (keep_sample && c.samples.size() < kKeptSamples) {
    c.samples.push_back(Sample{inv, *reply});
  }
  return ok;
}

/// With enough CPUs, the reactor thread runs on CPU 0 and client i on
/// CPU i + 1, so no two of them compete for one CPU and none migrates.
void pin_to_cpu(const Fixture& f, unsigned cpu) {
  if (online_cpus() < f.clients.size() + 1) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

/// Run the reactor and every client for `budget` seconds. A call belongs
/// to the slice in which it started.
Slices run_phase(Fixture& f, const RunConfig& cfg, double budget,
                 uint64_t phase) {
  std::atomic<bool> stop{false};
  std::string server_error;
  std::thread server([&] {
    pin_to_cpu(f, 0);
    try {
      f.reactor->run([&] { return stop.load(std::memory_order_relaxed); },
                     /*timeout_ms=*/1);
    } catch (const std::exception& e) {
      server_error = e.what();
    }
  });
  const uint64_t a0 = alloc_count();
  const double t0 = now_s();
  const double end = t0 + budget;
  const double slice_s = budget / static_cast<double>(kSlices);
  std::vector<std::thread> threads;
  for (auto& cp : f.clients) {
    Client& c = *cp;
    c.lat.assign(kSlices, LatencyLog{});
    c.completed = 0;
    c.before = c.node->stats();
    threads.emplace_back([&f, &c, &cfg, t0, end, slice_s, phase] {
      pin_to_cpu(f, c.id - 1u);
      Rng rng(cfg.seed * 1000003ULL + c.id * 7919ULL + phase);
      const bool keep = Tracer::get().enabled();
      for (double start = now_s(); start < end; start = now_s()) {
        LatencyLog& lat = c.lat[std::min(
            kSlices - 1, static_cast<size_t>((start - t0) / slice_s))];
        const uint64_t t = mono_ns();
        bool ok = false;
        try {
          ok = one_call(f, c, rng, keep);
        } catch (const std::exception& e) {
          c.note_error(std::string("call threw: ") + e.what());
        }
        if (ok) {
          lat.ok(static_cast<double>(mono_ns() - t) / 1000.0);
          ++c.completed;
        } else {
          lat.fail();
          if (c.sock->closed()) break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  Slices m;
  m.each.resize(kSlices);
  for (Measurement& s : m.each) s.elapsed_s = slice_s;
  // The last slice also holds the calls still in flight at the deadline.
  m.each.back().elapsed_s = now_s() - t0 - slice_s * (kSlices - 1);
  m.each.front().allocs = alloc_count() - a0;  // the whole phase's
  stop.store(true);
  server.join();
  f.result->check(server_error.empty(), "reactor threw: " + server_error);
  for (auto& cp : f.clients) {
    for (size_t k = 0; k < kSlices; ++k) m.each[k].lat.absorb(cp->lat[k]);
    for (const auto& e : cp->errors) f.result->check(false, e);
    cp->errors.clear();
  }
  return m;
}

Result run_serve(Kind kind, const RunConfig& cfg) {
  obs::set_metrics_on(true);  // as `mbird serve` runs
  Result r;
  std::vector<double> setup;
  auto make = [&] { return make_fixture(kind, cfg, r); };
  const std::unique_ptr<Fixture> f = timed_setup(cfg, setup, make);
  if (!r.errors.empty()) return r;

  (void)run_phase(*f, cfg, warmup_s(cfg), 0);
  if (!cfg.trace) {
    Slices s = run_phase(*f, cfg, cfg.seconds, 1);
    const EndToEnd e = end_to_end(s);
    timed_setup_after(cfg, setup, make);
    report_end_to_end(r, s, e, setup);
    return r;
  }

  // Traced run: NodeStats and pool counters as deltas over the traced half.
  rpc::NodeStats srv_before;
  uint64_t acquired0 = 0, reused0 = 0;
  CacheCounters cache;
  int half = 0;
  auto spans = traced_halves(cfg, r, [&](double budget) {
    srv_before = f->server->stats();
    cache = CacheCounters{};
    acquired0 = obs::counter("wire.pool.acquired").value();
    reused0 = obs::counter("wire.pool.reused").value();
    return run_phase(*f, cfg, budget, static_cast<uint64_t>(++half + 1));
  });

  report_cache_ratios(r, cache);
  const rpc::NodeStats& srv = f->server->stats();
  uint64_t frames = srv.frames_sent - srv_before.frames_sent;
  uint64_t chunks = srv.chunks_sent - srv_before.chunks_sent;
  uint64_t acks = srv.acks_sent - srv_before.acks_sent;
  uint64_t retx = srv.retransmits - srv_before.retransmits;
  uint64_t bytes = srv.bytes_sent - srv_before.bytes_sent;
  uint64_t calls = 0;
  std::vector<Sample> samples;
  for (const auto& cp : f->clients) {
    const rpc::NodeStats& cs = cp->node->stats();
    frames += cs.frames_sent - cp->before.frames_sent;
    chunks += cs.chunks_sent - cp->before.chunks_sent;
    acks += cs.acks_sent - cp->before.acks_sent;
    retx += cs.retransmits - cp->before.retransmits;
    bytes += cs.bytes_sent - cp->before.bytes_sent;
    calls += cp->completed;
    samples.insert(samples.end(), cp->samples.begin(), cp->samples.end());
  }
  const double dcalls = static_cast<double>(calls);
  // Data-carrying frames: whole DATA frames plus CHUNK frames.
  r.set("rpc.frames_per_call",
        ratio(static_cast<double>(frames + chunks), dcalls));
  r.set("rpc.chunks_per_call", ratio(static_cast<double>(chunks), dcalls));
  r.set("rpc.acks_per_call", ratio(static_cast<double>(acks), dcalls));
  r.set("rpc.retransmits_per_call", ratio(static_cast<double>(retx), dcalls));
  r.set("rpc.wire_bytes_per_call", ratio(static_cast<double>(bytes), dcalls));
  // These three are cumulative over the whole run (warm-up, untraced and
  // traced halves): NodeStats keeps only a high-water mark and the loop-lag
  // histogram is process-global, and neither can be reset or subtracted.
  r.set("rpc.max_queue_depth", static_cast<double>(srv.max_queue_depth));
  const auto& lag = obs::histogram("rpc.reactor.loop_lag_ns");
  r.set("rpc.reactor.loop_lag_p50_ns", static_cast<double>(lag.percentile(0.5)));
  r.set("rpc.reactor.loop_lag_p95_ns",
        static_cast<double>(lag.percentile(0.95)));
  r.set("wire.pool.reuse_ratio",
        ratio(static_cast<double>(obs::counter("wire.pool.reused").value() -
                                  reused0),
              static_cast<double>(obs::counter("wire.pool.acquired").value() -
                                  acquired0)));

  // Standalone codec timings on the workload's own request/reply values;
  // their encoded sizes are the payload bytes behind the goodput ratio.
  const service::ServeProtocol& proto = *f->proto;
  const mtype::Ref invocation =
      kind == Kind::Compile ? proto.invocation : proto.echo_invocation;
  const mtype::Ref reply_type = rpc::reply_msg_type(proto.g, invocation);
  uint64_t enc_ns = 0, dec_ns = 0;
  double payload = 0;
  for (const Sample& s : samples) {
    const uint64_t t0 = mono_ns();
    const auto qb = wire::encode(proto.g, invocation, s.request);
    const auto rb = wire::encode(proto.g, reply_type, s.reply);
    const uint64_t t1 = mono_ns();
    const Value qv = wire::decode(proto.g, invocation, qb);
    const Value rv = wire::decode(proto.g, reply_type, rb);
    const uint64_t t2 = mono_ns();
    r.check(wire::encode(proto.g, invocation, qv) == qb &&
                wire::encode(proto.g, reply_type, rv) == rb,
            "wire round trip changed a value");
    enc_ns += t1 - t0;
    dec_ns += t2 - t1;
    payload += static_cast<double>(qb.size() + rb.size());
  }
  const double n = static_cast<double>(samples.size());
  r.set("wire.encode_ns", ratio(static_cast<double>(enc_ns), n));
  r.set("wire.decode_ns", ratio(static_cast<double>(dec_ns), n));
  r.set("rpc.goodput_ratio",
        ratio(ratio(payload, n) * dcalls, static_cast<double>(bytes)));

  const auto t = totals_by_name(spans);
  auto per_call = [&](const char* name) {
    auto it = t.find(name);
    return it == t.end() ? 0.0
                         : ratio(static_cast<double>(it->second.total_ns),
                                 static_cast<double>(it->second.count));
  };
  r.set("runtime.value_build_ns", per_call("runtime.value_build"));
  r.set("runtime.string_of_ns", per_call("runtime.string_of"));
  r.set("rpc.send_ns", per_call("rpc.send"));
  r.set("rpc.reply_wait_ns", per_call("rpc.reply_wait"));
  r.set("serve.handler_ns", per_call("serve.handler"));
  r.set("trace.span_coverage_pct",
        median_coverage_pct(spans, "call",
                            {"runtime.value_build", "rpc.send",
                             "rpc.reply_wait", "runtime.string_of"}));
  if (f->corpus) {
    r.set("cfront.parse_ns", static_cast<double>(f->corpus->cfront_parse_ns));
    r.set("javasrc.parse_ns",
          static_cast<double>(f->corpus->javasrc_parse_ns));
    r.set("annotate.run_ns", static_cast<double>(f->corpus->annotate_ns));
  }
  return r;
}

}  // namespace

Result run_serve_compile(const RunConfig& cfg) {
  return run_serve(Kind::Compile, cfg);
}

Result run_serve_echo_bulk(const RunConfig& cfg) {
  return run_serve(Kind::Echo, cfg);
}

}  // namespace perfbench

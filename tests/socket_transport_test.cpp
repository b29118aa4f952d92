// Socket transport tests: SocketEndpoint <-> SlaveService over real
// sockets, in one process.
//
// The multiprocess identity suite proves the end-to-end story across real
// process boundaries; this suite pins the transport *taxonomy* — which
// EndpointStatus each failure maps to — with surgical fault injection that
// needs server-side control a separate process can't give:
//   - round-trips (handshake, analyze, ingest, discovery) over unix + tcp;
//   - a raw fake server delivering torn frames, corrupt frames, and
//     future-version frames;
//   - reconnect-with-identity-pinning and the split-brain guard over the
//     wire (two live services claiming one slave id);
//   - the runtime.socket.* metrics the identity suite asserts on;
//   - the FlakyEndpoint/HungEndpoint torn-reply modeling that lets the
//     in-process robustness suites rehearse the same failure mode.
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fchain/slave.h"
#include "fchain/slave_service.h"
#include "obs/metrics.h"
#include "persist/codec.h"
#include "runtime/flaky_endpoint.h"
#include "runtime/hung_endpoint.h"
#include "runtime/slave_registry.h"
#include "runtime/socket.h"
#include "runtime/socket_endpoint.h"
#include "runtime/wire.h"

namespace fchain::runtime {
namespace {

core::FChainSlave makeSlave(HostId host, std::vector<ComponentId> ids) {
  core::FChainSlave slave(host);
  for (ComponentId id : ids) slave.addComponent(id, 0);
  for (TimeSec t = 0; t < 120; ++t) {
    for (ComponentId id : ids) {
      std::array<double, kMetricCount> sample{};
      for (std::size_t m = 0; m < kMetricCount; ++m) {
        sample[m] = 10.0 * static_cast<double>(m + 1) +
                    ((t * 7 + m * 13 + id * 29) % 17) * 0.25;
      }
      slave.ingestAt(id, t, sample);
    }
  }
  return slave;
}

std::string unixSpec(const std::string& name) {
  return ::testing::TempDir() + "/" + name + ".sock";
}

SocketEndpointConfig endpointConfig(const SocketAddress& address,
                                    obs::MetricRegistry* registry = nullptr) {
  SocketEndpointConfig config;
  config.address = address;
  config.connect_timeout_ms = 2000.0;
  config.io_timeout_ms = 5000.0;
  config.registry = registry;
  return config;
}

// --- Round trips over both address families --------------------------------

TEST(SocketTransport, RoundTripsOverUnixSocket) {
  core::FChainSlave slave = makeSlave(0, {0, 1});
  core::SlaveServiceConfig service_config;
  service_config.listen = SocketAddress::unixPath(unixSpec("rt_unix"));
  core::SlaveService service(slave, service_config);
  service.start();

  SocketEndpoint endpoint(endpointConfig(service.address()));
  const ComponentListReply listed = endpoint.listComponents();
  ASSERT_EQ(listed.status, EndpointStatus::Ok);
  EXPECT_EQ(listed.components, (std::vector<ComponentId>{0, 1}));
  EXPECT_EQ(endpoint.host(), 0u);
  EXPECT_EQ(endpoint.identity(), wire::slaveIdentityHash(0, {0, 1}));
  EXPECT_TRUE(endpoint.connected());

  // Streaming ingest lands in the live slave.
  IngestRequest ingest;
  ingest.component = 0;
  ingest.t = 120;
  ingest.sample.fill(42.0);
  EXPECT_EQ(endpoint.ingest(ingest).status, EndpointStatus::Ok);
  EXPECT_EQ(slave.seriesOf(0)->endTime(), 121);  // one past the new sample

  // Batched analysis round-trips, nullopt slots included, and matches the
  // local call bit-for-bit.
  AnalyzeBatchRequest batch;
  batch.components = {0, 1, 9};
  batch.violation_time = 110;
  const AnalyzeBatchReply reply = endpoint.analyzeBatch(batch);
  ASSERT_EQ(reply.status, EndpointStatus::Ok);
  ASSERT_EQ(reply.findings.size(), 3u);
  EXPECT_FALSE(reply.findings[2].has_value());  // unknown component
  const auto local = slave.analyzeBatch({0, 1, 9}, 110);
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(reply.findings[i].has_value(), local[i].has_value());
    if (!local[i].has_value()) continue;
    EXPECT_EQ(reply.findings[i]->onset, local[i]->onset);
    ASSERT_EQ(reply.findings[i]->metrics.size(), local[i]->metrics.size());
    for (std::size_t m = 0; m < local[i]->metrics.size(); ++m) {
      EXPECT_EQ(reply.findings[i]->metrics[m].prediction_error,
                local[i]->metrics[m].prediction_error);  // bit-exact f64
    }
  }

  // The single-component adapter goes through the same batch RPC.
  AnalyzeRequest single;
  single.component = 0;
  single.violation_time = 110;
  const AnalyzeReply one = endpoint.analyze(single);
  EXPECT_EQ(one.status, EndpointStatus::Ok);
  EXPECT_EQ(one.finding.has_value(), local[0].has_value());

  service.stop();
}

TEST(SocketTransport, RoundTripsOverTcpLoopback) {
  core::FChainSlave slave = makeSlave(3, {7});
  core::SlaveServiceConfig service_config;
  service_config.listen = SocketAddress::tcp("127.0.0.1", 0);
  core::SlaveService service(slave, service_config);
  service.start();
  // Port 0 resolved to the kernel-assigned port.
  ASSERT_NE(service.address().port, 0);

  SocketEndpoint endpoint(endpointConfig(service.address()));
  const ComponentListReply listed = endpoint.listComponents();
  ASSERT_EQ(listed.status, EndpointStatus::Ok);
  EXPECT_EQ(listed.components, (std::vector<ComponentId>{7}));
  EXPECT_EQ(endpoint.host(), 3u);
  service.stop();
}

// --- Connection failures ----------------------------------------------------

TEST(SocketTransport, UnreachableServerIsUnavailableAfterBoundedRetries) {
  SocketEndpointConfig config =
      endpointConfig(SocketAddress::unixPath(unixSpec("nobody_home")));
  config.reconnect.max_attempts = 2;
  config.reconnect.base_backoff_ms = 1.0;
  config.reconnect.max_backoff_ms = 2.0;
  SocketEndpoint endpoint(config);
  EXPECT_EQ(endpoint.listComponents().status, EndpointStatus::Unavailable);
  EXPECT_FALSE(endpoint.connected());
}

TEST(SocketTransport, ReconnectsAfterServerRestartWithSameIdentity) {
  const std::string path = unixSpec("restart_same");
  core::FChainSlave slave = makeSlave(0, {0, 1});
  core::SlaveServiceConfig service_config;
  service_config.listen = SocketAddress::unixPath(path);

  SocketEndpoint endpoint(endpointConfig(service_config.listen));
  {
    core::SlaveService service(slave, service_config);
    service.start();
    ASSERT_EQ(endpoint.listComponents().status, EndpointStatus::Ok);
    service.stop();
  }
  // Server gone: the next call fails through the retry budget...
  EXPECT_NE(endpoint.listComponents().status, EndpointStatus::Ok);
  // ...and a restarted slave with the same manifest re-registers
  // idempotently (same identity hash, pinned connection heals).
  core::SlaveService service(slave, service_config);
  service.start();
  const ComponentListReply listed = endpoint.listComponents();
  ASSERT_EQ(listed.status, EndpointStatus::Ok);
  EXPECT_EQ(endpoint.identity(), wire::slaveIdentityHash(0, {0, 1}));
  service.stop();
}

TEST(SocketTransport, ReconnectToAStrangerIsRefused) {
  const std::string path = unixSpec("stranger");
  core::SlaveServiceConfig service_config;
  service_config.listen = SocketAddress::unixPath(path);

  SocketEndpoint endpoint(endpointConfig(service_config.listen));
  {
    core::FChainSlave slave = makeSlave(0, {0, 1});
    core::SlaveService service(slave, service_config);
    service.start();
    ASSERT_EQ(endpoint.listComponents().status, EndpointStatus::Ok);
    service.stop();
  }
  // A *different* slave (other component claims) now squats on the address:
  // the pinned identity refuses to migrate.
  core::FChainSlave imposter = makeSlave(0, {5, 6});
  core::SlaveService service(imposter, service_config);
  service.start();
  // The first call still holds the dead server's stream and consumes the
  // teardown (Dropped); the reconnect that follows reaches the imposter and
  // is refused by the identity pin — sticky for every later call.
  EXPECT_EQ(endpoint.listComponents().status, EndpointStatus::Dropped);
  EXPECT_EQ(endpoint.listComponents().status, EndpointStatus::Unavailable);
  EXPECT_EQ(endpoint.listComponents().status, EndpointStatus::Unavailable);
  service.stop();
}

// --- Raw fake servers: torn / corrupt / version-mismatch frames -------------

/// Accepts one connection, performs a valid handshake, then answers the
/// next frame with `reply_bytes` sent verbatim (possibly truncated) and
/// closes. Lets the client-side taxonomy be tested byte-by-byte.
class FakeServer {
 public:
  explicit FakeServer(std::vector<std::uint8_t> reply_bytes,
                      bool close_mid_handshake = false)
      : reply_bytes_(std::move(reply_bytes)) {
    listener_ = Listener::listenOn(
        SocketAddress::unixPath(unixSpec("fake_" + std::to_string(next_++))));
    thread_ = std::thread([this, close_mid_handshake] {
      Socket conn = listener_.accept(5000.0);
      if (!conn.valid()) return;
      std::vector<std::uint8_t> frame;
      if (conn.recvFrame(frame, 5000.0) != RecvStatus::Ok) return;  // Hello
      if (close_mid_handshake) {
        // Send half the HelloReply, then die: torn handshake.
        wire::HelloReply hello;
        hello.host = 0;
        hello.components = {0};
        hello.identity_hash = wire::slaveIdentityHash(0, {0});
        const std::vector<std::uint8_t> full = encodeHelloReply(hello);
        const std::vector<std::uint8_t> half(full.begin(),
                                             full.begin() + full.size() / 2);
        conn.sendAll(half, 5000.0);
        return;
      }
      wire::HelloReply hello;
      hello.host = 0;
      hello.components = {0};
      hello.identity_hash = wire::slaveIdentityHash(0, {0});
      if (!conn.sendAll(encodeHelloReply(hello), 5000.0)) return;
      if (conn.recvFrame(frame, 5000.0) != RecvStatus::Ok) return;
      conn.sendAll(reply_bytes_, 5000.0);
      // Closing here turns a truncated reply into a torn frame client-side.
    });
  }
  ~FakeServer() {
    if (thread_.joinable()) thread_.join();
  }
  const SocketAddress& address() const { return listener_.address(); }

 private:
  static inline int next_ = 0;
  std::vector<std::uint8_t> reply_bytes_;
  Listener listener_;
  std::thread thread_;
};

TEST(SocketTransport, TornReplyFrameIsDropped) {
  // A valid IngestReply cut in half: the peer died mid-send.
  const std::vector<std::uint8_t> full =
      wire::encodeIngestReply({EndpointStatus::Ok, 0.0});
  obs::MetricRegistry registry;
  FakeServer server({full.begin(), full.begin() + full.size() / 2});
  SocketEndpointConfig config = endpointConfig(server.address(), &registry);
  config.reconnect.max_attempts = 1;  // no second server to reconnect to
  SocketEndpoint endpoint(config);
  IngestRequest request;
  request.component = 0;
  request.t = 0;
  EXPECT_EQ(endpoint.ingest(request).status, EndpointStatus::Dropped);
  EXPECT_FALSE(endpoint.connected());  // torn stream cannot resync
  EXPECT_EQ(registry.counter("runtime.socket.torn_frames").value(), 1u);
}

TEST(SocketTransport, TornHandshakeIsRetriedThenUnavailable) {
  obs::MetricRegistry registry;
  FakeServer server({}, /*close_mid_handshake=*/true);
  SocketEndpointConfig config = endpointConfig(server.address(), &registry);
  config.reconnect.max_attempts = 1;
  SocketEndpoint endpoint(config);
  EXPECT_EQ(endpoint.listComponents().status, EndpointStatus::Unavailable);
  EXPECT_EQ(registry.counter("runtime.socket.torn_frames").value(), 1u);
}

TEST(SocketTransport, CorruptReplyFrameIsDroppedAndCounted) {
  std::vector<std::uint8_t> damaged =
      wire::encodeIngestReply({EndpointStatus::Ok, 0.0});
  damaged[damaged.size() - 1] ^= 0x40;  // payload bit flip: CRC mismatch
  obs::MetricRegistry registry;
  FakeServer server(damaged);
  SocketEndpointConfig config = endpointConfig(server.address(), &registry);
  config.reconnect.max_attempts = 1;
  SocketEndpoint endpoint(config);
  IngestRequest request;
  request.component = 0;
  request.t = 0;
  EXPECT_EQ(endpoint.ingest(request).status, EndpointStatus::Dropped);
  EXPECT_EQ(registry.counter("runtime.socket.crc_errors").value(), 1u);
}

TEST(SocketTransport, FutureVersionReplyFailsFastAndSticks) {
  // A frame stamped with a future protocol version: Unavailable, and the
  // endpoint must not reconnect-storm a peer that will never speak v1.
  persist::Encoder payload;
  payload.u8(static_cast<std::uint8_t>(wire::MsgType::IngestReply));
  payload.u8(0);
  payload.f64(0.0);
  const std::vector<std::uint8_t> future =
      persist::frame(wire::kWireMagic, wire::kWireVersion + 1,
                     payload.buffer());
  obs::MetricRegistry registry;
  FakeServer server(future);
  SocketEndpoint endpoint(endpointConfig(server.address(), &registry));
  IngestRequest request;
  request.component = 0;
  request.t = 0;
  EXPECT_EQ(endpoint.ingest(request).status, EndpointStatus::Unavailable);
  // Sticky: the next call fails fast without a fresh connect attempt.
  const std::uint64_t connects_before =
      registry.counter("runtime.socket.connects").value();
  EXPECT_EQ(endpoint.ingest(request).status, EndpointStatus::Unavailable);
  EXPECT_EQ(registry.counter("runtime.socket.connects").value(),
            connects_before);
}

TEST(SocketTransport, OversizedFrameHeaderIsRejectedBeforeAllocation) {
  // Header declares a payload far past kMaxFramePayload; the reader must
  // refuse at the header, never allocate, never hang waiting for 2^40 bytes.
  persist::Encoder e;
  e.u32(wire::kWireMagic);
  e.u32(wire::kWireVersion);
  e.u64(1ull << 40);
  e.u32(0);  // crc (never reached)
  obs::MetricRegistry registry;
  FakeServer server(e.buffer());
  SocketEndpointConfig config = endpointConfig(server.address(), &registry);
  config.reconnect.max_attempts = 1;
  SocketEndpoint endpoint(config);
  IngestRequest request;
  request.component = 0;
  request.t = 0;
  EXPECT_EQ(endpoint.ingest(request).status, EndpointStatus::Dropped);
  EXPECT_EQ(registry.counter("runtime.socket.crc_errors").value(), 1u);
}

// --- Server-side damage handling -------------------------------------------

TEST(SocketTransport, ServerRejectsCorruptFrameWithErrorAndCloses) {
  core::FChainSlave slave = makeSlave(0, {0});
  core::SlaveServiceConfig service_config;
  service_config.listen = SocketAddress::unixPath(unixSpec("srv_corrupt"));
  obs::MetricRegistry registry;
  service_config.registry = &registry;
  core::SlaveService service(slave, service_config);
  service.start();

  Socket conn = Socket::connectTo(service.address(), 2000.0);
  ASSERT_TRUE(conn.valid());
  std::vector<std::uint8_t> damaged = wire::encodeHello(wire::Hello{});
  damaged.back() ^= 0x01;
  ASSERT_TRUE(conn.sendAll(damaged, 2000.0));
  std::vector<std::uint8_t> frame;
  ASSERT_EQ(conn.recvFrame(frame, 5000.0), RecvStatus::Ok);
  const wire::Message message = wire::decodeMessage(frame);
  const auto& error = std::get<wire::WireError>(message);
  EXPECT_EQ(error.code, wire::ErrorCode::BadRequest);
  EXPECT_NE(error.message.find("byte offset"), std::string::npos);
  // Connection is closed after damage: the next read sees EOF.
  EXPECT_EQ(conn.recvFrame(frame, 2000.0), RecvStatus::Closed);
  EXPECT_GE(registry.counter("runtime.socket.crc_errors").value(), 1u);
  service.stop();
}

TEST(SocketTransport, ServerRejectsFutureVersionHello) {
  core::FChainSlave slave = makeSlave(0, {0});
  core::SlaveServiceConfig service_config;
  service_config.listen = SocketAddress::unixPath(unixSpec("srv_version"));
  core::SlaveService service(slave, service_config);
  service.start();

  Socket conn = Socket::connectTo(service.address(), 2000.0);
  ASSERT_TRUE(conn.valid());
  // A Hello *frame* stamped v1 but whose body claims a future client.
  wire::Hello hello;
  hello.protocol_version = wire::kWireVersion + 7;
  ASSERT_TRUE(conn.sendAll(wire::encodeHello(hello), 2000.0));
  std::vector<std::uint8_t> frame;
  ASSERT_EQ(conn.recvFrame(frame, 5000.0), RecvStatus::Ok);
  const wire::Message message = wire::decodeMessage(frame);
  const auto& error = std::get<wire::WireError>(message);
  EXPECT_EQ(error.code, wire::ErrorCode::VersionMismatch);
  service.stop();
}

// --- Split-brain guard over the wire ----------------------------------------

TEST(SocketTransport, SplitBrainSecondClaimantIsRejected) {
  // Two live processes both claim slave id 0 — with different component
  // sets, so different identity hashes. The second registration must throw,
  // and the registry must keep the first claim.
  core::FChainSlave real = makeSlave(0, {0, 1});
  core::FChainSlave rogue = makeSlave(0, {0, 1, 2});
  core::SlaveServiceConfig real_config;
  real_config.listen = SocketAddress::unixPath(unixSpec("split_real"));
  core::SlaveServiceConfig rogue_config;
  rogue_config.listen = SocketAddress::unixPath(unixSpec("split_rogue"));
  core::SlaveService real_service(real, real_config);
  core::SlaveService rogue_service(rogue, rogue_config);
  real_service.start();
  rogue_service.start();

  core::FChainMaster master;
  SlaveRegistry registry;
  const std::uint64_t identity = core::connectSlave(
      master, registry,
      std::make_shared<SocketEndpoint>(endpointConfig(real_service.address())));
  EXPECT_EQ(identity, wire::slaveIdentityHash(0, {0, 1}));
  EXPECT_THROW(
      core::connectSlave(master, registry,
                         std::make_shared<SocketEndpoint>(
                             endpointConfig(rogue_service.address()))),
      std::invalid_argument);
  EXPECT_EQ(registry.size(), 1u);

  // A *restarted* copy of the real slave (same claim, new process) is not
  // split-brain: the identical identity hash re-registers idempotently.
  core::FChainSlave restarted = makeSlave(0, {0, 1});
  core::SlaveServiceConfig restarted_config;
  restarted_config.listen = SocketAddress::unixPath(unixSpec("split_restart"));
  core::SlaveService restarted_service(restarted, restarted_config);
  restarted_service.start();
  core::FChainMaster master2;
  EXPECT_EQ(core::connectSlave(master2, registry,
                               std::make_shared<SocketEndpoint>(endpointConfig(
                                   restarted_service.address()))),
            identity);
  EXPECT_EQ(registry.size(), 1u);

  real_service.stop();
  rogue_service.stop();
  restarted_service.stop();
}

TEST(SocketTransport, RegistryClaimTaxonomy) {
  SlaveRegistry registry;
  EXPECT_EQ(registry.claim(0, 111), SlaveRegistry::Claim::Registered);
  EXPECT_EQ(registry.claim(0, 111), SlaveRegistry::Claim::Reregistered);
  EXPECT_EQ(registry.claim(0, 222), SlaveRegistry::Claim::Rejected);
  EXPECT_EQ(registry.claim(1, 222), SlaveRegistry::Claim::Registered);
  EXPECT_EQ(registry.size(), 2u);
  registry.release(0);
  EXPECT_EQ(registry.claim(0, 222), SlaveRegistry::Claim::Registered);
}

// --- Torn-reply modeling in the in-process chaos decorators ------------------

TEST(SocketTransport, FlakyEndpointModelsTornReplies) {
  core::FChainSlave slave = makeSlave(0, {0});
  FlakyConfig config;
  config.torn_reply_probability = 1.0;
  config.seed = 7;
  FlakyEndpoint endpoint(std::make_shared<LocalEndpoint>(&slave), config);
  IngestRequest request;
  request.component = 0;
  request.t = 500;
  // Torn delivery is Dropped — the retryable taxonomy, same as a real
  // socket's torn frame — and separately countable.
  EXPECT_EQ(endpoint.ingest(request).status, EndpointStatus::Dropped);
  AnalyzeBatchRequest batch;
  batch.components = {0};
  batch.violation_time = 100;
  EXPECT_EQ(endpoint.analyzeBatch(batch).status, EndpointStatus::Dropped);
  EXPECT_EQ(endpoint.tornReplies(), 2u);
}

TEST(SocketTransport, FlakyTornKnobOffPreservesSeededStreams) {
  // The torn-reply roll must not consume an RNG draw when disabled, or
  // every seeded FlakyEndpoint test in the repo would shift behavior.
  core::FChainSlave slave = makeSlave(0, {0});
  FlakyConfig with_knob;
  with_knob.drop_probability = 0.3;
  with_knob.latency_jitter_ms = 2.0;
  with_knob.seed = 99;
  FlakyConfig no_knob = with_knob;
  no_knob.torn_reply_probability = 0.0;  // explicit default
  FlakyEndpoint a(std::make_shared<LocalEndpoint>(&slave), with_knob);
  FlakyEndpoint b(std::make_shared<LocalEndpoint>(&slave), no_knob);
  for (int i = 0; i < 64; ++i) {
    IngestRequest request;
    request.component = 0;
    request.t = 200 + i;
    const IngestReply ra = a.ingest(request);
    const IngestReply rb = b.ingest(request);
    EXPECT_EQ(ra.status, rb.status);
    EXPECT_EQ(ra.latency_ms, rb.latency_ms);
  }
  EXPECT_EQ(a.tornReplies(), 0u);
}

TEST(SocketTransport, HungEndpointTornReleaseAbandonsParkedCalls) {
  core::FChainSlave slave = makeSlave(0, {0});
  auto endpoint = std::make_shared<HungEndpoint>(
      std::make_shared<LocalEndpoint>(&slave), /*start_hung=*/true);
  EndpointStatus parked_status = EndpointStatus::Ok;
  std::thread caller([&] {
    AnalyzeBatchRequest batch;
    batch.components = {0};
    batch.violation_time = 100;
    parked_status = endpoint->analyzeBatch(batch).status;
  });
  // inFlight() rises before the call parks; only a parked call is torn.
  while (endpoint->parked() == 0) std::this_thread::yield();
  // The peer dies mid-send: the parked call comes back Dropped, having
  // never reached the slave.
  endpoint->releaseWithTornReply();
  caller.join();
  EXPECT_EQ(parked_status, EndpointStatus::Dropped);
  EXPECT_EQ(endpoint->tornReplies(), 1u);
  // Calls after the torn release pass straight through.
  AnalyzeBatchRequest batch;
  batch.components = {0};
  batch.violation_time = 100;
  EXPECT_EQ(endpoint->analyzeBatch(batch).status, EndpointStatus::Ok);
  EXPECT_EQ(endpoint->tornReplies(), 1u);
}

// --- Metrics ----------------------------------------------------------------

TEST(SocketTransport, MetricsCountConnectsAndFrames) {
  core::FChainSlave slave = makeSlave(0, {0});
  core::SlaveServiceConfig service_config;
  service_config.listen = SocketAddress::unixPath(unixSpec("metrics"));
  core::SlaveService service(slave, service_config);
  service.start();

  obs::MetricRegistry registry;
  SocketEndpoint endpoint(endpointConfig(service.address(), &registry));
  ASSERT_EQ(endpoint.listComponents().status, EndpointStatus::Ok);
  EXPECT_EQ(registry.counter("runtime.socket.connects").value(), 1u);
  EXPECT_EQ(registry.counter("runtime.socket.reconnects").value(), 0u);
  // Handshake (Hello + ListComponents) = 2 frames each way.
  EXPECT_EQ(registry.counter("runtime.socket.frames_tx").value(), 2u);
  EXPECT_EQ(registry.counter("runtime.socket.frames_rx").value(), 2u);

  // Force a reconnect: disconnect client-side, call again.
  endpoint.disconnect();
  ASSERT_EQ(endpoint.listComponents().status, EndpointStatus::Ok);
  EXPECT_EQ(registry.counter("runtime.socket.connects").value(), 2u);
  EXPECT_EQ(registry.counter("runtime.socket.reconnects").value(), 1u);
  EXPECT_EQ(registry.counter("runtime.socket.crc_errors").value(), 0u);
  EXPECT_EQ(registry.counter("runtime.socket.torn_frames").value(), 0u);
  service.stop();
}

// --- Address parsing ---------------------------------------------------------

TEST(SocketTransport, AddressSpecsParseAndRoundTrip) {
  const SocketAddress tcp = SocketAddress::parse("tcp:127.0.0.1:8431");
  EXPECT_EQ(tcp.kind, SocketAddress::Kind::Tcp);
  EXPECT_EQ(tcp.host, "127.0.0.1");
  EXPECT_EQ(tcp.port, 8431);
  EXPECT_EQ(tcp.str(), "tcp:127.0.0.1:8431");
  const SocketAddress unix_addr = SocketAddress::parse("unix:/tmp/x.sock");
  EXPECT_EQ(unix_addr.kind, SocketAddress::Kind::Unix);
  EXPECT_EQ(unix_addr.path, "/tmp/x.sock");
  EXPECT_EQ(unix_addr.str(), "unix:/tmp/x.sock");
  EXPECT_THROW(SocketAddress::parse("smoke:signals"), std::invalid_argument);
  EXPECT_THROW(SocketAddress::parse("tcp:localhost:notaport"),
               std::invalid_argument);
}

}  // namespace
}  // namespace fchain::runtime

/// \file net_test.cc
/// \brief Tests for the src/net subsystem below consensus: wire framing
/// (docs/WIRE_PROTOCOL.md), stream reassembly under every split point,
/// decode hardening against mutated/oversized/truncated frames, the
/// HTTP/1.1 server+client pair, flag/env configuration parsing, and both
/// Transport implementations (SimTransport over NetworkSim, TcpTransport
/// over real sockets including drop-mid-frame and reconnect).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <thread>
#include <vector>

#include "chain/network.h"
#include "common/metrics.h"
#include "crypto/drbg.h"
#include "net/config.h"
#include "net/frame.h"
#include "net/frame_client.h"
#include "tests/test_util.h"
#include "net/http.h"
#include "net/sim_transport.h"
#include "net/tcp_transport.h"
#include "serialize/rlp.h"

namespace confide::net {
namespace {

Bytes Body(std::string_view s) { return ToBytes(AsByteView(s)); }

/// Polls `pred` until true or ~5s elapsed (socket paths are async).
bool WaitFor(const std::function<bool()>& pred, uint64_t timeout_ms = 5000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

/// Reserves a free TCP port by binding :0 and closing (tests must pick
/// ports before constructing transports, whose peer table is fixed).
uint16_t PickPort() {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  uint16_t port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

/// Connects a raw client socket to 127.0.0.1:`port`.
int RawConnect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

// ---------------------------------------------------------------------------
// Frame encode/decode
// ---------------------------------------------------------------------------

TEST(FrameTest, EncodeProducesBigEndianLengthPrefix) {
  Bytes wire = EncodeFrame(MsgType::kSubmitTx, AsByteView("hello"));
  ASSERT_GT(wire.size(), kLengthPrefixBytes);
  const size_t payload = wire.size() - kLengthPrefixBytes;
  EXPECT_EQ(wire[0], uint8_t(payload >> 24));
  EXPECT_EQ(wire[1], uint8_t(payload >> 16));
  EXPECT_EQ(wire[2], uint8_t(payload >> 8));
  EXPECT_EQ(wire[3], uint8_t(payload));
}

TEST(FrameTest, EncodeDecodeRoundTrip) {
  const Bytes body = Body("round-trip body");
  Bytes wire = EncodeFrame(MsgType::kPrePrepare, body);
  auto frame = DecodeFramePayload(
      ByteView(wire.data() + kLengthPrefixBytes, wire.size() - kLengthPrefixBytes));
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->version, kWireVersion);
  EXPECT_EQ(frame->type, MsgType::kPrePrepare);
  EXPECT_EQ(ToBytes(frame->body), body);
}

TEST(FrameTest, EmptyBodyRoundTrips) {
  Bytes wire = EncodeFrame(MsgType::kQueryStatus, ByteView{});
  FrameAssembler assembler;
  assembler.Append(wire);
  FrameView frame;
  auto next = assembler.Next(&frame);
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(*next);
  EXPECT_EQ(frame.type, MsgType::kQueryStatus);
  EXPECT_TRUE(frame.body.empty());
  EXPECT_TRUE(assembler.Finish().ok());
}

TEST(FrameTest, DecodeRejectsUnknownVersion) {
  serialize::RlpWriter w;
  size_t list = w.BeginList();
  w.WriteU64(kWireVersion + 1);
  w.WriteU64(uint64_t(MsgType::kSubmitTx));
  w.WriteBytes(AsByteView("body"));
  w.EndList(list);
  Bytes payload = std::move(w).Take();
  EXPECT_FALSE(DecodeFramePayload(payload).ok());
}

TEST(FrameTest, DecodeRejectsOversizedTypeTag) {
  serialize::RlpWriter w;
  size_t list = w.BeginList();
  w.WriteU64(kWireVersion);
  w.WriteU64(300);  // does not fit the u8 MsgType space
  w.WriteBytes(AsByteView("body"));
  w.EndList(list);
  Bytes payload = std::move(w).Take();
  EXPECT_FALSE(DecodeFramePayload(payload).ok());
}

TEST(FrameTest, DecodeRejectsTrailingBytes) {
  Bytes wire = EncodeFrame(MsgType::kSubmitTx, AsByteView("x"));
  Bytes payload(wire.begin() + kLengthPrefixBytes, wire.end());
  payload.push_back(0x00);
  EXPECT_FALSE(DecodeFramePayload(payload).ok());
}

// ---------------------------------------------------------------------------
// FrameAssembler: reassembly, limits, truncation
// ---------------------------------------------------------------------------

TEST(FrameAssemblerTest, OneByteAtATime) {
  const Bytes body = Body("byte-at-a-time payload");
  Bytes wire = EncodeFrame(MsgType::kCommit, body);
  FrameAssembler assembler;
  FrameView frame;
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    assembler.Append(ByteView(&wire[i], 1));
    auto next = assembler.Next(&frame);
    ASSERT_TRUE(next.ok());
    EXPECT_FALSE(*next) << "frame completed early at byte " << i;
  }
  assembler.Append(ByteView(&wire.back(), 1));
  auto next = assembler.Next(&frame);
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(*next);
  EXPECT_EQ(frame.type, MsgType::kCommit);
  EXPECT_EQ(ToBytes(frame.body), body);
  EXPECT_TRUE(assembler.Finish().ok());
  EXPECT_EQ(assembler.buffered_bytes(), 0u);
}

TEST(FrameAssemblerTest, SplitAtEveryBoundary) {
  // Two frames back to back; split the stream at every byte offset.
  Bytes stream = EncodeFrame(MsgType::kPrepare, Body("first"));
  Bytes second = EncodeFrame(MsgType::kCommit, Body("second-frame"));
  stream.insert(stream.end(), second.begin(), second.end());

  for (size_t split = 0; split <= stream.size(); ++split) {
    FrameAssembler assembler;
    assembler.Append(ByteView(stream.data(), split));
    std::vector<MsgType> got;
    FrameView frame;
    while (true) {
      auto next = assembler.Next(&frame);
      ASSERT_TRUE(next.ok());
      if (!*next) break;
      got.push_back(frame.type);
    }
    assembler.Append(ByteView(stream.data() + split, stream.size() - split));
    while (true) {
      auto next = assembler.Next(&frame);
      ASSERT_TRUE(next.ok());
      if (!*next) break;
      got.push_back(frame.type);
    }
    ASSERT_EQ(got.size(), 2u) << "split at " << split;
    EXPECT_EQ(got[0], MsgType::kPrepare);
    EXPECT_EQ(got[1], MsgType::kCommit);
    EXPECT_TRUE(assembler.Finish().ok());
  }
}

TEST(FrameAssemblerTest, ManyFramesOneChunk) {
  Bytes stream;
  for (int i = 0; i < 10; ++i) {
    Bytes wire = EncodeFrame(MsgType::kSubmitTx, Body("frame " + std::to_string(i)));
    stream.insert(stream.end(), wire.begin(), wire.end());
  }
  FrameAssembler assembler;
  assembler.Append(stream);
  int count = 0;
  FrameView frame;
  while (true) {
    auto next = assembler.Next(&frame);
    ASSERT_TRUE(next.ok());
    if (!*next) break;
    EXPECT_EQ(ToBytes(frame.body), Body("frame " + std::to_string(count)));
    ++count;
  }
  EXPECT_EQ(count, 10);
}

TEST(FrameAssemblerTest, OversizedAnnouncementIsCorruptionNotAllocation) {
  // A length prefix near UINT32_MAX must be rejected from the 4 prefix
  // bytes alone — no buffering until the announced size "arrives".
  const Bytes prefix = {0xFF, 0xFF, 0xFF, 0xFF};
  FrameAssembler assembler;
  assembler.Append(prefix);
  FrameView frame;
  auto next = assembler.Next(&frame);
  EXPECT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kCorruption);
}

TEST(FrameAssemblerTest, CustomPayloadLimitEnforced) {
  Bytes wire = EncodeFrame(MsgType::kSubmitTx, Bytes(128, 0xAB));
  FrameAssembler small(64);
  small.Append(wire);
  FrameView frame;
  EXPECT_FALSE(small.Next(&frame).ok());
}

TEST(FrameAssemblerTest, TruncatedStreamFailsFinish) {
  Bytes wire = EncodeFrame(MsgType::kBlocksReply, Bytes(100, 0x42));
  FrameAssembler assembler;
  // Connection dropped mid-frame: prefix + half the payload.
  assembler.Append(ByteView(wire.data(), wire.size() / 2));
  FrameView frame;
  auto next = assembler.Next(&frame);
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(*next);
  Status finish = assembler.Finish();
  EXPECT_FALSE(finish.ok());
  EXPECT_EQ(finish.code(), StatusCode::kCorruption);
}

TEST(FrameAssemblerTest, TruncatedPrefixAloneFailsFinish) {
  FrameAssembler assembler;
  assembler.Append(Bytes{0x00, 0x00});
  FrameView frame;
  auto next = assembler.Next(&frame);
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(*next);
  EXPECT_FALSE(assembler.Finish().ok());
}

TEST(FrameAssemblerTest, EmptyStreamFinishesClean) {
  FrameAssembler assembler;
  EXPECT_TRUE(assembler.Finish().ok());
}

/// DecodeFuzzTest-style mutation sweep: single-byte mutations of a valid
/// frame must never crash or hang the assembler — every outcome is
/// either a (possibly different) decoded frame or a clean Corruption.
TEST(FrameAssemblerTest, SingleByteMutationsNeverCrash) {
  const Bytes wire = EncodeFrame(MsgType::kPrePrepare, Bytes(64, 0x5A));
  crypto::Drbg rng(0xF22);
  for (size_t pos = 0; pos < wire.size(); ++pos) {
    Bytes mutated = wire;
    mutated[pos] ^= uint8_t(1 + rng.NextBounded(255));
    FrameAssembler assembler;
    assembler.Append(mutated);
    FrameView frame;
    while (true) {
      auto next = assembler.Next(&frame);
      if (!next.ok()) break;  // corruption detected: acceptable
      if (!*next) break;      // incomplete: acceptable (length grew)
    }
  }
}

TEST(FrameAssemblerTest, RandomGarbageStreamsNeverCrash) {
  crypto::Drbg rng(77);
  for (int round = 0; round < 64; ++round) {
    Bytes garbage = rng.Generate(1 + rng.NextBounded(512));
    FrameAssembler assembler;
    assembler.Append(garbage);
    FrameView frame;
    while (true) {
      auto next = assembler.Next(&frame);
      if (!next.ok() || !*next) break;
    }
  }
}

// ---------------------------------------------------------------------------
// SplitHostPort / configuration parsing
// ---------------------------------------------------------------------------

TEST(SplitHostPortTest, ParsesHostAndPort) {
  auto hp = SplitHostPort("127.0.0.1:9001");
  ASSERT_TRUE(hp.ok());
  EXPECT_EQ(hp->first, "127.0.0.1");
  EXPECT_EQ(hp->second, 9001);
}

TEST(SplitHostPortTest, PortZeroMeansEphemeral) {
  auto hp = SplitHostPort("localhost:0");
  ASSERT_TRUE(hp.ok());
  EXPECT_EQ(hp->second, 0);
}

TEST(SplitHostPortTest, RejectsMalformedAddresses) {
  EXPECT_FALSE(SplitHostPort("no-port").ok());
  EXPECT_FALSE(SplitHostPort(":8080").ok());
  EXPECT_FALSE(SplitHostPort("host:").ok());
  EXPECT_FALSE(SplitHostPort("host:abc").ok());
  EXPECT_FALSE(SplitHostPort("host:70000").ok());
}

std::vector<char*> Argv(std::vector<std::string>& args) {
  std::vector<char*> argv;
  for (auto& arg : args) argv.push_back(arg.data());
  return argv;
}

TEST(ConfigTest, NodeFlagsParse) {
  std::vector<std::string> args = {
      "confided",          "--node-id=2",
      "--peers=a:1,b:2,c:3", "--listen-host=127.0.0.1",
      "--seed=7",          "--block-max-bytes=8192",
      "--parallelism=4",   "--state-dir=/tmp/wal",
      "--tick-ms=5",       "--metrics-out=m.json"};
  auto argv = Argv(args);
  auto cfg = NodeConfig::FromArgs(int(argv.size()), argv.data());
  ASSERT_TRUE(cfg.ok()) << cfg.status().ToString();
  EXPECT_EQ(cfg->node_id, 2u);
  ASSERT_EQ(cfg->peers.size(), 3u);
  EXPECT_EQ(cfg->peers[1], "b:2");
  EXPECT_EQ(cfg->listen_host, "127.0.0.1");
  EXPECT_EQ(cfg->seed, 7u);
  EXPECT_EQ(cfg->block_max_bytes, 8192u);
  EXPECT_EQ(cfg->parallelism, 4u);
  EXPECT_EQ(cfg->state_dir, "/tmp/wal");
  EXPECT_EQ(cfg->tick_ms, 5u);
  EXPECT_EQ(cfg->metrics_out, "m.json");
}

TEST(ConfigTest, PrepareStateDirCreatesMissingParents) {
  const auto root = std::filesystem::temp_directory_path() / "confide_state_dir_test";
  std::filesystem::remove_all(root);
  NodeConfig cfg;
  cfg.state_dir = (root / "a" / "b").string();
  ASSERT_TRUE(cfg.PrepareStateDir().ok());
  EXPECT_TRUE(std::filesystem::is_directory(cfg.state_dir));
  EXPECT_TRUE(cfg.PrepareStateDir().ok());  // existing dir: no-op
  // A regular file in the way is reported, not ignored.
  std::FILE* file = std::fopen((root / "file").string().c_str(), "wb");
  ASSERT_NE(file, nullptr);
  std::fclose(file);
  cfg.state_dir = (root / "file" / "c").string();
  EXPECT_FALSE(cfg.PrepareStateDir().ok());
  cfg.state_dir.clear();  // volatile: nothing to create
  EXPECT_TRUE(cfg.PrepareStateDir().ok());
  std::filesystem::remove_all(root);
}

TEST(ConfigTest, NodeIdMustIndexPeers) {
  std::vector<std::string> args = {"confided", "--node-id=3", "--peers=a:1,b:2"};
  auto argv = Argv(args);
  EXPECT_FALSE(NodeConfig::FromArgs(int(argv.size()), argv.data()).ok());
}

TEST(ConfigTest, BadPeerAddressRejected) {
  std::vector<std::string> args = {"confided", "--node-id=0", "--peers=noport"};
  auto argv = Argv(args);
  EXPECT_FALSE(NodeConfig::FromArgs(int(argv.size()), argv.data()).ok());
}

TEST(ConfigTest, EnvFallbackAndFlagPrecedence) {
  ::setenv("CONFIDED_SEED", "42", 1);
  ::setenv("CONFIDED_TICK_MS", "11", 1);
  std::vector<std::string> args = {"confided", "--peers=127.0.0.1:1",
                                   "--tick-ms=99"};
  auto argv = Argv(args);
  auto cfg = NodeConfig::FromArgs(int(argv.size()), argv.data());
  ::unsetenv("CONFIDED_SEED");
  ::unsetenv("CONFIDED_TICK_MS");
  ASSERT_TRUE(cfg.ok()) << cfg.status().ToString();
  EXPECT_EQ(cfg->seed, 42u);    // env fallback
  EXPECT_EQ(cfg->tick_ms, 99u); // flag beats env
}

TEST(ConfigTest, GatewayFlagsParse) {
  std::vector<std::string> args = {"confide_gateway", "--nodes=a:1,b:2",
                                   "--listen=127.0.0.1:9090"};
  auto argv = Argv(args);
  auto cfg = GatewayConfig::FromArgs(int(argv.size()), argv.data());
  ASSERT_TRUE(cfg.ok()) << cfg.status().ToString();
  ASSERT_EQ(cfg->nodes.size(), 2u);
  EXPECT_EQ(cfg->listen_host, "127.0.0.1");
  EXPECT_EQ(cfg->listen_port, 9090);
}

TEST(ConfigTest, SplitCommaListHandlesEmpty) {
  EXPECT_TRUE(SplitCommaList("").empty());
  EXPECT_EQ(SplitCommaList("one").size(), 1u);
  EXPECT_EQ(SplitCommaList("a,b,c").size(), 3u);
}

// ---------------------------------------------------------------------------
// HTTP server + client
// ---------------------------------------------------------------------------

TEST(HttpTest, RequestResponseRoundTripWithKeepAlive) {
  HttpServer server;
  std::atomic<int> requests{0};
  ASSERT_TRUE(server
                  .Start("127.0.0.1", 0,
                         [&](const HttpRequest& req) {
                           ++requests;
                           if (req.method == "POST") {
                             return HttpResponse::Json(200, req.body);
                           }
                           return HttpResponse::Json(200, "\"" + req.path + "\"");
                         })
                  .ok());
  ASSERT_NE(server.port(), 0);

  auto client = HttpClient::Connect("http://127.0.0.1:" +
                                    std::to_string(server.port()));
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto get = client->Get("/v1/status");
  ASSERT_TRUE(get.ok()) << get.status().ToString();
  EXPECT_EQ(get->status, 200);
  EXPECT_EQ(get->body, "\"/v1/status\"");

  // Second request on the same kept-alive connection.
  auto post = client->Post("/v1/tx", "{\"tx\":\"00\"}");
  ASSERT_TRUE(post.ok()) << post.status().ToString();
  EXPECT_EQ(post->body, "{\"tx\":\"00\"}");
  EXPECT_EQ(requests.load(), 2);
  server.Stop();
}

TEST(HttpTest, HeaderKeysAreLowerCased) {
  HttpServer server;
  std::string seen;
  std::mutex mu;
  ASSERT_TRUE(server
                  .Start("127.0.0.1", 0,
                         [&](const HttpRequest& req) {
                           std::lock_guard<std::mutex> lock(mu);
                           auto it = req.headers.find("content-type");
                           seen = it == req.headers.end() ? "" : it->second;
                           return HttpResponse::Text(200, "ok");
                         })
                  .ok());
  auto client = HttpClient::Connect("http://127.0.0.1:" +
                                    std::to_string(server.port()));
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Post("/x", "{}", "application/json").ok());
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(seen, "application/json");
  server.Stop();
}

TEST(HttpTest, ErrorStatusPropagatesToClient) {
  HttpServer server;
  ASSERT_TRUE(server
                  .Start("127.0.0.1", 0,
                         [](const HttpRequest&) {
                           return HttpResponse::Json(404, "{\"error\":\"nope\"}");
                         })
                  .ok());
  auto client = HttpClient::Connect("http://127.0.0.1:" +
                                    std::to_string(server.port()));
  ASSERT_TRUE(client.ok());
  auto resp = client->Get("/missing");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 404);
  EXPECT_EQ(resp->body, "{\"error\":\"nope\"}");
  server.Stop();
}

TEST(HttpTest, MalformedRequestLineGets400) {
  HttpServer server;
  ASSERT_TRUE(server
                  .Start("127.0.0.1", 0,
                         [](const HttpRequest&) {
                           return HttpResponse::Text(200, "unreachable");
                         })
                  .ok());
  int fd = RawConnect(server.port());
  const char* junk = "THIS IS NOT HTTP\r\n\r\n";
  ASSERT_GT(::send(fd, junk, std::strlen(junk), MSG_NOSIGNAL), 0);
  char buf[256];
  ssize_t n = ::recv(fd, buf, sizeof(buf) - 1, 0);
  ASSERT_GT(n, 0);
  buf[n] = '\0';
  EXPECT_NE(std::strstr(buf, "400"), nullptr) << buf;
  ::close(fd);
  server.Stop();
}

TEST(HttpTest, OversizedBodyRejectedWithoutBuffering) {
  HttpServer server;
  ASSERT_TRUE(server
                  .Start("127.0.0.1", 0,
                         [](const HttpRequest&) {
                           return HttpResponse::Text(200, "unreachable");
                         })
                  .ok());
  // Announce a body over the limit; the server must refuse from the
  // header alone instead of buffering 4 MiB+.
  int fd = RawConnect(server.port());
  std::string req = "POST /v1/tx HTTP/1.1\r\nHost: x\r\nContent-Length: " +
                    std::to_string(kMaxHttpBodyBytes + 1) + "\r\n\r\n";
  ASSERT_GT(::send(fd, req.data(), req.size(), MSG_NOSIGNAL), 0);
  char buf[256];
  ssize_t n = ::recv(fd, buf, sizeof(buf) - 1, 0);
  ASSERT_GT(n, 0);
  buf[n] = '\0';
  EXPECT_NE(std::strstr(buf, "413"), nullptr) << buf;
  ::close(fd);
  server.Stop();
}

// ---------------------------------------------------------------------------
// SimTransport over NetworkSim
// ---------------------------------------------------------------------------

struct RecordingEndpoint {
  std::mutex mu;
  std::vector<std::pair<uint32_t, Bytes>> received;  // (from, body)

  Transport::HandlerFn Handler(std::optional<MsgType> reply_type = std::nullopt) {
    return [this, reply_type](uint32_t from, MsgType,
                              ByteView body) -> std::optional<OwnedFrame> {
      {
        std::lock_guard<std::mutex> lock(mu);
        received.emplace_back(from, ToBytes(body));
      }
      if (reply_type.has_value()) {
        return OwnedFrame{*reply_type, ToBytes(body)};
      }
      return std::nullopt;
    };
  }

  size_t Count() {
    std::lock_guard<std::mutex> lock(mu);
    return received.size();
  }
};

TEST(SimTransportTest, BroadcastReachesAllPeersOnDeliver) {
  chain::NetworkSim sim = chain::NetworkSim::SingleZone(3);
  SimHub hub(&sim, /*seed=*/1);
  SimTransport t0(&hub, 0), t1(&hub, 1), t2(&hub, 2);
  RecordingEndpoint r1, r2;
  t1.SetHandler(r1.Handler());
  t2.SetHandler(r2.Handler());
  ASSERT_TRUE(t0.Start().ok());
  ASSERT_TRUE(t1.Start().ok());
  ASSERT_TRUE(t2.Start().ok());
  EXPECT_EQ(t0.cluster_size(), 3u);

  ASSERT_TRUE(t0.Broadcast(MsgType::kPrepare, AsByteView("vote")).ok());
  EXPECT_EQ(hub.pending(), 2u);  // queued, not yet delivered
  EXPECT_EQ(r1.Count(), 0u);
  EXPECT_EQ(hub.DeliverAll(), 2u);
  ASSERT_EQ(r1.Count(), 1u);
  ASSERT_EQ(r2.Count(), 1u);
  EXPECT_EQ(r1.received[0].first, 0u);
  EXPECT_EQ(r1.received[0].second, Body("vote"));
}

TEST(SimTransportTest, RepliesTravelBackThroughTheMedium) {
  chain::NetworkSim sim = chain::NetworkSim::SingleZone(2);
  SimHub hub(&sim, 1);
  SimTransport t0(&hub, 0), t1(&hub, 1);
  RecordingEndpoint r0, r1;
  t0.SetHandler(r0.Handler());
  t1.SetHandler(r1.Handler(MsgType::kStatusReply));  // echoes as a reply
  ASSERT_TRUE(t0.Start().ok());
  ASSERT_TRUE(t1.Start().ok());

  ASSERT_TRUE(t0.Send(1, MsgType::kQueryStatus, AsByteView("ping")).ok());
  hub.DeliverAll();  // request, then the re-enqueued reply
  ASSERT_EQ(r1.Count(), 1u);
  ASSERT_EQ(r0.Count(), 1u);
  EXPECT_EQ(r0.received[0].first, 1u);
  EXPECT_EQ(r0.received[0].second, Body("ping"));
}

TEST(SimTransportTest, PartitionBlocksDeliveryUntilHealed) {
  chain::NetworkSim sim = chain::NetworkSim::SingleZone(2);
  SimHub hub(&sim, 1);
  SimTransport t0(&hub, 0), t1(&hub, 1);
  RecordingEndpoint r1;
  t1.SetHandler(r1.Handler());
  ASSERT_TRUE(t0.Start().ok());
  ASSERT_TRUE(t1.Start().ok());

  ASSERT_TRUE(sim.SetPartition(1, 1).ok());
  ASSERT_TRUE(t0.Send(1, MsgType::kPrepare, AsByteView("lost")).ok());
  hub.DeliverAll();
  EXPECT_EQ(r1.Count(), 0u);  // dropped at the medium, like a real split

  sim.HealPartitions();
  ASSERT_TRUE(t0.Send(1, MsgType::kPrepare, AsByteView("heals")).ok());
  hub.DeliverAll();
  ASSERT_EQ(r1.Count(), 1u);
  EXPECT_EQ(r1.received[0].second, Body("heals"));
}

TEST(SimTransportTest, StoppedEndpointDropsFrames) {
  chain::NetworkSim sim = chain::NetworkSim::SingleZone(2);
  SimHub hub(&sim, 1);
  SimTransport t0(&hub, 0), t1(&hub, 1);
  RecordingEndpoint r1;
  t1.SetHandler(r1.Handler());
  ASSERT_TRUE(t0.Start().ok());
  ASSERT_TRUE(t1.Start().ok());
  t1.Stop();
  ASSERT_TRUE(t0.Send(1, MsgType::kCommit, AsByteView("gone")).ok());
  hub.DeliverAll();
  EXPECT_EQ(r1.Count(), 0u);
}

// ---------------------------------------------------------------------------
// TcpTransport over real sockets
// ---------------------------------------------------------------------------

class TcpPairTest : public ::testing::Test {
 protected:
  void SetUp() override {
    uint16_t p0 = PickPort(), p1 = PickPort();
    peers_ = {"127.0.0.1:" + std::to_string(p0),
              "127.0.0.1:" + std::to_string(p1)};
    t0_ = MakeTransport(0);
    t1_ = MakeTransport(1);
  }

  std::unique_ptr<TcpTransport> MakeTransport(uint32_t self_id) {
    TcpTransportOptions options;
    options.self_id = self_id;
    options.peers = peers_;
    options.listen_host = "127.0.0.1";
    return std::make_unique<TcpTransport>(options);
  }

  void TearDown() override {
    if (t0_) t0_->Stop();
    if (t1_) t1_->Stop();
  }

  std::vector<std::string> peers_;
  std::unique_ptr<TcpTransport> t0_, t1_;
};

TEST_F(TcpPairTest, HelloIdentifiesPeerAndFramesFlow) {
  RecordingEndpoint r0, r1;
  t0_->SetHandler(r0.Handler());
  t1_->SetHandler(r1.Handler());
  ASSERT_TRUE(t0_->Start().ok());
  ASSERT_TRUE(t1_->Start().ok());

  const Bytes body = Body("pre-prepare bytes");
  ASSERT_TRUE(t0_->Send(1, MsgType::kPrePrepare, body).ok());
  ASSERT_TRUE(WaitFor([&] { return r1.Count() >= 1; }));
  std::lock_guard<std::mutex> lock(r1.mu);
  EXPECT_EQ(r1.received[0].first, 0u);  // kHello identified the sender
  EXPECT_EQ(r1.received[0].second, body);
}

TEST_F(TcpPairTest, ReplyFramesComeBackOnTheSameConnection) {
  RecordingEndpoint r0, r1;
  t0_->SetHandler(r0.Handler());
  t1_->SetHandler(r1.Handler(MsgType::kStatusReply));
  ASSERT_TRUE(t0_->Start().ok());
  ASSERT_TRUE(t1_->Start().ok());

  ASSERT_TRUE(t0_->Send(1, MsgType::kQueryStatus, AsByteView("q")).ok());
  ASSERT_TRUE(WaitFor([&] { return r0.Count() >= 1; }));
  std::lock_guard<std::mutex> lock(r0.mu);
  EXPECT_EQ(r0.received[0].first, 1u);
  EXPECT_EQ(r0.received[0].second, Body("q"));
}

TEST_F(TcpPairTest, LargeFrameSurvivesShortWrites) {
  RecordingEndpoint r1;
  t1_->SetHandler(r1.Handler());
  ASSERT_TRUE(t0_->Start().ok());
  ASSERT_TRUE(t1_->Start().ok());

  Bytes big(1u << 20, 0xCD);  // 1 MiB: forces the short-write loop
  ASSERT_TRUE(t0_->Send(1, MsgType::kBlocksReply, big).ok());
  ASSERT_TRUE(WaitFor([&] { return r1.Count() >= 1; }, 10000));
  std::lock_guard<std::mutex> lock(r1.mu);
  EXPECT_EQ(r1.received[0].second, big);
}

TEST_F(TcpPairTest, SendToSelfOrUnknownPeerRejected) {
  ASSERT_TRUE(t0_->Start().ok());
  EXPECT_FALSE(t0_->Send(0, MsgType::kPrepare, AsByteView("x")).ok());
  EXPECT_FALSE(t0_->Send(9, MsgType::kPrepare, AsByteView("x")).ok());
}

TEST_F(TcpPairTest, ConnectionDropMidFrameCountsCorruption) {
  RecordingEndpoint r0;
  t0_->SetHandler(r0.Handler());
  ASSERT_TRUE(t0_->Start().ok());

  auto* corrupt = metrics::GetCounter("net.frame.corrupt.count");
  const uint64_t before = corrupt->Value();

  // A raw peer sends a valid prefix plus half the payload, then drops.
  Bytes wire = EncodeFrame(MsgType::kSubmitTx, Bytes(256, 0x11));
  int fd = RawConnect(t0_->listen_port());
  ASSERT_GT(::send(fd, wire.data(), wire.size() / 2, MSG_NOSIGNAL), 0);
  ::close(fd);

  ASSERT_TRUE(WaitFor([&] { return corrupt->Value() > before; }));
  EXPECT_EQ(r0.Count(), 0u);  // the partial frame never reached the handler
}

TEST_F(TcpPairTest, OversizedAnnouncementDropsConnection) {
  RecordingEndpoint r0;
  t0_->SetHandler(r0.Handler());
  ASSERT_TRUE(t0_->Start().ok());

  auto* corrupt = metrics::GetCounter("net.frame.corrupt.count");
  const uint64_t before = corrupt->Value();

  int fd = RawConnect(t0_->listen_port());
  const uint8_t huge[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_GT(::send(fd, huge, sizeof(huge), MSG_NOSIGNAL), 0);
  ASSERT_TRUE(WaitFor([&] { return corrupt->Value() > before; }));
  // The server closed the stream; the socket drains to EOF.
  char buf[16];
  ASSERT_TRUE(WaitFor([&] { return ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT) == 0; }));
  ::close(fd);
}

// ---------------------------------------------------------------------------
// FrameClient request/reply plane
// ---------------------------------------------------------------------------

TEST_F(TcpPairTest, FrameClientRoundTrip) {
  RecordingEndpoint r0;
  t0_->SetHandler(r0.Handler(MsgType::kStatusReply));
  ASSERT_TRUE(t0_->Start().ok());

  auto client = FrameClient::Dial(peers_[0]);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto reply = client->Call(MsgType::kQueryStatus, AsByteView("nonce-1"));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, MsgType::kStatusReply);
  EXPECT_EQ(reply->body, Body("nonce-1"));
}

TEST_F(TcpPairTest, ConcurrentClientsGetTheirOwnReplies) {
  t0_->SetHandler([](uint32_t, MsgType, ByteView body) -> std::optional<OwnedFrame> {
    return OwnedFrame{MsgType::kStatusReply, ToBytes(body)};
  });
  ASSERT_TRUE(t0_->Start().ok());

  constexpr int kThreads = 4, kCalls = 32;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      auto client = FrameClient::Dial(peers_[0]);
      ASSERT_TRUE(client.ok());
      for (int i = 0; i < kCalls; ++i) {
        const Bytes nonce = Body(testutil::Numbered("w", w) + ":" + std::to_string(i));
        auto reply = client->Call(MsgType::kQueryStatus, nonce);
        if (!reply.ok() || reply->body != nonce) ++mismatches;
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(TcpPairTest, FrameClientSurvivesServerRestart) {
  RecordingEndpoint r0;
  t0_->SetHandler(r0.Handler(MsgType::kStatusReply));
  ASSERT_TRUE(t0_->Start().ok());

  auto client = FrameClient::Dial(peers_[0]);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Call(MsgType::kQueryStatus, AsByteView("a")).ok());

  // Restart the node on the same port; the next Call must transparently
  // reconnect (one retry on a dead connection).
  t0_->Stop();
  t0_ = MakeTransport(0);
  t0_->SetHandler(r0.Handler(MsgType::kStatusReply));
  ASSERT_TRUE(t0_->Start().ok());

  Result<OwnedFrame> reply = Status::Unavailable("not sent");
  ASSERT_TRUE(WaitFor([&] {
    reply = client->Call(MsgType::kQueryStatus, AsByteView("b"));
    return reply.ok();
  }));
  EXPECT_EQ(reply->body, Body("b"));
}

}  // namespace
}  // namespace confide::net
